import math

import numpy as np
import pytest

from feberi.core import HBAR_EV_FS, DomainError, TlsSpec, TlsState
from feberi.coulomb import DipoleCoupling, m_tilde
from feberi.grid import MomentumGrid, circulant_block, interaction_window, \
    kernel_column
from feberi.qew import GaussianQewSpec, momentum_amplitudes
from feberi.solver_momentum import (
    MAX_RK4_STEPS,
    default_time_step,
    initial_amplitudes,
    integrate,
    step_schedule,
)
from helpers import default_packet, run_gaussian_scenario


def toeplitz_kernel(grid, coupling):
    """Dense Mt(p_m - p_n) in eV*nm: the leading block of the kernel column's circulant."""
    return circulant_block(kernel_column(grid, coupling), grid.n)


@pytest.fixture
def spec(kin, tls):
    return GaussianQewSpec.from_duration(kin, 0.1 * tls.period, t0=0.0)


class TestGrid:
    def test_spacing_and_centering(self, kin, spec, coupling):
        g = default_packet(spec, coupling, 256).grid
        assert g.dp == pytest.approx(2.0 * g.p_cutoff / 256, rel=1e-14)
        assert abs(np.mean(g.points) - kin.p0) <= g.dp / 2
        assert g.p_cutoff >= max(8 * spec.sigma_p0, 6 * abs(coupling.recoil_momentum))

    def test_shape_validation(self, kin):
        with pytest.raises(DomainError):
            MomentumGrid(n=17, p0=kin.p0, p_cutoff=1.0)
        with pytest.raises(DomainError):
            MomentumGrid(n=32, p0=kin.p0, p_cutoff=1.0)

    def test_tail_mass_recorded(self, kin, spec, coupling):
        g = default_packet(spec, coupling, 256).grid
        assert g.initial_tail_mass < 1e-8

    def test_second_moment_on_grid(self, kin, spec, coupling):
        g = default_packet(spec, coupling, 256).grid
        c = momentum_amplitudes(spec, g)
        m2 = np.sum((g.points - kin.p0) ** 2 * np.abs(c) ** 2) * g.dp
        assert m2 == pytest.approx(spec.sigma_p0**2, rel=1e-3)


def _kappa(g):
    return g.dp / (2.0j * math.pi * HBAR_EV_FS**2)


class TestCouplingMatrix:
    """The shared Toeplitz kernel Mt(p_m - p_n) is both solvers' coupling matrix."""

    def test_anti_hermitian_pairing(self, coupling, coupling_parallel, spec):
        # kappa is imaginary, so U21 = -U12^dagger holds iff the kernel is Hermitian
        g = default_packet(spec, coupling, 64).grid
        for cpl in (coupling, coupling_parallel):
            mt = toeplitz_kernel(g, cpl)
            np.testing.assert_allclose(mt, mt.conj().T, rtol=1e-12, atol=1e-20)
            u = _kappa(g) * mt
            np.testing.assert_allclose(u, -u.conj().T, rtol=1e-12, atol=1e-20)

    def test_phase_free_at_t0(self, coupling, spec):
        g = default_packet(spec, coupling, 64).grid
        k = np.arange(64)
        expected = _kappa(g) * m_tilde((k[:, None] - k[None, :]) * g.dp, coupling)
        np.testing.assert_allclose(_kappa(g) * toeplitz_kernel(g, coupling), expected,
                                   rtol=1e-12)

    def test_toeplitz_structure(self, coupling, coupling_parallel, spec):
        g = default_packet(spec, coupling, 64).grid
        for cpl in (coupling, coupling_parallel):
            mt = toeplitz_kernel(g, cpl)
            for d in (3, -5):
                diag = np.diag(mt, d)
                np.testing.assert_allclose(diag, np.full(64 - abs(d), diag[0]), rtol=1e-12)


def reference_integrate(state0, t_span, dt, grid, coupling, n_records):
    """The amplitude equations stepped by RK4 as written: the dense kernel, and a
    fresh exp of every phase at every stage.  Returns (times, p1, p2, e_free,
    norm, final (v1, v2)) on integrate's step and record schedule."""
    t_start, t_end = t_span
    n_steps = max(1, math.ceil((t_end - t_start) / dt))
    dt = (t_end - t_start) / n_steps
    mt = toeplitz_kernel(grid, coupling)
    energies = coupling.kin.dispersion(grid.points)
    w = energies / HBAR_EV_FS
    w21 = coupling.tls.energy_gap / HBAR_EV_FS

    def rhs(t, v):
        ph = np.exp(1j * w * t)
        y = ph * ((ph.conj() * v) @ mt.T)
        rot = np.exp(-1j * w21 * t)
        return _kappa(grid) * np.array([[rot], [np.conj(rot)]]) * y[::-1]

    def record(t, v):
        a = v.real ** 2 + v.imag ** 2
        p1, p2 = np.sum(a[0]) * grid.dp, np.sum(a[1]) * grid.dp
        rows.append((t, p1, p2, np.sum(energies * (a[0] + a[1])) * grid.dp, p1 + p2))

    record_every = max(1, n_steps // max(1, n_records))
    v = np.array([state0.v1, state0.v2], dtype=complex)
    rows = []
    record(t_start, v)
    t = t_start
    for step in range(n_steps):
        k1 = rhs(t, v)
        k2 = rhs(t + 0.5 * dt, v + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, v + 0.5 * dt * k2)
        k4 = rhs(t + dt, v + dt * k3)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t_start + (step + 1) * dt
        if (step + 1) % record_every == 0 or step == n_steps - 1:
            record(t, v)
    return (*np.array(rows).T, v)


class TestStageKernel:
    """integrate's FFT stage kernel against the reference loop above."""

    @pytest.mark.parametrize("state", [TlsState.ground(), TlsState.equatorial(0.4)],
                             ids=["ground", "equatorial"])
    @pytest.mark.parametrize("orientation", ["transverse", "parallel"],
                             ids=["transverse-rk4", "parallel-rk4"])
    def test_matches_reference_loop(self, coupling, coupling_parallel, spec, orientation,
                                    state):
        cpl = coupling if orientation == "transverse" else coupling_parallel
        g = default_packet(spec, cpl, 128).grid
        win = interaction_window(spec.sigma_et, cpl.transit_time, 0.0)
        s0 = initial_amplitudes(g, spec, state, win[0])
        dt = (win[1] - win[0]) / 302
        traj = integrate(s0, win, dt, g, cpl, n_records=7)
        times, p1, p2, e_free, norm, v = reference_integrate(s0, win, dt, g, cpl, 7)
        n_steps = round((win[1] - win[0]) / traj.dt)
        assert n_steps % (n_steps // 7) != 0    # the last record is off the schedule
        np.testing.assert_array_equal(traj.times, times)
        for got, want in ((traj.p1, p1), (traj.p2, p2), (traj.e_free, e_free),
                          (traj.norm, norm), (traj.final.v1, v[0]), (traj.final.v2, v[1])):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestIntegration:
    def test_negligible_coupling_static(self, kin, spec):
        tiny = TlsSpec.from_lab(2.0, 1e-8)
        cpl = DipoleCoupling(tiny, 2.4, kin)
        g = default_packet(spec, cpl, 128).grid
        win = interaction_window(spec.sigma_et, cpl.transit_time, 0.0)
        s0 = initial_amplitudes(g, spec, TlsState.ground(), win[0])
        traj = integrate(s0, win, default_time_step(g, cpl), g, cpl)
        assert traj.p2[-1] < 1e-20
        np.testing.assert_allclose(np.abs(traj.final.v1), np.abs(s0.v1), rtol=1e-10)

    def test_step_ceiling(self, coupling, spec):
        # a span of more than MAX_RK4_STEPS steps is refused before any step
        g = default_packet(spec, coupling, 128).grid
        s0 = initial_amplitudes(g, spec, TlsState.ground(), 0.0)
        dt = 1.0 / MAX_RK4_STEPS
        assert step_schedule((0.0, 1.0 + dt), dt, 1)[0] == MAX_RK4_STEPS + 1
        with pytest.raises(DomainError, match=f"{MAX_RK4_STEPS + 1} RK4 steps exceed"):
            integrate(s0, (0.0, 1.0 + dt), dt, g, coupling)

    def test_initial_factorization(self, coupling, spec):
        g = default_packet(spec, coupling, 128).grid
        state = TlsState.equatorial(0.9)
        s0 = initial_amplitudes(g, spec, state, -1.0)
        np.testing.assert_allclose(s0.v2 / s0.v1, state.c2 / state.c1, rtol=1e-12)

    def test_norm_conserved_rk4(self, coupling, spec):
        traj = run_gaussian_scenario(spec, TlsState.ground(), coupling, n=128)
        assert np.max(np.abs(traj.norm - 1.0)) < 1e-8

    def test_energy_bookkeeping(self, coupling, tls, spec):
        traj = run_gaussian_scenario(spec, TlsState.ground(), coupling, n=128)
        resid = (traj.e_free - traj.e_free[0]) + tls.energy_gap * (traj.p2 - traj.p2[0])
        assert np.max(np.abs(resid)) <= 1e-3 * tls.energy_gap

    def test_dt_halving_converged(self, coupling, spec):
        g = default_packet(spec, coupling, 128).grid
        win = interaction_window(spec.sigma_et, coupling.transit_time, 0.0)
        s0 = initial_amplitudes(g, spec, TlsState.ground(), win[0])
        dt = default_time_step(g, coupling)
        p_a = integrate(s0, win, dt, g, coupling).p2[-1]
        p_b = integrate(s0, win, dt / 2, g, coupling).p2[-1]
        assert abs(p_a / p_b - 1.0) < 1e-6

    def test_grid_doubling_converged(self, kin, coupling, spec):
        win = interaction_window(spec.sigma_et, coupling.transit_time, 0.0)
        finals = []
        for n in (128, 256):
            g = MomentumGrid(n=n, p0=kin.p0,
                             p_cutoff=max(8 * spec.sigma_p0,
                                          6 * abs(coupling.recoil_momentum)))
            s0 = initial_amplitudes(g, spec, TlsState.ground(), win[0])
            dt = default_time_step(g, coupling)
            finals.append(integrate(s0, win, dt, g, coupling).p2[-1])
        assert abs(finals[1] / finals[0] - 1.0) < 1e-4

    def test_superposition_increment(self, coupling, kin, tls):
        # zeta = pi/2 increment against the closed form, 2%
        from feberi.analytic import dp1_superposition
        state = TlsState.equatorial(math.pi / 2)
        t0 = math.pi / tls.omega_21
        spec = GaussianQewSpec.from_duration(kin, 0.1 * tls.period, t0=t0)
        traj = run_gaussian_scenario(spec, state, coupling, n=128)
        pred = dp1_superposition(coupling, state, t0, spec.sigma_et)
        assert traj.p2[-1] - traj.p2[0] == pytest.approx(pred, rel=0.02)
