import math

import numpy as np
import pytest

from feberi.core import HBAR_EV_FS, DomainError, TlsSpec, TlsState
from feberi.coulomb import DipoleCoupling, m_tilde
from feberi.grid import MomentumGrid, build_grid, circulant_block, interaction_window, \
    kernel_column
from feberi.qew import GaussianQewSpec, gaussian_momentum_amplitudes, grid_for_spec
from feberi.solver_momentum import (
    default_time_step,
    initial_amplitudes,
    integrate,
    run_gaussian_scenario,
)


def toeplitz_kernel(grid, coupling):
    """Dense Mt(p_m - p_n) in eV*nm: the leading block of the kernel column's circulant."""
    return circulant_block(kernel_column(grid, coupling), grid.n)


@pytest.fixture
def spec(kin, tls):
    return GaussianQewSpec.from_duration(kin, 0.1 * tls.period, t0=0.0)


class TestGrid:
    def test_spacing_and_centering(self, kin, spec, coupling):
        g = build_grid(kin, spec.sigma_p0, coupling.recoil_momentum, 256)
        assert g.dp == pytest.approx(2.0 * g.p_cutoff / 256, rel=1e-14)
        assert abs(np.mean(g.points) - kin.p0) <= g.dp / 2
        assert g.p_cutoff >= max(8 * spec.sigma_p0, 6 * abs(coupling.recoil_momentum))

    def test_shape_validation(self, kin):
        with pytest.raises(DomainError):
            MomentumGrid(n=17, p0=kin.p0, p_cutoff=1.0)
        with pytest.raises(DomainError):
            MomentumGrid(n=32, p0=kin.p0, p_cutoff=1.0)

    def test_tail_mass_recorded(self, kin, spec, coupling):
        g = build_grid(kin, spec.sigma_p0, coupling.recoil_momentum, 256)
        assert g.initial_tail_mass < 1e-8

    def test_second_moment_on_grid(self, kin, spec, coupling):
        g = build_grid(kin, spec.sigma_p0, coupling.recoil_momentum, 256)
        c = gaussian_momentum_amplitudes(spec, g)
        m2 = np.sum((g.points - kin.p0) ** 2 * np.abs(c) ** 2) * g.dp
        assert m2 == pytest.approx(spec.sigma_p0**2, rel=1e-3)


def _kappa(g):
    return g.dp / (2.0j * math.pi * HBAR_EV_FS**2)


class TestCouplingMatrix:
    """The shared Toeplitz kernel Mt(p_m - p_n) is both solvers' coupling matrix."""

    def test_anti_hermitian_pairing(self, coupling, coupling_parallel, spec):
        # kappa is imaginary, so U21 = -U12^dagger holds iff the kernel is Hermitian
        g = grid_for_spec(spec, coupling, 64)
        for cpl in (coupling, coupling_parallel):
            mt = toeplitz_kernel(g, cpl)
            np.testing.assert_allclose(mt, mt.conj().T, rtol=1e-12, atol=1e-20)
            u = _kappa(g) * mt
            np.testing.assert_allclose(u, -u.conj().T, rtol=1e-12, atol=1e-20)

    def test_phase_free_at_t0(self, coupling, spec):
        g = grid_for_spec(spec, coupling, 64)
        k = np.arange(64)
        expected = _kappa(g) * m_tilde((k[:, None] - k[None, :]) * g.dp, coupling)
        np.testing.assert_allclose(_kappa(g) * toeplitz_kernel(g, coupling), expected,
                                   rtol=1e-12)

    def test_toeplitz_structure(self, coupling, coupling_parallel, spec):
        g = grid_for_spec(spec, coupling, 64)
        for cpl in (coupling, coupling_parallel):
            mt = toeplitz_kernel(g, cpl)
            for d in (3, -5):
                diag = np.diag(mt, d)
                np.testing.assert_allclose(diag, np.full(64 - abs(d), diag[0]), rtol=1e-12)


def reference_integrate(state0, t_span, dt, grid, coupling, tls, n_records):
    """The amplitude equations stepped by RK4 as written: the dense kernel, and a
    fresh exp of every phase at every stage.  Returns (times, p1, p2, e_free,
    norm, final (v1, v2)) on integrate's step and record schedule."""
    t_start, t_end = t_span
    n_steps = max(1, math.ceil((t_end - t_start) / dt))
    dt = (t_end - t_start) / n_steps
    mt = toeplitz_kernel(grid, coupling)
    energies = coupling.kin.dispersion(grid.points)
    w = energies / HBAR_EV_FS
    w21 = tls.energy_gap / HBAR_EV_FS

    def rhs(t, v):
        ph = np.exp(1j * w * t)
        y = ph * ((ph.conj() * v) @ mt.T)
        rot = np.exp(-1j * w21 * t)
        return _kappa(grid) * np.array([[rot], [np.conj(rot)]]) * y[::-1]

    def record(t, v):
        a = np.abs(v) ** 2
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
    def test_matches_reference_loop(self, coupling, coupling_parallel, tls, spec,
                                    orientation, state):
        cpl = coupling if orientation == "transverse" else coupling_parallel
        g = grid_for_spec(spec, cpl, 128)
        win = interaction_window(spec.sigma_et, cpl.geometry.transit_time, 0.0)
        s0 = initial_amplitudes(g, spec, state, win[0])
        dt = (win[1] - win[0]) / 302
        traj = integrate(s0, win, dt, g, cpl, tls, n_records=7)
        times, p1, p2, e_free, norm, v = reference_integrate(s0, win, dt, g, cpl, tls, 7)
        n_steps = round((win[1] - win[0]) / traj.dt)
        assert n_steps % (n_steps // 7) != 0    # the last record is off the schedule
        np.testing.assert_array_equal(traj.times, times)
        for got, want in ((traj.p1, p1), (traj.p2, p2), (traj.e_free, e_free),
                          (traj.norm, norm), (traj.final.v1, v[0]), (traj.final.v2, v[1])):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestIntegration:
    def test_negligible_coupling_static(self, geometry, kin, spec):
        tiny = TlsSpec.from_lab(2.0, 1e-8)
        cpl = DipoleCoupling(tiny, geometry, kin)
        g = grid_for_spec(spec, cpl, 128)
        win = interaction_window(spec.sigma_et, geometry.transit_time, 0.0)
        s0 = initial_amplitudes(g, spec, TlsState.ground(), win[0])
        traj = integrate(s0, win, default_time_step(g, cpl, tiny), g, cpl, tiny)
        assert traj.p2[-1] < 1e-20
        np.testing.assert_allclose(np.abs(traj.final.v1), np.abs(s0.v1), rtol=1e-10)

    def test_initial_factorization(self, coupling, spec):
        g = grid_for_spec(spec, coupling, 128)
        state = TlsState.equatorial(0.9)
        s0 = initial_amplitudes(g, spec, state, -1.0)
        np.testing.assert_allclose(s0.v2 / s0.v1, state.c2 / state.c1, rtol=1e-12)

    def test_norm_conserved_rk4(self, coupling, tls, spec):
        traj = run_gaussian_scenario(spec, TlsState.ground(), coupling, tls, n=128)
        assert np.max(np.abs(traj.norm - 1.0)) < 1e-8

    def test_energy_bookkeeping(self, coupling, tls, spec):
        traj = run_gaussian_scenario(spec, TlsState.ground(), coupling, tls, n=128)
        resid = (traj.e_free - traj.e_free[0]) + tls.energy_gap * (traj.p2 - traj.p2[0])
        assert np.max(np.abs(resid)) <= 1e-3 * tls.energy_gap

    def test_dt_halving_converged(self, coupling, tls, spec):
        g = grid_for_spec(spec, coupling, 128)
        win = interaction_window(spec.sigma_et, coupling.geometry.transit_time, 0.0)
        s0 = initial_amplitudes(g, spec, TlsState.ground(), win[0])
        dt = default_time_step(g, coupling, tls)
        p_a = integrate(s0, win, dt, g, coupling, tls).p2[-1]
        p_b = integrate(s0, win, dt / 2, g, coupling, tls).p2[-1]
        assert abs(p_a / p_b - 1.0) < 1e-6

    def test_grid_doubling_converged(self, kin, coupling, tls, spec):
        win = interaction_window(spec.sigma_et, coupling.geometry.transit_time, 0.0)
        finals = []
        for n in (128, 256):
            g = MomentumGrid(n=n, p0=kin.p0,
                             p_cutoff=max(8 * spec.sigma_p0,
                                          6 * abs(coupling.recoil_momentum)))
            s0 = initial_amplitudes(g, spec, TlsState.ground(), win[0])
            dt = default_time_step(g, coupling, tls)
            finals.append(integrate(s0, win, dt, g, coupling, tls).p2[-1])
        assert abs(finals[1] / finals[0] - 1.0) < 1e-4

    def test_superposition_increment(self, coupling, kin, tls):
        # zeta = pi/2 increment against the closed form, 2%
        from feberi.analytic import dp1_superposition
        state = TlsState.equatorial(math.pi / 2)
        t0 = math.pi / tls.omega_21
        spec = GaussianQewSpec.from_duration(kin, 0.1 * tls.period, t0=t0)
        traj = run_gaussian_scenario(spec, state, coupling, tls, n=128)
        pred = dp1_superposition(coupling, kin, state, t0, spec.sigma_et)
        assert traj.p2[-1] - traj.p2[0] == pytest.approx(pred, rel=0.02)
