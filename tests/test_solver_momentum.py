import math

import numpy as np
import pytest

from feberi.core import HBAR_EV_FS, DomainError, TlsSpec, TlsState
from feberi.coulomb import DipoleCoupling, m_tilde
from feberi.grid import MomentumGrid, build_grid, interaction_window, toeplitz_kernel
from feberi.qew import GaussianQewSpec, gaussian_momentum_amplitudes, grid_for_spec
from feberi.solver_momentum import (
    default_time_step,
    initial_amplitudes,
    integrate,
    run_gaussian_scenario,
)


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

    def test_integrator_uses_same_generator(self, coupling, tls, spec):
        # two explicit Euler steps with matrices built from the shared kernel
        # reproduce integrate(method="euler") exactly
        g = grid_for_spec(spec, coupling, 64)
        s0 = initial_amplitudes(g, spec, TlsState.equatorial(0.4), -0.5)
        dt = 0.015625    # binary-exact so the span is exactly two steps
        traj = integrate(s0, (-0.5, -0.5 + 2 * dt), dt, g, coupling, tls,
                         method="euler", n_records=2)
        mt = toeplitz_kernel(g, coupling)
        w = coupling.kin.dispersion(g.points) / HBAR_EV_FS
        w21 = tls.energy_gap / HBAR_EV_FS
        v1, v2 = s0.v1.copy(), s0.v2.copy()
        for k in range(2):
            t = -0.5 + k * dt
            ph = np.exp(1j * w * t)
            core = _kappa(g) * (ph[:, None] * mt) * ph.conj()[None, :]
            u12 = np.exp(-1j * w21 * t) * core
            u21 = np.exp(+1j * w21 * t) * core
            v1, v2 = v1 + dt * (u12 @ v2), v2 + dt * (u21 @ v1)
        np.testing.assert_allclose(traj.final.v1, v1, rtol=1e-12)
        np.testing.assert_allclose(traj.final.v2, v2, rtol=1e-12)


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

    def test_euler_mode(self, coupling, tls, spec):
        g = grid_for_spec(spec, coupling, 128)
        win = interaction_window(spec.sigma_et, coupling.geometry.transit_time, 0.0)
        s0 = initial_amplitudes(g, spec, TlsState.ground(), win[0])
        dt = default_time_step(g, coupling, tls)
        rk4 = integrate(s0, win, dt, g, coupling, tls, method="rk4")
        eul = integrate(s0, win, dt / 4, g, coupling, tls, method="euler")
        assert eul.p2[-1] == pytest.approx(rk4.p2[-1], rel=1e-3)

    def test_unknown_method(self, coupling, tls, spec):
        g = grid_for_spec(spec, coupling, 128)
        s0 = initial_amplitudes(g, spec, TlsState.ground(), 0.0)
        with pytest.raises(DomainError):
            integrate(s0, (0.0, 1.0), 0.01, g, coupling, tls, method="leapfrog")

    def test_euler_norm_drift_warning(self, geometry, kin, tls):
        # strong coupling at the default step drifts the Euler norm past 1e-4
        strong = TlsSpec.from_lab(2.0, 2000.0)
        cpl = DipoleCoupling(strong, geometry, kin)
        spec = GaussianQewSpec.from_duration(kin, 0.1 * strong.period)
        g = grid_for_spec(spec, cpl, 128)
        win = interaction_window(spec.sigma_et, geometry.transit_time, 0.0)
        s0 = initial_amplitudes(g, spec, TlsState.ground(), win[0])
        dt = default_time_step(g, cpl, strong)
        with pytest.warns(RuntimeWarning, match="drift"):
            integrate(s0, win, dt, g, cpl, strong, method="euler")

    def test_superposition_increment(self, coupling, kin, tls):
        # zeta = pi/2 increment against the closed form, 2%
        from feberi.analytic import dp1_superposition
        state = TlsState.equatorial(math.pi / 2)
        t0 = math.pi / tls.omega_21
        spec = GaussianQewSpec.from_duration(kin, 0.1 * tls.period, t0=t0)
        traj = run_gaussian_scenario(spec, state, coupling, tls, n=128)
        pred = dp1_superposition(coupling, kin, state, t0, spec.sigma_et)
        assert traj.p2[-1] - traj.p2[0] == pytest.approx(pred, rel=0.02)
