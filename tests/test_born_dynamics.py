import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feberi.analytic import dp1_superposition, p2_from_ground
from feberi.born_dynamics import (
    SEGMENT_STEPS,
    ArrivalSchedule,
    InteractionProfile,
    StepSizeError,
    arrival_schedule,
    evolve_tls,
    interaction_profile,
    kernel_prefactor,
    linear_fit,
    profile_time_grid,
    quadratic_fit,
    simulate_train,
    simulate_train_ensemble,
    _rk4_columns,
    window_propagator,
)
from feberi.core import HBAR_EV_FS, TWO_PI, DomainError, TlsState
from feberi.qew import ResolutionError


class TestInteractionProfile:
    def test_parallel_odd_zero_integral(self, coupling_parallel, tls):
        sigma = 0.05
        grid = profile_time_grid(coupling_parallel, sigma, 0.0, tls.omega_21)
        prof = interaction_profile(coupling_parallel, sigma, grid, t0=0.0)
        mid = len(grid) // 2
        assert prof.values[mid] == pytest.approx(0.0, abs=1e-18)
        np.testing.assert_allclose(prof.values, -prof.values[::-1], atol=1e-16)
        scale = np.max(np.abs(prof.values)) * (grid[-1] - grid[0])
        assert abs(np.trapezoid(prof.values, grid)) < 1e-9 * scale

    def test_transverse_even_positive(self, coupling, tls):
        sigma = 0.05
        grid = profile_time_grid(coupling, sigma, 0.0, tls.omega_21)
        prof = interaction_profile(coupling, sigma, grid, t0=0.0)
        np.testing.assert_allclose(prof.values, prof.values[::-1], rtol=1e-12)
        assert np.all(prof.values > 0.0)

    def test_point_limit_peak(self, coupling, tls):
        # sigma -> 0: bare kernel, peak K at t = t0
        grid = profile_time_grid(coupling, 0.0, 0.0, tls.omega_21)
        prof = interaction_profile(coupling, 0.0, grid, t0=0.0)
        assert prof.values.max() == pytest.approx(kernel_prefactor(coupling), rel=1e-12)
        assert grid[int(np.argmax(prof.values))] == 0.0

    def test_transverse_integral_preserved(self, coupling, tls, geometry):
        # Gaussian smoothing preserves the kernel integral 2*K*t_r (up to
        # the analytic window-truncation factor T/sqrt(T^2+1))
        sigma = 0.1 * tls.period
        grid = profile_time_grid(coupling, sigma, 0.0, tls.omega_21)
        prof = interaction_profile(coupling, sigma, grid, t0=0.0)
        t_r = geometry.transit_time
        t_bar = float(grid[-1]) / t_r
        expected = 2.0 * kernel_prefactor(coupling) * t_r \
            * t_bar / math.sqrt(t_bar**2 + 1.0)
        assert np.trapezoid(prof.values, grid) == pytest.approx(expected, rel=2e-3)

    def test_grid_validation(self, coupling, tls):
        sigma = 0.05
        good = profile_time_grid(coupling, sigma, 0.0, tls.omega_21)
        with pytest.raises(ResolutionError):
            interaction_profile(coupling, sigma, good[::40], t0=0.0)  # too coarse
        short = good[len(good) // 2 - 5: len(good) // 2 + 5]
        with pytest.raises(ResolutionError):
            interaction_profile(coupling, sigma, short, t0=0.0)

    def test_sigma_bar_recorded(self, coupling, tls, geometry):
        sigma = 0.08
        grid = profile_time_grid(coupling, sigma, 0.0, tls.omega_21)
        prof = interaction_profile(coupling, sigma, grid, t0=0.0)
        assert prof.sigma_bar_et == pytest.approx(sigma / geometry.transit_time,
                                                  rel=1e-12)


class TestEvolveTls:
    def test_zero_profile_is_identity(self, coupling, tls):
        grid = profile_time_grid(coupling, 0.05, 0.0, tls.omega_21)
        prof = InteractionProfile(times=grid, values=np.zeros_like(grid),
                                  orientation="transverse", sigma_bar_et=1.0,
                                  t0=0.0, t_r=coupling.geometry.transit_time,
                                  prefactor=0.0)
        state = TlsState.equatorial(0.7)
        traj = evolve_tls(state, prof, tls.omega_21)
        assert traj.final.c1 == pytest.approx(state.c1, abs=1e-15)
        assert traj.final.c2 == pytest.approx(state.c2, abs=1e-15)

    def test_norm_conservation(self, coupling, tls):
        sigma = 0.1 * tls.period
        grid = profile_time_grid(coupling, sigma, 0.0, tls.omega_21)
        prof = interaction_profile(coupling, sigma, grid, t0=0.0)
        traj = evolve_tls(TlsState.equatorial(1.2), prof, tls.omega_21)
        assert np.max(np.abs(traj.norm - 1.0)) < 1e-8

    def test_ground_matches_closed_form(self, coupling, kin, tls):
        # near-point packet: Born P2 approaches the size-independent value
        sigma = 0.015 * tls.period
        grid = profile_time_grid(coupling, sigma, 0.0, tls.omega_21)
        prof = interaction_profile(coupling, sigma, grid, t0=0.0)
        traj = evolve_tls(TlsState.ground(), prof, tls.omega_21)
        assert traj.p2[-1] == pytest.approx(p2_from_ground(coupling, kin), rel=0.02)

    def test_superposition_matches_first_order(self, coupling, kin, tls):
        # zeta = pi/2, Gamma <= 1: increment within 5% of the closed form
        state = TlsState.equatorial(math.pi / 2.0)
        t0 = math.pi / tls.omega_21
        for frac in (0.05, 0.1, 0.15):
            sigma = frac * tls.period
            grid = profile_time_grid(coupling, sigma, t0, tls.omega_21)
            prof = interaction_profile(coupling, sigma, grid, t0=t0)
            traj = evolve_tls(state, prof, tls.omega_21)
            pred = dp1_superposition(coupling, kin, state, t0, sigma)
            assert traj.p2[-1] - traj.p2[0] == pytest.approx(pred, rel=0.05)

    def test_window_propagator_unitary(self, coupling, tls):
        grid = profile_time_grid(coupling, 0.1, 0.0, tls.omega_21)
        prof = interaction_profile(coupling, 0.1, grid, t0=0.0)
        u = window_propagator(prof, tls.omega_21)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-9)

    def test_coarse_profile_raises_step_error(self, coupling, tls):
        # a hand-built profile with far too few samples for its amplitude
        # drifts the norm and trips the step-size guard
        t = np.linspace(-1.0, 1.0, 41)
        vals = 5.0 * np.exp(-(t**2) / 0.02)    # strong, few samples per cycle
        prof = InteractionProfile(times=t, values=vals, orientation="transverse",
                                  sigma_bar_et=1.0, t0=0.0,
                                  t_r=coupling.geometry.transit_time,
                                  prefactor=1.0)
        with pytest.raises(StepSizeError):
            evolve_tls(TlsState.equatorial(0.1), prof, tls.omega_21)


def reference_rk4_columns(profile, omega_21, cols, n_records=0):
    """The per-step RK4 loop: one vector step per pair of profile samples."""
    f, t = profile.values, profile.times
    if len(f) % 2 == 0:
        f, t = f[:-1], t[:-1]
    n_steps = (len(f) - 1) // 2
    dt = 2.0 * profile.step
    w2 = f * np.exp(1j * omega_21 * t) / (1j * HBAR_EV_FS)
    v = cols.astype(complex).copy()
    rec_every = max(1, n_steps // n_records) if n_records else n_steps + 1
    rec_idx, rec = [0], [v.copy()]

    def deriv(k_half, state):
        w = w2[k_half]
        return np.stack([-np.conj(w) * state[1], w * state[0]])

    for s in range(n_steps):
        i = 2 * s
        k1 = deriv(i, v)
        k2 = deriv(i + 1, v + 0.5 * dt * k1)
        k3 = deriv(i + 1, v + 0.5 * dt * k2)
        k4 = deriv(i + 2, v + dt * k3)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (s + 1) % rec_every == 0 or s == n_steps - 1:
            rec_idx.append(2 * (s + 1))
            rec.append(v.copy())
    return np.asarray(rec_idx), np.asarray(rec), v


def random_profile(n_samples, seed, amplitude=0.2):
    """Profile of n_samples random values in eV on a 1 fs window."""
    rng = np.random.default_rng(seed)
    t = np.linspace(-0.5, 0.5, n_samples)
    return InteractionProfile(times=t, values=amplitude * rng.standard_normal(n_samples),
                              orientation="transverse", sigma_bar_et=1.0, t0=0.0,
                              t_r=1.0, prefactor=1.0)


class TestStepMatrixPropagator:
    # odd and even sample counts; the longest spans two segments
    @pytest.mark.parametrize("n_samples", [9, 10, 1001, 1000, 2 * SEGMENT_STEPS + 7])
    @pytest.mark.parametrize("n_records", [0, 1, 7, 200, 10**6])
    def test_matches_per_step_loop(self, n_samples, n_records):
        prof = random_profile(n_samples, seed=n_samples)
        cols = np.array([[0.6, 1.0], [0.8j, 0.0]])
        idx, rec, final = _rk4_columns(prof, 3.0, cols, n_records=n_records)
        ref_idx, ref_rec, ref_final = reference_rk4_columns(prof, 3.0, cols, n_records)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_allclose(rec, ref_rec, rtol=0, atol=1e-12)
        np.testing.assert_allclose(final, ref_final, rtol=0, atol=1e-12)

    def test_evolve_tls_records_match_loop(self, coupling, tls):
        grid = profile_time_grid(coupling, 0.1, 0.0, tls.omega_21)
        prof = interaction_profile(coupling, 0.1, grid, t0=0.0)
        state = TlsState.equatorial(0.4)
        traj = evolve_tls(state, prof, tls.omega_21, n_records=37)
        idx, rec, _ = reference_rk4_columns(prof, tls.omega_21,
                                            np.array([[state.c1], [state.c2]]), 37)
        np.testing.assert_array_equal(traj.times, prof.times[idx])
        np.testing.assert_allclose(traj.c2, rec[:, 1, 0], rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(n_half=st.integers(100, 3000), omega_21=st.floats(0.5, 5.0),
       amps=st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=4),
       centers=st.lists(st.floats(-0.3, 0.3), min_size=4, max_size=4),
       width=st.floats(0.02, 0.2))
def test_window_propagator_unitary_on_smooth_profiles(n_half, omega_21, amps, centers,
                                                       width):
    t = np.linspace(-1.0, 1.0, 2 * n_half + 1)
    vals = sum(a * np.exp(-((t - c) ** 2) / (2.0 * width**2))
               for a, c in zip(amps, centers))
    prof = InteractionProfile(times=t, values=vals, orientation="transverse",
                              sigma_bar_et=1.0, t0=0.0, t_r=1.0, prefactor=1.0)
    u = window_propagator(prof, omega_21)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(2), rtol=0, atol=1e-6)


class TestArrivalSchedule:
    def test_correlated_locked_to_period(self, tls):
        omega_b = tls.omega_21 / 2.0
        t_b = TWO_PI / omega_b
        s = arrival_schedule("correlated", 50, omega_b, t_0l=0.4,
                             mean_spacing=3 * t_b, seed=3)
        k = (s.times - 0.4) / t_b
        np.testing.assert_allclose(k, np.round(k), atol=1e-9)
        assert np.array_equal(s.n_k, np.round(k).astype(int))

    def test_periodic_comb(self, tls):
        omega_b = tls.omega_21 / 2.0
        s = arrival_schedule("periodic", 3, omega_b)
        np.testing.assert_allclose(np.diff(s.times), TWO_PI / omega_b, rtol=1e-14)

    def test_seed_reproducible(self, tls):
        omega_b = tls.omega_21
        a = arrival_schedule("random", 40, omega_b, seed=9)
        b = arrival_schedule("random", 40, omega_b, seed=9)
        np.testing.assert_array_equal(a.times, b.times)
        c = arrival_schedule("random", 40, omega_b, seed=10)
        assert not np.array_equal(a.times, c.times)

    def test_strictly_increasing_enforced(self):
        with pytest.raises(DomainError):
            ArrivalSchedule(times=np.array([0.0, 1.0, 1.0]), kind="random",
                            seed=0, omega_b=1.0, t_0l=0.0)

    def test_unknown_kind(self, tls):
        with pytest.raises(DomainError):
            arrival_schedule("bursty", 5, tls.omega_21)


class TestTrains:
    @pytest.fixture
    def omega_b(self, tls):
        return tls.omega_21 / 2.0

    def test_single_electron_matches_evolve(self, coupling, tls, omega_b):
        # the phase-conjugation shortcut equals a direct window evolution at
        # the shifted arrival time
        t_b = TWO_PI / omega_b
        t_k = 7.0 * t_b + 0.0  # on the comb
        sched = ArrivalSchedule(times=np.array([t_k]), kind="periodic", seed=0,
                                omega_b=omega_b, t_0l=0.0)
        sigma_pt = 0.08
        p2 = simulate_train(TlsState.ground(), sched, coupling, sigma_pt,
                            tls.omega_21)
        grid = profile_time_grid(coupling, sigma_pt, t_k, tls.omega_21)
        prof = interaction_profile(coupling, sigma_pt, grid, t0=t_k)
        traj = evolve_tls(TlsState.ground(), prof, tls.omega_21)
        assert p2[0] == pytest.approx(traj.p2[-1], rel=1e-9)

    def test_resonant_buildup_quadratic(self, coupling, tls, omega_b):
        t_b = TWO_PI / omega_b
        sched = arrival_schedule("correlated", 20, omega_b, mean_spacing=3 * t_b,
                                 seed=1)
        p2 = simulate_train(TlsState.ground(), sched, coupling, 0.08, tls.omega_21)
        n = np.arange(1, 21)
        _, r2 = quadratic_fit(n, p2)
        assert r2 >= 0.99
        assert p2[-1] / p2[0] == pytest.approx(400.0, rel=0.02)

    def test_resonant_buildup_seed_independent(self, coupling, tls, omega_b):
        # at exact resonance the random comb integers cancel out
        t_b = TWO_PI / omega_b
        a = simulate_train(TlsState.ground(),
                           arrival_schedule("correlated", 12, omega_b,
                                            mean_spacing=3 * t_b, seed=4),
                           coupling, 0.08, tls.omega_21)
        b = simulate_train(TlsState.ground(),
                           arrival_schedule("correlated", 12, omega_b,
                                            mean_spacing=5 * t_b, seed=99),
                           coupling, 0.08, tls.omega_21)
        np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_random_mean_linear(self, coupling, tls, omega_b):
        t_b = TWO_PI / omega_b
        schedules = [arrival_schedule("random", 60, omega_b, mean_spacing=3 * t_b,
                                      seed=100 + s) for s in range(24)]
        ens = simulate_train_ensemble(TlsState.ground(), schedules, coupling,
                                      0.08, tls.omega_21)
        mean = ens.mean(axis=0)
        _, r2 = linear_fit(np.arange(1, 61), mean)
        assert r2 >= 0.9

    def test_ensemble_equals_loop(self, coupling, tls, omega_b):
        t_b = TWO_PI / omega_b
        scheds = [arrival_schedule("random", 10, omega_b, mean_spacing=3 * t_b,
                                   seed=s) for s in (3, 8)]
        ens = simulate_train_ensemble(TlsState.ground(), scheds, coupling, 0.08,
                                      tls.omega_21)
        for i, s in enumerate(scheds):
            one = simulate_train(TlsState.ground(), s, coupling, 0.08, tls.omega_21)
            np.testing.assert_allclose(ens[i], one, rtol=1e-12)

    def test_points_per_scale_sets_window_grid(self, coupling, tls, omega_b):
        t_b = TWO_PI / omega_b
        sched = arrival_schedule("correlated", 5, omega_b, mean_spacing=3 * t_b, seed=2)
        fine, coarse = (simulate_train(TlsState.ground(), sched, coupling, 0.08,
                                       tls.omega_21, points_per_scale=pps)
                        for pps in (100, 50))
        ens = simulate_train_ensemble(TlsState.ground(), [sched], coupling, 0.08,
                                      tls.omega_21, points_per_scale=50)
        assert not np.array_equal(fine, coarse)
        np.testing.assert_allclose(coarse, fine, rtol=1e-4)
        np.testing.assert_allclose(ens[0], coarse, rtol=1e-12)

    def test_overlap_warning(self, coupling, tls, omega_b):
        sched = ArrivalSchedule(times=np.array([0.0, 0.05]), kind="random",
                                seed=0, omega_b=omega_b, t_0l=0.0)
        with pytest.warns(RuntimeWarning, match="overlap"):
            simulate_train(TlsState.ground(), sched, coupling, 0.08, tls.omega_21)
