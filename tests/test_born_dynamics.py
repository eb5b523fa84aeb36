import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feberi.analytic import dp1_superposition, p2_from_ground
from feberi.born_dynamics import (
    SEGMENT_STEPS,
    InteractionProfile,
    StepSizeError,
    TrainWindow,
    arrival_schedule,
    evolve_tls,
    interaction_profile,
    linear_fit,
    modulated_interaction_profile,
    profile_time_grid,
    quadratic_fit,
    r_squared,
    random_arrival_times,
    simulate_train_ensemble,
    train_window,
    _density_spectrum,
    _rk4_columns,
    _step_pairs,
    _step_trains,
    window_propagator,
)
from feberi import born_dynamics, core, scenarios
from feberi.cli import default_config
from feberi.core import HBAR_EV_FS, TWO_PI, DomainError, TlsState, phase_tables
from feberi.coulomb import DipoleCoupling, m_spatial
from feberi.grid import interaction_window
from feberi.qew import GaussianQewSpec, ModulatedQewSpec, ModulationSpectrum, \
    ResolutionError, modulation_fourier_coefficients, optimal_drift_time
from feberi.solver_momentum import default_time_step, step_schedule
from helpers import default_packet, reconstruct


@pytest.fixture(scope="module")
def fig9_point():
    # default fig9's plan: its physics and its train window's point packet
    return scenarios.plan(default_config("fig9_buildup"))


class TestInteractionProfile:
    def test_parallel_odd_zero_integral(self, coupling_parallel, tls):
        # the mirrored half is odd to the bit, with an exact zero at t0
        for sigma in (0.05, 0.08, 0.3):
            prof = interaction_profile(coupling_parallel, sigma, 0.0)
            grid = prof.times
            assert prof.values[len(grid) // 2] == 0.0
            np.testing.assert_array_equal(prof.values, -prof.values[::-1])
            scale = np.max(np.abs(prof.values)) * (grid[-1] - grid[0])
            assert abs(np.trapezoid(prof.values, grid)) < 1e-9 * scale

    def test_transverse_even_positive(self, coupling, tls):
        # the mirrored half is even to the bit
        for sigma in (0.05, 0.08, 0.3):
            prof = interaction_profile(coupling, sigma, 0.0)
            np.testing.assert_array_equal(prof.values, prof.values[::-1])
            assert np.all(prof.values > 0.0)

    @pytest.mark.parametrize("orientation", ["transverse", "parallel"])
    @pytest.mark.parametrize("sigma", ["0.05", "1.0", "fig9-point"])
    def test_convolution_matches_full_length_oracle(self, fig9_point, orientation, sigma):
        # against the quadrature in its plain form: the Gaussian over the whole
        # extended grid, the kernel at every lag of its cut, one full-length
        # complex transform, both halves computed
        from scipy.signal import fftconvolve

        cpl = replace(fig9_point.coupling, orientation=orientation)
        kin, tls = cpl.kin, cpl.tls
        sigma = fig9_point.bunch_sigma_et if sigma == "fig9-point" \
            else float(sigma) * tls.period
        t0 = 1.7
        prof = interaction_profile(cpl, sigma, t0)
        tau, h = prof.times - t0, prof.step
        m = int(math.ceil(200.0 * cpl.transit_time / h))
        kern = m_spatial(kin.v0 * (h * np.arange(-m, m + 1)), cpl).astype(complex)
        ext = np.concatenate([tau[0] + h * np.arange(-m, 0), tau,
                              tau[-1] + h * np.arange(1, m + 1)])
        density = np.exp(-(ext**2) / (2.0 * sigma**2)) / (math.sqrt(TWO_PI) * sigma)
        want = np.real(fftconvolve(density, kern, mode="valid")) * h
        np.testing.assert_allclose(prof.values, want, rtol=0,
                                   atol=1e-13 * np.max(np.abs(want)))

    @pytest.mark.parametrize("sigma, bound_mib", [("fig9-point", 2.0), ("T21", 12.0)],
                             ids=["fig9-point", "T21"])
    def test_profile_memory(self, fig9_point, sigma, bound_mib):
        # the half-grid transform at the Gaussian's reach: at fig9's point packet
        # and at one TLS period, where the reach passes the kernel cut (3.8 and
        # 14.9 MiB with the full-length complex transform)
        cpl = fig9_point.coupling
        tls = cpl.tls
        sigma = fig9_point.bunch_sigma_et if sigma == "fig9-point" else tls.period
        tracemalloc.start()
        try:
            interaction_profile(cpl, sigma, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2**20

    def test_point_limit_peak(self, coupling, tls):
        # sigma -> 0: bare kernel, peak K at t = t0
        prof = interaction_profile(coupling, 0.0, 0.0)
        grid = prof.times
        # K = gamma (e^2/4 pi eps0) r21 / r_perp^2
        k = coupling.kin.gamma * coupling.prefactor / coupling.r_perp**2
        assert prof.values.max() == pytest.approx(k, rel=1e-12)
        assert grid[int(np.argmax(prof.values))] == 0.0

    def test_transverse_integral_preserved(self, coupling, tls):
        # Gaussian smoothing preserves the kernel integral 2*K*t_r (up to
        # the analytic window-truncation factor T/sqrt(T^2+1))
        sigma = 0.1 * tls.period
        prof = interaction_profile(coupling, sigma, 0.0)
        grid = prof.times
        t_r = coupling.transit_time
        t_bar = float(grid[-1]) / t_r
        k = coupling.kin.gamma * coupling.prefactor / coupling.r_perp**2
        expected = 2.0 * k * t_r \
            * t_bar / math.sqrt(t_bar**2 + 1.0)
        assert np.trapezoid(prof.values, grid) == pytest.approx(expected, rel=2e-3)

    def test_grid_validation(self, coupling, tls):
        # the builder samples the window grid of its own factors, and one
        # rule bounds its step: min(t_r, sigma_et)/20 (here t_r/20)
        sigma, t0 = 0.05, 0.3
        factors = {"transit_factor": 5.0, "sigma_factor": 2.0}
        prof = interaction_profile(coupling, sigma, t0, **factors)
        np.testing.assert_array_equal(
            prof.times, profile_time_grid(coupling, sigma, t0, **factors))
        lo, hi = interaction_window(sigma, coupling.transit_time, t0, 5.0, 2.0)
        assert prof.times[0] <= lo and prof.times[-1] >= hi
        interaction_profile(coupling, sigma, t0, points_per_scale=20)
        with pytest.raises(ResolutionError):
            interaction_profile(coupling, sigma, t0, points_per_scale=19)

    @pytest.mark.parametrize("orientation, bound", [("transverse", 1e-6),
                                                    ("parallel", 1e-2)],
                             ids=["transverse", "parallel"])
    def test_flat_modulated_profile(self, kin, tls, orientation, bound):
        # a spectrum with f_0 only leaves the density unbunched: the spectral
        # profile then equals the kernel, sampled at t_r/50 or finer and cut at
        # +-2000 t_r, convolved with the Gaussian directly, at every k-th
        # sample.  The parallel kernel's 1/t^2 tail leaves the transform's
        # periodic images at 2.6e-3 of the peak here; the transverse 1/t^3
        # tail, 2e-7.
        from scipy.signal import fftconvolve

        cpl = DipoleCoupling(tls, 2.4, kin, orientation=orientation)
        flat = ModulationSpectrum(f_m=np.array([0.0, 1.0, 0.0], dtype=complex),
                                  omega_b=tls.omega_21 / 2.0)
        sigma, t_r = 0.5, cpl.transit_time
        prof = modulated_interaction_profile(cpl, sigma, flat, 0.0, 0.0)
        omega_top = flat.omega_b + 9.0 / sigma
        assert prof.step == pytest.approx(TWO_PI / omega_top / 100, rel=1e-12)
        k = math.ceil(prof.step / (t_r / 50.0))
        n, h = (len(prof.times) - 1) // 2 * k, prof.step / k
        reach = int(math.ceil(2000.0 * t_r / h))
        u = h * np.arange(-n - reach, n + reach + 1)
        kern = m_spatial(kin.v0 * (h * np.arange(-reach, reach + 1)), cpl)
        density = np.exp(-(u**2) / (2.0 * sigma**2)) / (math.sqrt(TWO_PI) * sigma)
        want = (fftconvolve(density, kern, mode="valid") * h)[::k]
        np.testing.assert_allclose(prof.values, want, rtol=0,
                                   atol=bound * np.max(np.abs(want)))

    def test_modulated_resolution_rule(self, coupling, tls):
        # one rule bounds the spectral profile's step: min(T21, 2 pi/omega_top)/20
        flat = ModulationSpectrum(f_m=np.array([0.0, 1.0, 0.0], dtype=complex),
                                  omega_b=tls.omega_21 / 2.0)
        modulated_interaction_profile(coupling, 0.5, flat, 0.0, 0.0,
                                      points_per_scale=20)
        for pps in (19, 10):
            with pytest.raises(ResolutionError, match="profile step"):
                modulated_interaction_profile(coupling, 0.5, flat, 0.0, 0.0,
                                              points_per_scale=pps)
        # a spectral profile has no point limit: its band grows as 1/sigma_et
        with pytest.raises(DomainError, match="sigma_et > 0"):
            modulated_interaction_profile(coupling, 0.0, flat, 0.0, 0.0)


def point_grid(coupling, offset):
    """profile_time_grid of a point packet whose window is offset steps off the
    most MAX_PROFILE_SAMPLES allows: a window of half-width x steps holds
    2 ceil(x) + 1 samples, and with sigma_et = 0, sigma_factor = 0 and
    transit_factor = 1 it is t_r wide at the step t_r/points_per_scale."""
    half = (born_dynamics.MAX_PROFILE_SAMPLES - 1) // 2
    return profile_time_grid(coupling, 0.0, 0.0, transit_factor=1.0, sigma_factor=0.0,
                             points_per_scale=half + offset)


class TestProfileCeiling:
    def test_grid_within_the_ceiling_is_built(self, coupling):
        assert len(point_grid(coupling, -1)) <= born_dynamics.MAX_PROFILE_SAMPLES

    def test_grid_just_past_the_ceiling_is_refused(self, coupling):
        with pytest.raises(DomainError) as refusal:
            point_grid(coupling, 1)
        message = str(refusal.value)
        assert message.startswith("a profile grid of 8.389e+06 samples is above the ceiling "
                                  f"MAX_PROFILE_SAMPLES = {born_dynamics.MAX_PROFILE_SAMPLES}")
        assert "lower profile_points_per_scale" in message

    def test_plain_profile_transform_refused_before_it_allocates(self, kin, tls):
        # at sigma_factor = 0 the window (one t_r = 345 fs at 0.1 mm) holds
        # 33k samples, but the Gaussian's reach, 9 sigma_et, passes the 200 t_r
        # kernel cut, and the kernel lags and density samples the half-grid
        # convolution reads need a transform of 1.6 times the ceiling
        coupling = DipoleCoupling(tls, 1e5, kin)
        tracemalloc.start()
        try:
            with pytest.raises(DomainError,
                               match=re.escape("a profile transform of 1.344e+07 samples")):
                interaction_profile(coupling, 1e4, 0.0, transit_factor=1.0, sigma_factor=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20

    @pytest.mark.parametrize("physics, sweep, what", [
        ({}, {"envelope_sigma_et_fs": 5000.0}, "grid of 1.161e+07 samples"),
        ({"impact_parameter_nm": 4e4}, {}, "transform of 1.296e+07 samples"),
    ], ids=["long-envelope-grid", "far-impact-transform"])
    def test_modulated_profile_refused_before_it_allocates(self, physics, sweep, what):
        # modulated_resonance's one profile, at 1.4 and 1.5 times the ceiling:
        # the refused array alone would take 64 MiB or more
        cfg = default_config("modulated_resonance")
        cfg["physics"].update(physics)
        cfg["sweep"].update(sweep)
        coupling = scenarios.coupling_for(cfg)
        spectrum = scenarios.bunched_spectrum(cfg, coupling)
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=re.escape(f"a profile {what}")):
                modulated_interaction_profile(coupling, cfg["sweep"]["envelope_sigma_et_fs"],
                                              spectrum, 0.0, 0.0,
                                              max_harmonic=cfg["sweep"]["harmonic"] + 6,
                                              **scenarios.profile_grid_args(cfg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20


def test_random_ensemble_holds_two_arrays(fig9_point):
    # default fig9's random trains at 1024 seeds x 400 electrons: the times
    # are drawn, summed and offset in the array returned, and no gap array
    # lives on beside the stepping's P2, so drawing and stepping peak at about
    # two S x N float arrays, the times and P2
    cfg = default_config("fig9_buildup")
    window = train_window(fig9_point.coupling, fig9_point.bunch_sigma_et,
                          **scenarios.profile_grid_args(cfg))
    omega_b = fig9_point.coupling.tls.omega_21 / cfg["sweep"]["harmonic"]
    spacing = cfg["sweep"]["mean_spacing_periods"] * TWO_PI / omega_b
    s, n = 1024, 400
    tracemalloc.start()
    try:
        times = random_arrival_times(n, range(s), spacing)
        simulate_train_ensemble(TlsState.ground(), times, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.3 * s * n * 8


class TestEvolveTls:
    def test_zero_profile_is_identity(self, coupling, tls):
        grid = profile_time_grid(coupling, 0.05, 0.0)
        prof = InteractionProfile(times=grid, values=np.zeros_like(grid))
        state = TlsState.equatorial(0.7)
        traj = evolve_tls(state, prof, tls.omega_21)
        assert traj.final.c1 == pytest.approx(state.c1, abs=1e-15)
        assert traj.final.c2 == pytest.approx(state.c2, abs=1e-15)

    def test_norm_conservation(self, coupling, tls):
        sigma = 0.1 * tls.period
        prof = interaction_profile(coupling, sigma, 0.0)
        traj = evolve_tls(TlsState.equatorial(1.2), prof, tls.omega_21)
        assert np.max(np.abs(traj.norm - 1.0)) < 1e-8

    def test_ground_matches_closed_form(self, coupling, tls):
        # near-point packet: Born P2 approaches the size-independent value
        sigma = 0.015 * tls.period
        prof = interaction_profile(coupling, sigma, 0.0)
        traj = evolve_tls(TlsState.ground(), prof, tls.omega_21)
        assert traj.p2[-1] == pytest.approx(p2_from_ground(coupling), rel=0.02)

    def test_superposition_matches_first_order(self, coupling, tls):
        # zeta = pi/2, Gamma <= 1: increment within 5% of the closed form
        state = TlsState.equatorial(math.pi / 2.0)
        t0 = math.pi / tls.omega_21
        for frac in (0.05, 0.1, 0.15):
            sigma = frac * tls.period
            prof = interaction_profile(coupling, sigma, t0)
            traj = evolve_tls(state, prof, tls.omega_21)
            pred = dp1_superposition(coupling, state, t0, sigma)
            assert traj.p2[-1] - traj.p2[0] == pytest.approx(pred, rel=0.05)

    def test_window_propagator_unitary(self, coupling, tls):
        prof = interaction_profile(coupling, 0.1, 0.0)
        u = window_propagator(prof, tls.omega_21)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-9)

    def test_coarse_profile_raises_step_error(self, tls):
        # a hand-built profile with far too few samples for its amplitude
        # drifts the norm and trips the step-size guard
        t = np.linspace(-1.0, 1.0, 41)
        vals = 5.0 * np.exp(-(t**2) / 0.02)    # strong, few samples per cycle
        prof = InteractionProfile(times=t, values=vals)
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


def dense_step_matrices(w2, dt):
    """The RK4 step matrices, shape (2, 2, n), from the four stage matrices
    K1 = A(t), K2 = A(t + dt/2)(I + dt/2 K1), K3 = A(t + dt/2)(I + dt/2 K2),
    K4 = A(t + dt)(I + dt K3), with A = [[0, -conj(w)], [w, 0]]."""
    def mul(a, b):
        return a[:, :1] * b[:1] + a[:, 1:] * b[1:]

    a = np.zeros((2, 2, len(w2)), dtype=complex)
    a[0, 1] = -np.conj(w2)
    a[1, 0] = w2
    a0, ah, a1 = a[..., :-1:2], a[..., 1::2], a[..., 2::2]
    eye = np.eye(2)[:, :, None]
    k2 = mul(ah, eye + 0.5 * dt * a0)
    k3 = mul(ah, eye + 0.5 * dt * k2)
    k4 = mul(a1, eye + dt * k3)
    return eye + (dt / 6.0) * (a0 + 2.0 * k2 + 2.0 * k3 + k4)


def random_profile(n_samples, seed, amplitude=0.2):
    """Profile of n_samples random values in eV on a 1 fs window."""
    rng = np.random.default_rng(seed)
    t = np.linspace(-0.5, 0.5, n_samples)
    return InteractionProfile(times=t, values=amplitude * rng.standard_normal(n_samples))


# a chunk width at which the per-step reference loop checks profiles of
# several chunks in well under a second
SHORT_CHUNK = 4096


class TestStepMatrixPropagator:
    # odd and even sample counts; at SHORT_CHUNK steps a chunk, the longest
    # spans two chunks
    @pytest.mark.parametrize("n_samples", [9, 10, 1001, 1000, 2 * SHORT_CHUNK + 7])
    @pytest.mark.parametrize("n_records", [0, 1, 7, 200, 10**6])
    def test_matches_per_step_loop(self, monkeypatch, n_samples, n_records):
        monkeypatch.setattr(born_dynamics, "SEGMENT_STEPS", SHORT_CHUNK)
        prof = random_profile(n_samples, seed=n_samples)
        cols = np.array([[0.6, 1.0], [0.8j, 0.0]])
        idx, rec, final = _rk4_columns(prof, 3.0, cols, n_records=n_records)
        ref_idx, ref_rec, ref_final = reference_rk4_columns(prof, 3.0, cols, n_records)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_allclose(rec, ref_rec, rtol=0, atol=1e-12)
        np.testing.assert_allclose(final, ref_final, rtol=0, atol=1e-12)

    # rows of at most 8 steps against segments of 33, 14, 100 and 30 steps:
    # rows padded with identity steps, tails of 1 and 2 steps (whole rows of
    # padding), 3-step segments two to a chunk, more records than steps; at
    # S = SHORT_CHUNK, 3 S + 5 steps recorded every 1.5 S + 2 (a record
    # interval that does not divide the steps): two rows per segment and a
    # one-step tail; and at SEGMENT_STEPS itself, S + 5 steps recorded every
    # S / 3 + 1, two segments to a chunk over two chunks
    @pytest.mark.parametrize("segment_steps, n_samples, n_records", [
        (8, 201, 3), (8, 202, 7), (8, 201, 0), (8, 61, 1), (8, 41, 6), (8, 3, 5),
        (SHORT_CHUNK, 6 * SHORT_CHUNK + 11, 2),
        (SEGMENT_STEPS, 2 * SEGMENT_STEPS + 11, 3)])
    def test_rows_across_record_points(self, monkeypatch, segment_steps, n_samples,
                                       n_records):
        monkeypatch.setattr(born_dynamics, "SEGMENT_STEPS", segment_steps)
        prof = random_profile(n_samples, seed=n_samples + n_records, amplitude=2.0)
        cols = np.array([[0.6, 1.0], [0.8j, 0.0]])
        idx, rec, final = _rk4_columns(prof, 3.0, cols, n_records=n_records)
        ref_idx, ref_rec, ref_final = reference_rk4_columns(prof, 3.0, cols, n_records)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_allclose(rec, ref_rec, rtol=0, atol=1e-12)
        np.testing.assert_allclose(final, ref_final, rtol=0, atol=1e-12)

    def test_chunk_width_only_regroups_steps(self, monkeypatch):
        # 2 S + 7 steps at the default width S and at SHORT_CHUNK: the same
        # steps in other chunks, so the same trajectory to rounding
        prof = random_profile(2 * (2 * SEGMENT_STEPS + 7) + 1, seed=11)
        state = TlsState.equatorial(0.4)
        wide = evolve_tls(state, prof, 3.0, n_records=7)
        monkeypatch.setattr(born_dynamics, "SEGMENT_STEPS", SHORT_CHUNK)
        short = evolve_tls(state, prof, 3.0, n_records=7)
        np.testing.assert_array_equal(wide.times, short.times)
        for a, b in ((wide.c1, short.c1), (wide.c2, short.c2),
                     ([wide.final.c1, wide.final.c2], [short.final.c1, short.final.c2])):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-13)

    def test_step_pairs_match_dense_rk4(self, coupling, tls):
        # the (alpha, beta) form against the four-stage matrices, on a random
        # drive and on a real profile's drive
        rng = np.random.default_rng(5)
        prof = interaction_profile(coupling, 0.1, 0.0)
        real = prof.values * np.exp(1j * tls.omega_21 * prof.times) / (1j * HBAR_EV_FS)
        for w2, dt in ((3.0 * (rng.standard_normal(2001) + 1j * rng.standard_normal(2001)),
                        0.05), (real[:len(real) // 2 * 2 - 1], 2.0 * prof.step)):
            alpha, beta = _step_pairs(w2, dt)
            pairs = np.array([[alpha, -beta.conj()], [beta, alpha.conj()]])
            np.testing.assert_allclose(pairs, dense_step_matrices(w2, dt), rtol=0, atol=1e-14)

    def test_evolve_tls_records_match_loop(self, coupling, tls):
        prof = interaction_profile(coupling, 0.1, 0.0)
        state = TlsState.equatorial(0.4)
        traj = evolve_tls(state, prof, tls.omega_21, n_records=37)
        idx, rec, _ = reference_rk4_columns(prof, tls.omega_21,
                                            np.array([[state.c1], [state.c2]]), 37)
        np.testing.assert_array_equal(traj.times, prof.times[idx])
        np.testing.assert_allclose(traj.c2, rec[:, 1, 0], rtol=0, atol=1e-12)


def gaussian_sum_profile(n_half, amps, centers, width):
    """Sum of Gaussians of one width on 2 n_half + 1 samples over [-1, 1]."""
    t = np.linspace(-1.0, 1.0, 2 * n_half + 1)
    vals = sum(a * np.exp(-((t - c) ** 2) / (2.0 * width**2))
               for a, c in zip(amps, centers))
    return InteractionProfile(times=t, values=vals)


# n_half >= 400 puts at least 8 samples in every Gaussian width (>= 0.02): the
# profile is smooth on its grid.  The RK4 unitarity error falls 32x per grid
# doubling; at 8 samples per width and the largest amplitude (2.0) it is
# below 2e-7.
@settings(max_examples=40, deadline=None)
@given(n_half=st.integers(400, 3000), omega_21=st.floats(0.5, 5.0),
       amps=st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=4),
       centers=st.lists(st.floats(-0.3, 0.3), min_size=4, max_size=4),
       width=st.floats(0.02, 0.2))
def test_window_propagator_unitary_on_smooth_profiles(n_half, omega_21, amps, centers,
                                                       width):
    u = window_propagator(gaussian_sum_profile(n_half, amps, centers, width), omega_21)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(2), rtol=0, atol=1e-6)


def test_window_propagator_flags_unresolved_profile_until_refined():
    # amplitude 1.0 at 2.3 samples per width: the RK4 unitarity error is
    # 1.2e-6, so the guard raises; one grid doubling brings it to 4e-8
    amps, centers, width = [0.5, 0.5], [0.0] * 4, 0.0234375
    with pytest.raises(StepSizeError):
        window_propagator(gaussian_sum_profile(100, amps, centers, width), 1.0)
    u = window_propagator(gaussian_sum_profile(200, amps, centers, width), 1.0)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(2), rtol=0, atol=1e-6)


def sech_profile(f0, width, h):
    """f0 sech(t / width) eV on t = -60 width .. 60 width at step h."""
    n = int(round(60.0 * width / h))
    t = h * np.arange(-n, n + 1)
    return InteractionProfile(times=t, values=f0 / np.cosh(t / width))


def rosen_zener_p2(omega_t, area):
    """P2 from ground under f = F0 sech(t/T) (Rosen & Zener, Phys. Rev. 40, 502,
    1932), with omega_t = w21 T and area = pi F0 T / hbar."""
    return math.sin(area) ** 2 / math.cosh(math.pi * omega_t / 2.0) ** 2


class TestRosenZener:
    # the module's equations with f = F0 sech(t/T) from ground, exactly
    # P2 = sin^2(pi F0 T/hbar) sech^2(pi w21 T/2), at pulse areas up to and
    # past pi and at two detunings; T = 1 fs.  At a profile step of 0.005 fs
    # the RK4 error reads at most 4.2e-10 relative.
    CASES = [(w, a) for w in (0.5, 2.0) for a in (0.3, 1.4, 2.9)]

    @pytest.mark.parametrize("omega_t, area", CASES)
    def test_evolve_tls_and_window_propagator(self, omega_t, area):
        prof = sech_profile(area * HBAR_EV_FS / math.pi, 1.0, 0.005)
        want = rosen_zener_p2(omega_t, area)
        assert evolve_tls(TlsState.ground(), prof, omega_t).p2[-1] == \
            pytest.approx(want, rel=2e-9)
        u = window_propagator(prof, omega_t)
        assert abs(u[1, 0]) ** 2 == pytest.approx(want, rel=2e-9)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(2), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("omega_t", [0.5, 2.0])
    def test_error_falls_at_fourth_order(self, omega_t):
        # area 2.9, where the error stands clear of rounding: halving the step
        # divides it by 2^4 = 16 (15.7-15.9 measured)
        area = 2.9
        err = [evolve_tls(TlsState.ground(), sech_profile(area * HBAR_EV_FS / math.pi, 1.0, h),
                          omega_t).p2[-1] / rosen_zener_p2(omega_t, area) - 1.0
               for h in (0.01, 0.005)]
        assert 12.0 <= err[0] / err[1] <= 20.0

    @pytest.mark.parametrize("omega_t, area", CASES)
    def test_train_window_at_one_electron(self, monkeypatch, coupling, omega_t, area):
        # the train stepper at N = 1 through train_window's channel, on the
        # sech profile, arriving at t = 0 and off it; the window reads its
        # omega_21 from the coupling's TLS
        prof = sech_profile(area * HBAR_EV_FS / math.pi, 1.0, 0.005)
        monkeypatch.setattr(born_dynamics, "interaction_profile", lambda *args: prof)
        at_omega_t = replace(coupling, tls=replace(coupling.tls, energy_gap=omega_t * HBAR_EV_FS))
        window = train_window(at_omega_t, 0.0)
        assert window.omega_21 == pytest.approx(omega_t, rel=1e-15)
        p2 = simulate_train_ensemble(TlsState.ground(), np.array([[0.0], [7.3]]), window)
        np.testing.assert_allclose(p2[:, 0], rosen_zener_p2(omega_t, area), rtol=2e-9)


def benchmark_spot_config():
    """modulated_resonance as the benchmark runs it: b = 9.6 nm, one Born spot
    check at zero detuning (13,475 profile samples)."""
    cfg = default_config("modulated_resonance")
    cfg["physics"]["impact_parameter_nm"] = 9.6
    cfg["sweep"]["spot_check_detunings"] = [0.0]
    return cfg


@pytest.fixture(scope="module")
def benchmark_spot():
    """The benchmark spot check's coupling, spectrum and profile arguments."""
    cfg = benchmark_spot_config()
    coupling = scenarios.coupling_for(cfg)
    spectrum = scenarios.bunched_spectrum(cfg, coupling)
    w21 = cfg["sweep"]["harmonic"] * spectrum.omega_b
    coupling = replace(coupling, tls=replace(coupling.tls, energy_gap=w21 * HBAR_EV_FS))
    return coupling, spectrum, cfg["sweep"]["envelope_sigma_et_fs"], w21, \
        scenarios.profile_grid_args(cfg)


@pytest.fixture(scope="module")
def benchmark_grid(benchmark_spot):
    """The plain profile grid at the benchmark spot check's physics (183,275
    samples at t_r/100, the longest profile grid of the tests), its omega_21
    and omega_b."""
    coupling, spectrum, sigma, w21, grid_args = benchmark_spot
    return profile_time_grid(coupling, sigma, 0.0, **grid_args), w21, spectrum.omega_b


def tabulated(omega, t_first, step, n, order):
    """e^{i m omega t_j}, shape (order + 1, n), from the phase tables."""
    outer, inner = phase_tables(omega * np.arange(order + 1), t_first, step, n)
    return (outer[:, None] * inner).reshape(-1, order + 1)[:n].T


class TestPhaseTables:
    @pytest.mark.parametrize("n", [1, 2, 17, 2001])
    def test_short_grid(self, n):
        t = np.linspace(-3.7, 5.2, n)
        step = (t[-1] - t[0]) / (n - 1) if n > 1 else 0.0
        got = tabulated(3.0, t[0], step, n, 4)
        for m in range(5):
            np.testing.assert_allclose(got[m], np.exp(1j * m * 3.0 * t), rtol=0, atol=1e-12)

    def test_benchmark_grid(self, benchmark_grid):
        # the drive's e^{i w21 t} and nine harmonics of w_b = w21 / 2, with the
        # step taken over the whole span
        t, w21, omega_b = benchmark_grid
        n = len(t)
        assert n == 183275
        step = (t[-1] - t[0]) / (n - 1)
        np.testing.assert_allclose(tabulated(w21, t[0], step, n, 1)[1],
                                   np.exp(1j * w21 * t), rtol=0, atol=1e-12)
        got = tabulated(omega_b, t[0], step, n, 8)
        for m in range(9):
            np.testing.assert_allclose(got[m], np.exp(1j * m * omega_b * t), rtol=0,
                                       atol=1e-12)

    def test_momentum_grid(self):
        # the momentum RK4's phases e^{i E_p t_k / hbar} at the benchmark's
        # large grid (solver_crosscheck at N = 1024): 1024 frequencies over
        # the 1105 step times of integrate's schedule
        cfg = default_config("solver_crosscheck")
        cfg["numerics"]["grid_points"] = 1024
        coupling = scenarios.coupling_for(cfg)
        kin = coupling.kin
        sigma = cfg["sweep"]["sigma_et_over_period"][0] * coupling.tls.period
        grid = default_packet(GaussianQewSpec.from_duration(kin, sigma), coupling, 1024).grid
        t_start, t_end = interaction_window(sigma, coupling.transit_time, 0.0,
                                            **scenarios.window_factors(cfg))
        steps, _ = step_schedule((t_start, t_end), default_time_step(grid, coupling),
                                 cfg["numerics"]["time_samples"])
        assert steps == 1104
        dt = (t_end - t_start) / steps
        w = kin.dispersion(grid.points) / HBAR_EV_FS
        t = t_start + np.arange(steps + 1) * dt
        outer, inner = phase_tables(w, t_start, dt, steps + 1)
        got = (outer[:, None] * inner).reshape(-1, grid.n)[:steps + 1]
        err = np.max(np.abs(got - np.exp(1j * np.multiply.outer(t, w))))
        assert err <= 4 * np.finfo(float).eps * np.max(np.abs(np.multiply.outer(t, w)))

    def test_drive_matches_complex_exp(self, monkeypatch, benchmark_grid):
        # the drive f e^{i w21 t} / (i hbar) that _rk4_columns hands to the
        # step pairs, chunk by chunk (consecutive chunks share one sample),
        # on the 183k-sample grid: a phase step taken as a neighbour
        # difference would be off by 4e-12 relative and miss here
        t, w21, _ = benchmark_grid
        vals = np.cos(0.3 * t) + 0.5
        prof = InteractionProfile(times=t, values=vals)
        drives = []

        def recorded(w2, dt):
            drives.append(w2)
            return _step_pairs(w2, dt)

        monkeypatch.setattr(born_dynamics, "_step_pairs", recorded)
        _rk4_columns(prof, w21, np.eye(2))
        assert len(drives) > 1
        got = np.concatenate([drives[0]] + [w2[1:] for w2 in drives[1:]])
        want = vals * np.exp(1j * w21 * t) / (1j * HBAR_EV_FS)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))



@pytest.mark.parametrize("order, g", [(1, 0.1), (8, 0.5), (32, 4.0)])
def test_density_spectrum_inverts_to_reconstruction(kin, tls, order, g):
    # rho-hat on a two-sided frequency grid, inverted by one complex transform,
    # against the Gaussian times the dense sum over all 2M + 1 harmonics, with
    # t0 and t_mod nonzero
    omega_b = tls.omega_21 / 2.0
    base = GaussianQewSpec.from_duration(kin, 10.0, t0=0.4)
    spectrum = modulation_fourier_coefficients(
        ModulatedQewSpec(base=base, g=g, omega_b=omega_b,
                         drift_time=optimal_drift_time(kin, omega_b, g)), order)
    t0, t_mod, sigma, h, n = 0.4, -1.7, 10.0, 0.03, 8192
    omega = TWO_PI * np.fft.fftfreq(n, h)
    s = h * (np.arange(n) - n // 2)
    rho = np.fft.ifft(_density_spectrum(spectrum, order, sigma, t0 - t_mod, omega)
                      * np.exp(1j * omega * s[0])) / h
    want = reconstruct(spectrum, s + t0 - t_mod) \
        * np.exp(-(s**2) / (2.0 * sigma**2)) / (math.sqrt(TWO_PI) * sigma)
    np.testing.assert_allclose(rho, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


def test_modulated_grid_covers_the_window(benchmark_spot):
    # the benchmark's spot check: 13,475 samples at min(T21, 2 pi/omega_top)/100,
    # omega_top = 8 w_b + 9/sigma, the fewest about t0 that cover the window
    coupling, spectrum, sigma, w21, grid_args = benchmark_spot
    prof = modulated_interaction_profile(coupling, sigma, spectrum, 0.0, 0.0,
                                         max_harmonic=8, **grid_args)
    step = TWO_PI / (8 * spectrum.omega_b + 9.0 / sigma) / 100
    assert step < TWO_PI / w21 / 100
    assert len(prof.times) == 13475
    assert prof.step == pytest.approx(step, rel=1e-12)
    np.testing.assert_array_equal(prof.times, -prof.times[::-1])
    _, hi = interaction_window(sigma, coupling.transit_time, 0.0,
                               grid_args["transit_factor"], grid_args["sigma_factor"])
    assert hi <= prof.times[-1] < hi + step


def test_no_per_sample_complex_exp(monkeypatch):
    # the benchmark's spot check: every complex exp that born_dynamics
    # evaluates (the density spectrum's harmonic phases, the drive), in its
    # module or through core.phase_tables, takes at most a phase table's
    # O(sqrt n) times per frequency (the leading axis), none one per profile
    # sample
    sizes, samples = [], []

    class RecordedNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, x, *args, **kwargs):
            if np.iscomplexobj(x):
                sizes.append(np.shape(x)[0] if np.ndim(x) else 1)
            return np.exp(x, *args, **kwargs)

    evolve = born_dynamics.evolve_tls

    def recorded(state0, profile, *args, **kwargs):
        samples.append(len(profile.values))
        return evolve(state0, profile, *args, **kwargs)

    monkeypatch.setattr(born_dynamics, "np", RecordedNumpy())
    monkeypatch.setattr(core, "np", RecordedNumpy())
    monkeypatch.setattr(born_dynamics, "evolve_tls", recorded)
    scenarios.run_scenario(benchmark_spot_config())
    assert samples == [13475]
    assert sizes and max(sizes) <= 0.01 * samples[0]


class TestRSquared:
    def test_constant_data_exact_model(self):
        y = np.full(5, 0.3)
        assert r_squared(y, y.copy()) == 1.0

    def test_constant_data_nan_or_wrong_model(self):
        y = np.full(5, 0.3)
        assert math.isnan(r_squared(y, np.full(5, np.nan)))
        assert math.isnan(r_squared(y, y + 1e-3))


class TestArrivalSchedule:
    def test_correlated_locked_to_period(self, tls):
        omega_b = tls.omega_21 / 2.0
        t_b = TWO_PI / omega_b
        times = arrival_schedule(50, omega_b, t_0l=0.4, mean_spacing=3 * t_b, seed=3)
        k = (times - 0.4) / t_b
        np.testing.assert_allclose(k, np.round(k), atol=1e-9)
        assert np.all(np.diff(np.round(k)) >= 1)

    def test_seed_reproducible(self, tls):
        omega_b = tls.omega_21
        a, b, c = (arrival_schedule(40, omega_b, seed=seed) for seed in (9, 9, 10))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        a, b, c = random_arrival_times(40, [9, 9, 10], 1.0)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_random_rows_equal_per_seed_draws(self):
        # one (S, N) array against each seed's own generator, drawn and summed
        # one schedule at a time
        seeds, n, spacing = [9, 1003, 42], 40, 2.5
        times = random_arrival_times(n, seeds, spacing, t_0l=0.3)
        assert times.shape == (3, n)
        for row, seed in zip(times, seeds):
            gaps = np.random.default_rng(seed).uniform(0.5, 1.5, size=n) * spacing
            np.testing.assert_array_equal(row, 0.3 + np.cumsum(gaps))

    def test_strictly_increasing_enforced(self):
        # gaps lost to rounding at a huge start time, in any row
        with pytest.raises(DomainError, match="strictly increasing"):
            random_arrival_times(5, [1, 2], 1.0, t_0l=1e20)

    @pytest.mark.parametrize("n, omega_b, reason", [
        (0, 1.0, "at least one electron"),
        (5, 0.0, "omega_b must be > 0"),
    ], ids=["no-electron", "no-comb"])
    def test_locked_schedule_needs_an_electron_and_a_comb(self, n, omega_b, reason):
        with pytest.raises(DomainError, match=reason):
            arrival_schedule(n, omega_b)


def train(times, coupling, sigma_pt, **kw):
    """P2 after each electron of one train from ground: an ensemble of one."""
    return simulate_train_ensemble(TlsState.ground(), times[None],
                                   train_window(coupling, sigma_pt, **kw))[0]


def reference_train(state0, times, u0, omega_21):
    """The per-electron loop: the window propagator u0 conjugated by each
    arrival phase diag(1, e^{i w21 t_K}), applied in turn."""
    s = np.array([state0.c1, state0.c2], dtype=complex)
    p2 = np.empty(len(times))
    for k, t_k in enumerate(times):
        d = np.array([1.0, np.exp(1j * omega_21 * t_k)])
        s = d * (u0 @ (d.conj() * s))
        p2[k] = abs(s[1]) ** 2
    return p2


class TestTrains:
    @pytest.fixture
    def omega_b(self, tls):
        return tls.omega_21 / 2.0

    def test_single_electron_matches_evolve(self, coupling, tls, omega_b):
        # the phase-conjugation shortcut equals a direct window evolution at
        # the shifted arrival time
        t_b = TWO_PI / omega_b
        t_k = 7.0 * t_b + 0.0  # on the comb
        sigma_pt = 0.08
        p2 = train(np.array([t_k]), coupling, sigma_pt)
        prof = interaction_profile(coupling, sigma_pt, t_k)
        traj = evolve_tls(TlsState.ground(), prof, tls.omega_21)
        assert p2[0] == pytest.approx(traj.p2[-1], rel=1e-9)

    def test_resonant_buildup_quadratic(self, coupling, tls, omega_b):
        t_b = TWO_PI / omega_b
        sched = arrival_schedule(20, omega_b, mean_spacing=3 * t_b, seed=1)
        p2 = train(sched, coupling, 0.08)
        n = np.arange(1, 21)
        _, r2 = quadratic_fit(n, p2)
        assert r2 >= 0.99
        assert p2[-1] / p2[0] == pytest.approx(400.0, rel=0.02)

    def test_resonant_buildup_seed_independent(self, coupling, tls, omega_b):
        # at exact resonance the random comb integers cancel out
        t_b = TWO_PI / omega_b
        a = train(arrival_schedule(12, omega_b, mean_spacing=3 * t_b, seed=4), coupling, 0.08)
        b = train(arrival_schedule(12, omega_b, mean_spacing=5 * t_b, seed=99), coupling, 0.08)
        np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_random_mean_linear(self, coupling, tls, omega_b):
        t_b = TWO_PI / omega_b
        times = random_arrival_times(60, range(100, 124), 3 * t_b)
        ens = simulate_train_ensemble(TlsState.ground(), times,
                                      train_window(coupling, 0.08))
        mean = ens.mean(axis=0)
        _, r2 = linear_fit(np.arange(1, 61), mean)
        assert r2 >= 0.9

    def test_ensemble_equals_loop(self, coupling, tls, omega_b):
        t_b = TWO_PI / omega_b
        times = random_arrival_times(10, (3, 8), 3 * t_b)
        state0 = TlsState.equatorial(0.9)
        ens = simulate_train_ensemble(state0, times, train_window(coupling, 0.08))
        u0 = window_propagator(interaction_profile(coupling, 0.08, 0.0),
                               tls.omega_21)
        assert ens.shape == (2, 10)
        for row, t in zip(ens, times):
            np.testing.assert_allclose(row, reference_train(state0, t, u0, tls.omega_21),
                                       rtol=1e-12)

    def test_points_per_scale_sets_window_grid(self, coupling, tls, omega_b):
        t_b = TWO_PI / omega_b
        sched = arrival_schedule(5, omega_b, mean_spacing=3 * t_b, seed=2)
        fine, coarse = (train(sched, coupling, 0.08, points_per_scale=pps)
                        for pps in (100, 50))
        prof = interaction_profile(coupling, 0.08, 0.0, points_per_scale=50)
        u0 = window_propagator(prof, tls.omega_21)
        assert not np.array_equal(fine, coarse)
        np.testing.assert_allclose(coarse, fine, rtol=1e-4)
        np.testing.assert_allclose(
            coarse, reference_train(TlsState.ground(), sched, u0, tls.omega_21),
            rtol=1e-12)

    def test_overlap_warning(self, coupling, tls):
        with pytest.warns(RuntimeWarning, match="overlap"):
            train(np.array([0.0, 0.05]), coupling, 0.08)

    def test_ensemble_warns_if_any_schedule_overlaps(self, coupling, tls):
        # windows are +-(10 t_r + 6 sigma) ~ 0.56 fs wide: 10 fs gaps are
        # clear, one 0.05 fs gap in the second schedule is not
        clear = np.array([0.0, 10.0, 20.0])
        tight = np.array([0.0, 10.0, 10.05])
        window = train_window(coupling, 0.08)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            simulate_train_ensemble(TlsState.ground(), np.stack([clear, clear]), window)
        with pytest.warns(RuntimeWarning, match="min gap 0.05 fs"):
            simulate_train_ensemble(TlsState.ground(), np.stack([clear, tight]), window)

    def test_train_window_is_the_window_propagator(self, coupling, tls):
        window = train_window(coupling, 0.08, points_per_scale=50)
        prof = interaction_profile(coupling, 0.08, 0.0, points_per_scale=50)
        u = window_propagator(prof, tls.omega_21)
        np.testing.assert_array_equal(window.channel, np.kron(u, u.conj()))
        assert window.length == 2.0 * prof.times[-1]
        assert window.omega_21 == tls.omega_21


def reference_channel_train(rho0, times, u, omega_21):
    """The per-electron loop on a density matrix: rho -> w rho w^dagger with
    w = D u D^dagger, D = diag(1, e^{i w21 t_K})."""
    rho = np.array(rho0, dtype=complex)
    p2 = np.empty(len(times))
    for k, t_k in enumerate(times):
        d = np.array([1.0, np.exp(1j * omega_21 * t_k)])
        w = d[:, None] * u * d.conj()
        rho = w @ rho @ w.conj().T
        p2[k] = rho[1, 1].real
    return p2, rho


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), trains=st.integers(1, 4),
       omega_21=st.floats(0.1, 10.0))
def test_stepper_equals_conjugation_loop(seed, n, trains, omega_21):
    # a random unitary window, random increasing arrivals, a random mixed start
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    times = np.cumsum(rng.uniform(0.1, 50.0, size=(trains, n)), axis=1)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho0 = a @ a.conj().T
    rho0 /= np.trace(rho0).real
    window = TrainWindow(np.kron(u, u.conj()), 0.0, omega_21)
    p2, rho = _step_trains(rho0, times, window)
    assert p2.shape == (trains, n) and rho.shape == (trains, 2, 2)
    for i in range(trains):
        p2_want, rho_want = reference_channel_train(rho0, times[i], u, omega_21)
        np.testing.assert_allclose(p2[i], p2_want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rho[i], rho_want, rtol=0, atol=1e-12)
