"""Probabilistic time-domain model: weighted interaction profiles and TLS dynamics.

The electron's arrival at the TLS is represented by its probability current:
the spatial coupling kernel is convolved with the packet's temporal profile,

    f(t - t0) = integral du M(v0*u) f_et(t - t0 - u),

giving a weighted interaction pulse of energy units that drives the TLS
coupled equations

    dC2/dt = (1/i hbar) C1 e^{+i w21 t} f(t - t0)
    dC1/dt = (1/i hbar) C2 e^{-i w21 t} f(t - t0).

(The +/- phase assignment is fixed by deriving the equations from the joint
Schrodinger problem with E2 > E1; it reproduces the first-order increment
+sin(zeta) law and matches the grid solvers.  It also makes the pair norm
conserving for any real profile.)

Every profile builder reads t_r and the TLS period T_21 = 2 pi/omega_21 from
its DipoleCoupling, the one physics handle it takes.  The plain profile
samples its profile_time_grid (window factors and points per scale as
arguments) at min(t_r, sigma_et, T_21)/points_per_scale and convolves the
kernel, cut at KERNEL_REACH_TR transit times, with the Gaussian directly; it
raises ResolutionError when its step exceeds min(t_r, sigma_et)/20
(MIN_POINTS_PER_SCALE).
The profile has the kernel's parity about t0, so one real transform computes
the half tau >= 0 from the Gaussian out to GAUSSIAN_REACH sigma_et and the
kernel lags that half reads, and the other half is its mirror.
The density-modulated profile is band-limited by its envelope: it is the
inverse real transform of the exact kernel spectrum times the bunched
density's spectrum, sampled over the same window at
min(T_21, 2 pi/omega_top)/points_per_scale, and raises ResolutionError above
that scale/20.  Neither builder allocates a grid or a transform of more than
MAX_PROFILE_SAMPLES samples: it raises DomainError first.

Phase factors e^{i w t_j} on a uniform grid t_j = t_first + j h (the drive's
e^{i w21 t}) come from two small tables (``core.phase_tables``), not one
complex exp per sample: with B ~ sqrt(n) and j = b B + i,
e^{i w t_j} = e^{i w (t_first + b B h)} e^{i w i h}.  The one step h of a
profile (kernel, quadrature and RK4) is its span over the interval count,
not the difference of two neighbouring samples: that carries the rounding of
the samples' magnitude (4e-12 relative on a 183k-sample profile grid), which
j h multiplies into a phase error.

The drive is prescribed, so the equations are linear and each fixed-step
RK4 step is a 2x2 matrix.  With A = [[0, -conj(w)], [w, 0]] every step
matrix has the form [[alpha, -conj(beta)], [beta, conj(alpha)]], and so has
every product of them (the SU(2) form, here without the unit determinant),
so a step or a product is stored as the pair (alpha, beta).  With a, b, c the
drive w at t, t + dt/2 and t + dt and k = b - (dt^2/4)|b|^2 a,

    alpha = 1 - (dt^2/6)(conj(b) a + |b|^2 + conj(c) k),
    beta = (dt/6)(a + 2b + 2k + c (1 - dt^2 |b|^2/2)),

and a product (later 1, earlier 2) is alpha = alpha1 alpha2 - conj(beta1) beta2,
beta = beta1 alpha2 + conj(alpha1) beta2.  The steps between recorded time
points form a segment; chunks of whole segments, at most SEGMENT_STEPS steps
each, are laid out as (segments, steps) arrays and reduced by one pairwise
tree (an associative ordered product), and the segment products are then
applied in order.  A segment longer than SEGMENT_STEPS is split into equal
pieces, and short rows are padded with identity steps.  SEGMENT_STEPS =
16384 reduces a 91.6k-step profile (183k samples) in 6 chunks, with
temporaries near 3 MiB: narrower chunks pay more per-chunk Python overhead
(26 chunks at 4096), wider ones gain nothing (README, performance notes).
The benchmark's modulated profile (6,737 steps) is one chunk.  The width only
regroups the steps.

Every electron train, Born or joint-grid, steps through one stepper,
simulate_train_ensemble (over the private _step_trains), on a TrainWindow built
once per run: the 4x4 channel of the row-major, rotating-frame TLS density
matrix across the window of a packet arriving at t = 0 (kron(u, conj(u)) of
the window propagator u from train_window here, the joint grid's from
solver_density.grid_windows).  Shifting the arrival by t_K only multiplies
rho_01 by e^{+i w21 t_K} before the channel and by e^{-i w21 t_K} after it,
which makes N^2-coherent buildup on the resonant arrival comb exact.
Phase-locked arrival times come from arrival_schedule, random ones from
random_arrival_times.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import fft

from feberi.core import HBAR_EV_FS, TWO_PI, DomainError, TlsState, phase_tables
from feberi.coulomb import DipoleCoupling, m_spatial, m_tilde
from feberi.grid import WINDOW_SIGMA_FACTOR, WINDOW_TRANSIT_FACTOR, interaction_window
from feberi.qew import ModulationSpectrum, ResolutionError


class StepSizeError(RuntimeError):
    """Integrator step too coarse: norm drifted beyond tolerance."""


# RK4 steps reduced at once: bounds the (segments, steps) temporaries
SEGMENT_STEPS = 16384
PROFILE_POINTS_PER_SCALE = 100   # default profile samples per shortest time scale
MIN_POINTS_PER_SCALE = 20        # the fewest a profile may take: coarser steps are refused
# the plain profile's kernel cut, and the least distance from a window end to
# the modulated profile's periodic images, in transit times
KERNEL_REACH_TR = 200.0
# the most samples a profile's grid or transform may hold: 64 MiB per float64
# array, 45 times the longest profile grid of the tests (183,275 samples)
MAX_PROFILE_SAMPLES = 2**23 + 1
# a Gaussian lobe e^{-x^2 sigma^2 / 2} is below e^{-40.5} ~ 3e-18 past x = 9/sigma
GAUSSIAN_REACH = 9.0


# -- interaction profiles ---------------------------------------------------------

@dataclass
class InteractionProfile:
    """Weighted interaction pulse f(t - t0) sampled on a uniform time grid.

    values are in eV.  The plain parallel-dipole profile is odd about t0 with
    zero total integral, the plain transverse one even and strictly positive.
    Orientation, packet size, arrival and kernel scale live in the coupling
    and arguments of the function that made it; the profile keeps only its
    samples.
    """

    times: np.ndarray      # absolute times, fs
    values: np.ndarray     # eV

    @property
    def step(self) -> float:
        return _span_step(self.times)


def _span_step(times: np.ndarray) -> float:
    """The step of a uniform grid as its span over the interval count."""
    return float(times[-1] - times[0]) / (len(times) - 1)


def profile_time_grid(coupling: DipoleCoupling, sigma_et: float, t0: float,
                      transit_factor: float = WINDOW_TRANSIT_FACTOR,
                      sigma_factor: float = WINDOW_SIGMA_FACTOR,
                      points_per_scale: int = PROFILE_POINTS_PER_SCALE) -> np.ndarray:
    """Uniform grid over the interaction window, step = min scale / points_per_scale.

    The step resolves the transit time, the packet duration and the
    coupling's TLS period, so an RK4 step of two grid intervals meets the
    min(t_r, sigma_et, T_21)/50 rule.  Raises DomainError, before it
    allocates, past MAX_PROFILE_SAMPLES samples.
    """
    t_r = coupling.transit_time
    scales = [t_r, coupling.tls.period]
    if sigma_et > 0.0:
        scales.append(sigma_et)
    return _window_grid(coupling, sigma_et, t0, min(scales) / points_per_scale,
                        transit_factor, sigma_factor)


def _window_grid(coupling: DipoleCoupling, sigma_et: float, t0: float, step: float,
                 transit_factor: float, sigma_factor: float) -> np.ndarray:
    """t0 + step * (-n..n), the fewest samples that cover the interaction window."""
    half = interaction_window(sigma_et, coupling.transit_time, 0.0,
                              transit_factor, sigma_factor)[1]
    # 2 ceil(x) + 1 passes the odd ceiling exactly when 2 x + 1 does, and x may be inf
    _check_samples(2.0 * (half / step) + 1.0, "grid")
    n = int(math.ceil(half / step))
    return t0 + step * np.arange(-n, n + 1)


def _check_samples(count: float, what: str) -> None:
    """Raise DomainError if a profile's grid or transform would hold more than
    MAX_PROFILE_SAMPLES samples."""
    if count > MAX_PROFILE_SAMPLES:
        raise DomainError(f"a profile {what} of {count:.4g} samples is above the ceiling "
                          f"MAX_PROFILE_SAMPLES = {MAX_PROFILE_SAMPLES}; lower "
                          "profile_points_per_scale or the window factors")


def _check_step(h: float, limit: float) -> None:
    if h > limit * (1.0 + 1e-9):
        raise ResolutionError(f"profile step {h:.3g} fs exceeds {limit:.3g} fs")


def interaction_profile(coupling: DipoleCoupling, sigma_et: float, t0: float,
                        transit_factor: float = WINDOW_TRANSIT_FACTOR,
                        sigma_factor: float = WINDOW_SIGMA_FACTOR,
                        points_per_scale: int = PROFILE_POINTS_PER_SCALE) -> InteractionProfile:
    """The spatial kernel convolved with the packet's temporal profile,
    integral du M(v0 u) f_et(tau - u), tau = t - t0, on the
    ``profile_time_grid`` of the same arguments.

    Raises ResolutionError if the step exceeds min(t_r, sigma_et)/20, and
    DomainError past MAX_PROFILE_SAMPLES samples of grid or transform.  For
    sigma_et below one grid step the Gaussian acts as a delta and the bare
    kernel is returned.  The kernel is truncated at +-KERNEL_REACH_TR * t_r
    (relative tail ~ (2 reach^2)^-1): a near-point packet's spectrum is broad,
    and a spectral product's periodic images would need padding far past that
    reach to match this direct convolution.

    The kernel is odd (parallel) or even (transverse) and the Gaussian even, so
    only the outputs tau = 0..n h are computed, and the rest is their mirror
    with the kernel's parity (the parallel centre exactly 0).  The Gaussian is
    sampled out to GAUSSIAN_REACH sigma_et (g samples, below 3e-18 of its peak
    past that), the kernel only at the lags those outputs read, and one real
    transform convolves the two (38,400 samples for fig9's point packet).
    """
    grid = profile_time_grid(coupling, sigma_et, t0, transit_factor, sigma_factor,
                             points_per_scale)
    h = _span_step(grid)
    t_r = coupling.transit_time
    _check_step(h, min(t_r, sigma_et) / MIN_POINTS_PER_SCALE if sigma_et > 0
                else t_r / MIN_POINTS_PER_SCALE)
    v0 = coupling.kin.v0
    if sigma_et < h:
        return InteractionProfile(grid, m_spatial(v0 * (grid - t0), coupling))
    n = (len(grid) - 1) // 2
    m = int(math.ceil(KERNEL_REACH_TR * t_r / h))
    g = int(math.ceil(GAUSSIAN_REACH * sigma_et / h))
    lo, hi = max(-g, -m), min(n + g, m)                  # kernel lags read
    j_lo, j_hi = max(-g, -hi), min(g, n - lo)             # density samples read
    # output i sits at lag + sample i - lo - j_lo of the linear convolution, and
    # outputs past its end (kernel and Gaussian both out of reach) are zero
    size = fft.next_fast_len(max(hi + j_hi, n) + 1 - lo - j_lo, real=True)
    _check_samples(size, "transform")
    density = np.arange(j_lo, j_hi + 1, dtype=float)
    density *= h / sigma_et
    density *= density
    density *= -0.5
    np.exp(density, out=density)
    density *= h / (math.sqrt(TWO_PI) * sigma_et)        # with the quadrature weight
    # each input is dropped once used: the transforms below hold the peak
    spec = fft.rfft(density, size)
    del density
    spec *= fft.rfft(m_spatial(v0 * (h * np.arange(lo, hi + 1)), coupling), size)
    half = fft.irfft(spec, size, overwrite_x=True)[-lo - j_lo:n + 1 - lo - j_lo]
    del spec
    vals = np.empty(2 * n + 1)
    vals[n:] = half
    if coupling.orientation == "parallel":
        vals[n] = 0.0
        np.negative(half[:0:-1], out=vals[:n])
    else:
        vals[:n] = half[:0:-1]
    return InteractionProfile(grid, vals)


def _density_spectrum(spectrum: ModulationSpectrum, m_top: int, sigma_et: float,
                     shift: float, omega) -> np.ndarray:
    """Fourier transform, integral ds e^{-i omega s} rho(s), of the bunched density

        rho(s) = e^{-s^2 / 2 sigma^2} / (sqrt(2 pi) sigma) c(s + shift),
        c(s) = Re[f_0 + 2 sum_{1<=m<=m_top} f_m e^{i m w_b s}],

    at the frequencies ``omega`` (rad/fs, any sign): with G(x) = e^{-x^2 sigma^2/2},
    c_0 = f_0, c_m = 2 f_m and a_m = c_m e^{i m w_b shift},

        rho-hat(omega) = (1/2) sum_m [a_m G(omega - m w_b) + conj(a_m) G(omega + m w_b)].
    """
    m = np.arange(m_top + 1)
    a = spectrum.f_m[spectrum.order:][:m_top + 1] * np.exp(1j * spectrum.omega_b * shift * m)
    a[1:] *= 2.0
    sidebands = spectrum.omega_b * m
    upper = np.exp(-0.5 * (sigma_et * np.subtract.outer(omega, sidebands)) ** 2)
    lower = np.exp(-0.5 * (sigma_et * np.add.outer(omega, sidebands)) ** 2)
    return 0.5 * (upper @ a + lower @ a.conj())


def modulated_interaction_profile(coupling: DipoleCoupling, sigma_et: float,
                                  spectrum: ModulationSpectrum, t_mod: float,
                                  t0: float, max_harmonic: int | None = None,
                                  transit_factor: float = WINDOW_TRANSIT_FACTOR,
                                  sigma_factor: float = WINDOW_SIGMA_FACTOR,
                                  points_per_scale: int = PROFILE_POINTS_PER_SCALE
                                  ) -> InteractionProfile:
    """Profile of a density-modulated packet: envelope times bunching comb.

    The packet density carries the periodic factor
    f_mod(t - z/v0 - t_mod) = sum_m f_m e^{i m w_b (t - z/v0 - t_mod)}, so the
    profile is the kernel convolved once with the bunched temporal density,

        f(tau) = integral du M(v0 u) rho(tau - u),  tau = t - t0,

    with rho of ``_density_spectrum`` at shift t0 - t_mod.  ``max_harmonic``
    truncates the sum (default: the spectrum's order m_top).  The profile is
    taken from its transform F(omega) = M-hat(omega) rho-hat(omega), where
    M-hat(omega) = Mt(hbar omega / v0) / v0 is the exact kernel spectrum
    (``coulomb.m_tilde``), with no kernel cut.  rho-hat vanishes past
    omega_top = m_top w_b + 9/sigma_et, so F is set on the non-negative bins
    up to omega_top and one inverse real transform gives f on the grid.

    The grid covers the interaction window with the step
    min(T_21, 2 pi/omega_top)/points_per_scale, T_21 the coupling's TLS period;
    ResolutionError is raised if it exceeds that scale/20, and DomainError past
    MAX_PROFILE_SAMPLES samples of grid or transform.  The transform is at
    least ceil(400 t_r / h) samples longer than the grid, so f's periodic
    images start 200 t_r or more past each window end, and its output is
    rolled onto the grid.
    """
    if sigma_et <= 0.0:
        raise DomainError("a modulated profile needs sigma_et > 0")
    m_top = spectrum.order if max_harmonic is None else min(max_harmonic, spectrum.order)
    omega_top = m_top * spectrum.omega_b + GAUSSIAN_REACH / sigma_et
    scale = min(coupling.tls.period, TWO_PI / omega_top)
    grid = _window_grid(coupling, sigma_et, t0, scale / points_per_scale,
                        transit_factor, sigma_factor)
    h = _span_step(grid)
    _check_step(h, scale / MIN_POINTS_PER_SCALE)
    n = (len(grid) - 1) // 2
    t_r = coupling.transit_time
    size = fft.next_fast_len(len(grid) + math.ceil(2.0 * KERNEL_REACH_TR * t_r / h),
                             real=True)
    _check_samples(size, "transform")
    d_omega = TWO_PI / (size * h)
    omega = d_omega * np.arange(int(omega_top / d_omega) + 1)
    v0 = coupling.kin.v0
    spec = np.zeros(size // 2 + 1, dtype=complex)
    spec[:len(omega)] = m_tilde(HBAR_EV_FS * omega / v0, coupling) / v0 \
        * _density_spectrum(spectrum, m_top, sigma_et, t0 - t_mod, omega)
    vals = fft.irfft(spec, size)[np.arange(-n, n + 1)] / h
    return InteractionProfile(grid, vals)


# -- TLS evolution -------------------------------------------------------------------

@dataclass
class TlsTrajectory:
    times: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    norm: np.ndarray
    final: TlsState

    @property
    def p1(self) -> np.ndarray:
        return np.abs(self.c1) ** 2

    @property
    def p2(self) -> np.ndarray:
        return np.abs(self.c2) ** 2


def _step_pairs(w2: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """RK4 step matrices of dv/dt = A(t) v over n steps, as pairs (alpha, beta).

    A = [[0, -conj(w)], [w, 0]] with w = ``w2`` sampled at every half-step
    (2n + 1 values); step j is [[alpha_j, -conj(beta_j)], [beta_j, conj(alpha_j)]]
    (module docstring).
    """
    a, b, c = w2[:-1:2], w2[1::2], w2[2::2]
    bb = b.real**2 + b.imag**2
    k = b - (0.25 * dt * dt) * bb * a
    alpha = 1.0 - (dt * dt / 6.0) * (b.conj() * a + bb + c.conj() * k)
    beta = (dt / 6.0) * (a + 2.0 * b + 2.0 * k + c * (1.0 - 0.5 * dt * dt * bb))
    return alpha, beta


def _ordered_pairs(alpha: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair of the ordered product (last step leftmost) along the last axis,
    by pairwise tree reduction."""
    while alpha.shape[-1] > 1:
        a1, b1, a2, b2 = alpha[..., 1::2], beta[..., 1::2], alpha[..., :-1:2], beta[..., :-1:2]
        a, b = a1 * a2 - b1.conj() * b2, b1 * a2 + a1.conj() * b2
        if alpha.shape[-1] % 2:
            a = np.concatenate([a, alpha[..., -1:]], axis=-1)
            b = np.concatenate([b, beta[..., -1:]], axis=-1)
        alpha, beta = a, b
    return alpha[..., 0], beta[..., 0]


def _rk4_columns(profile: InteractionProfile, omega_21: float,
                 cols: np.ndarray, n_records: int = 0):
    """Advance TLS columns through the profile with fixed-step RK4.

    ``cols`` has shape (2, k): k independent amplitude pairs evolved jointly
    (k = 1 for a state, k = 2 for the window propagator).  The RK4 step is
    two profile samples, with midpoints on the odd samples.  Records fall
    every n_steps // n_records steps and at the end (only at the end for
    n_records = 0).  Each segment between records is ``pieces`` rows of
    ``width`` <= SEGMENT_STEPS steps, the last ones padded with identity
    steps; chunks of at most SEGMENT_STEPS row slots are reduced at once.
    Returns (record_indices, trajectory array (records, 2, k), final (2, k)).
    """
    f = profile.values
    t = profile.times
    if len(f) % 2 == 0:       # need an odd sample count for paired half-steps
        f = f[:-1]
        t = t[:-1]
    n_steps = (len(f) - 1) // 2
    h = profile.step
    dt = 2.0 * h
    seg = max(1, n_steps // n_records if n_records else n_steps)   # steps per segment
    pieces = -(-seg // SEGMENT_STEPS)         # rows per segment
    width = -(-seg // pieces)                 # steps per row
    n_rows = -(-n_steps // seg) * pieces
    chunk = SEGMENT_STEPS // width            # rows reduced at once
    v = cols.astype(complex)
    rec = [v]
    for r0 in range(0, n_rows, chunk):
        r = np.arange(r0, min(r0 + chunk, n_rows))[:, None]
        offset = (r % pieces) * width + np.arange(width)
        step = (r // pieces) * seg + offset
        valid = (offset < seg) & (step < n_steps)
        alpha = np.ones(step.shape, dtype=complex)
        beta = np.zeros(step.shape, dtype=complex)
        if valid.any():       # the valid steps, row by row, are s0..s1-1
            s0, s1 = 2 * int(step[valid][0]), 2 * int(step[valid][-1]) + 3
            # drive coefficients at every half-step: w2 drives C2, -conj(w2) drives
            # C1; the phase tables are anchored at the chunk's first sample
            outer, inner = phase_tables([omega_21], float(t[s0]), h, s1 - s0)
            phase = (outer / (1j * HBAR_EV_FS) * inner[:, 0]).ravel()[:s1 - s0]
            w2 = f[s0:s1] * phase
            alpha[valid], beta[valid] = _step_pairs(w2, dt)
        alpha, beta = _ordered_pairs(alpha, beta)
        rows = np.empty((len(alpha), 2, 2), dtype=complex)
        rows[:, 0, 0], rows[:, 0, 1] = alpha, -beta.conj()
        rows[:, 1, 0], rows[:, 1, 1] = beta, alpha.conj()
        for i, m in enumerate(rows, start=r0 + 1):
            v = m @ v
            if i % pieces == 0:
                rec.append(v)
    rec_steps = np.minimum(seg * np.arange(len(rec)), n_steps)
    return 2 * rec_steps, np.asarray(rec), v


def evolve_tls(state0: TlsState, profile: InteractionProfile, omega_21: float,
               n_records: int = 200) -> TlsTrajectory:
    """Integrate the TLS coupled equations through one interaction profile.

    Raises StepSizeError if the pair norm drifts by more than 1e-6.
    """
    cols = np.array([[state0.c1], [state0.c2]], dtype=complex)
    rec_idx, rec, v = _rk4_columns(profile, omega_21, cols, n_records=n_records)
    c1 = rec[:, 0, 0]
    c2 = rec[:, 1, 0]
    norm = np.abs(c1) ** 2 + np.abs(c2) ** 2
    drift = float(np.max(np.abs(norm - 1.0)))
    if drift > 1e-6:
        raise StepSizeError(f"norm drift {drift:.2e} > 1e-6; refine the profile grid")
    final = TlsState.normalized(complex(v[0, 0]), complex(v[1, 0]))
    return TlsTrajectory(times=profile.times[rec_idx], c1=c1, c2=c2,
                         norm=norm, final=final)


def window_propagator(profile: InteractionProfile, omega_21: float) -> np.ndarray:
    """2x2 propagator of one interaction window (unitary to integrator accuracy)."""
    cols = np.eye(2, dtype=complex)
    _, _, u = _rk4_columns(profile, omega_21, cols)
    err = float(np.max(np.abs(u.conj().T @ u - np.eye(2))))
    if err > 1e-6:
        raise StepSizeError(f"window propagator unitarity error {err:.2e}")
    return u


# -- arrival schedules ----------------------------------------------------------------

def arrival_schedule(n: int, omega_b: float, t_0l: float = 0.0,
                     mean_spacing: float | None = None, seed: int = 0) -> np.ndarray:
    """Arrival times (N,) of a seeded phase-locked schedule of n electrons:
    t_K = t_0l + n_K T_b with random ascending integers n_K, T_b = 2 pi/omega_b,
    and gaps of about ``mean_spacing`` (default 3 T_b) and at least T_b.  Random
    trains come from ``random_arrival_times``.
    """
    if n < 1:
        raise DomainError("need at least one electron")
    if omega_b <= 0.0:
        raise DomainError("omega_b must be > 0 for a phase-locked schedule")
    t_b = TWO_PI / omega_b
    if mean_spacing is None:
        mean_spacing = 3.0 * t_b
    gap_mean = max(1, int(round(mean_spacing / t_b)))
    rng = np.random.default_rng(seed)
    n_k = np.cumsum(rng.integers(1, 2 * gap_mean, size=n))   # gaps ~ gap_mean, all >= 1
    return t_0l + n_k * t_b


def random_arrival_times(n: int, seeds, mean_spacing: float,
                         t_0l: float = 0.0) -> np.ndarray:
    """Arrival times (S, N) of S random schedules of n electrons, one per seed:
    continuous uniform gaps in [0.5, 1.5) mean_spacing with no phase relation.
    The gaps are scaled, summed and offset in the array returned, so no other
    (S, N) array is made."""
    times = np.empty((len(seeds), n))
    for row, seed in zip(times, seeds):
        row[:] = np.random.default_rng(seed).uniform(0.5, 1.5, size=n)
    times *= mean_spacing
    np.cumsum(times, axis=1, out=times)
    times += t_0l
    if np.any(times[:, 1:] <= times[:, :-1]):
        raise DomainError("arrival times must be strictly increasing")
    return times


# -- electron trains -------------------------------------------------------------------

class TrainWindow(NamedTuple):
    """A train's window: the 4x4 channel of the row-major, rotating-frame TLS
    density matrix across the window of a packet arriving at t = 0, the
    window's length in fs, and the TLS frequency the channel was built for."""

    channel: np.ndarray
    length: float
    omega_21: float


def train_window(coupling: DipoleCoupling, sigma_et_point: float,
                 transit_factor: float = WINDOW_TRANSIT_FACTOR,
                 sigma_factor: float = WINDOW_SIGMA_FACTOR,
                 points_per_scale: int = PROFILE_POINTS_PER_SCALE) -> TrainWindow:
    """The Born window of a near-point packet arriving at t = 0, at the
    coupling's omega_21, built once per train set: one interaction profile and
    one window propagator u, whose channel rho -> u rho u^dagger is
    kron(u, conj(u))."""
    omega_21 = coupling.tls.omega_21
    profile = interaction_profile(coupling, sigma_et_point, 0.0, transit_factor,
                                  sigma_factor, points_per_scale)
    u = window_propagator(profile, omega_21)
    return TrainWindow(np.kron(u, u.conj()), 2.0 * float(profile.times[-1]), omega_21)


def _step_trains(rho0: np.ndarray, times: np.ndarray,
                 window: TrainWindow) -> tuple[np.ndarray, np.ndarray]:
    """Step S trains, arrival times ``times`` (S, N), from the rotating-frame 2x2
    TLS state ``rho0``; returns P2 (S, N) and the final rho (S, 2, 2).
    Electron K is the window channel with rho_01 multiplied by e^{+i w21 t_K}
    before it and by e^{-i w21 t_K} after it."""
    v = np.reshape(rho0, (4, 1)) * np.ones(times.shape[0], dtype=complex)
    p2 = np.empty(times.T.shape)                        # (N, S)
    for k, t_k in enumerate(times.T):
        d = np.exp(1j * window.omega_21 * t_k)
        v[1] *= d
        v[2] *= d.conj()
        v = window.channel @ v
        v[1] *= d.conj()
        v[2] *= d
        p2[k] = v[3].real
    return p2.T, v.T.reshape(-1, 2, 2)


def simulate_train_ensemble(state0: TlsState, times: np.ndarray,
                            window: TrainWindow) -> np.ndarray:
    """P2 after each electron, shape (S, N), of S trains from ``state0`` with
    arrival times ``times`` (S, N), each electron passing through ``window``
    (Born or joint grid), stepped jointly by ``_step_trains``.  Warns if
    consecutive windows of any train overlap (the sequential model assumes
    they do not).  The check keeps only the smallest gap, so the stepping
    holds ``times`` and P2 and no other array of their size."""
    min_gap = np.diff(times, axis=1).min(initial=np.inf)
    if min_gap < window.length:
        warnings.warn(
            f"interaction windows overlap (min gap {min_gap:.3g} fs < "
            f"{window.length:.3g} fs); sequential model is approximate here",
            RuntimeWarning)
    c = np.array([state0.c1, state0.c2], dtype=complex)
    return _step_trains(np.outer(c, c.conj()), times, window)[0]


def quadratic_fit(n: np.ndarray, p2: np.ndarray) -> tuple[float, float]:
    """Least-squares p2 ~ a n^2; returns (a, R^2)."""
    n = np.asarray(n, dtype=float)
    a = float(np.sum(p2 * n**2) / np.sum(n**4))
    return a, r_squared(p2, a * n**2)


def linear_fit(n: np.ndarray, p2: np.ndarray) -> tuple[float, float]:
    """Least-squares p2 ~ b n; returns (b, R^2)."""
    n = np.asarray(n, dtype=float)
    b = float(np.sum(p2 * n) / np.sum(n**2))
    return b, r_squared(p2, b * n)


def r_squared(y: np.ndarray, model: np.ndarray) -> float:
    """Coefficient of determination.  Data without variance give 1.0 for an
    exact model and NaN otherwise (a NaN model included)."""
    ss_res = float(np.sum((y - model) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot > 0:
        return 1.0 - ss_res / ss_tot
    return 1.0 if ss_res == 0.0 else math.nan
