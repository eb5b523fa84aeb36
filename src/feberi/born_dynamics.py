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

The drive is prescribed, so the equations are linear and each fixed-step
RK4 step is a 2x2 matrix.  The step matrices of a segment are built in one
vectorized pass and multiplied by a pairwise tree reduction (an associative
ordered product); segments end at the recorded time points and are at most
SEGMENT_STEPS long, which bounds the temporaries.

For electron trains the per-window propagator is computed once and reused:
shifting the arrival time by t_K only conjugates the window propagator by
diag(1, e^{i w21 t_K}), which is what makes N^2-coherent buildup at the
resonance w21 = n*w_b arrival comb exact.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve

from feberi.core import HBAR_EV_FS, TWO_PI, DomainError, TlsState
from feberi.coulomb import DipoleCoupling, m_spatial
from feberi.grid import interaction_window
from feberi.qew import ModulationSpectrum, ResolutionError


class StepSizeError(RuntimeError):
    """Integrator step too coarse: norm drifted beyond tolerance."""


# RK4 steps multiplied per segment: bounds the (2, 2, steps) temporaries
SEGMENT_STEPS = 4096


# -- interaction profiles ---------------------------------------------------------

@dataclass
class InteractionProfile:
    """Weighted interaction pulse f(t - t0) sampled on a uniform time grid.

    values are in eV.  The parallel-dipole profile is odd about t0 with zero
    total integral, the transverse one even and strictly positive.
    """

    times: np.ndarray      # absolute times, fs
    values: np.ndarray     # eV
    orientation: str
    sigma_bar_et: float    # sigma_et / t_r
    t0: float
    t_r: float
    prefactor: float       # K_par or K_perp, eV

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0])


def kernel_prefactor(coupling: DipoleCoupling) -> float:
    """K = gamma (e^2/4 pi eps0) r21 / r_perp^2 in eV.

    Equals the bare transverse kernel at z = 0, and the parallel kernel's
    odd-part scale; the profile is K times a dimensionless convolution in
    t/t_r.
    """
    return coupling.kin.gamma * coupling.prefactor / coupling.geometry.r_perp**2


def profile_time_grid(coupling: DipoleCoupling, sigma_et: float, t0: float,
                      omega_21: float, transit_factor: float = 10.0,
                      sigma_factor: float = 6.0,
                      points_per_scale: int = 100) -> np.ndarray:
    """Uniform grid over the interaction window, step = min scale / points_per_scale.

    The step resolves the transit time, the packet duration and the TLS
    period, so an RK4 step of two grid intervals meets the
    min(t_r, sigma_et, T_21)/50 rule.
    """
    t_r = coupling.geometry.transit_time
    scales = [t_r, TWO_PI / omega_21]
    if sigma_et > 0.0:
        scales.append(sigma_et)
    step = min(scales) / points_per_scale
    half = interaction_window(sigma_et, t_r, 0.0, transit_factor, sigma_factor)[1]
    n = int(math.ceil(half / step))
    return t0 + step * np.arange(-n, n + 1)


def _convolved_kernel(coupling: DipoleCoupling, tau: np.ndarray, sigma_et: float,
                      comb=None, kernel_halfwidth_tr: float = 200.0) -> np.ndarray:
    """integral du M(v0 u) f_et(tau - u) c(tau - u) on the tau grid.

    ``comb`` maps times s (relative to tau = 0) to the real density weight
    c(s); None means c = 1.  For sigma_et below one grid step the Gaussian
    acts as a delta and the bare kernel times c(0) is returned.  The kernel
    is truncated at +-kernel_halfwidth_tr * t_r (relative tail
    ~ (2 halfwidth^2)^-1).
    """
    h = float(tau[1] - tau[0])
    v0 = coupling.kin.v0
    if sigma_et < h:
        vals = m_spatial(v0 * tau, coupling)
        return vals if comb is None else vals * comb(np.zeros(1))
    t_r = coupling.geometry.transit_time
    m = int(math.ceil(kernel_halfwidth_tr * t_r / h))
    u = h * np.arange(-m, m + 1)
    # a complex transform on purpose: the transverse profile's tails are ~4e-4
    # of its peak, and there the real FFT's rounding breaks evenness by
    # 1.3e-12 relative where the complex one stays below 1e-12
    kern = m_spatial(v0 * u, coupling).astype(complex)
    ext = np.concatenate([tau[0] + h * np.arange(-m, 0), tau, tau[-1] + h * np.arange(1, m + 1)])
    density = np.exp(-(ext**2) / (2.0 * sigma_et**2)) / (math.sqrt(TWO_PI) * sigma_et)
    if comb is not None:
        density *= comb(ext)
    return np.real(fftconvolve(density, kern, mode="valid")) * h


def interaction_profile(coupling: DipoleCoupling, sigma_et: float,
                        grid: np.ndarray, t0: float | None = None,
                        transit_factor: float = 10.0,
                        sigma_factor: float = 6.0) -> InteractionProfile:
    """Convolve the spatial kernel with the packet's temporal profile.

    ``grid`` is the absolute time grid (uniform); ``t0`` defaults to its
    midpoint.  Preconditions: the grid spans the interaction window of the
    given factors around t0 with step <= min(t_r, sigma_et)/20.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 8:
        raise DomainError("profile grid must be a 1-d array")
    h = float(grid[1] - grid[0])
    if not np.allclose(np.diff(grid), h, rtol=0, atol=1e-9 * h):
        raise DomainError("profile grid must be uniform")
    t_r = coupling.geometry.transit_time
    if t0 is None:
        t0 = float(grid[len(grid) // 2])
    limit = min(t_r, sigma_et) / 20.0 if sigma_et > 0 else t_r / 20.0
    if h > limit * (1.0 + 1e-9):
        raise ResolutionError(f"profile step {h:.3g} fs exceeds {limit:.3g} fs")
    lo, hi = interaction_window(sigma_et, t_r, t0, transit_factor, sigma_factor)
    if grid[0] > lo + 1e-12 or grid[-1] < hi - 1e-12:
        raise ResolutionError("profile grid does not span the interaction window")
    vals = _convolved_kernel(coupling, grid - t0, sigma_et)
    return InteractionProfile(times=grid, values=vals, orientation=coupling.orientation,
                              sigma_bar_et=sigma_et / t_r, t0=t0, t_r=t_r,
                              prefactor=kernel_prefactor(coupling))


def modulated_interaction_profile(coupling: DipoleCoupling, sigma_et: float,
                                  spectrum: ModulationSpectrum, t_mod: float,
                                  grid: np.ndarray, t0: float | None = None,
                                  max_harmonic: int | None = None) -> InteractionProfile:
    """Profile of a density-modulated packet: envelope times bunching comb.

    The packet density carries the periodic factor
    f_mod(t - z/v0 - t_mod) = sum_m f_m e^{i m w_b (t - z/v0 - t_mod)}.  The
    kernel is real, so the harmonics add up before the convolution: the
    profile is the kernel convolved once with the bunched temporal density,

        f(tau) = integral du M(v0 u) f_et(tau - u) c(tau - u),
        c(s) = Re[f_0 + 2 sum_{m>=1} f_m e^{i m w_b (s + t0 - t_mod)}].

    ``max_harmonic`` truncates the sum (default: the spectrum's order).
    """
    grid = np.asarray(grid, dtype=float)
    if t0 is None:
        t0 = float(grid[len(grid) // 2])
    m_top = spectrum.order if max_harmonic is None else min(max_harmonic, spectrum.order)
    coeffs = np.array([spectrum.coefficient(m) for m in range(m_top + 1)], dtype=complex)
    coeffs[1:] *= 2.0

    def comb(s: np.ndarray) -> np.ndarray:
        z = np.exp(1j * spectrum.omega_b * (s + t0 - t_mod))
        return np.real(np.polynomial.polynomial.polyval(z, coeffs))

    vals = _convolved_kernel(coupling, grid - t0, sigma_et, comb=comb)
    t_r = coupling.geometry.transit_time
    return InteractionProfile(times=grid, values=vals, orientation=coupling.orientation,
                              sigma_bar_et=sigma_et / t_r, t0=t0, t_r=t_r,
                              prefactor=kernel_prefactor(coupling))


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


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products a[..., j] @ b[..., j] of 2x2 matrices stacked along the last axis."""
    return a[:, :1] * b[:1] + a[:, 1:] * b[1:]


def _step_matrices(w2: np.ndarray, dt: float) -> np.ndarray:
    """RK4 step matrices, shape (2, 2, n), of dv/dt = A(t) v over n steps.

    A = [[0, -conj(w)], [w, 0]] with w = ``w2`` sampled at every half-step
    (2n + 1 values).  For a linear system the RK4 step is exactly the matrix
    P = I + dt/6 (K1 + 2 K2 + 2 K3 + K4), K1 = A(t), K2 = A(t + dt/2)(I + dt/2 K1),
    K3 = A(t + dt/2)(I + dt/2 K2), K4 = A(t + dt)(I + dt K3).
    """
    a = np.zeros((2, 2, len(w2)), dtype=complex)
    a[0, 1] = -np.conj(w2)
    a[1, 0] = w2
    a0, ah, a1 = a[..., :-1:2], a[..., 1::2], a[..., 2::2]
    eye = np.eye(2)[:, :, None]
    k2 = _mul(ah, eye + 0.5 * dt * a0)
    k3 = _mul(ah, eye + 0.5 * dt * k2)
    k4 = _mul(a1, eye + dt * k3)
    return eye + (dt / 6.0) * (a0 + 2.0 * k2 + 2.0 * k3 + k4)


def _ordered_product(m: np.ndarray) -> np.ndarray:
    """m[..., -1] @ ... @ m[..., 1] @ m[..., 0] by pairwise tree reduction."""
    while m.shape[-1] > 1:
        paired = _mul(m[..., 1::2], m[..., :-1:2])
        m = np.concatenate([paired, m[..., -1:]], axis=-1) if m.shape[-1] % 2 else paired
    return m[..., 0]


def _rk4_columns(profile: InteractionProfile, omega_21: float,
                 cols: np.ndarray, n_records: int = 0):
    """Advance TLS columns through the profile with fixed-step RK4.

    ``cols`` has shape (2, k): k independent amplitude pairs evolved jointly
    (k = 1 for a state, k = 2 for the window propagator).  The RK4 step is
    two profile samples, with midpoints on the odd samples.  The steps
    between record points are multiplied into one matrix, at most
    SEGMENT_STEPS steps at a time.  Returns (record_indices, trajectory
    array (records, 2, k), final (2, k)).
    """
    f = profile.values
    t = profile.times
    if len(f) % 2 == 0:       # need an odd sample count for paired half-steps
        f = f[:-1]
        t = t[:-1]
    n_steps = (len(f) - 1) // 2
    dt = 2.0 * profile.step
    # drive coefficients at every half-step: w2 drives C2, -conj(w2) drives C1
    w2 = f * np.exp(1j * omega_21 * t) / (1j * HBAR_EV_FS)
    rec_every = max(1, n_steps // n_records) if n_records else n_steps + 1
    rec_steps = np.unique(np.r_[0, np.arange(rec_every, n_steps + 1, rec_every), n_steps])
    recorded = set(rec_steps.tolist())
    bounds = np.union1d(rec_steps, np.arange(0, n_steps, SEGMENT_STEPS))
    v = cols.astype(complex)
    rec = [v]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        v = _ordered_product(_step_matrices(w2[2 * lo:2 * hi + 1], dt)) @ v
        if hi in recorded:
            rec.append(v)
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

SCHEDULE_KINDS = ("correlated", "random", "periodic")


@dataclass(frozen=True)
class ArrivalSchedule:
    """Electron arrival times t_K (fs), strictly increasing.

    kind "correlated": t_K = t_0l + n_K T_b with random ascending integers
    n_K (arrivals locked to the modulation phase); "random": continuous
    uniform gaps with no phase relation; "periodic": exact comb of period
    T_b.
    """

    times: np.ndarray
    kind: str
    seed: int
    omega_b: float
    t_0l: float
    n_k: np.ndarray | None = None

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0.0):
            raise DomainError("arrival times must be strictly increasing")


def arrival_schedule(kind: str, n: int, omega_b: float, t_0l: float = 0.0,
                     mean_spacing: float | None = None, seed: int = 0) -> ArrivalSchedule:
    """Deterministic (seeded) arrival schedule of n electrons."""
    if kind not in SCHEDULE_KINDS:
        raise DomainError(f"unknown schedule kind {kind!r}")
    if n < 1:
        raise DomainError("need at least one electron")
    if omega_b <= 0.0 and kind != "random":
        raise DomainError("omega_b must be > 0 for phase-locked schedules")
    t_b = TWO_PI / omega_b if omega_b > 0 else 0.0
    if mean_spacing is None:
        mean_spacing = 3.0 * t_b if t_b else 1.0
    rng = np.random.default_rng(seed)
    if kind == "periodic":
        n_k = np.arange(1, n + 1)
        times = t_0l + n_k * t_b
    elif kind == "correlated":
        gap_mean = max(1, int(round(mean_spacing / t_b)))
        gaps = rng.integers(1, 2 * gap_mean, size=n)   # mean ~ gap_mean, all >= 1
        n_k = np.cumsum(gaps)
        times = t_0l + n_k * t_b
    else:
        gaps = rng.uniform(0.5, 1.5, size=n) * mean_spacing
        n_k = None
        times = t_0l + np.cumsum(gaps)
    return ArrivalSchedule(times=times, kind=kind, seed=seed, omega_b=omega_b,
                           t_0l=t_0l, n_k=n_k)


# -- electron trains -------------------------------------------------------------------

def _point_window(coupling: DipoleCoupling, sigma_et_point: float, omega_21: float,
                  transit_factor: float, sigma_factor: float,
                  points_per_scale: int) -> tuple[np.ndarray, float]:
    """(window propagator, window half-width) of a packet arriving at t = 0."""
    factors = {"transit_factor": transit_factor, "sigma_factor": sigma_factor}
    grid = profile_time_grid(coupling, sigma_et_point, 0.0, omega_21, **factors,
                             points_per_scale=points_per_scale)
    profile = interaction_profile(coupling, sigma_et_point, grid, t0=0.0, **factors)
    return window_propagator(profile, omega_21), float(grid[-1])


def simulate_train(state0: TlsState, schedule: ArrivalSchedule,
                   coupling: DipoleCoupling, sigma_et_point: float,
                   omega_21: float, transit_factor: float = 10.0,
                   sigma_factor: float = 6.0, points_per_scale: int = 100) -> np.ndarray:
    """P2 after each electron of a train of near-point packets.

    Each electron applies the cached window propagator conjugated by the
    arrival phase diag(1, e^{i w21 t_K}); this is exactly sequential RK4
    window evolution with free TLS rotation between windows (the rotating
    frame absorbs the free evolution).  Warns if consecutive windows overlap
    (the sequential model assumes they do not).
    """
    u0, window_half = _point_window(coupling, sigma_et_point, omega_21,
                                    transit_factor, sigma_factor, points_per_scale)
    gaps = np.diff(schedule.times)
    if np.any(gaps < 2.0 * window_half):
        warnings.warn(
            f"interaction windows overlap (min gap {gaps.min():.3g} fs < "
            f"{2 * window_half:.3g} fs); sequential model is approximate here",
            RuntimeWarning)
    s = np.array([state0.c1, state0.c2], dtype=complex)
    p2 = np.empty(len(schedule.times))
    for k, t_k in enumerate(schedule.times):
        ph = np.exp(1j * omega_21 * t_k)
        d = np.array([1.0, ph])
        s = d * (u0 @ (d.conj() * s))
        p2[k] = abs(s[1]) ** 2
    return p2


def simulate_train_ensemble(state0: TlsState, schedules, coupling: DipoleCoupling,
                            sigma_et_point: float, omega_21: float,
                            transit_factor: float = 10.0,
                            sigma_factor: float = 6.0,
                            points_per_scale: int = 100) -> np.ndarray:
    """P2 sequences for many schedules of equal length, evolved jointly.

    Returns shape (n_schedules, n_electrons).  Same physics as
    simulate_train, with the window propagator shared and the per-electron
    phase conjugation applied across the whole ensemble at once.
    """
    schedules = list(schedules)
    times = np.stack([s.times for s in schedules])      # (S, N)
    u0, _ = _point_window(coupling, sigma_et_point, omega_21, transit_factor, sigma_factor,
                          points_per_scale)
    s = np.tile(np.array([[state0.c1], [state0.c2]], dtype=complex), (1, len(schedules)))
    p2 = np.empty(times.T.shape)                         # (N, S)
    for k, t_k in enumerate(times.T):
        ph = np.exp(1j * omega_21 * t_k)
        s1 = u0[0, 0] * s[0] + u0[0, 1] * (np.conj(ph) * s[1])
        s2 = u0[1, 0] * s[0] + u0[1, 1] * (np.conj(ph) * s[1])
        s = np.stack([s1, ph * s2])
        p2[k] = np.abs(s[1]) ** 2
    return p2.T


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
    ss_res = float(np.sum((y - model) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
