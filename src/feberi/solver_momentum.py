"""Direct integration of the entangled amplitude equations on a momentum grid.

The joint free+bound state is expanded as c_{i,p}(t) over TLS level i and
grid momentum p (free phases factored out), giving the coupled system

    d c_{i,p_m}/dt = (dp / 2 pi i hbar^2) sum_n Mt(p_m - p_n) c_{j,p_n}(t)
                     * exp(-i (E_{p_n} - E_{p_m} - E_ij) t / hbar),   j != i

with the quadratic free dispersion E_p.  The coupling matrix is Toeplitz in
(m - n) and its time dependence factorizes into diagonal phase vectors, so
one step costs two dense mat-vecs.  A fixed-step RK4 integrator is the
default; the plain forward-Euler update is retained as a reference mode.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from feberi.core import HBAR_EV_FS, DomainError, TlsSpec, TlsState
from feberi.coulomb import DipoleCoupling, m_tilde
from feberi.grid import MomentumGrid, interaction_window, toeplitz_kernel
from feberi.qew import GaussianQewSpec, ModulatedQewSpec, \
    gaussian_momentum_amplitudes, grid_for_spec, modulated_momentum_amplitudes


class InstabilityError(RuntimeError):
    """The integration produced NaNs (step size far too large)."""


# -- entangled amplitudes ----------------------------------------------------------

@dataclass
class EntangledAmplitudes:
    """Amplitude vectors (c_{1,p_n}, c_{2,p_n}) at time t; continuum-normalized,
    sum (|v1|^2 + |v2|^2) dp = 1."""

    v1: np.ndarray
    v2: np.ndarray
    t: float

    def norm(self, dp: float) -> float:
        return float((np.sum(np.abs(self.v1) ** 2) + np.sum(np.abs(self.v2) ** 2)) * dp)

    def populations(self, dp: float) -> tuple[float, float]:
        return (float(np.sum(np.abs(self.v1) ** 2) * dp),
                float(np.sum(np.abs(self.v2) ** 2) * dp))


def initial_amplitudes(grid: MomentumGrid, spec: GaussianQewSpec | ModulatedQewSpec,
                       state: TlsState, t_start: float) -> EntangledAmplitudes:
    """Factorized (unentangled) initial condition c_{i,p} = C_i * c_p."""
    if isinstance(spec, ModulatedQewSpec):
        c = modulated_momentum_amplitudes(spec, grid)
    else:
        c = gaussian_momentum_amplitudes(spec, grid)
    return EntangledAmplitudes(v1=state.c1 * c, v2=state.c2 * c, t=t_start)


# -- integration ---------------------------------------------------------------------

@dataclass
class MomentumTrajectory:
    """Sampled observables of one integration run."""

    times: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    e_free: np.ndarray       # beam-frame mean free-electron energy (rest energy subtracted), eV
    norm: np.ndarray
    final: EntangledAmplitudes
    method: str
    dt: float


def default_time_step(grid: MomentumGrid, coupling: DipoleCoupling, tls: TlsSpec) -> float:
    """Step obeying both the coupling bound dt <= 1/(50 max|U|) and phase resolution."""
    energies = coupling.kin.dispersion(grid.points)
    omega_max = (float(energies.max() - energies.min()) + tls.energy_gap) / HBAR_EV_FS
    u_max = grid.dp / (2.0 * math.pi * HBAR_EV_FS**2) * float(np.max(np.abs(
        m_tilde(np.linspace(-2 * grid.p_cutoff, 2 * grid.p_cutoff, 1001), coupling))))
    return min(0.1 / omega_max, 1.0 / (50.0 * u_max))


def integrate(state0: EntangledAmplitudes, t_span: tuple[float, float], dt: float,
              grid: MomentumGrid, coupling: DipoleCoupling, tls: TlsSpec,
              method: str = "rk4", n_records: int = 200) -> MomentumTrajectory:
    """Advance the amplitude pair over t_span and record populations/energy.

    method "rk4" (default) or "euler" (the plain first-order update; its
    norm drift is reported and warned about beyond 1e-4).
    """
    if method not in ("rk4", "euler"):
        raise DomainError(f"unknown method {method!r}")
    t_start, t_end = t_span
    if t_end <= t_start:
        raise DomainError("empty integration span")
    n_steps = max(1, int(math.ceil((t_end - t_start) / dt)))
    dt = (t_end - t_start) / n_steps

    mt = toeplitz_kernel(grid, coupling)
    energies = coupling.kin.dispersion(grid.points)
    w_phase = energies / HBAR_EV_FS
    w21 = tls.energy_gap / HBAR_EV_FS
    kappa = grid.dp / (2.0j * math.pi * HBAR_EV_FS**2)

    def rhs(t, v1, v2):
        ph = np.exp(1j * w_phase * t)
        y2 = ph * (mt @ (ph.conj() * v2))
        y1 = ph * (mt @ (ph.conj() * v1))
        rot = np.exp(-1j * w21 * t)
        return kappa * rot * y2, kappa * np.conj(rot) * y1

    v1 = state0.v1.astype(complex).copy()
    v2 = state0.v2.astype(complex).copy()

    record_every = max(1, n_steps // max(1, n_records))
    times, p1s, p2s, efs, norms = [], [], [], [], []

    def record(t, v1, v2):
        a1 = np.abs(v1) ** 2
        a2 = np.abs(v2) ** 2
        times.append(t)
        p1s.append(np.sum(a1) * grid.dp)
        p2s.append(np.sum(a2) * grid.dp)
        efs.append(np.sum(energies * (a1 + a2)) * grid.dp)
        norms.append(p1s[-1] + p2s[-1])

    record(t_start, v1, v2)
    t = t_start
    for step in range(n_steps):
        if method == "euler":
            k1a, k1b = rhs(t, v1, v2)
            v1 = v1 + dt * k1a
            v2 = v2 + dt * k1b
        else:
            k1a, k1b = rhs(t, v1, v2)
            k2a, k2b = rhs(t + 0.5 * dt, v1 + 0.5 * dt * k1a, v2 + 0.5 * dt * k1b)
            k3a, k3b = rhs(t + 0.5 * dt, v1 + 0.5 * dt * k2a, v2 + 0.5 * dt * k2b)
            k4a, k4b = rhs(t + dt, v1 + dt * k3a, v2 + dt * k3b)
            v1 = v1 + (dt / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
            v2 = v2 + (dt / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        t = t_start + (step + 1) * dt
        if (step + 1) % record_every == 0 or step == n_steps - 1:
            if not (np.all(np.isfinite(v1)) and np.all(np.isfinite(v2))):
                raise InstabilityError(f"non-finite amplitudes at t = {t}")
            record(t, v1, v2)

    norms_arr = np.asarray(norms)
    drift = float(np.max(np.abs(norms_arr - norms_arr[0])))
    if method == "euler" and drift > 1e-4:
        warnings.warn(f"Euler norm drift {drift:.2e} > 1e-4; reduce dt or use rk4",
                      RuntimeWarning)

    return MomentumTrajectory(
        times=np.asarray(times), p1=np.asarray(p1s), p2=np.asarray(p2s),
        e_free=np.asarray(efs), norm=norms_arr,
        final=EntangledAmplitudes(v1=v1, v2=v2, t=t), method=method, dt=dt)


def run_gaussian_scenario(spec: GaussianQewSpec | ModulatedQewSpec, state: TlsState,
                          coupling: DipoleCoupling, tls: TlsSpec, n: int = 256,
                          method: str = "rk4", dt: float | None = None,
                          n_records: int = 200) -> MomentumTrajectory:
    """One-call driver: grid, window, initial state, integrate."""
    base = spec.base if isinstance(spec, ModulatedQewSpec) else spec
    grid = grid_for_spec(spec, coupling, n)
    window = interaction_window(base.sigma_et, coupling.geometry.transit_time, base.t0)
    state0 = initial_amplitudes(grid, spec, state, window[0])
    if dt is None:
        dt = default_time_step(grid, coupling, tls)
    return integrate(state0, window, dt, grid, coupling, tls,
                     method=method, n_records=n_records)
