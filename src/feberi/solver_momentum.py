"""Direct integration of the entangled amplitude equations on a momentum grid.

The joint free+bound state is expanded as c_{i,p}(t) over TLS level i and
grid momentum p (free phases factored out), giving the coupled system

    d c_{i,p_m}/dt = (dp / 2 pi i hbar^2) sum_n Mt(p_m - p_n) c_{j,p_n}(t)
                     * exp(-i (E_{p_n} - E_{p_m} - E_ij) t / hbar),   j != i

with the quadratic free dispersion E_p.  The coupling matrix is Toeplitz in
(m - n) and its time dependence factorizes into diagonal phase vectors, so
one right-hand side is one Toeplitz product of the stacked pair (c_1, c_2),
done by FFT through a circulant embedding in O(N log N), and a fixed-step
RK4 integrator advances the pair.

Stage kernel.  With ph(t) = exp(i E_p t/hbar), a stage is

    k = outward(t) * (Mt @ (inward(t) * (c_2, c_1))),
    inward = conj(ph),  outward = scale * (exp(-i w21 t), exp(+i w21 t)) (x) ph,

one call of ``grid.circulant_product``: the prefactor dp/(2 pi i hbar^2) is
folded into the circulant's spectrum once, the inward factor is written
straight into its zero-padded buffer and the outward factor, which carries
the TLS rotation and the step scale, multiplies the truncated inverse
transform into a preallocated stage array.  The stage arithmetic is in place.

Phase schedule.  Step k runs from t_k = t_start + k dt to t_{k+1}; its
stages need ph at t_k, t_k + dt/2 and t_{k+1}.  ph(t_{k+1}) is the step's one
exp, evaluated at t_{k+1} itself, and its factors serve that step's k4 and
the next step's k1.  The midpoint phase is ph(t_k) * exp(i E_p dt/(2 hbar)),
the half-step vector built once: one rounding per step, no recurrence that
carries rounding from step to step.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from feberi.core import HBAR_EV_FS, DomainError, TlsSpec, TlsState
from feberi.coulomb import DipoleCoupling, m_tilde
from feberi.grid import MomentumGrid, circulant_product, kernel_column
from feberi.qew import momentum_amplitudes


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


def initial_amplitudes(grid: MomentumGrid, spec, state: TlsState,
                       t_start: float) -> EntangledAmplitudes:
    """Factorized (unentangled) initial condition c_{i,p} = C_i * c_p."""
    c = momentum_amplitudes(spec, grid)
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
    dt: float


def default_time_step(grid: MomentumGrid, coupling: DipoleCoupling, tls: TlsSpec) -> float:
    """Step obeying both the coupling bound dt <= 1/(50 max|U|) and phase resolution."""
    energies = coupling.kin.dispersion(grid.points)
    omega_max = (float(energies.max() - energies.min()) + tls.energy_gap) / HBAR_EV_FS
    u_max = grid.dp / (2.0 * math.pi * HBAR_EV_FS**2) * float(np.max(np.abs(
        m_tilde(np.linspace(-2 * grid.p_cutoff, 2 * grid.p_cutoff, 1001), coupling))))
    return min(0.1 / omega_max, 1.0 / (50.0 * u_max))


def step_schedule(t_span: tuple[float, float], dt: float,
                  n_records: int) -> tuple[int, int]:
    """(steps, record_every) of ``integrate`` over t_span: equal steps of at
    most dt, and records at the start, at every record_every-th step and at
    the last, 1 + ceil(steps / record_every) in all."""
    steps = max(1, int(math.ceil((t_span[1] - t_span[0]) / dt)))
    return steps, max(1, steps // max(1, n_records))


def integrate(state0: EntangledAmplitudes, t_span: tuple[float, float], dt: float,
              grid: MomentumGrid, coupling: DipoleCoupling, tls: TlsSpec,
              n_records: int = 200) -> MomentumTrajectory:
    """Advance the amplitude pair over t_span by RK4 and record populations/energy."""
    t_start, t_end = t_span
    if t_end <= t_start:
        raise DomainError("empty integration span")
    n_steps, record_every = step_schedule(t_span, dt, n_records)
    dt = (t_end - t_start) / n_steps

    energies = coupling.kin.dispersion(grid.points)
    iw = 1j * (energies / HBAR_EV_FS)
    w21 = tls.energy_gap / HBAR_EV_FS
    kappa = grid.dp / (2.0j * math.pi * HBAR_EV_FS**2)
    product = circulant_product(kappa * kernel_column(grid, coupling), grid.n)
    # a stage is k = scale * f(t, u) with scale = dt/2, so the stages are
    # evaluated at v + k1, v + k2 and v + 2 k3, and the step adds
    # (k1 + 2 k2 + 2 k3 + k4)/3, one product with the stacked stages
    scale = 0.5 * dt
    half_step = np.exp(iw * (0.5 * dt))

    def factors(t, ph):
        """(inward, outward) at time t, from ph = exp(i w t): f(t, u) is
        outward * (Mt @ (inward * u[::-1])), the TLS rotation in outward."""
        rot = scale * cmath.exp(-1j * w21 * t)
        return ph.conj(), np.array([[rot], [rot.conjugate()]]) * ph

    def stage(u, at, out):
        inward, outward = at
        return product(u[::-1], left=outward, right=inward, out=out)

    v = np.array([state0.v1, state0.v2], dtype=complex)
    ks = np.empty((4,) + v.shape, dtype=complex)
    k1, k2, k3, k4 = ks
    u = np.empty_like(v)
    weights = np.array([1.0, 2.0, 2.0, 1.0], dtype=complex) / 3.0

    times, p1s, p2s, efs, norms = [], [], [], [], []

    def record(t, v):
        a = np.abs(v) ** 2
        times.append(t)
        p1s.append(np.sum(a[0]) * grid.dp)
        p2s.append(np.sum(a[1]) * grid.dp)
        efs.append(np.sum(energies * (a[0] + a[1])) * grid.dp)
        norms.append(p1s[-1] + p2s[-1])

    record(t_start, v)
    t = t_start
    ph = np.exp(iw * t)
    now = factors(t, ph)
    for step in range(n_steps):
        stage(v, now, k1)
        mid = factors(t + 0.5 * dt, ph * half_step)
        # the step's one exp, into ph: its factors serve this k4 and the next k1
        t = t_start + (step + 1) * dt
        now = factors(t, np.exp(np.multiply(iw, t, out=ph), out=ph))
        stage(np.add(v, k1, out=u), mid, k2)
        stage(np.add(v, k2, out=u), mid, k3)
        np.multiply(k3, 2.0, out=u)
        stage(np.add(u, v, out=u), now, k4)
        v += (weights @ ks.reshape(4, -1)).reshape(v.shape)
        if (step + 1) % record_every == 0 or step == n_steps - 1:
            if not np.all(np.isfinite(v)):
                raise InstabilityError(f"non-finite amplitudes at t = {t}")
            record(t, v)

    return MomentumTrajectory(
        times=np.asarray(times), p1=np.asarray(p1s), p2=np.asarray(p2s),
        e_free=np.asarray(efs), norm=np.asarray(norms),
        final=EntangledAmplitudes(v1=v[0], v2=v[1], t=t), dt=dt)
