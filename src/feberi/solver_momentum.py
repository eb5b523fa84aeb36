"""Direct integration of the entangled amplitude equations on a momentum grid.

The joint free+bound state is expanded as c_{i,p}(t) over TLS level i and
grid momentum p (free phases factored out), giving the coupled system

    d c_{i,p_m}/dt = (dp / 2 pi i hbar^2) sum_n Mt(p_m - p_n) c_{j,p_n}(t)
                     * exp(-i (E_{p_n} - E_{p_m} - E_ij) t / hbar),   j != i

with the quadratic free dispersion E_p of coupling.kin and the gap of
coupling.tls, both read from the ``DipoleCoupling``.  The coupling matrix is
Toeplitz in (m - n) and its time dependence factorizes into diagonal phase
vectors, so one right-hand side is one Toeplitz product of the stacked pair
(c_1, c_2), done by FFT through a circulant embedding in O(N log N), and a
fixed-step RK4 integrator advances the pair.

Stage kernel.  With ph(t) = exp(i E_p t/hbar), a stage is

    k = outward(t) * (Mt @ (inward(t) * (c_2, c_1))),
    inward = conj(ph),  outward = scale * (exp(-i w21 t), exp(+i w21 t)) (x) ph,

one call of ``grid.circulant_product``: the prefactor dp/(2 pi i hbar^2) is
folded into the circulant's spectrum once, the inward factor is written
straight into its zero-padded buffer and the outward factor, which carries
the TLS rotation and the step scale, multiplies the truncated inverse
transform into a preallocated stage array.  Every array of the step loop
(factors, stages, stage input, the step's sum and a record's moduli) is
allocated once before it, so a step is its eight transforms plus a fixed set
of in-place array passes.

Phase schedule.  Step k runs from t_k = t_start + k dt to t_{k+1}; its
stages need ph at t_k, t_k + dt/2 and t_{k+1}.  ph(t_k) comes from the two
tables of ``core.phase_tables`` over the steps' end points: with
B = isqrt(steps) + 1 and k = b B + i it is outer[b] * inner[i], one product
of two exponentials per value, no exp in the loop and no recurrence that
carries rounding from step to step; the tables hold about 2 sqrt(steps)
vectors of N phases.  The factors at t_{k+1} serve that step's k4 and the
next step's k1.  The midpoint phase is ph(t_k) * exp(i E_p dt/(2 hbar)),
the half-step vector built once.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from feberi.core import HBAR_EV_FS, DomainError, TlsState, phase_tables
from feberi.coulomb import DipoleCoupling, m_tilde
from feberi.grid import MomentumGrid, circulant_product, kernel_column
from feberi.qew import momentum_amplitudes


class InstabilityError(RuntimeError):
    """The integration produced NaNs (step size far too large)."""


# the most RK4 steps ``integrate`` takes; default runs take about 1100, a
# 2.4 um impact parameter about 70,000
MAX_RK4_STEPS = 2**20


# -- entangled amplitudes ----------------------------------------------------------

@dataclass
class EntangledAmplitudes:
    """Amplitude vectors (c_{1,p_n}, c_{2,p_n}) at time t; continuum-normalized,
    sum (|v1|^2 + |v2|^2) dp = 1."""

    v1: np.ndarray
    v2: np.ndarray
    t: float


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


def default_time_step(grid: MomentumGrid, coupling: DipoleCoupling) -> float:
    """Step obeying both the coupling bound dt <= 1/(50 max|U|) and phase resolution."""
    energies = coupling.kin.dispersion(grid.points)
    omega_max = (float(energies.max() - energies.min()) + coupling.tls.energy_gap) / HBAR_EV_FS
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
              grid: MomentumGrid, coupling: DipoleCoupling,
              n_records: int = 200) -> MomentumTrajectory:
    """Advance the amplitude pair over t_span by RK4 and record populations/energy;
    the dispersion, gap and kernel are the coupling's."""
    t_start, t_end = t_span
    if t_end <= t_start:
        raise DomainError("empty integration span")
    n_steps, record_every = step_schedule(t_span, dt, n_records)
    if n_steps > MAX_RK4_STEPS:
        raise DomainError(f"{n_steps} RK4 steps exceed MAX_RK4_STEPS = {MAX_RK4_STEPS}")
    dt = (t_end - t_start) / n_steps

    energies = coupling.kin.dispersion(grid.points)
    w = energies / HBAR_EV_FS
    w21 = coupling.tls.omega_21
    kappa = grid.dp / (2.0j * math.pi * HBAR_EV_FS**2)
    product = circulant_product(kappa * kernel_column(grid, coupling), grid.n)
    # a stage is k = scale * f(t, u) with scale = dt/2, so the stages are
    # evaluated at v + k1, v + k2 and v + 2 k3, and the step adds
    # (k1 + 2 k2 + 2 k3 + k4)/3
    scale = 0.5 * dt
    # ph(t_k) = outer[k // width] * inner[k % width], k = 0..n_steps
    outer, inner = phase_tables(w, t_start, dt, n_steps + 1)
    width = len(inner)
    half_step = np.exp(1j * (w * (0.5 * dt)))

    # the loop writes in place into these: ph at a step's start or end and at
    # its midpoint; the inward and outward factors at its start, midpoint and
    # end; the TLS rotation; the stages, the stage input and the step's sum;
    # the squared moduli of a record
    ph, ph_mid, in_now, in_mid, in_end = np.empty((5, grid.n), dtype=complex)
    out_now, out_mid, out_end = np.empty((3, 2, grid.n), dtype=complex)
    rot = np.empty((2, 1), dtype=complex)
    v = np.array([state0.v1, state0.v2], dtype=complex)
    k1, k2, k3, k4, u, acc = np.empty((6,) + v.shape, dtype=complex)
    a = np.empty(v.shape)

    def factors(t, ph, inward, outward):
        """Write the factors at time t, from ph = exp(i w t): a stage is
        outward * (Mt @ (inward * u[::-1])), the TLS rotation in outward."""
        r = scale * cmath.exp(-1j * w21 * t)
        rot[0, 0], rot[1, 0] = r, r.conjugate()
        np.conjugate(ph, out=inward)
        np.multiply(rot, ph, out=outward)

    times, p1s, p2s, efs, norms = [], [], [], [], []

    def record(t, v):
        np.square(np.abs(v, out=a), out=a)
        p1, p2 = np.sum(a, axis=1) * grid.dp
        times.append(t)
        p1s.append(p1)
        p2s.append(p2)
        np.add(a[0], a[1], out=a[0])
        efs.append(np.sum(np.multiply(energies, a[0], out=a[0])) * grid.dp)
        norms.append(p1 + p2)
        if not math.isfinite(norms[-1]):
            raise InstabilityError(f"non-finite amplitudes at t = {t}")

    record(t_start, v)
    t = t_start
    factors(t, np.multiply(outer[0], inner[0], out=ph), in_now, out_now)
    for step in range(n_steps):
        product(v[::-1], left=out_now, right=in_now, out=k1)
        factors(t + 0.5 * dt, np.multiply(ph, half_step, out=ph_mid), in_mid, out_mid)
        # the end's factors serve this k4 and the next step's k1
        t = t_start + (step + 1) * dt
        b, i = divmod(step + 1, width)
        factors(t, np.multiply(outer[b], inner[i], out=ph), in_end, out_end)
        product(np.add(v, k1, out=u)[::-1], left=out_mid, right=in_mid, out=k2)
        product(np.add(v, k2, out=u)[::-1], left=out_mid, right=in_mid, out=k3)
        np.multiply(k3, 2.0, out=u)
        product(np.add(u, v, out=u)[::-1], left=out_end, right=in_end, out=k4)
        np.add(k2, k3, out=acc)
        acc *= 2.0
        acc += k1
        acc += k4
        acc *= 1.0 / 3.0
        v += acc
        in_now, out_now, in_end, out_end = in_end, out_end, in_now, out_now
        if (step + 1) % record_every == 0 or step == n_steps - 1:
            record(t, v)

    return MomentumTrajectory(
        times=np.asarray(times), p1=np.asarray(p1s), p2=np.asarray(p2s),
        e_free=np.asarray(efs), norm=np.asarray(norms),
        final=EntangledAmplitudes(v1=v[0], v2=v[1], t=t), dt=dt)
