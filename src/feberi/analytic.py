"""Closed-form transition-probability predictions.

Two first-order treatments give the increment of the TLS occupation after
one electron passes:

* momentum model: perturbation of the entangled amplitudes in momentum
  space; the second-order (from-ground) term is independent of the packet
  size, the first-order (superposition) term carries exp(-Gamma^2/2).
* probabilistic (Born) model: time-domain perturbation of the TLS coupled
  equations; both orders carry the size decay, which is its regime of
  validity (near-point-particle, Gamma < 1).

Both give the identical first-order law

    dP1 = (2/(hbar v0)) |Mt(p_rec)| |c1 c2| exp(-Gamma^2/2) sin(zeta),

with zeta = omega_21 t0 - arg(c1* c2); its maximum over zeta for an equal
superposition equals sqrt of the from-ground second-order term.

Amplitude normalization is 1/(hbar v0) per transition amplitude everywhere;
the grid solvers reproduce it.  Every closed form reads v0 and the TLS from
its ``DipoleCoupling`` (coupling.kin, coupling.tls), the one physics handle
it takes.

The density-modulated increments (``modulated_increments``) take omega_21 as
a scalar or as an array: a resonance scan is one call, one expression for
every point (nearest harmonic, f_n, |Mt(p_rec)| and the resonance factor),
and the scalar call goes through the same expression.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from feberi.core import HBAR_EV_FS, DomainError, TlsState, bloch_phase
from feberi.coulomb import DipoleCoupling, m_tilde
from feberi.qew import ModulationSpectrum, gamma_parameter


class RegimeWarning(UserWarning):
    """A closed form is being used outside its validity regime."""


@dataclass(frozen=True)
class TransitionIncrement:
    """First- and second-order occupation increments of the upper level (floats,
    or arrays over a scan of TLS frequencies)."""

    dp1: float | np.ndarray
    dp2: float | np.ndarray
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if np.any(self.dp2 < 0.0):
            raise DomainError("second-order increment cannot be negative")


def overlap_integral(p_rec: float, sigma_p0: float, t0: float,
                     omega_ij: float) -> complex:
    """Displaced-Gaussian overlap I = exp(-(p_rec/2 sigma_p0)^2/2) e^{-i omega t0}."""
    if sigma_p0 <= 0.0:
        raise DomainError("sigma_p0 must be > 0")
    g = p_rec / (2.0 * sigma_p0)
    return math.exp(-0.5 * g * g) * cmath.exp(-1j * omega_ij * t0)


def _recoil_amplitude(coupling: DipoleCoupling) -> float:
    """|Mt(p_rec)|/(hbar v0): the first-order transition amplitude's modulus."""
    return abs(m_tilde(coupling.recoil_momentum, coupling)) / (HBAR_EV_FS * coupling.kin.v0)


def p2_from_ground(coupling: DipoleCoupling) -> float:
    """Excitation probability from the ground state, |Mt(p_rec)|^2/(hbar v0)^2.

    Independent of the wavepacket size.  Warns beyond 0.1 where first-order
    perturbation theory is no longer trustworthy.
    """
    amp = _recoil_amplitude(coupling)
    p2 = amp * amp
    if p2 > 0.1:
        warnings.warn(f"p2 = {p2:.3g} > 0.1: perturbative validity exceeded",
                      RegimeWarning)
    return min(p2, 1.0)


def dp1_superposition(coupling: DipoleCoupling, state: TlsState, t0: float,
                      sigma_et: float) -> float:
    """First-order increment (2/hbar v0)|Mt||c1 c2| e^{-Gamma^2/2} sin(zeta).

    The momentum and Born models predict the identical form.  Returns 0 for
    a non-superposition state (no dipole phase to beat against).
    """
    if abs(state.c1) == 0.0 or abs(state.c2) == 0.0:
        warnings.warn("state has no dipole phase; first-order increment is 0",
                      RegimeWarning)
        return 0.0
    tls = coupling.tls
    gam = gamma_parameter(tls.omega_21, sigma_et)
    zeta = bloch_phase(state, t0, tls.omega_21)
    return 2.0 * _recoil_amplitude(coupling) * abs(state.c1) * abs(state.c2) \
        * math.exp(-0.5 * gam * gam) * math.sin(zeta)


def dp2_born(coupling: DipoleCoupling, sigma_et: float) -> float:
    """Second-order increment of the probabilistic model, with e^{-Gamma^2} decay.

    Valid in the near-point-particle regime Gamma < 1; beyond it the
    size-independent momentum-model value (p2_from_ground) governs instead,
    and a RegimeWarning is emitted.
    """
    if sigma_et < 0.0:
        raise DomainError("sigma_et must be >= 0")
    gam = gamma_parameter(coupling.tls.omega_21, sigma_et)
    if gam > 1.0:
        warnings.warn(f"Gamma = {gam:.3g} > 1: outside the short-packet regime; "
                      "the size-independent from-ground value governs here",
                      RegimeWarning)
    return p2_from_ground(coupling) * math.exp(-gam * gam)


def nearest_harmonic(omega_21, omega_b: float):
    """Integer n >= 0 minimizing |omega_21 - n omega_b|; half-integer ties go low.

    ``omega_21`` is a scalar (n an int) or an array (n an int array of its
    shape); the flags hold "harmonic_tie" if any point is a tie.
    """
    x = np.asarray(omega_21, dtype=float) / omega_b
    lo = np.floor(x)
    tie = x - lo == 0.5
    n = np.maximum(np.where(tie, lo, np.round(x)), 0).astype(int)
    flags = ("harmonic_tie",) if tie.any() else ()
    return (int(n) if n.ndim == 0 else n), flags


def modulated_increments(coupling: DipoleCoupling, spectrum: ModulationSpectrum,
                         sigma_et: float, omega_21, state: TlsState, t_mod: float,
                         t_0k: float) -> TransitionIncrement:
    """Resonant increments of a density-modulated packet.

    Only the bunching harmonic n nearest omega_21/omega_b contributes
    appreciably when the envelope is long; the increments carry the
    resonance factors exp(-(omega_21 - n omega_b)^2 sigma_et^2 / 2) (first
    order) and its square (second order), and the first order additionally
    beats against the arrival and modulation phases.

    ``omega_21`` is a scalar or an array of TLS frequencies (rad/fs, > 0);
    an array gives dp1 and dp2 of its shape, from one pass, and the flags
    raised at any of its points.  The recoil p_rec = -hbar omega_21 / v0 is
    taken at each omega_21, in one m_tilde call; ``coupling`` supplies the
    dipole, impact parameter, orientation and kinematics (v0 of the recoil and
    of the 1/(hbar v0) amplitude), not the gap.
    """
    if sigma_et <= 2.0 * math.pi / spectrum.omega_b:
        raise DomainError("envelope must be longer than one modulation period")
    w21 = np.asarray(omega_21, dtype=float)
    if not np.all(w21 > 0.0):
        raise DomainError("omega_21 must be > 0")
    n, flags = nearest_harmonic(w21, spectrum.omega_b)
    detuning = w21 - n * spectrum.omega_b
    if np.any(np.abs(detuning) * sigma_et > 6.0):
        flags = flags + ("off_resonance",)
    res1 = np.exp(-0.5 * (detuning * sigma_et) ** 2)
    # f_n for n = 0..order, zero beyond
    f_n = np.append(spectrum.f_m[spectrum.order:], 0.0)[np.minimum(n, spectrum.order + 1)]
    v0 = coupling.kin.v0
    mt = m_tilde(-(w21 * HBAR_EV_FS) / v0, coupling)
    amp = 1.0 / (HBAR_EV_FS * v0)
    # second order: |amplitude|^2
    dp2 = (amp * np.abs(mt) * abs(state.c1) * np.abs(f_n) * res1) ** 2
    # first order: 2 Re[c2* dc2], dc2 = amp/i * c1 Mt f_n* e^{i detuning t_0k} e^{i n w_b t_mod} res1
    dc2 = (amp / 1j) * state.c1 * mt * np.conj(f_n) \
        * np.exp(1j * (detuning * t_0k + n * spectrum.omega_b * t_mod)) * res1
    dp1 = 2.0 * np.real(np.conj(state.c2) * dc2)
    if w21.ndim == 0:
        dp1, dp2 = float(dp1), float(dp2)
    return TransitionIncrement(dp1=dp1, dp2=dp2, flags=flags)
