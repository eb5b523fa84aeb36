"""Gaussian and laser-modulated quantum electron wavepackets (QEWs).

Wavepackets are described by their momentum-space amplitudes about the beam
momentum p0.  The package works in the waist convention throughout: the
packet reaches the interaction point z = 0 at its arrival time ``t0`` with no
chirp, so sigma_z0 = hbar/(2 sigma_p0) and sigma_et = sigma_z0/v0 exactly.

A modulated packet is a comb of momentum sidebands J_n(2|g|) spaced by
delta_p = hbar*omega_b/v0, imprinted by a laser of angular frequency omega_b;
after a drift time the sideband phases align into a train of sharp density
bunches spaced by one optical period.  A plain Gaussian packet is the comb
with the single sideband n = 0, so one sizing rule (``packet_for_spec``) and
one sideband sum (``momentum_amplitudes``) serve both kinds.  The bunching
harmonics f_m of the train are extracted numerically here by discrete
Fourier analysis of the density with the slow envelope divided out (no
closed form is used).

One-period harmonic sums run as FFTs.  The extraction samples one period at
s_j = (j/N - 1/2) T_b, so omega_b s_j = 2 pi j/N - pi and

    f_m = e^{-i m omega_b t0} (-1)^m FFT(fmod)[m mod N] / N;

the reconstruction on the same samples, and on the samples j T_b/N of
tooth_sigma_et, is one inverse FFT of the zero-padded coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import fft
from scipy.special import jv

from feberi.core import (
    HBAR_EV_FS,
    ME_EV_FS2_NM2,
    TWO_PI,
    DomainError,
    ElectronKinematics,
)
from feberi.coulomb import DipoleCoupling
from feberi.grid import MomentumGrid, interaction_window

SIDEBAND_TOL = 1e-8     # sideband weights |J_n(2|g|)| below this are cut
BUNCH_SAMPLES = 8192    # samples of one period on which a bunch's half maximum is read


class TruncationError(ValueError):
    """A grid or sideband cutoff leaves more probability outside than allowed."""


class ResolutionError(ValueError):
    """Sampling too coarse for the structure being resolved."""


# -- wavepacket specifications -------------------------------------------------

@dataclass(frozen=True)
class GaussianQewSpec:
    """Gaussian wavepacket at its longitudinal waist.

    |c_p| ~ exp(-(p-p0)^2/(4 sigma_p0^2)), so the momentum density |c_p|^2
    has standard deviation sigma_p0.  ``t0`` is the centroid arrival time
    at z = 0 in fs.
    """

    kin: ElectronKinematics
    sigma_p0: float      # eV*fs/nm
    t0: float = 0.0      # fs

    def __post_init__(self):
        if self.sigma_p0 <= 0.0:
            raise DomainError(f"sigma_p0 must be > 0, got {self.sigma_p0}")

    @classmethod
    def from_duration(cls, kin: ElectronKinematics, sigma_et: float,
                      t0: float = 0.0) -> "GaussianQewSpec":
        """Build from the packet duration sigma_et in fs (waist relations)."""
        if sigma_et <= 0.0:
            raise DomainError(f"sigma_et must be > 0, got {sigma_et}")
        sigma_z0 = kin.v0 * sigma_et
        return cls(kin=kin, sigma_p0=HBAR_EV_FS / (2.0 * sigma_z0), t0=t0)

    @property
    def sigma_z0(self) -> float:
        """Length spread in nm; waist condition sigma_z0 = hbar/(2 sigma_p0)."""
        return HBAR_EV_FS / (2.0 * self.sigma_p0)

    @property
    def sigma_et(self) -> float:
        """Duration in fs; sigma_et = sigma_z0/v0."""
        return self.sigma_z0 / self.kin.v0

    # the one-sideband comb: ModulatedQewSpec's view of an unmodulated packet
    sideband_count = 0
    delta_p = 0.0
    drift_time = 0.0

    @property
    def base(self) -> "GaussianQewSpec":
        return self

    def sideband_amplitudes(self) -> tuple[np.ndarray, np.ndarray]:
        """The single sideband n = 0 with weight 1."""
        return np.array([0]), np.array([1.0 + 0.0j])


@dataclass(frozen=True)
class ModulatedQewSpec:
    """Laser-modulated wavepacket: sidebands, modulation phase and drift.

    ``g`` is the (complex) modulation coupling; sideband n carries weight
    J_n(2|g|) and phase n*phi_b.  ``drift_time`` is the free-drift interval
    between the modulation point and arrival at the interaction point, which
    converts the energy comb into density bunching.
    """

    base: GaussianQewSpec
    g: complex
    omega_b: float       # rad/fs
    phi_b: float = 0.0
    drift_time: float = 0.0   # fs

    def __post_init__(self):
        if self.omega_b <= 0.0:
            raise DomainError(f"omega_b must be > 0, got {self.omega_b}")
        if self.sigma_et <= TWO_PI / self.omega_b:
            raise DomainError(
                "envelope shorter than one modulation period: "
                f"sigma_et = {self.sigma_et:.4g} fs <= T_b = {TWO_PI / self.omega_b:.4g} fs")

    @property
    def t0(self) -> float:      # the envelope's arrival time, fs
        return self.base.t0

    @property
    def kin(self) -> ElectronKinematics:
        return self.base.kin

    @property
    def sigma_et(self) -> float:     # the envelope's duration, fs
        return self.base.sigma_et

    @property
    def delta_p(self) -> float:
        """Sideband momentum spacing hbar*omega_b/v0 in eV*fs/nm."""
        return HBAR_EV_FS * self.omega_b / self.kin.v0

    @property
    def period(self) -> float:
        """Modulation period T_b in fs."""
        return TWO_PI / self.omega_b

    @property
    def sideband_count(self) -> int:
        """Smallest n_max with |J_n(2|g|)| < SIDEBAND_TOL for all |n| > n_max."""
        return sideband_cutoff(abs(self.g))

    def sideband_amplitudes(self) -> tuple[np.ndarray, np.ndarray]:
        """(orders n, complex weights J_n(2|g|) e^{i n phi_b}) for |n| <= n_max."""
        nmax = self.sideband_count
        n = np.arange(-nmax, nmax + 1)
        w = jv(n, 2.0 * abs(self.g)) * np.exp(1j * n * self.phi_b)
        return n, w


def sideband_cutoff(g_abs: float) -> int:
    """Smallest order beyond which Bessel sideband weights stay below SIDEBAND_TOL."""
    if g_abs == 0.0:
        return 0
    x = 2.0 * g_abs
    # J_n(x) decays super-exponentially once n > x; scan with margin
    for n in range(int(math.ceil(x)) + 2, int(math.ceil(x)) + 400):
        if abs(jv(n, x)) < SIDEBAND_TOL:
            return n
    raise DomainError(f"no sideband cutoff found for |g| = {g_abs}")


def optimal_drift_time(kin: ElectronKinematics, omega_b: float, g_abs: float) -> float:
    """Drift time maximizing density bunching, T_b*p0/(2*dp_mod), in fs.

    dp_mod = 2|g|*delta_p is the momentum modulation amplitude imprinted at
    the modulation point.
    """
    if g_abs <= 0.0:
        raise DomainError("optimal drift undefined for g = 0")
    delta_p = HBAR_EV_FS * omega_b / kin.v0
    t_b = TWO_PI / omega_b
    return t_b * kin.p0 / (4.0 * g_abs * delta_p)


def optimally_drifted(base: GaussianQewSpec, g: float, omega_b: float) -> ModulatedQewSpec:
    """``base`` modulated with coupling g at omega_b, arriving after the drift
    of densest bunching (``optimal_drift_time``)."""
    return ModulatedQewSpec(base=base, g=g, omega_b=omega_b,
                            drift_time=optimal_drift_time(base.kin, omega_b, abs(g)))


# -- momentum-space amplitudes ---------------------------------------------------

def _edge_tail_mass(center: float, sigma: float, p_lo: float, p_hi: float) -> float:
    """Gaussian probability mass of |c|^2 outside [p_lo, p_hi]."""
    # |c_p|^2 has std sigma
    a = (p_hi - center) / (math.sqrt(2.0) * sigma)
    b = (center - p_lo) / (math.sqrt(2.0) * sigma)
    return 0.5 * (math.erfc(a) + math.erfc(b))


class Packet(NamedTuple):
    """A packet as the grid solvers run it, sized by ``packet_for_spec``."""

    spec: GaussianQewSpec | ModulatedQewSpec
    grid: MomentumGrid
    window: tuple[float, float]


def packet_for_spec(spec: GaussianQewSpec | ModulatedQewSpec, coupling: DipoleCoupling,
                    n: int, transit_factor: float, sigma_factor: float) -> Packet:
    """``spec`` with its grid of n points and its window, ``interaction_window``
    at spec.sigma_et and spec.t0.

    The grid solvers take the packet's amplitudes from spec.kin and the free
    dispersion from coupling.kin, so a DomainError refuses a spec whose
    kinematics differ from the coupling's.  Then five rules, in order, size
    the packet:

    * p_cutoff = max(8 sigma_p0, 6 |p_rec|) + sideband_count delta_p, the
      packet and the coupling's recoil sidestep beside the outermost sideband;
    * a DomainError if the envelope leaves more than 1e-8 outside p0 +-
      p_cutoff (recorded as the grid's ``initial_tail_mass``);
    * a DomainError if the grid under-resolves the packet: its conjugate
      z-span 2 pi hbar/dp must hold +-5 sigma_z0, i.e. sigma_p0 >= 10 dp/(4 pi);
    * the window t0 +- (transit_factor t_r + sigma_factor sigma_et);
    * a DomainError if the window's half travel plus transit reach, v0 (T_half +
      transit_factor t_r), reaches the period L = 2 pi hbar/dp of position and
      the kernel: there the packet meets an image."""
    if spec.kin != coupling.kin:
        raise DomainError(f"packet at {spec.kin.kinetic_energy:g} eV does not match the "
                          f"coupling's {coupling.kin.kinetic_energy:g} eV kinematics")
    sigma_p0 = spec.base.sigma_p0
    p_cutoff = max(8.0 * sigma_p0, 6.0 * abs(coupling.recoil_momentum)) \
        + spec.sideband_count * spec.delta_p
    tail = math.erfc(p_cutoff / (math.sqrt(2.0) * sigma_p0))
    if tail > 1e-8:
        raise DomainError(f"grid tail mass {tail:.3g} > 1e-8; enlarge p_cutoff")
    grid = MomentumGrid(n=n, p0=spec.kin.p0, p_cutoff=p_cutoff, initial_tail_mass=tail)
    if sigma_p0 < 10.0 / (4.0 * math.pi) * grid.dp:
        raise DomainError(f"{n} grid points under-resolve the packet: sigma_p0/dp = "
                          f"{sigma_p0 / grid.dp:.3g} < {10.0 / (4.0 * math.pi):.3g}; "
                          "raise grid_points")
    t_r = coupling.transit_time
    window = interaction_window(spec.sigma_et, t_r, spec.t0, transit_factor, sigma_factor)
    period = TWO_PI * HBAR_EV_FS / grid.dp
    reach = coupling.kin.v0 * ((window[1] - window[0]) / 2.0 + transit_factor * t_r)
    if reach >= period:
        raise DomainError(f"the window's half travel plus its transit reach, {reach:.4g} nm, "
                          f"reaches the position period L = {period:.4g} nm of {n} grid "
                          "points; raise grid_points or lower window_transit_factor")
    return Packet(spec, grid, window)


def momentum_amplitudes(spec: GaussianQewSpec | ModulatedQewSpec,
                        grid: MomentumGrid) -> np.ndarray:
    """Discrete momentum amplitudes c_{p_n} of a packet's sideband comb.

    Sideband n is a Gaussian at p0 + n*delta_p with weight J_n(2|g|) and
    phase n*phi_b (a plain Gaussian is the one sideband n = 0); the drift
    phase exp(-i (p-p0)^2 drift_time/(2 gamma^3 m hbar)) encodes the free
    drift between modulation and arrival, and the arrival phase
    exp(+i E(p) t0/hbar) sets the envelope-centroid arrival time.  Normalized
    so sum |c|^2 dp = 1 exactly on the grid.  Raises TruncationError if the
    discarded sideband weight, 1 - sum_|n|<=n_max J_n^2 (sum_n J_n^2 = 1),
    plus the sidebands' edge tails exceed 1e-6.
    """
    base = spec.base
    kin = base.kin
    p = grid.points
    dp_band = spec.delta_p
    orders, weights = spec.sideband_amplitudes()

    # truncation bookkeeping: discarded sideband weight plus edge tails
    tail = 1.0 - float(np.sum(np.abs(weights) ** 2))
    for n, w in zip(orders, weights):
        tail += abs(w) ** 2 * _edge_tail_mass(kin.p0 + n * dp_band, base.sigma_p0, p[0], p[-1])
    if tail > 1e-6:
        raise TruncationError(f"grid and sideband cutoff leave {tail:.3g} of the packet "
                              "outside, > 1e-6")

    dev = p - kin.p0
    c = np.zeros(p.shape, dtype=complex)
    for n, w in zip(orders, weights):
        c += w * np.exp(-((dev - n * dp_band) ** 2) / (4.0 * base.sigma_p0**2))
    if spec.drift_time != 0.0:
        c *= np.exp(-1j * dev**2 * spec.drift_time
                    / (2.0 * kin.gamma**3 * ME_EV_FS2_NM2 * HBAR_EV_FS))
    if base.t0 != 0.0:
        c *= np.exp(1j * kin.dispersion(p) * base.t0 / HBAR_EV_FS)
    norm = np.sum(np.abs(c) ** 2) * grid.dp
    return c / math.sqrt(norm)


# -- position-space amplitude ---------------------------------------------------

def _modulated_amplitude_comoving(spec: ModulatedQewSpec, xi: np.ndarray) -> np.ndarray:
    """Position-space amplitude of a modulated packet vs xi = z - v0 (t - t0).

    Each sideband is displaced by Delta_n = n*delta_p*drift_time/(2 gamma^3 m)
    and carries the phase (n omega_b/v0)(xi - v0 t0 - Delta_n) + n phi_b;
    the bunching sharpness is controlled by the quadratic (in n) part of
    that phase.

    With k = omega_b/v0 and z = e^{i k xi}, sideband n contributes its weight
    times e^{-i n k (v0 t0 + Delta_n)}, its real Gaussian envelope and z^n.
    z^n is a running product over n >= 0 and z^{-n} its conjugate, so the
    sum takes one complex exponential per sample and O(samples) memory.
    """
    kin = spec.kin
    sz = spec.base.sigma_z0
    orders, weights = spec.sideband_amplitudes()
    shifts = orders * (spec.delta_p * spec.drift_time / (2.0 * kin.gamma**3 * ME_EV_FS2_NM2))
    k = spec.omega_b / kin.v0
    weights = weights * np.exp(-1j * (orders * k) * (kin.v0 * spec.t0 + shifts))
    top = orders[-1]      # orders run -top..top

    def term(i: int, power: np.ndarray) -> np.ndarray:
        return (weights[i] * np.exp(-((xi - shifts[i]) ** 2) / (4.0 * sz * sz))) * power

    z = np.exp(1j * k * xi)
    power = np.ones_like(z)
    amp = term(top, power)
    for n in range(1, top + 1):
        power *= z
        amp += term(top + n, power)
        amp += term(top - n, power.conj())
    return amp * (TWO_PI * sz * sz) ** (-0.25)


# -- wavepacket size parameter ----------------------------------------------------

def gamma_parameter(omega: float, sigma_et: float) -> float:
    """Size parameter Gamma = omega*sigma_et (= p_rec/(2 sigma_p0) at waist).

    Gamma < 1 marks the near-point-particle regime, Gamma > 1 the wave
    regime of the interaction.
    """
    if omega < 0.0 or sigma_et < 0.0:
        raise DomainError("omega and sigma_et must be >= 0")
    return omega * sigma_et


# -- modulation spectrum ------------------------------------------------------------

@dataclass(frozen=True)
class ModulationSpectrum:
    """Harmonics f_m of the periodic density modulation, f_0 = 1.

    ``f_m[k]`` holds the coefficient of harmonic m = k - M for
    k = 0..2M; sum_m f_m exp(i m omega_b t) is the (real) periodic
    modulation factor of the density.
    """

    f_m: np.ndarray      # complex, length 2M+1
    omega_b: float       # rad/fs

    @property
    def order(self) -> int:
        return (len(self.f_m) - 1) // 2

    def coefficient(self, m: int) -> complex:
        if abs(m) > self.order:
            return 0.0 + 0.0j
        return complex(self.f_m[m + self.order])


def _period_samples(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Re sum_m c_m e^{2 pi i m j/n} for j = 0..n-1, with c_m = coeffs[m + M],
    |m| <= M: one inverse FFT of the zero-padded (and, for 2M + 1 > n,
    folded) coefficients."""
    order = (len(coeffs) - 1) // 2
    padded = np.zeros(n, dtype=complex)
    np.add.at(padded, np.arange(-order, order + 1) % n, coeffs)
    return fft.ifft(padded, norm="forward").real


def modulation_fourier_coefficients(spec: ModulatedQewSpec, order: int) -> ModulationSpectrum:
    """Extract f_m for |m| <= order from the density at the interaction point.

    Samples the packet density in time at z = 0 over one modulation period
    around the envelope center, divides out the Gaussian envelope, and
    Fourier-analyzes the remaining periodic factor; f_0 is normalized to 1.
    The values are numerically derived (no closed form is assumed).
    """
    if order < 1:
        raise DomainError("order must be >= 1")
    t_b = spec.period
    n_samp = max(64 * order, 512)
    # density in time at z=0: xi = -v0 (t - t0)
    s = (np.arange(n_samp) / n_samp - 0.5) * t_b   # one period about the center
    xi = -spec.kin.v0 * s
    dens = np.abs(_modulated_amplitude_comoving(spec, xi)) ** 2
    envelope = np.exp(-(s**2) / (2.0 * spec.sigma_et**2))
    fmod = dens / envelope
    m = np.arange(-order, order + 1)
    # f_m = <f(t) e^{-i m omega_b t}> over one period, t = t0 + s_j; the
    # centered harmonics f_m e^{i m omega_b t0} = (-1)^m FFT(fmod)[m mod N]/N
    centered = fft.fft(fmod, norm="forward")[m % n_samp] * (-1.0) ** m
    f0 = centered[order].real
    if f0 <= 0.0:
        raise ResolutionError("non-positive mean modulation density")
    centered /= f0
    spectrum = ModulationSpectrum(f_m=centered * np.exp(-1j * m * spec.omega_b * spec.t0),
                                  omega_b=spec.omega_b)
    recon = _period_samples(centered, n_samp)      # the reconstruction at t0 + s_j
    if np.min(recon) < -1e-6 * np.max(recon):
        raise ResolutionError(
            f"reconstructed modulation density dips to {np.min(recon):.3g}; "
            "increase the harmonic order or sampling")
    return spectrum


def tooth_sigma_et(spectrum: ModulationSpectrum) -> float:
    """Effective Gaussian duration (FWHM/2.355) of one density bunch, in fs,
    read on BUNCH_SAMPLES samples of one period.

    Raises ResolutionError if the density never falls below half its peak:
    such a comb has no half-maximum, hence no bunch width.
    """
    t_b = TWO_PI / spectrum.omega_b
    f = _period_samples(spectrum.f_m, BUNCH_SAMPLES)     # at t_j = j T_b / BUNCH_SAMPLES
    peak = int(np.argmax(f))
    above = np.roll(f >= 0.5 * f[peak], -peak)     # above[0] is the peak
    if above.all():
        raise ResolutionError(
            f"no half-maximum: the bunched density never falls below "
            f"{np.min(f) / f[peak]:.3g} of its peak, so the comb has no bunch width")
    # the run of samples at or above half maximum around the peak, periodically
    width_samples = int(np.argmin(above)) + int(np.argmin(above[::-1]))
    fwhm = width_samples * t_b / BUNCH_SAMPLES
    return fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
