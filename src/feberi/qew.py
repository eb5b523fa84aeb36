"""Gaussian and laser-modulated quantum electron wavepackets (QEWs).

Wavepackets are described by their momentum-space amplitudes about the beam
momentum p0.  The package works in the waist convention throughout: the
packet reaches the interaction point z = 0 at its arrival time ``t0`` with no
chirp, so sigma_z0 = hbar/(2 sigma_p0) and sigma_et = sigma_z0/v0 exactly.

A modulated packet is a comb of momentum sidebands J_n(2|g|) spaced by
delta_p = hbar*omega_b/v0, imprinted by a laser of angular frequency omega_b;
after a drift time the sideband phases align into a train of sharp density
bunches spaced by one optical period.  The bunching harmonics f_m of that
train are extracted numerically here by discrete Fourier analysis of the
density with the slow envelope divided out (no closed form is used).

One-period harmonic sums run as FFTs.  The extraction samples one period at
s_j = (j/N - 1/2) T_b, so omega_b s_j = 2 pi j/N - pi and

    f_m = e^{-i m omega_b t0} (-1)^m FFT(fmod)[m mod N] / N;

the reconstruction on the same samples, and on the samples j T_b/N of
tooth_sigma_et, is one inverse FFT of the zero-padded coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
from feberi.grid import MomentumGrid, build_grid, interaction_window


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

    def with_arrival(self, t0: float) -> "GaussianQewSpec":
        return GaussianQewSpec(kin=self.kin, sigma_p0=self.sigma_p0, t0=t0)


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

    def with_arrival(self, t0: float) -> "ModulatedQewSpec":
        return replace(self, base=self.base.with_arrival(t0))

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
        """Smallest n_max with |J_n(2|g|)| < 1e-8 for all |n| > n_max."""
        return sideband_cutoff(abs(self.g))

    def sideband_amplitudes(self) -> tuple[np.ndarray, np.ndarray]:
        """(orders n, complex weights J_n(2|g|) e^{i n phi_b}) for |n| <= n_max."""
        nmax = self.sideband_count
        n = np.arange(-nmax, nmax + 1)
        w = jv(n, 2.0 * abs(self.g)) * np.exp(1j * n * self.phi_b)
        return n, w


def sideband_cutoff(g_abs: float, tol: float = 1e-8) -> int:
    """Smallest order beyond which Bessel sideband weights stay below tol."""
    if g_abs == 0.0:
        return 0
    x = 2.0 * g_abs
    # J_n(x) decays super-exponentially once n > x; scan with margin
    for n in range(int(math.ceil(x)) + 2, int(math.ceil(x)) + 400):
        if abs(jv(n, x)) < tol:
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


def grid_for_spec(spec: GaussianQewSpec | ModulatedQewSpec, coupling: DipoleCoupling,
                  n: int) -> MomentumGrid:
    """Grid sized for a wavepacket spec plus the coupling's recoil headroom.

    Raises DomainError if the grid under-resolves the packet: its conjugate
    z-span 2 pi hbar/dp must hold +-5 sigma_z0, i.e. sigma_p0 >= 10 dp/(4 pi).
    """
    base = spec.base if isinstance(spec, ModulatedQewSpec) else spec
    extra = spec.sideband_count * spec.delta_p if base is not spec else 0.0
    grid = build_grid(base.kin, base.sigma_p0, coupling.recoil_momentum, n,
                      extra_halfwidth=extra)
    if base.sigma_p0 < 10.0 / (4.0 * math.pi) * grid.dp:
        raise DomainError(f"{n} grid points under-resolve the packet: sigma_p0/dp = "
                          f"{base.sigma_p0 / grid.dp:.3g} < {10.0 / (4.0 * math.pi):.3g}; "
                          "raise grid_points")
    return grid


class Packet(NamedTuple):
    """A packet as the grid solvers run it, sized by ``packet_for_spec``."""

    spec: GaussianQewSpec | ModulatedQewSpec
    grid: MomentumGrid
    window: tuple[float, float]


def packet_for_spec(spec: GaussianQewSpec | ModulatedQewSpec, coupling: DipoleCoupling,
                    n: int, transit_factor: float, sigma_factor: float) -> Packet:
    """``spec`` with its grid of n points (``grid_for_spec``, whose DomainError it
    raises) and its window, ``interaction_window`` at spec.sigma_et and spec.t0."""
    return Packet(spec, grid_for_spec(spec, coupling, n), interaction_window(
        spec.sigma_et, coupling.geometry.transit_time, spec.t0, transit_factor, sigma_factor))


def gaussian_momentum_amplitudes(spec: GaussianQewSpec, grid: MomentumGrid) -> np.ndarray:
    """Discrete momentum amplitudes c_{p_n} of a Gaussian packet.

    Carries the arrival phase exp(+i E(p) t0 / hbar) so that the centroid
    crosses z = 0 at t = t0; normalized so sum |c|^2 dp = 1 exactly on the
    grid.  Raises TruncationError if more than 1e-6 of the packet lies
    outside the grid.
    """
    p = grid.points
    tail = _edge_tail_mass(spec.kin.p0, spec.sigma_p0, p[0], p[-1])
    if tail > 1e-6:
        raise TruncationError(f"grid leaves {tail:.3g} of the packet outside")
    c = np.exp(-((p - spec.kin.p0) ** 2) / (4.0 * spec.sigma_p0**2)).astype(complex)
    if spec.t0 != 0.0:
        c *= np.exp(1j * spec.kin.dispersion(p) * spec.t0 / HBAR_EV_FS)
    norm = np.sum(np.abs(c) ** 2) * grid.dp
    return c / math.sqrt(norm)


def momentum_amplitudes(spec: GaussianQewSpec | ModulatedQewSpec,
                        grid: MomentumGrid) -> np.ndarray:
    """Discrete momentum amplitudes of either packet kind."""
    if isinstance(spec, ModulatedQewSpec):
        return modulated_momentum_amplitudes(spec, grid)
    return gaussian_momentum_amplitudes(spec, grid)


def modulated_momentum_amplitudes(spec: ModulatedQewSpec, grid: MomentumGrid) -> np.ndarray:
    """Discrete momentum amplitudes of a modulated packet (sideband comb).

    Sideband n is a Gaussian at p0 + n*delta_p with weight J_n(2|g|) and
    phase n*phi_b; the drift phase exp(-i (p-p0)^2 drift_time/(2 gamma^3 m hbar))
    encodes the free drift between modulation and arrival, and the arrival
    phase exp(+i E(p) t0/hbar) sets the envelope-centroid arrival time.
    """
    base = spec.base
    kin = base.kin
    p = grid.points
    dp_band = spec.delta_p
    orders, weights = spec.sideband_amplitudes()

    # truncation bookkeeping: discarded sideband weight plus edge tails
    j_all = jv(np.arange(-orders[-1] - 200, orders[-1] + 201), 2.0 * abs(spec.g))
    total = float(np.sum(j_all**2))
    kept = float(np.sum(np.abs(weights) ** 2))
    tail = abs(total - kept)
    for n, w in zip(orders, weights):
        tail += abs(w) ** 2 * _edge_tail_mass(kin.p0 + n * dp_band, base.sigma_p0, p[0], p[-1])
    if tail > 1e-6:
        raise TruncationError(f"sideband truncation mass {tail:.3g} > 1e-6")

    dev = p - kin.p0
    c = np.zeros(p.shape, dtype=complex)
    for n, w in zip(orders, weights):
        c += w * np.exp(-((dev - n * dp_band) ** 2) / (4.0 * base.sigma_p0**2))
    c *= np.exp(-1j * dev**2 * spec.drift_time
                / (2.0 * kin.gamma**3 * ME_EV_FS2_NM2 * HBAR_EV_FS))
    if base.t0 != 0.0:
        c *= np.exp(1j * kin.dispersion(p) * base.t0 / HBAR_EV_FS)
    norm = np.sum(np.abs(c) ** 2) * grid.dp
    return c / math.sqrt(norm)


# -- position-space density -----------------------------------------------------

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


def density_profile(spec: GaussianQewSpec | ModulatedQewSpec, t: float,
                    z_grid: np.ndarray) -> np.ndarray:
    """Probability density n(z, t) of the packet, normalized to unit integral.

    The Gaussian case is the waist-profile Gaussian riding at v0; the
    modulated case evaluates the sideband sum (a bunch comb after drift).
    The discrete trapezoid integral over ``z_grid`` is renormalized to 1, so
    the grid must cover the packet.
    """
    z = np.asarray(z_grid, dtype=float)
    xi = z - spec.kin.v0 * (t - spec.t0)
    if isinstance(spec, ModulatedQewSpec):
        dens = np.abs(_modulated_amplitude_comoving(spec, xi)) ** 2
    else:
        sz = spec.sigma_z0
        dens = np.exp(-(xi**2) / (2.0 * sz * sz)) / math.sqrt(TWO_PI * sz * sz)
    total = np.trapezoid(dens, z)
    if total <= 0.0:
        raise ResolutionError("density grid does not cover the packet")
    return dens / total


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
    k = 0..2M; reconstruct(t) = sum_m f_m exp(i m omega_b t) is the
    (real) periodic modulation factor of the density.
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

    def reconstruct(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        m = np.arange(-self.order, self.order + 1)
        vals = np.real(np.exp(1j * np.outer(t, m) * self.omega_b) @ self.f_m)
        return vals if vals.ndim else float(vals)


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


def tooth_sigma_et(spectrum: ModulationSpectrum, samples: int = 8192) -> float:
    """Effective Gaussian duration (FWHM/2.355) of one density bunch, in fs.

    Raises ResolutionError if the density never falls below half its peak:
    such a comb has no half-maximum, hence no bunch width.
    """
    t_b = TWO_PI / spectrum.omega_b
    f = _period_samples(spectrum.f_m, samples)     # at t_j = j T_b / samples
    peak = int(np.argmax(f))
    above = np.roll(f >= 0.5 * f[peak], -peak)     # above[0] is the peak
    if above.all():
        raise ResolutionError(
            f"no half-maximum: the bunched density never falls below "
            f"{np.min(f) / f[peak]:.3g} of its peak, so the comb has no bunch width")
    # the run of samples at or above half maximum around the peak, periodically
    width_samples = int(np.argmin(above)) + int(np.argmin(above[::-1]))
    fwhm = width_samples * t_b / samples
    return fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
