"""Physical constants, unit conversions, kinematics, TLS state primitives and
the phase tables of uniform time grids.

Internal unit system (used everywhere in this package):

* energy   in eV
* time     in fs
* length   in nm
* momentum in eV*fs/nm
* angular frequency in rad/fs

With these units hbar = 0.6582... eV*fs and c = 299.79... nm/fs, so all
quantities of a nanometer-scale, femtosecond-scale scattering problem stay
near unity.  Public constructors accept laboratory units (keV, Debye) and
convert exactly once at the boundary.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

# -- fundamental constants (CODATA-style values, internal units) -------------
HBAR_EV_FS = 0.6582119569          # eV*fs
C_NM_FS = 299.792458               # nm/fs
ME_C2_EV = 510998.95               # electron rest energy, eV
ME_EV_FS2_NM2 = ME_C2_EV / C_NM_FS**2   # electron mass, eV*fs^2/nm^2
COULOMB_EV_NM = 1.439964548        # e^2/(4 pi eps0), eV*nm
DEBYE_E_NM = 0.020819434           # 1 Debye in e*nm

TWO_PI = 2.0 * math.pi


class DomainError(ValueError):
    """Raised when an input violates a physical-domain precondition."""


# -- unit conversions ---------------------------------------------------------

def kev_to_ev(x: float) -> float:
    return 1000.0 * x


def fs_to_attoseconds(x: float) -> float:
    return 1e3 * x


def debye_to_e_nm(x: float) -> float:
    return x * DEBYE_E_NM


def wrap_phase(phi: float) -> float:
    """Wrap a phase to [0, 2*pi). Single convention for the whole package."""
    out = math.fmod(phi, TWO_PI)
    if out < 0.0:
        out += TWO_PI
    # fmod of a tiny negative can round to exactly 2*pi
    return 0.0 if out >= TWO_PI else out


def phase_tables(omegas, t_first: float, step: float,
                 n: int) -> tuple[np.ndarray, np.ndarray]:
    """Factors of e^{i w t_j} on t_j = t_first + j step, j < n, for each w in omegas.

    With B = isqrt(n - 1) + 1 and j = b B + i, the values at t_j are
    outer[b] * inner[i], one column per frequency:
    outer[b] = e^{i w (t_first + b B step)}, inner[i] = e^{i w i step}.  Each
    value carries two roundings and no step-to-step recurrence, whose error
    would grow with j, and only O(sqrt n) exponentials per frequency are
    evaluated.
    """
    width = math.isqrt(max(n - 1, 0)) + 1
    starts = t_first + step * (width * np.arange(-(-n // width)))
    offsets = step * np.arange(width)
    omegas = np.asarray(omegas, dtype=float)
    return (np.exp(1j * np.multiply.outer(starts, omegas)),
            np.exp(1j * np.multiply.outer(offsets, omegas)))


# -- free-electron kinematics -------------------------------------------------

@dataclass(frozen=True)
class ElectronKinematics:
    """Relativistic beam parameters derived from the kinetic energy.

    Attributes
    ----------
    kinetic_energy : float
        Kinetic energy in eV.
    gamma : float
        Lorentz factor, 1 + E_kin/(m_e c^2).
    beta : float
        v0/c.
    v0 : float
        Centroid speed in nm/fs.
    p0 : float
        Centroid momentum gamma*m*v0 in eV*fs/nm.
    """

    kinetic_energy: float
    gamma: float
    beta: float
    v0: float
    p0: float

    def dispersion(self, p):
        """Free energy E(p) - gamma*m*c^2, quadratic expansion about p0.

        E(p) = v0*(p - p0) + (p - p0)^2 / (2 gamma^3 m); the constant rest
        term is dropped (it contributes only a global phase).  Accepts
        scalars or numpy arrays.
        """
        dp = p - self.p0
        return self.v0 * dp + dp * dp / (2.0 * self.gamma**3 * ME_EV_FS2_NM2)


def kinematics_from_kinetic_energy(kinetic_energy: float) -> ElectronKinematics:
    """Build self-consistent (gamma, beta, v0, p0) from the kinetic energy in eV."""
    if kinetic_energy < 0.0:
        raise DomainError(f"kinetic energy must be >= 0, got {kinetic_energy}")
    gamma = 1.0 + kinetic_energy / ME_C2_EV
    beta = math.sqrt(max(0.0, 1.0 - 1.0 / gamma**2))
    v0 = beta * C_NM_FS
    p0 = gamma * ME_EV_FS2_NM2 * v0
    return ElectronKinematics(kinetic_energy, gamma, beta, v0, p0)


def kinematics_from_kev(kinetic_energy_kev: float) -> ElectronKinematics:
    return kinematics_from_kinetic_energy(kev_to_ev(kinetic_energy_kev))


# -- interaction geometry -----------------------------------------------------

# the dipole along the beam axis, or along the impact-parameter direction
ORIENTATIONS = ("parallel", "transverse")


def transit_time(r_perp: float, kin: ElectronKinematics) -> float:
    """Interaction transit time t_r = r_perp/(c*beta*gamma) in fs."""
    if r_perp <= 0.0:
        raise DomainError(f"impact parameter must be > 0, got {r_perp}")
    if kin.beta <= 0.0:
        raise DomainError("beta = 0: electron at rest has no transit time")
    return r_perp / (C_NM_FS * kin.beta * kin.gamma)


# -- two-level system ---------------------------------------------------------


@dataclass(frozen=True)
class TlsSpec:
    """Two-level system: energy gap and transition dipole.

    ``dipole_magnitude`` is stored internally in e*nm (|r_21| such that the
    dipole is e*|r_21|); use :meth:`from_lab` to pass Debye.  The dipole's
    orientation belongs to its coupling to the beam (``DipoleCoupling``).
    """

    energy_gap: float        # eV
    dipole_magnitude: float  # e*nm

    def __post_init__(self):
        if self.energy_gap <= 0.0:
            raise DomainError(f"energy gap must be > 0, got {self.energy_gap}")
        if self.dipole_magnitude <= 0.0:
            raise DomainError(f"dipole magnitude must be > 0, got {self.dipole_magnitude}")

    @classmethod
    def from_lab(cls, energy_gap_ev: float, dipole_debye: float) -> "TlsSpec":
        return cls(energy_gap=energy_gap_ev, dipole_magnitude=debye_to_e_nm(dipole_debye))

    @property
    def omega_21(self) -> float:
        """Transition angular frequency in rad/fs."""
        return self.energy_gap / HBAR_EV_FS

    @property
    def period(self) -> float:
        """Transition period T_21 = 2*pi/omega_21 in fs."""
        return TWO_PI / self.omega_21


_NORM_TOL = 1e-12


@dataclass(frozen=True)
class TlsState:
    """Complex amplitude pair (c1, c2) of the TLS, |c1|^2 + |c2|^2 = 1."""

    c1: complex
    c2: complex

    def __post_init__(self):
        norm = abs(self.c1) ** 2 + abs(self.c2) ** 2
        if abs(norm - 1.0) > _NORM_TOL:
            raise DomainError(f"TLS state not normalized: |c1|^2+|c2|^2 = {norm}")

    @classmethod
    def normalized(cls, c1: complex, c2: complex) -> "TlsState":
        n = math.sqrt(abs(c1) ** 2 + abs(c2) ** 2)
        if n == 0.0:
            raise DomainError("cannot normalize the zero state")
        return cls(c1 / n, c2 / n)

    @classmethod
    def ground(cls) -> "TlsState":
        return cls(1.0 + 0.0j, 0.0 + 0.0j)

    @classmethod
    def equatorial(cls, phi: float) -> "TlsState":
        """Equal superposition (|1> + e^{i phi}|2>)/sqrt(2)."""
        s = 1.0 / math.sqrt(2.0)
        return cls(s, s * cmath.exp(1j * phi))

    @property
    def p1(self) -> float:
        return abs(self.c1) ** 2

    @property
    def p2(self) -> float:
        return abs(self.c2) ** 2

    @property
    def dipole_phase(self) -> float:
        """arg(c1* c2), the azimuthal Bloch angle, in [0, 2*pi)."""
        if abs(self.c1) == 0.0 or abs(self.c2) == 0.0:
            raise DomainError("dipole phase undefined: one amplitude is zero")
        return wrap_phase(cmath.phase(self.c1.conjugate() * self.c2))


def bloch_phase(state: TlsState, t0: float, omega_21: float) -> float:
    """Arrival phase zeta = omega_21*t0 - arg(c1* c2), wrapped to [0, 2*pi).

    zeta is the phase of the wavepacket arrival time t0 relative to the
    oscillation of the TLS dipole moment; the first-order transition
    increment is proportional to sin(zeta).
    """
    return wrap_phase(omega_21 * t0 - state.dipole_phase)
