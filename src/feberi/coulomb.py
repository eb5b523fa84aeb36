"""Relativistic Coulomb dipole coupling between a passing electron and a TLS.

Spatial kernels
    M_par(z)  = (e^2 r21 / 4 pi eps0) * gamma*z      / (gamma^2 z^2 + r_perp^2)^{3/2}
    M_perp(z) = (e^2 r21 / 4 pi eps0) * gamma*r_perp / (gamma^2 z^2 + r_perp^2)^{3/2}

and their Fourier transforms with the e^{-i p z / hbar} sign convention

    Mt_par(p)  = -i (e^2 r21 / 4 pi eps0) (2/gamma^2) (p/hbar) K0(|p| r_perp / hbar gamma)
    Mt_perp(p) =    (e^2 r21 / 4 pi eps0) (2/gamma)  (|p|/hbar) K1(|p| r_perp / hbar gamma)

The constants in the closed forms are pinned by direct quadrature of the
spatial kernels (see tests).  K0 and K1 come from ``scipy.special``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import k0, k1

from feberi.core import (
    COULOMB_EV_NM,
    HBAR_EV_FS,
    ORIENTATIONS,
    DomainError,
    ElectronKinematics,
    TlsSpec,
    transit_time,
)


# -- dipole coupling -----------------------------------------------------------

@dataclass(frozen=True)
class DipoleCoupling:
    """The TLS, the impact parameter r_perp (nm), the beam and the dipole's
    orientation ("parallel" to the beam axis or "transverse", along r_perp):
    every physical fact the coupling kernels, and the solvers, read."""

    tls: TlsSpec
    r_perp: float
    kin: ElectronKinematics
    orientation: str = "transverse"

    def __post_init__(self):
        transit_time(self.r_perp, self.kin)    # a bad r_perp or a beam at rest raises here
        if self.orientation not in ORIENTATIONS:
            raise DomainError(f"orientation must be one of {ORIENTATIONS}, "
                              f"got {self.orientation!r}")

    @property
    def transit_time(self) -> float:
        """r_perp/(c*beta*gamma) in fs: 8.27 as at 2.4 nm and 200 keV, where a nominal
        6 as is sometimes quoted (the CLI's scenario metadata records the difference)."""
        return transit_time(self.r_perp, self.kin)

    @property
    def prefactor(self) -> float:
        """(e^2/4 pi eps0) * r21 in eV*nm^2."""
        return COULOMB_EV_NM * self.tls.dipole_magnitude

    @property
    def recoil_momentum(self) -> float:
        """Signed recoil -E_gap/v0 for the upward transition, eV*fs/nm."""
        return -self.tls.energy_gap / self.kin.v0


def m_spatial(z, coupling: DipoleCoupling):
    """Spatial coupling kernel M(z) in eV; odd in z for the parallel dipole,
    even and positive for the transverse one."""
    g = coupling.kin.gamma
    rp = coupling.r_perp
    z = np.asarray(z, dtype=float)
    denom = (g * g * z**2 + rp * rp) ** 1.5
    if coupling.orientation == "parallel":
        return coupling.prefactor * (g * z / denom)
    return coupling.prefactor * (g * rp / denom)


def m_tilde(p, coupling: DipoleCoupling):
    """Momentum-space kernel Mt(p) = int M(z) exp(-i p z/hbar) dz, in eV*nm.

    Pure imaginary and odd in p for the parallel dipole; real, even and
    positive for the transverse one.  p = 0 is handled by the analytic
    limits (0 for parallel, 2*prefactor/r_perp for transverse).
    A scalar or 0-d array p gives a complex; an array, one of its shape.
    """
    scalar = np.ndim(p) == 0
    p = np.atleast_1d(np.asarray(p, dtype=float))
    g = coupling.kin.gamma
    rp = coupling.r_perp
    pref = coupling.prefactor

    absp = np.abs(p)
    x = absp * rp / (HBAR_EV_FS * g)
    nz = x > 0.0

    out = np.empty(p.shape, dtype=complex)
    if coupling.orientation == "parallel":
        vals = np.zeros_like(absp)
        if np.any(nz):
            vals[nz] = (2.0 / g**2) * (absp[nz] / HBAR_EV_FS) * k0(x[nz])
        out[:] = -1j * pref * np.sign(p) * vals
    else:
        vals = np.full_like(absp, 2.0 / (rp * 1.0))   # limit of (2/g)(|p|/hbar)K1 -> 2/r_perp
        if np.any(nz):
            vals[nz] = (2.0 / g) * (absp[nz] / HBAR_EV_FS) * k1(x[nz])
        out[:] = pref * vals
    return complex(out[0]) if scalar else out
