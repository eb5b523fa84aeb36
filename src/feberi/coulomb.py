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
    DomainError,
    ElectronKinematics,
    InteractionGeometry,
    TlsSpec,
)

# -- modified Bessel functions K0, K1 -----------------------------------------


def _bessel_k(fn, x):
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError("modified Bessel K defined here for x > 0 only")
    out = fn(arr)
    return float(out) if np.isscalar(x) else out


def bessel_k0(x):
    """Modified Bessel function of the second kind, order 0 (x > 0).

    Accepts scalars or arrays; underflows to 0 past x ~ 742.
    """
    return _bessel_k(k0, x)


def bessel_k1(x):
    """Modified Bessel function of the second kind, order 1 (x > 0)."""
    return _bessel_k(k1, x)


# -- dipole coupling -----------------------------------------------------------

@dataclass(frozen=True)
class DipoleCoupling:
    """Bundle of TLS, geometry and kinematics defining the coupling kernels."""

    tls: TlsSpec
    geometry: InteractionGeometry
    kin: ElectronKinematics
    orientation: str = ""

    def __post_init__(self):
        if not self.orientation:
            object.__setattr__(self, "orientation", self.tls.orientation)
        if self.orientation not in ("parallel", "transverse"):
            raise DomainError(f"unknown orientation {self.orientation!r}")

    @property
    def prefactor(self) -> float:
        """(e^2/4 pi eps0) * r21 in eV*nm^2."""
        return COULOMB_EV_NM * self.tls.dipole_length

    @property
    def recoil_momentum(self) -> float:
        """Signed recoil -E_gap/v0 for the upward transition, eV*fs/nm."""
        return -self.tls.energy_gap / self.kin.v0

    def spatial_kernel_unit(self, z):
        """Kernel M(z)/(e^2 r21/4 pi eps0) for the chosen orientation, 1/nm^2."""
        g = self.kin.gamma
        rp = self.geometry.r_perp
        denom = (g * g * np.asarray(z, dtype=float) ** 2 + rp * rp) ** 1.5
        if self.orientation == "parallel":
            return g * np.asarray(z, dtype=float) / denom
        return g * rp / denom


def m_spatial(z, coupling: DipoleCoupling):
    """Spatial coupling kernel M(z) in eV; odd in z for the parallel dipole,
    even and positive for the transverse one."""
    return coupling.prefactor * coupling.spatial_kernel_unit(z)


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
    rp = coupling.geometry.r_perp
    pref = coupling.prefactor

    absp = np.abs(p)
    x = absp * rp / (HBAR_EV_FS * g)
    nz = x > 0.0

    out = np.empty(p.shape, dtype=complex)
    if coupling.orientation == "parallel":
        vals = np.zeros_like(absp)
        if np.any(nz):
            vals[nz] = (2.0 / g**2) * (absp[nz] / HBAR_EV_FS) * bessel_k0(x[nz])
        out[:] = -1j * pref * np.sign(p) * vals
    else:
        vals = np.full_like(absp, 2.0 / (rp * 1.0))   # limit of (2/g)(|p|/hbar)K1 -> 2/r_perp
        if np.any(nz):
            vals[nz] = (2.0 / g) * (absp[nz] / HBAR_EV_FS) * bessel_k1(x[nz])
        out[:] = pref * vals
    return complex(out[0]) if scalar else out
