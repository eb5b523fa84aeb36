"""Discretization decisions shared by the grid solvers and the Born model.

* the uniform momentum grid (``MomentumGrid``, ``build_grid``);
* the Toeplitz kernel matrix Mt(p_m - p_n) that couples grid momenta in both
  the amplitude solver and the density-matrix assembly;
* the interaction window t0 +- (transit_factor*t_r + sigma_factor*sigma_et)
  that bounds every time integration and every interaction profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz

from feberi.core import HBAR_EV_FS, DomainError, ElectronKinematics
from feberi.coulomb import DipoleCoupling, m_tilde


@dataclass(frozen=True)
class MomentumGrid:
    """Uniform momentum grid of n points covering p0 +- p_cutoff.

    points[k] = p0 - p_cutoff + k*dp with dp = 2*p_cutoff/n (ascending;
    the +p_cutoff endpoint is excluded, matching a periodic Fourier pairing
    with the conjugate z-grid of span 2*pi*hbar/dp).
    """

    n: int
    p0: float
    p_cutoff: float
    initial_tail_mass: float = 0.0

    def __post_init__(self):
        if self.n < 64 or self.n % 2:
            raise DomainError(f"grid size must be even and >= 64, got {self.n}")
        if self.p_cutoff <= 0.0:
            raise DomainError("p_cutoff must be > 0")

    @property
    def dp(self) -> float:
        return 2.0 * self.p_cutoff / self.n

    @property
    def points(self) -> np.ndarray:
        return self.p0 - self.p_cutoff + self.dp * np.arange(self.n)

    @property
    def z_span(self) -> float:
        """Span of the conjugate position grid, 2*pi*hbar/dp, in nm."""
        return 2.0 * math.pi * HBAR_EV_FS / self.dp


def build_grid(kin: ElectronKinematics, sigma_p0: float, p_rec: float, n: int,
               extra_halfwidth: float = 0.0) -> MomentumGrid:
    """Grid sized to hold the packet and its recoil sidestep.

    p_cutoff = max(8*sigma_p0, 6*|p_rec|) + extra_halfwidth.  Raises if the
    initial Gaussian leaves more than 1e-8 outside the grid (it cannot, by
    construction, unless extra_halfwidth is abused negative).
    """
    if sigma_p0 <= 0.0:
        raise DomainError("sigma_p0 must be > 0")
    p_cutoff = max(8.0 * sigma_p0, 6.0 * abs(p_rec)) + extra_halfwidth
    tail = math.erfc(p_cutoff / (math.sqrt(2.0) * sigma_p0))
    if tail > 1e-8:
        raise DomainError(f"grid tail mass {tail:.3g} > 1e-8; enlarge p_cutoff")
    return MomentumGrid(n=n, p0=kin.p0, p_cutoff=p_cutoff, initial_tail_mass=tail)


def toeplitz_kernel(grid: MomentumGrid, coupling: DipoleCoupling) -> np.ndarray:
    """Dense matrix Mt(p_m - p_n) in eV*nm; Toeplitz by construction.

    Hermitian for both orientations: Mt is real and even (transverse) or
    imaginary and odd (parallel).
    """
    k = np.arange(grid.n)
    return toeplitz(m_tilde(k * grid.dp, coupling), m_tilde(-k * grid.dp, coupling))


def interaction_window(sigma_et: float, t_r: float, t0: float,
                       transit_factor: float = 10.0,
                       sigma_factor: float = 6.0) -> tuple[float, float]:
    """Interaction bounds t0 +- (transit_factor*t_r + sigma_factor*sigma_et)."""
    half = transit_factor * t_r + sigma_factor * sigma_et
    return (t0 - half, t0 + half)
