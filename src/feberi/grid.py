"""Discretization decisions shared by the grid solvers and the Born model.

* the uniform momentum grid (``MomentumGrid``; ``qew.packet_for_spec`` sizes
  it for a packet);
* the Toeplitz kernel Mt(p_m - p_n) that couples grid momenta in both
  the amplitude solver and the density-matrix assembly.  It is the leading
  block of a circulant, so one first column (``kernel_column``: Mt at the
  2n grid differences) is its only stored form.  ``circulant_product`` is
  its O(n log n) FFT product, the one product that the amplitude RK4 and
  the density solver's Chebyshev propagator share; ``circulant_block`` is
  the dense block, for an eigendecomposition and for the tests;
* the interaction window t0 +- (transit_factor*t_r + sigma_factor*sigma_et)
  that bounds every time integration and every interaction profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft

from feberi.core import DomainError
from feberi.coulomb import DipoleCoupling, m_tilde


@dataclass(frozen=True)
class MomentumGrid:
    """Uniform momentum grid of n points covering p0 +- p_cutoff.

    points[k] = p0 - p_cutoff + k*dp with dp = 2*p_cutoff/n (ascending;
    the +p_cutoff endpoint is excluded, matching a periodic Fourier pairing
    with the conjugate z-grid of span 2*pi*hbar/dp).  Grids compare by their
    points; ``initial_tail_mass`` records the packet a grid was sized for and
    takes no part.
    """

    n: int
    p0: float
    p_cutoff: float
    initial_tail_mass: float = field(default=0.0, compare=False)

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


def kernel_column(grid: MomentumGrid, coupling: DipoleCoupling) -> np.ndarray:
    """Mt(k*dp) for k = 0..n-1, -n..-1 (FFT order), in eV*nm.

    This is the first column of the length-2n circulant that embeds the
    Toeplitz kernel; the k = -n sample is never read.
    """
    n = grid.n
    k = np.concatenate([np.arange(n), np.arange(-n, 0)])
    return m_tilde(k * grid.dp, coupling)


def circulant_block(column: np.ndarray, n: int) -> np.ndarray:
    """T[i, j] = column[(i - j) mod len(column)]: the leading n x n block of
    the circulant with first column ``column`` (len(column) >= n)."""
    lags = np.concatenate([column[len(column) - n + 1:], column[:n]])   # i - j = 1-n..n-1
    # row i holds the lags i, i-1, .., i-n+1: a length-n window of the reversed lags
    return sliding_window_view(lags[::-1], n)[::-1].copy()


def circulant_product(column: np.ndarray, n: int):
    """x -> circulant_block(column, n) @ x along the last axis of x, by FFT.

    The block is the leading n x n block of the circulant with first column
    ``column``, so the product is a circular convolution of x zero-padded to
    len(column): one FFT of x, one multiplication by the circulant's spectrum
    (computed here, once) and one inverse FFT, O(n log n) per row of x instead
    of O(n^2).  Leading axes of ``column`` hold a stack of columns, applied to
    the matching rows of x; a stack with as many axes as x may hold more rows
    than x, whose rows then take its leading ones.

    ``product(x, left=None, right=None, out=None)`` returns
    left * (block @ (right * x)), the diagonal factors broadcast against x's
    shape, written into ``out`` if given.  x, times ``right``, goes straight
    into a zero-padded buffer kept between calls (the rows of the largest x
    so far, of which a smaller x takes the leading ones), and both transforms
    run in place there, so a call allocates nothing; without ``out`` the
    result is a view of that buffer, valid until the next call.
    """
    size = column.shape[-1]
    spectrum = fft.fft(column, axis=-1)
    padded = np.zeros((0, size), dtype=complex)

    def product(x: np.ndarray, left=None, right=None, out=None) -> np.ndarray:
        nonlocal padded
        rows = x.size // n
        if padded.shape[0] < rows:
            padded = np.zeros((rows, size), dtype=complex)
        buf = padded[:rows].reshape(x.shape[:-1] + (size,))
        buf[..., n:] = 0.0
        if right is None:
            buf[..., :n] = x
        else:
            np.multiply(x, right, out=buf[..., :n])
        y = fft.fft(buf, axis=-1, overwrite_x=True)
        y *= spectrum[:x.shape[0]] if spectrum.ndim == x.ndim > 1 else spectrum
        y = fft.ifft(y, axis=-1, overwrite_x=True)[..., :n]
        if left is None and out is None:
            return y
        return np.multiply(y, 1.0 if left is None else left, out=out)

    return product


WINDOW_TRANSIT_FACTOR = 10.0     # the default window's half-width, in transit times
WINDOW_SIGMA_FACTOR = 6.0        # ... plus this many packet durations


def interaction_window(sigma_et: float, t_r: float, t0: float,
                       transit_factor: float = WINDOW_TRANSIT_FACTOR,
                       sigma_factor: float = WINDOW_SIGMA_FACTOR) -> tuple[float, float]:
    """Interaction bounds t0 +- (transit_factor*t_r + sigma_factor*sigma_et)."""
    half = transit_factor * t_r + sigma_factor * sigma_et
    return (t0 - half, t0 + half)
