"""Property tests of the coupling kernel and the shared Toeplitz builder."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from feberi.core import InteractionGeometry, TlsSpec, kinematics_from_kev
from feberi.coulomb import DipoleCoupling, m_tilde
from feberi.grid import MomentumGrid, toeplitz_kernel

KIN = kinematics_from_kev(200.0)
COUPLINGS = {
    o: DipoleCoupling(TlsSpec.from_lab(2.0, 5.0, o),
                      InteractionGeometry.from_kinematics(2.4, KIN), KIN)
    for o in ("parallel", "transverse")
}

orientations = st.sampled_from(sorted(COUPLINGS))
momenta = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(orientation=orientations, p=momenta)
def test_m_tilde_parity(orientation, p):
    cpl = COUPLINGS[orientation]
    plus, minus = m_tilde(p, cpl), m_tilde(-p, cpl)
    if orientation == "transverse":
        assert plus.imag == 0.0 and plus.real >= 0.0
        assert minus == plus
    else:
        assert plus.real == 0.0
        assert minus == -plus


@settings(max_examples=40, deadline=None)
@given(orientation=orientations, half_n=st.integers(32, 160),
       dp=st.floats(min_value=1e-5, max_value=0.5))
def test_toeplitz_kernel_hermitian(orientation, half_n, dp):
    n = 2 * half_n
    grid = MomentumGrid(n=n, p0=KIN.p0, p_cutoff=0.5 * n * dp)
    mt = toeplitz_kernel(grid, COUPLINGS[orientation])
    assert mt.shape == (n, n)
    np.testing.assert_array_equal(mt, mt.conj().T)
    np.testing.assert_array_equal(mt[1:, 1:], mt[:-1, :-1])
