import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import k0, k1

from feberi.core import HBAR_EV_FS, DomainError, kinematics_from_kinetic_energy, \
    transit_time
from feberi.coulomb import DipoleCoupling, m_spatial, m_tilde

EULER_GAMMA = 0.5772156649015329


def k_oracle(x: float, order: int) -> float:
    """Integral representation K_n(x) = int_0^inf exp(-x cosh t) cosh(n t) dt.

    The factor exp(-x) is pulled out so the quadrature works near unity and
    the relative accuracy survives at large x.
    """
    t_max = math.acosh(745.0 / x) if x < 745.0 else 1.0

    def integrand(t):
        return math.exp(-x * (math.cosh(t) - 1.0)) * math.cosh(order * t)

    val, _ = quad(integrand, 0.0, t_max, limit=400, epsabs=0.0, epsrel=1e-12)
    return val * math.exp(-x)


class TestBesselK:
    def test_reference_values(self):
        # frozen from the integral-representation oracle
        assert k0(1.0) == pytest.approx(0.42102443824070834, rel=1e-12)
        assert k1(1.0) == pytest.approx(0.6019072301972346, rel=1e-12)
        assert k0(1.0) == pytest.approx(k_oracle(1.0, 0), rel=1e-10)
        assert k1(1.0) == pytest.approx(k_oracle(1.0, 1), rel=1e-10)

    def test_against_quadrature_sweep(self):
        xs = np.logspace(-3, math.log10(50.0), 60)
        for x in xs:
            assert k0(float(x)) == pytest.approx(k_oracle(float(x), 0), rel=1e-6)
            assert k1(float(x)) == pytest.approx(k_oracle(float(x), 1), rel=1e-6)

    def test_small_argument_logarithm(self):
        # K0(x) -> -ln(x/2) - euler_gamma as x -> 0
        x = 1e-4
        assert abs(k0(x) + math.log(x / 2.0) + EULER_GAMMA) < 1e-6

    def test_underflow(self):
        assert k0(800.0) == 0.0
        assert k1(800.0) == 0.0

    def test_array_input(self):
        xs = np.array([0.5, 1.0, 3.0, 10.0])
        np.testing.assert_allclose(k0(xs),
                                   [k0(float(x)) for x in xs], rtol=1e-14)


class TestDipoleCoupling:
    def test_transit_time_is_core_transit_time(self, coupling, kin):
        assert coupling.transit_time == transit_time(2.4, kin)

    def test_validation(self, tls, kin):
        # the orientation, the impact parameter and the beam are checked at
        # construction; the default orientation is transverse
        assert DipoleCoupling(tls, 2.4, kin).orientation == "transverse"
        with pytest.raises(DomainError, match="orientation"):
            DipoleCoupling(tls, 2.4, kin, orientation="diagonal")
        with pytest.raises(DomainError, match="impact parameter"):
            DipoleCoupling(tls, 0.0, kin)
        with pytest.raises(DomainError, match="at rest"):
            DipoleCoupling(tls, 2.4, kinematics_from_kinetic_energy(0.0))


class TestSpatialKernel:
    def test_parallel_odd(self, coupling_parallel):
        assert m_spatial(0.0, coupling_parallel) == 0.0
        z = np.linspace(-50, 50, 1001)
        vals = m_spatial(z, coupling_parallel)
        np.testing.assert_allclose(vals, -vals[::-1], atol=1e-18)
        assert abs(np.trapezoid(vals, z)) < 1e-15

    def test_transverse_peak(self, coupling, kin):
        # even kernel, peak = prefactor * gamma / r_perp^2 at z = 0
        expected = coupling.prefactor * kin.gamma / 2.4**2
        assert m_spatial(0.0, coupling) == pytest.approx(expected, rel=1e-14)
        assert m_spatial(3.7, coupling) == m_spatial(-3.7, coupling)


class TestMomentumKernel:
    def test_parallel_small_p_limit(self, coupling_parallel):
        assert m_tilde(0.0, coupling_parallel) == 0.0
        assert abs(m_tilde(1e-9, coupling_parallel)) < 1e-8

    def test_transverse_zero_limit(self, coupling):
        # p K1(p r/hg) -> hbar*gamma/r: transverse limit 2*prefactor/r_perp
        expected = 2.0 * coupling.prefactor / 2.4
        assert m_tilde(0.0, coupling) == pytest.approx(expected, rel=1e-12)
        assert m_tilde(1e-8, coupling) == pytest.approx(expected, rel=1e-6)

    def test_parity(self, coupling, coupling_parallel):
        p = np.array([0.003, 0.05, 0.4])
        perp = m_tilde(p, coupling)
        np.testing.assert_allclose(m_tilde(-p, coupling), perp, rtol=1e-14)
        assert np.all(np.abs(perp.imag) == 0.0)
        par = m_tilde(p, coupling_parallel)
        np.testing.assert_allclose(m_tilde(-p, coupling_parallel), -par, rtol=1e-14)
        np.testing.assert_allclose(m_tilde(-p, coupling_parallel), np.conj(par),
                                   rtol=1e-14)
        assert np.all(par.real == 0.0)

    @pytest.mark.parametrize("orientation", ["transverse", "parallel"])
    def test_output_shape_follows_the_input(self, coupling, coupling_parallel, orientation):
        # a Python float and a 0-d array give a complex, arrays keep their
        # shape, and every path gives the same value at the same p
        c = coupling if orientation == "transverse" else coupling_parallel
        p = np.array([[-0.01, 0.0], [0.02, 0.3]])
        grid = m_tilde(p, c)
        assert grid.shape == (2, 2) and grid.dtype == complex
        assert np.array_equal(m_tilde(p.ravel(), c), grid.ravel())
        for (i, j), x in np.ndenumerate(p):
            for scalar in (float(x), np.asarray(x)):
                got = m_tilde(scalar, c)
                assert type(got) is complex and got == grid[i, j]

    def test_fourier_consistency(self, coupling, coupling_parallel, kin):
        # the arbiter: closed forms equal the direct transform of the
        # spatial kernels at random momenta to 1e-5 relative; the slowly
        # decaying parallel tail needs the semi-infinite oscillatory rule
        rng = np.random.default_rng(19)
        for _ in range(12):
            p = float(rng.uniform(0.002, 1.5))
            w = p / HBAR_EV_FS
            cos_part, _ = quad(lambda z: m_spatial(z, coupling), 0, np.inf,
                               weight="cos", wvar=w, limlst=200, limit=400)
            assert 2.0 * cos_part == pytest.approx(m_tilde(p, coupling).real, rel=1e-5)
            sin_part, _ = quad(lambda z: m_spatial(z, coupling_parallel), 0, np.inf,
                               weight="sin", wvar=w, limlst=200, limit=400)
            assert -2.0 * sin_part == pytest.approx(m_tilde(p, coupling_parallel).imag,
                                                    rel=1e-5)

    def test_monotone_decay_large_argument(self, coupling, kin):
        x_unit = HBAR_EV_FS * kin.gamma / 2.4     # p at which x = 1
        p = np.linspace(2.0 * x_unit, 10.0 * x_unit, 64)
        mags = np.abs(m_tilde(p, coupling))
        assert np.all(np.diff(mags) < 0.0)

    def test_gamma_scaling_at_fixed_kernel_argument(self, tls):
        # hold p and p*r_perp/(hbar*gamma) fixed by scaling r_perp with
        # gamma: the parallel form then scales as 1/gamma^2 and the
        # transverse as 1/gamma
        p = 0.05
        vals_par, vals_perp = [], []
        for e_kin in (100e3, 200e3, 400e3):
            k = kinematics_from_kinetic_energy(e_kin)
            par = DipoleCoupling(tls, 2.4 * k.gamma, k, orientation="parallel")
            perp = DipoleCoupling(tls, 2.4 * k.gamma, k, orientation="transverse")
            vals_par.append(abs(m_tilde(p, par)) * k.gamma**2)
            vals_perp.append(abs(m_tilde(p, perp)) * k.gamma)
        np.testing.assert_allclose(vals_par, vals_par[0], rtol=1e-12)
        np.testing.assert_allclose(vals_perp, vals_perp[0], rtol=1e-12)

    def test_value_at_recoil(self, coupling):
        # frozen: |Mt(p_rec)| for the reference parameters
        assert abs(m_tilde(coupling.recoil_momentum, coupling)) == pytest.approx(
            0.12474376468898266, rel=1e-10)
