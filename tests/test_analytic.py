import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from feberi.analytic import (
    RegimeWarning,
    TransitionIncrement,
    dp1_superposition,
    dp2_born,
    modulated_increments,
    nearest_harmonic,
    overlap_integral,
    p2_from_ground,
)
from feberi.born_dynamics import evolve_tls, interaction_profile
from feberi.core import HBAR_EV_FS, DomainError, TlsSpec, TlsState
from feberi.coulomb import DipoleCoupling, m_tilde
from feberi.qew import GaussianQewSpec, ModulationSpectrum
from helpers import run_gaussian_scenario


class TestRecoil:
    def test_sign_and_magnitude(self, coupling):
        # upward transition: negative recoil; |p_rec| = E/v0 with beta = 0.6953
        p = coupling.recoil_momentum
        assert p < 0.0
        assert abs(p) == pytest.approx(9.5946e-3, rel=1e-4)


class TestOverlapIntegral:
    def test_zero_recoil(self):
        assert abs(overlap_integral(0.0, 0.01, 0.0, 3.0)) == 1.0

    def test_magnitude_law(self):
        for gam in (0.2, 1.0, 2.5):
            sigma = 0.01
            p_rec = 2.0 * sigma * gam
            assert abs(overlap_integral(p_rec, sigma, 0.0, 3.0)) == pytest.approx(
                math.exp(-0.5 * gam * gam), rel=1e-12)

    def test_phase(self):
        val = overlap_integral(0.001, 0.01, 1.7, 3.0)
        assert cmath.phase(val) == pytest.approx(
            cmath.phase(cmath.exp(-1j * 3.0 * 1.7)), rel=1e-9)

    def test_against_quadrature(self):
        # brute-force displaced-Gaussian overlap, Gamma in [0, 4]
        sigma = 0.008
        for gam in np.linspace(0.0, 4.0, 9):
            p_rec = 2.0 * sigma * gam

            def integrand(p):
                return math.exp(-(p**2) / (4 * sigma**2)
                                - ((p - p_rec) ** 2) / (4 * sigma**2))

            ref, _ = quad(integrand, -12 * sigma, 12 * sigma, limit=200,
                          epsabs=1e-16)
            ref /= math.sqrt(2 * math.pi) * sigma
            assert abs(overlap_integral(p_rec, sigma, 0.0, 3.0)) == pytest.approx(
                ref, abs=1e-8)


class TestP2FromGround:
    def test_reference_value(self, coupling):
        # frozen; the density-matrix solver reproduces this within 2%
        assert p2_from_ground(coupling) == pytest.approx(8.266129719301752e-07,
                                                              rel=1e-9)

    def test_quadratic_in_dipole(self, tls, kin):
        tls2 = TlsSpec.from_lab(2.0, 10.0)
        c1 = DipoleCoupling(tls, 2.4, kin)
        c2 = DipoleCoupling(tls2, 2.4, kin)
        assert p2_from_ground(c2) == pytest.approx(4.0 * p2_from_ground(c1),
                                                        rel=1e-12)

    def test_perturbative_warning(self, kin):
        big = TlsSpec.from_lab(2.0, 3000.0)
        c = DipoleCoupling(big, 2.4, kin)
        with pytest.warns(RegimeWarning):
            p2_from_ground(c)


class TestDp1Superposition:
    def test_zero_at_zero_phase(self, coupling):
        state = TlsState.equatorial(0.0)   # zeta = 0 at t0 = 0
        assert dp1_superposition(coupling, state, 0.0, 0.05) == 0.0

    def test_max_equals_sqrt_dp2(self, coupling, tls):
        # equal superposition at zeta = pi/2: dp1 = sqrt(dp2_born), any size
        t0 = math.pi / 2.0 / tls.omega_21
        for sigma in (0.0, 0.1, 0.3):
            state = TlsState.equatorial(0.0)
            val = dp1_superposition(coupling, state, t0, sigma)
            ref = math.sqrt(dp2_born(coupling, sigma))
            assert val == pytest.approx(ref, rel=1e-12)

    def test_size_suppression(self, coupling, tls):
        t0 = math.pi / 2.0 / tls.omega_21
        state = TlsState.equatorial(0.0)
        s2 = 2.0 / tls.omega_21      # Gamma = 2
        ratio = dp1_superposition(coupling, state, t0, s2) \
            / dp1_superposition(coupling, state, t0, 0.0)
        assert ratio == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_sign_symmetry(self, coupling, tls):
        # dp1(zeta) = -dp1(zeta + pi): stimulated emission vs absorption
        rng = np.random.default_rng(5)
        for zeta in rng.uniform(0, 2 * math.pi, size=16):
            t0 = zeta / tls.omega_21
            t0_flip = (zeta + math.pi) / tls.omega_21
            state = TlsState.equatorial(0.0)
            a = dp1_superposition(coupling, state, t0, 0.1)
            b = dp1_superposition(coupling, state, t0_flip, 0.1)
            assert a == pytest.approx(-b, rel=1e-9, abs=1e-18)

    def test_non_superposition(self, coupling):
        with pytest.warns(RegimeWarning):
            assert dp1_superposition(coupling, TlsState.ground(), 0.0, 0.1) == 0.0

    def test_models_agree(self, coupling, kin, tls):
        # the momentum-space grid solver and the time-domain Born model give
        # the same increment, which is the closed form's first-order law
        state = TlsState.equatorial(1.0)
        t0, sigma = 0.3, 0.05 * tls.period
        spec = GaussianQewSpec.from_duration(kin, sigma, t0=t0)
        traj_m = run_gaussian_scenario(spec, state, coupling, n=128)
        prof = interaction_profile(coupling, sigma, t0)
        traj_b = evolve_tls(state, prof, tls.omega_21)
        a = traj_m.p2[-1] - traj_m.p2[0]
        b = traj_b.p2[-1] - traj_b.p2[0]
        assert a == pytest.approx(b, rel=1e-4)
        assert a == pytest.approx(dp1_superposition(coupling, state, t0, sigma),
                                  rel=1e-3)


class TestDp2Born:
    def test_zero_size_equals_ground(self, coupling):
        assert dp2_born(coupling, 0.0) == pytest.approx(
            p2_from_ground(coupling), rel=1e-14)

    def test_unit_gamma_suppression(self, coupling, tls):
        sigma = 1.0 / tls.omega_21
        assert dp2_born(coupling, sigma) == pytest.approx(
            p2_from_ground(coupling) * math.exp(-1.0), rel=1e-12)

    def test_regime_flag(self, coupling, tls):
        with pytest.warns(RegimeWarning):
            dp2_born(coupling, 1.5 / tls.omega_21)

    def test_size_independence_of_ground_form(self, coupling):
        # the from-ground momentum-model value has no sigma dependence at all
        assert p2_from_ground(coupling) == p2_from_ground(coupling)
        vals = {dp2_born(coupling, 0.0), p2_from_ground(coupling)}
        assert len(vals) == 1


def _flat_spectrum(omega_b: float, order: int, values: dict[int, complex]) -> ModulationSpectrum:
    f = np.zeros(2 * order + 1, dtype=complex)
    f[order] = 1.0
    for m, v in values.items():
        f[order + m] = v
        f[order - m] = np.conj(v)
    return ModulationSpectrum(f_m=f, omega_b=omega_b)


class TestModulatedIncrements:
    def test_exact_resonance(self, coupling, kin, tls):
        omega_b = tls.omega_21 / 2.0
        spect = _flat_spectrum(omega_b, 4, {1: 0.5 + 0.0j, 2: 0.4 + 0.0j})
        sigma = 3.0 * 2 * math.pi / omega_b
        inc = modulated_increments(coupling, spect, sigma, tls.omega_21,
                                   TlsState.ground(), 0.0, 0.0)
        amp = abs(m_tilde(coupling.recoil_momentum, coupling)) / (HBAR_EV_FS * kin.v0)
        assert inc.dp2 == pytest.approx((amp * 0.4) ** 2, rel=1e-12)
        assert inc.dp1 == 0.0       # ground state: no first-order beat
        assert "off_resonance" not in inc.flags

    def test_zero_harmonic_weight(self, coupling, tls):
        omega_b = tls.omega_21 / 2.0
        spect = _flat_spectrum(omega_b, 4, {1: 0.5, 2: 0.0})
        sigma = 3.0 * 2 * math.pi / omega_b
        inc = modulated_increments(coupling, spect, sigma, tls.omega_21,
                                   TlsState.equatorial(0.3), 0.0, 0.0)
        assert inc.dp1 == 0.0 and inc.dp2 == 0.0

    def test_detuning_ratio_against_sum_oracle(self, coupling, kin, tls):
        # brute-force sum over all harmonics of the modulated first-order
        # amplitude vs the nearest-harmonic closed form; the recoil, and so
        # |Mt|, is taken at each omega_21, and the ratio divides it out
        omega_b = tls.omega_21 / 2.0
        sigma = 4.0 * 2 * math.pi / omega_b
        spect = _flat_spectrum(omega_b, 6, {1: 0.55, 2: 0.45, 3: 0.30})
        for detune in (0.0, 0.4 / sigma, 1.0 / sigma):
            w21 = tls.omega_21 + detune
            amp = abs(m_tilde(-w21 * HBAR_EV_FS / kin.v0, coupling)) / (HBAR_EV_FS * kin.v0)
            inc = modulated_increments(coupling, spect, sigma, w21,
                                       TlsState.ground(), 0.7, 0.3)
            total = 0.0 + 0.0j
            for m in range(-6, 7):
                total += spect.coefficient(m) \
                    * cmath.exp(1j * ((w21 + m * omega_b) * 0.3 - m * omega_b * 0.7)) \
                    * math.exp(-0.5 * ((w21 + m * omega_b) * sigma) ** 2)
            oracle = (amp * abs(total)) ** 2
            assert inc.dp2 == pytest.approx(oracle, rel=1e-6)
            if detune > 0:
                ratio = inc.dp2 / amp**2 / ref0
                assert ratio == pytest.approx(math.exp(-(detune * sigma) ** 2),
                                              rel=1e-9)
            else:
                ref0 = inc.dp2 / amp**2

    def test_off_resonance_flag(self, coupling, tls):
        omega_b = tls.omega_21 / 2.0
        sigma = 3.0 * 2 * math.pi / omega_b
        spect = _flat_spectrum(omega_b, 4, {1: 0.5, 2: 0.4})
        w21 = 2.5 * omega_b    # half-way between harmonics
        inc = modulated_increments(coupling, spect, sigma, w21,
                                   TlsState.ground(), 0.0, 0.0)
        assert "off_resonance" in inc.flags
        assert inc.dp2 < 1e-20

    def test_harmonic_tie_goes_low(self):
        n, flags = nearest_harmonic(2.5, 1.0)
        assert n == 2 and "harmonic_tie" in flags
        assert nearest_harmonic(2.6, 1.0)[0] == 3

    def test_array_tie_and_neighbour_harmonic(self, coupling, kin):
        # omega_b = 1 rad/fs makes omega_21/omega_b exact: 2.5 is a tie (goes
        # low), 2.6 and 1.3 lie nearer another harmonic than the scanned 2,
        # 0.3 nearest n = 0, and a scan with no tie raises no tie flag
        spect = _flat_spectrum(1.0, 4, {1: 0.5, 2: 0.4, 3: 0.3})
        sigma = 1.5 * 2 * math.pi
        w21 = np.array([2.5, 2.6, 1.3, 0.3, 2.0])
        n, flags = nearest_harmonic(w21, 1.0)
        np.testing.assert_array_equal(n, [2, 3, 1, 0, 2])
        assert flags == ("harmonic_tie",)
        assert nearest_harmonic(w21[1:], 1.0)[1] == ()
        state = TlsState.equatorial(0.3)
        inc = modulated_increments(coupling, spect, sigma, w21, state, 0.4, 0.9)
        assert inc.dp2.shape == inc.dp1.shape == w21.shape
        assert "harmonic_tie" in inc.flags
        amp = np.abs(m_tilde(-w21 * HBAR_EV_FS / kin.v0, coupling)) / (HBAR_EV_FS * kin.v0)
        f_n = np.array([spect.coefficient(m) for m in n])
        expected = (amp * abs(state.c1) * np.abs(f_n)
                    * np.exp(-0.5 * ((w21 - n) * sigma) ** 2)) ** 2
        np.testing.assert_allclose(inc.dp2, expected, rtol=1e-14, atol=0)
        for k, w in enumerate(w21):
            one = modulated_increments(coupling, spect, sigma, float(w), state, 0.4, 0.9)
            zero_d = modulated_increments(coupling, spect, sigma, np.asarray(w), state,
                                          0.4, 0.9)
            assert (zero_d.dp1, zero_d.dp2) == (one.dp1, one.dp2)
            assert type(zero_d.dp1) is type(zero_d.dp2) is float
            assert one.dp1 == pytest.approx(inc.dp1[k], rel=1e-14)
            assert one.dp2 == pytest.approx(inc.dp2[k], rel=1e-14)
            assert ("harmonic_tie" in one.flags) == (k == 0)

    @pytest.mark.parametrize("w21", [0.0, -1.0, [2.0, 0.0], [np.nan]])
    def test_refuses_nonpositive_omega_21(self, coupling, w21):
        spect = _flat_spectrum(1.0, 4, {1: 0.5, 2: 0.4})
        with pytest.raises(DomainError, match="omega_21"):
            modulated_increments(coupling, spect, 3 * 2 * math.pi, w21,
                                 TlsState.ground(), 0.0, 0.0)

    def test_refuses_envelope_within_one_period(self, coupling):
        spect = _flat_spectrum(1.0, 4, {1: 0.5, 2: 0.4})
        with pytest.raises(DomainError, match="modulation period"):
            modulated_increments(coupling, spect, 2 * math.pi, np.array([1.0, 2.0]),
                                 TlsState.ground(), 0.0, 0.0)


class TestTransitionIncrement:
    def test_negative_dp2_rejected(self):
        with pytest.raises(DomainError):
            TransitionIncrement(dp1=0.0, dp2=-1e-9)
