import math

import numpy as np
import pytest

from feberi.core import (
    C_NM_FS,
    DEBYE_E_NM,
    HBAR_EV_FS,
    ME_C2_EV,
    DomainError,
    TlsSpec,
    TlsState,
    bloch_phase,
    debye_to_e_nm,
    kinematics_from_kinetic_energy,
    transit_time,
    wrap_phase,
)


class TestKinematics:
    def test_reference_beam(self, kin):
        assert kin.gamma == pytest.approx(1.4, abs=0.02)
        assert kin.beta == pytest.approx(0.6953, abs=1e-4)
        assert kin.v0 == pytest.approx(208.45, rel=1e-4)

    def test_rest_case(self):
        k = kinematics_from_kinetic_energy(0.0)
        assert k.gamma == 1.0
        assert k.beta == 0.0
        assert k.p0 == 0.0

    def test_one_rest_mass_gives_gamma_two(self):
        k = kinematics_from_kinetic_energy(ME_C2_EV)
        assert k.gamma == 2.0

    def test_negative_energy_rejected(self):
        with pytest.raises(DomainError):
            kinematics_from_kinetic_energy(-1.0)

    def test_gamma_beta_identity(self):
        # (gamma*beta)^2 = gamma^2 - 1 for any energy
        rng = np.random.default_rng(7)
        for e in rng.uniform(1.0, 5e6, size=64):
            k = kinematics_from_kinetic_energy(float(e))
            lhs = (k.gamma * k.beta) ** 2
            rhs = k.gamma**2 - 1.0
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_momentum_consistent(self, kin):
        # p0 = gamma m v0 with m = me_c2/c^2
        assert kin.p0 == pytest.approx(kin.gamma * ME_C2_EV / C_NM_FS**2 * kin.v0,
                                       rel=1e-14)

    def test_dispersion_quadratic_term(self, kin):
        # curvature = 1/(gamma^3 m)
        dp = 0.01
        d2 = kin.dispersion(kin.p0 + dp) + kin.dispersion(kin.p0 - dp)
        m_eff = dp**2 / d2
        assert m_eff == pytest.approx(kin.gamma**3 * ME_C2_EV / C_NM_FS**2, rel=1e-9)


class TestTransitTime:
    def test_reference_value(self, kin):
        # 2.4 nm at 200 keV: r/(c beta gamma) = 8.2749 as; the often-quoted
        # nominal 6 as is within the accepted 40% band of this value
        t_r = transit_time(2.4, kin)
        assert t_r * 1e3 == pytest.approx(8.2749, abs=2e-3)
        assert abs(t_r * 1e3 / 6.0 - 1.0) <= 0.40

    def test_linear_in_r_perp(self, kin):
        assert transit_time(4.8, kin) == pytest.approx(2.0 * transit_time(2.4, kin),
                                                       rel=1e-14)

    def test_rest_electron_rejected(self):
        k = kinematics_from_kinetic_energy(0.0)
        with pytest.raises(DomainError):
            transit_time(2.4, k)


class TestTlsSpec:
    def test_omega_21(self, tls):
        # 2 eV gap: omega = 3.0385 rad/fs, within 2% of the round 3e15 rad/s
        assert tls.omega_21 == pytest.approx(2.0 / HBAR_EV_FS, rel=1e-14)
        assert abs(tls.omega_21 / 3.0 - 1.0) < 0.02

    def test_debye_round_trip(self):
        rng = np.random.default_rng(3)
        for d in rng.uniform(0.1, 50.0, size=32):
            assert debye_to_e_nm(float(d)) / DEBYE_E_NM == pytest.approx(d, rel=1e-12)
        assert DEBYE_E_NM == pytest.approx(0.020819434)

    def test_dipole_stored_internal(self, tls):
        assert tls.dipole_magnitude == pytest.approx(5 * DEBYE_E_NM, rel=1e-14)

    def test_validation(self):
        with pytest.raises(DomainError):
            TlsSpec(energy_gap=-1.0, dipole_magnitude=0.1)
        with pytest.raises(DomainError):
            TlsSpec(energy_gap=2.0, dipole_magnitude=0.0)


class TestTlsState:
    def test_normalization_enforced(self):
        with pytest.raises(DomainError):
            TlsState(1.0, 1.0)
        s = TlsState.normalized(1.0, 1.0)
        assert s.p1 == pytest.approx(0.5)

    def test_ground_and_equatorial(self):
        g = TlsState.ground()
        assert g.p1 == 1.0 and g.p2 == 0.0
        e = TlsState.equatorial(0.3)
        assert e.dipole_phase == pytest.approx(0.3, rel=1e-12)

    def test_dipole_phase_undefined(self):
        with pytest.raises(DomainError):
            TlsState.ground().dipole_phase


class TestBlochPhase:
    def test_quarter_phase_state(self, tls):
        # (|1> + i|2>)/sqrt(2) at t0 = 0: zeta = -pi/2 mod 2pi = 3pi/2
        s = TlsState(1 / math.sqrt(2), 1j / math.sqrt(2))
        assert bloch_phase(s, 0.0, tls.omega_21) == pytest.approx(3 * math.pi / 2,
                                                                  rel=1e-12)

    def test_real_positive_c2(self, tls):
        s = TlsState.equatorial(0.0)
        assert bloch_phase(s, 0.0, tls.omega_21) == 0.0

    def test_periodic_in_arrival_time(self, tls):
        s = TlsState.equatorial(1.1)
        t_cycle = 2 * math.pi / tls.omega_21
        z0 = bloch_phase(s, 0.0, tls.omega_21)
        z1 = bloch_phase(s, t_cycle, tls.omega_21)
        assert z1 == pytest.approx(z0, abs=1e-9)

    def test_undefined_for_pole_states(self, tls):
        with pytest.raises(DomainError):
            bloch_phase(TlsState.ground(), 0.0, tls.omega_21)


def test_wrap_phase_range():
    rng = np.random.default_rng(11)
    for x in rng.uniform(-50, 50, size=256):
        w = wrap_phase(float(x))
        assert 0.0 <= w < 2 * math.pi
        assert math.cos(w - x) == pytest.approx(1.0, abs=1e-9)
