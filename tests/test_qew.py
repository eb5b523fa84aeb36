import math

import numpy as np
import pytest
from scipy.special import jv

from feberi.core import HBAR_EV_FS, TWO_PI, DomainError
from feberi.qew import (
    GaussianQewSpec,
    ModulatedQewSpec,
    TruncationError,
    density_profile,
    gamma_parameter,
    gaussian_momentum_amplitudes,
    modulated_momentum_amplitudes,
    modulation_fourier_coefficients,
    optimal_drift_time,
    sideband_cutoff,
    tooth_sigma_et,
)
from feberi.grid import MomentumGrid, build_grid


@pytest.fixture
def spec(kin):
    return GaussianQewSpec.from_duration(kin, 0.2, t0=0.0)


@pytest.fixture
def mod_spec(kin, tls):
    omega_b = tls.omega_21 / 2.0
    base = GaussianQewSpec.from_duration(kin, 10.0, t0=0.0)
    return ModulatedQewSpec(base=base, g=4.0, omega_b=omega_b,
                            drift_time=optimal_drift_time(kin, omega_b, 4.0))


class TestSpecs:
    def test_waist_relations(self, spec, kin):
        assert spec.sigma_z0 == pytest.approx(HBAR_EV_FS / (2 * spec.sigma_p0), rel=1e-14)
        assert spec.sigma_et == pytest.approx(spec.sigma_z0 / kin.v0, rel=1e-14)
        assert spec.sigma_et == pytest.approx(0.2, rel=1e-14)

    def test_modulated_invariants(self, mod_spec, kin):
        assert mod_spec.delta_p == pytest.approx(
            HBAR_EV_FS * mod_spec.omega_b / kin.v0, rel=1e-14)
        assert mod_spec.base.sigma_et > mod_spec.period

    def test_short_envelope_rejected(self, kin, tls):
        base = GaussianQewSpec.from_duration(kin, 1.0)
        with pytest.raises(DomainError):
            ModulatedQewSpec(base=base, g=1.0, omega_b=tls.omega_21 / 2.0)

    def test_sideband_cutoff_decay(self):
        for g in (0.5, 2.0, 4.0):
            n = sideband_cutoff(g)
            assert abs(jv(n, 2 * g)) < 1e-8
            assert abs(jv(n - 1, 2 * g)) >= 1e-8 or n == 1
        assert sideband_cutoff(0.0) == 0

    def test_optimal_drift_formula(self, kin, mod_spec):
        t_b = mod_spec.period
        expected = t_b * kin.p0 / (4.0 * 4.0 * mod_spec.delta_p)
        assert optimal_drift_time(mod_spec) == pytest.approx(expected, rel=1e-14)


class TestGaussianAmplitudes:
    def test_normalized(self, spec, coupling):
        grid = build_grid(spec.kin, spec.sigma_p0, coupling.recoil_momentum, 256)
        c = gaussian_momentum_amplitudes(spec, grid)
        assert np.sum(np.abs(c) ** 2) * grid.dp == pytest.approx(1.0, abs=1e-9)

    def test_peak_at_p0(self, spec, coupling):
        grid = build_grid(spec.kin, spec.sigma_p0, coupling.recoil_momentum, 256)
        c = gaussian_momentum_amplitudes(spec, grid)
        peak = int(np.argmax(np.abs(c)))
        assert peak == int(np.argmin(np.abs(grid.points - spec.kin.p0)))

    def test_second_moment(self, spec, kin):
        # 5-sigma half-width, 512 points: discrete moment within 0.1%
        grid = MomentumGrid(n=512, p0=kin.p0, p_cutoff=5.0 * spec.sigma_p0)
        c = gaussian_momentum_amplitudes(spec, grid)
        m2 = np.sum((grid.points - kin.p0) ** 2 * np.abs(c) ** 2) * grid.dp
        assert m2 == pytest.approx(spec.sigma_p0**2, rel=1e-3)

    def test_truncation_error(self, spec, kin):
        grid = MomentumGrid(n=64, p0=kin.p0, p_cutoff=2.0 * spec.sigma_p0)
        with pytest.raises(TruncationError):
            gaussian_momentum_amplitudes(spec, grid)

    def test_position_space_consistency(self, kin, spec, coupling):
        # discrete transform of the momentum amplitudes reproduces the waist
        # Gaussian at t = t0 (peak compared to 1e-6 relative)
        spec_t = GaussianQewSpec(kin=kin, sigma_p0=spec.sigma_p0, t0=0.37)
        grid = build_grid(kin, spec.sigma_p0, coupling.recoil_momentum, 1024)
        c = gaussian_momentum_amplitudes(spec_t, grid)
        z = np.linspace(-3 * spec.sigma_z0, 3 * spec.sigma_z0, 7)
        phases = np.exp(1j * (np.outer(z, grid.points)
                              - spec_t.t0 * kin.dispersion(grid.points)[None, :])
                        / HBAR_EV_FS)
        psi = phases @ c * grid.dp / math.sqrt(TWO_PI * HBAR_EV_FS)
        expected = (TWO_PI * spec.sigma_z0**2) ** -0.25 \
            * np.exp(-(z**2) / (4 * spec.sigma_z0**2))
        np.testing.assert_allclose(np.abs(psi), expected,
                                   rtol=1e-6 * np.max(expected) / expected.min())
        assert np.abs(psi)[3] == pytest.approx(expected[3], rel=1e-6)


class TestModulatedAmplitudes:
    def test_reduces_to_gaussian_at_zero_g(self, kin, tls, coupling):
        base = GaussianQewSpec.from_duration(kin, 10.0)
        mod = ModulatedQewSpec(base=base, g=0.0, omega_b=tls.omega_21 / 2.0,
                               drift_time=0.0)
        grid = build_grid(kin, base.sigma_p0, coupling.recoil_momentum, 256)
        np.testing.assert_allclose(modulated_momentum_amplitudes(mod, grid),
                                   gaussian_momentum_amplitudes(base, grid),
                                   atol=1e-15)

    def test_normalized(self, mod_spec, coupling):
        grid = build_grid(mod_spec.base.kin, mod_spec.base.sigma_p0,
                          coupling.recoil_momentum, 512,
                          extra_halfwidth=mod_spec.sideband_count * mod_spec.delta_p)
        c = modulated_momentum_amplitudes(mod_spec, grid)
        assert np.sum(np.abs(c) ** 2) * grid.dp == pytest.approx(1.0, abs=1e-9)

    def test_sideband_weights(self, kin, tls, coupling):
        # |g| = 1: first sideband peak over carrier peak = J1(2)/J0(2)
        base = GaussianQewSpec.from_duration(kin, 10.0)
        mod = ModulatedQewSpec(base=base, g=1.0, omega_b=tls.omega_21 / 2.0,
                               drift_time=0.0)
        grid = build_grid(kin, base.sigma_p0, coupling.recoil_momentum, 4096,
                          extra_halfwidth=(mod.sideband_count + 1) * mod.delta_p)
        c = np.abs(modulated_momentum_amplitudes(mod, grid))
        i0 = int(np.argmin(np.abs(grid.points - kin.p0)))
        i1 = int(np.argmin(np.abs(grid.points - kin.p0 - mod.delta_p)))
        ratio = c[i1] / c[i0]
        assert ratio == pytest.approx(abs(jv(1, 2.0) / jv(0, 2.0)), rel=2e-3)

    def test_truncation_error(self, mod_spec, kin):
        grid = MomentumGrid(n=256, p0=kin.p0, p_cutoff=2.0 * mod_spec.delta_p)
        with pytest.raises(TruncationError):
            modulated_momentum_amplitudes(mod_spec, grid)


class TestDensityProfile:
    def test_gaussian_shape(self, spec, kin):
        z = np.linspace(-300, 300, 20001)
        n = density_profile(spec, spec.t0, z)
        assert z[int(np.argmax(n))] == pytest.approx(0.0, abs=z[1] - z[0])
        half = n >= 0.5 * n.max()
        fwhm = z[half][-1] - z[half][0]
        assert fwhm == pytest.approx(2 * math.sqrt(2 * math.log(2)) * spec.sigma_z0,
                                     rel=1e-3)
        assert np.trapezoid(n, z) == pytest.approx(1.0, abs=1e-6)

    def test_rides_at_v0(self, spec, kin):
        z = np.linspace(-600, 600, 4001)
        t = 1.3
        n = density_profile(spec, spec.t0 + t, z)
        assert z[int(np.argmax(n))] == pytest.approx(kin.v0 * t, abs=z[1] - z[0])

    def test_modulated_comb(self, mod_spec, kin):
        # bunches spaced by one modulation wavelength v0 * T_b
        lam = kin.v0 * mod_spec.period
        z = np.linspace(-2.2 * lam, 2.2 * lam, 60001)
        n = density_profile(mod_spec, mod_spec.base.t0, z)
        big = n > 0.6 * n.max()
        edges = np.flatnonzero(np.diff(big.astype(int)) == 1)
        centers = [z[e] for e in edges]
        gaps = np.diff(centers)
        np.testing.assert_allclose(gaps, lam, rtol=0.02)
        assert np.trapezoid(n, z) == pytest.approx(1.0, abs=1e-6)


class TestGammaParameter:
    def test_zero(self, tls):
        assert gamma_parameter(tls.omega_21, 0.0) == 0.0

    def test_fractional_period(self, tls):
        sigma = 0.3 * tls.period
        assert gamma_parameter(tls.omega_21, sigma) == pytest.approx(0.6 * math.pi,
                                                                     rel=1e-12)

    def test_recoil_identity(self, kin, tls):
        # Gamma = omega sigma_et = |p_rec|/(2 sigma_p0) under waist relations
        for sigma_et in (0.05, 0.21, 1.3):
            spec = GaussianQewSpec.from_duration(kin, sigma_et)
            p_rec = tls.energy_gap / kin.v0
            assert gamma_parameter(tls.omega_21, sigma_et) == pytest.approx(
                p_rec / (2 * spec.sigma_p0), rel=1e-12)

    def test_wavelength_form(self, kin, tls):
        # Gamma = 2 pi sigma_z0 / (beta lambda) with lambda = 2 pi c / omega
        sigma_et = 0.4
        spec = GaussianQewSpec.from_duration(kin, sigma_et)
        lam = TWO_PI * 299.792458 / tls.omega_21
        assert gamma_parameter(tls.omega_21, sigma_et) == pytest.approx(
            TWO_PI * spec.sigma_z0 / (kin.beta * lam), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_parameter(-1.0, 0.1)


class TestModulationSpectrum:
    def test_unmodulated_is_flat(self, kin, tls):
        base = GaussianQewSpec.from_duration(kin, 10.0)
        mod = ModulatedQewSpec(base=base, g=0.0, omega_b=tls.omega_21 / 2.0,
                               drift_time=0.0)
        spect = modulation_fourier_coefficients(mod, 8)
        assert spect.coefficient(0) == pytest.approx(1.0, abs=1e-12)
        for m in range(1, 9):
            assert abs(spect.coefficient(m)) < 1e-10

    def test_reality(self, mod_spec):
        spect = modulation_fourier_coefficients(mod_spec, 24)
        for m in range(25):
            assert spect.coefficient(-m) == pytest.approx(
                np.conj(spect.coefficient(m)), abs=1e-12)

    def test_positive_reconstruction(self, mod_spec):
        spect = modulation_fourier_coefficients(mod_spec, 32)
        t = np.linspace(0.0, mod_spec.period, 4096, endpoint=False)
        recon = spect.reconstruct(t)
        assert recon.min() > -1e-6 * recon.max()

    def test_bunching_regression(self, mod_spec):
        # frozen from this implementation's discrete-Fourier extraction:
        # reference modulated packet (g = 4, second-harmonic lock, optimal
        # drift, 10 fs envelope)
        spect = modulation_fourier_coefficients(mod_spec, 32)
        assert abs(spect.coefficient(1)) == pytest.approx(0.5715370942070038, rel=1e-7)
        assert tooth_sigma_et(spect) == pytest.approx(0.0722483393, rel=1e-5)

    def test_order_too_low_rings_negative(self, mod_spec):
        # a sharp comb truncated at low order reconstructs negative: the
        # resolution contract fires
        from feberi.qew import ResolutionError
        with pytest.raises(ResolutionError):
            modulation_fourier_coefficients(mod_spec, 16)

    def test_matches_density_harmonics(self, mod_spec, kin):
        # cross-check of two code paths: spatial comb harmonics at fixed t
        # vs the time-domain extraction
        spect = modulation_fourier_coefficients(mod_spec, 24)
        lam = kin.v0 * mod_spec.period
        z = np.linspace(-lam / 2, lam / 2, 8192, endpoint=False)
        n = density_profile(mod_spec, mod_spec.base.t0, z)
        env = np.exp(-(z**2) / (2 * mod_spec.base.sigma_z0**2))
        fmod = n / env
        for m in (1, 2, 3):
            coeff = np.mean(fmod * np.exp(1j * m * TWO_PI * z / lam))
            coeff /= np.mean(fmod)
            assert abs(coeff) == pytest.approx(abs(spect.coefficient(m)), rel=1e-2)
