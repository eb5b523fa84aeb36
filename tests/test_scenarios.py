import numpy as np
import pytest

from feberi import solver_density as sd
from feberi.cli import ConfigError, default_config
from feberi.core import TWO_PI, TlsState, wrap_phase
from feberi.grid import interaction_window
from feberi.qew import GaussianQewSpec
from feberi.scenarios import _fig56_point, physics_bundle, run_fig56_phase_size_sweep, \
    run_scenario, window_factors


def test_default_config_unknown_scenario():
    with pytest.raises(ConfigError):
        default_config("fig99")


def test_worker_pool_matches_serial():
    cfg = default_config("fig56_phase_size_sweep")
    cfg["sweep"]["gamma_values"] = [0.2, 0.8]
    cfg["sweep"]["zeta_points"] = 4
    cfg["numerics"]["grid_points"] = 128
    serial = run_fig56_phase_size_sweep(cfg, jobs=1)
    parallel = run_fig56_phase_size_sweep(cfg, jobs=2)
    for s, p in zip(serial.series, parallel.series):
        for key in s.columns:
            np.testing.assert_array_equal(s.columns[key], p.columns[key])
    assert serial.summary == parallel.summary


def per_zeta_increments(cfg, gamma):
    """fig56's increments at one Gamma by one propagation per zeta."""
    kin, tls, geo, coupling = physics_bundle(cfg)
    sigma = gamma / tls.omega_21
    spec = GaussianQewSpec.from_duration(kin, sigma, t0=0.0)
    window = interaction_window(sigma, geo.transit_time, 0.0, **window_factors(cfg))
    n_zeta = cfg["sweep"]["zeta_points"]
    out = []
    for zeta in np.arange(n_zeta) / n_zeta * TWO_PI:
        traj = sd.run_qew_interaction(spec, TlsState.equatorial(wrap_phase(-zeta)), coupling,
                                      tls, n=cfg["numerics"]["grid_points"], window=window,
                                      n_samples=2, mode=cfg["numerics"]["assembly"])
        out.append(traj.p2[-1] - traj.p2[0])
    return out


@pytest.mark.parametrize("orientation", ["transverse", "parallel"])
@pytest.mark.parametrize("gamma", [0.1, 1.2, 3.8])
def test_fig56_quadratic_form_equals_per_zeta_runs(orientation, gamma):
    cfg = default_config("fig56_phase_size_sweep")
    cfg["physics"]["orientation"] = orientation
    cfg["numerics"]["grid_points"] = 128
    cfg["sweep"]["zeta_points"] = 7
    got_gamma, got = _fig56_point((cfg, gamma))
    assert got_gamma == gamma
    np.testing.assert_allclose(got, per_zeta_increments(cfg, gamma), rtol=0, atol=1e-14)


def test_metadata_records_transit():
    cfg = default_config("fig8_single_point")
    res = run_scenario(cfg)
    meta = res.metadata
    tt = meta["derived"]["transit_time"]
    assert tt["value_as"] == pytest.approx(8.2749, abs=1e-3)
    assert "note" in tt
    assert "runtime_s" in meta


def test_profile_points_per_scale_reaches_born_spot_checks():
    # the small modulated_resonance config of the golden lock, at two profile
    # resolutions: the Born spot check moves, and stays within criterion 8
    spots = {}
    for pps in (50, 100):
        cfg = default_config("modulated_resonance")
        cfg["physics"]["impact_parameter_nm"] = 9.6
        cfg["numerics"]["profile_points_per_scale"] = pps
        cfg["sweep"].update({"harmonic": 1, "envelope_sigma_et_fs": 2.5, "scan_points": 11,
                             "spot_check_detunings": [0.0]})
        spots[pps] = run_scenario(cfg).summary["born_spot_checks"][0]
    assert spots[50]["born_dp2"] != spots[100]["born_dp2"]
    for spot in spots.values():
        assert abs(spot["born_dp2"] / spot["analytic_dp2"] - 1.0) <= 0.15
