import numpy as np
import pytest

from feberi.cli import ConfigError, default_config
from feberi.scenarios import run_fig56_phase_size_sweep, run_scenario


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
