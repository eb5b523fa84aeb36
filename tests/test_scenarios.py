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
