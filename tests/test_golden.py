"""Behaviour lock: small-config summaries of all seven scenarios.

Each ``golden/<scenario>.json`` holds the config overrides of one run and the
summary it produced when recorded.  A refactor must reproduce every summary
leaf within RTOL/ATOL (the pair the benchmark's reference check uses).

Re-record (only when a change of numbers is intended and documented):

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
import sys
from pathlib import Path

import pytest

from feberi.cli import default_config
from feberi.scenarios import SCENARIOS, run_scenario

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
RTOL = 1e-6
ATOL = 1e-12

_SMALL = {"grid_points": 128, "time_samples": 100}
GOLDEN_CONFIGS = {
    "fig3_ground": {"numerics": _SMALL, "sweep": {"sigma_et_over_period": [0.1, 0.3]}},
    "fig4_superposition": {"numerics": _SMALL,
                           "sweep": {"sigma_et_over_period": [0.1, 0.3]}},
    "fig56_phase_size_sweep": {"numerics": _SMALL,
                               "sweep": {"gamma_values": [0.3, 1.2], "zeta_points": 4}},
    "modulated_resonance": {"physics": {"impact_parameter_nm": 9.6},
                            "sweep": {"harmonic": 1, "envelope_sigma_et_fs": 2.5,
                                      "scan_points": 11, "spot_check_detunings": [0.0]}},
    "fig8_single_point": {"numerics": {"time_samples": 100}},
    "fig9_buildup": {"sweep": {"ensemble_seeds": 32, "random_electrons": 100}},
    "solver_crosscheck": {"numerics": _SMALL},
}


def _config(overrides: dict, scenario: str) -> dict:
    cfg = default_config(scenario)
    for section, keys in overrides.items():
        cfg[section].update(keys)
    return cfg


def _leaves(obj, path=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, f"{path}.{k}" if path else k)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, obj


def _summary(overrides: dict, scenario: str) -> dict:
    # a JSON round trip turns tuples into lists and numpy scalars into floats
    return json.loads(json.dumps(run_scenario(_config(overrides, scenario)).summary,
                                 default=float))


def test_every_scenario_locked():
    assert set(GOLDEN_CONFIGS) == set(SCENARIOS)


@pytest.mark.parametrize("scenario", sorted(GOLDEN_CONFIGS))
def test_summary_matches_golden(scenario):
    golden = json.loads((GOLDEN_DIR / f"{scenario}.json").read_text(encoding="utf-8"))
    assert golden["overrides"] == GOLDEN_CONFIGS[scenario]
    got = dict(_leaves(_summary(golden["overrides"], scenario)))
    want = dict(_leaves(golden["summary"]))
    assert got.keys() == want.keys()
    bad = []
    for key, ref in want.items():
        val = got[key]
        if isinstance(ref, (int, float)) and not isinstance(ref, bool):
            if not math.isclose(val, ref, rel_tol=RTOL, abs_tol=ATOL):
                bad.append(f"{key}: {val!r} != {ref!r}")
        elif val != ref:
            bad.append(f"{key}: {val!r} != {ref!r}")
    assert not bad, "\n".join(bad)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, overrides in GOLDEN_CONFIGS.items():
        payload = {"overrides": overrides, "summary": _summary(overrides, name)}
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path}", file=sys.stderr)
