"""Behaviour lock: small-config summaries of all seven scenarios.

Each ``golden/<scenario>.json`` holds the config overrides of one run and the
summary it produced when recorded.  A refactor must reproduce every summary
leaf within RTOL/ATOL (the pair the benchmark's reference check uses).

The summaries are computed in one child process with BLAS pinned to one
thread: some leaves are differences of nearly equal numbers, and a BLAS
thread count changes their rounding by more than RTOL.

Re-record (only when a change of numbers is intended and documented):

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import feberi
from feberi.cli import default_config
from feberi.scenarios import SCENARIOS, run_scenario

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
RTOL = 1e-6
ATOL = 1e-12
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

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


def single_thread_summaries() -> dict:
    """Summaries of every golden config, from a child process on one BLAS thread."""
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    src = str(Path(feberi.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, __file__, "--print"], env=env,
                         capture_output=True, text=True, timeout=600)
    if out.returncode:
        raise RuntimeError(f"golden child process failed:\n{out.stderr}")
    return json.loads(out.stdout)


@pytest.fixture(scope="module")
def summaries():
    return single_thread_summaries()


def test_every_scenario_locked():
    assert set(GOLDEN_CONFIGS) == set(SCENARIOS)


@pytest.mark.parametrize("scenario", sorted(GOLDEN_CONFIGS))
def test_summary_matches_golden(scenario, summaries):
    golden = json.loads((GOLDEN_DIR / f"{scenario}.json").read_text(encoding="utf-8"))
    assert golden["overrides"] == GOLDEN_CONFIGS[scenario]
    got = dict(_leaves(summaries[scenario]))
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
    if sys.argv[1:] == ["--print"]:
        json.dump({name: _summary(o, name) for name, o in GOLDEN_CONFIGS.items()},
                  sys.stdout)
        sys.exit(0)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, summary in single_thread_summaries().items():
        payload = {"overrides": GOLDEN_CONFIGS[name], "summary": summary}
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path}", file=sys.stderr)
