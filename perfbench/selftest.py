"""Self-test of the benchmark harness on shrunken configs (about two minutes).

usage, from the root of a checkout:

    python3 perfbench/selftest.py

Checks that
  * every metric BENCHMARK.json names is emitted, with its unit, untraced
    and traced, on a shrunken config of each workload;
  * a layer's metrics are non-zero exactly on the workloads that run it;
  * an execution that misses its reference, raises, or writes a non-finite
    summary value counts as a failed operation and the run still reports;
  * a count that differs between two traced executions fails the run (the
    harness compares them on every traced run);
  * reference_seconds scales CPU time by the sampler's pieces inside the
    interval.  (An execution with fewer than MIN_SPEED_SAMPLES pieces fails,
    so the gate checks above also check that the sampler ran.)
Exits 1 if a check fails.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import sys
import time
from pathlib import Path

import run

ROOT = Path.cwd().resolve()
W = run.WORKLOADS

SMALL = {
    "phase_sweep": dataclasses.replace(
        W["phase_sweep"], reference=None,
        overrides={"sweep": {"gamma_values": [0.1, 1.0], "zeta_points": 4},
                   "numerics": {"grid_points": 64, "time_samples": 60}}),
    "modulated_resonance": dataclasses.replace(
        W["modulated_resonance"], reference=None,
        overrides={"physics": {"impact_parameter_nm": 24.0},   # 10x coarser profile
                   "sweep": {"spot_check_detunings": [0.0], "scan_points": 15,
                             "scan_harmonics": [2]}}),
    "large_grid": dataclasses.replace(
        W["large_grid"], reference=None, overrides={"numerics": {"grid_points": 128}}),
    "train_buildup": dataclasses.replace(
        W["train_buildup"],
        overrides={"sweep": {"random_electrons": 100, "ensemble_seeds": 32}}),
}

# layer metric prefix -> workloads on which it must be non-zero (zero elsewhere)
RUNS_ON = {
    "solver_density.eigh_calls": {"phase_sweep", "large_grid"},
    "solver_density.evolve_calls": {"phase_sweep", "large_grid"},
    "solver_density.observables_calls": {"phase_sweep", "large_grid"},
    "solver_momentum.rk4_steps": {"large_grid"},
    "born_dynamics.evolve_tls_steps": {"modulated_resonance"},
    "born_dynamics.window_propagator_calls": {"train_buildup"},
    "born_dynamics.profile_samples": {"modulated_resonance", "train_buildup"},
    "born_dynamics.train_electron_steps": {"train_buildup"},
    "analytic.calls": {"phase_sweep", "modulated_resonance"},
}

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def emitted(result: dict, trace: bool, label: str) -> None:
    declared = run.declared_metrics(ROOT)["per_layer" if trace else "end_to_end"]
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    check(got == declared, f"{label}: emits exactly the declared metrics and units")
    check(all(m["value"] is not None for m in result["metrics"].values()),
          f"{label}: every metric has a value")


def reference_of(workload: run.Workload) -> dict:
    work = ROOT / ".bench_out" / f"selftest-ref-{time.time_ns()}"
    work.mkdir(parents=True)
    ex = run.Runner(ROOT, work, workload, seed=0).execute("run")
    return ex.payload["summary"]


def main() -> int:
    for name, w in SMALL.items():
        label = f"small {name}"
        res = run.run_benchmark(ROOT, w, f"selftest-{name}", 1, 1.0, trace=False)
        emitted(res, False, label + " untraced")
        check(res["correct"] and res["failed"] == 0, f"{label}: passes its gate")
        res = run.run_benchmark(ROOT, w, f"selftest-{name}", 1, 1.0, trace=True)
        emitted(res, True, label + " traced")
        check(res["correct"], f"{label} traced: summary equals the untraced one, "
                              "counts repeat")
        m = {k: v["value"] for k, v in res["metrics"].items()}
        for key, where in RUNS_ON.items():
            check((m[key] > 0) == (name in where),
                  f"{label}: {key} = {m[key]} is non-zero iff the layer runs")
        if m["solver_density.eig_requests"]:
            check(m["solver_density.eig_reuse"] == 1 - m["solver_density.eigh_calls"]
                  / m["solver_density.eig_requests"], f"{label}: eig_reuse identity")

    good = reference_of(SMALL["phase_sweep"])
    right = dataclasses.replace(SMALL["phase_sweep"], reference=good)
    res = run.run_benchmark(ROOT, right, "selftest-ref-ok", 1, 1.0, trace=False)
    check(res["correct"], "matching reference passes")

    wrong = copy.deepcopy(good)
    wrong["fit_amplitude_A"] *= 1.001
    bad = dataclasses.replace(SMALL["phase_sweep"], reference=wrong)
    res = run.run_benchmark(ROOT, bad, "selftest-ref-wrong", 1, 1.0, trace=False)
    check(not res["correct"] and res["failed"] >= 1
          and res["metrics"]["correct_fraction"]["value"] == 0.0,
          f"wrong reference counts as failed ({res['failed']}/{res['attempted']})")

    raises = dataclasses.replace(
        SMALL["phase_sweep"], overrides={"sweep": {"gamma_values": [0.1], "zeta_points": 0}})
    res = run.run_benchmark(ROOT, raises, "selftest-raises", 1, 1.0, trace=False)
    check(not res["correct"] and res["metrics"]["correct_fraction"]["value"] == 0.0
          and res["metrics"]["setup_s"]["value"] is not None,
          "a raising scenario counts as failed and the run still reports")

    nonfinite = dataclasses.replace(
        SMALL["modulated_resonance"], gate=lambda s: [],
        overrides={"sweep": {"scan_points": 1, "born_check": False}})  # writes NaN
    res = run.run_benchmark(ROOT, nonfinite, "selftest-nan", 1, 1.0, trace=False)
    check(not res["correct"] and res["metrics"]["correct_fraction"]["value"] == 0.0,
          "a non-finite summary value counts as failed")

    first, second = (run.Execution("trace", {"layers": {"n": n}}, 0.0, None, [])
                     for n in (1, 2))
    run._check_counts([first, second], ["n"])
    check(second.errors and not first.errors,
          "a count that differs between traced executions fails the later one")

    ref = run.PIECE_REF_S
    samples = [(0.0, 0.1, ref), (1.0, 1.1, 2 * ref), (2.0, 2.1, 2 * ref), (3.0, 3.1, 2 * ref)]
    check(math.isclose(run.reference_seconds(1.0, [0.5, 3.5], samples), 0.5),
          "reference_seconds: pieces twice the reference time halve the CPU time")
    check(math.isclose(run.reference_seconds(1.0, [-0.5, 0.3], samples), 0.6),
          "reference_seconds: with too few pieces inside, the nearest ones count")

    print(f"{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
