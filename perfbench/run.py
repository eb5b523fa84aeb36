"""feberi benchmark: one workload, one seed, timed in fresh interpreters.

usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each scenario execution runs in its own ``worker.py`` process, so every
execution pays the cold cost a ``feberi run`` user pays; nothing is warmed
up.  Child processes get OpenBLAS/OpenMP pinned to one thread, and run on
one CPU together with a ``sampler.py`` process that reads how fast the host
runs that CPU (see ``reference_seconds``).

--trace 0  executions back to back until ``--seconds`` is used up (at least
           one; another starts only if it is expected to end in time), then
           set-up-only processes for the rest of ``--seconds``, and at least
           until there are MIN_SETUP_SAMPLES set-up samples.  Prints the
           end-to-end metrics as medians.  Times are CPU times of the
           worker process at the reference speed (``reference_seconds``).
--trace 1  one untraced execution, then traced executions under the same
           budget rule but at least MIN_TRACED of them, so that the counts of
           two traced executions can be compared.  Prints the per-layer
           metrics (medians over the traced executions) and trace.overhead_s,
           the traced run_s median less the untraced run_s.

Every execution is gated (see ``check_summary``); a failed one counts in
``failed`` and does not stop the run.  The last stdout line is the result
JSON; the line before it records the environment.  All files go under
``.bench_out/`` in the checkout.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_SETUP_SAMPLES = 6
# sampler.py wakes every SAMPLE_PERIOD_S; its timed piece takes PIECE_REF_S of
# CPU time at the reference speed, a fixed unit near the median piece time on
# the host README.md describes
SAMPLE_PERIOD_S = 0.1
PIECE_REF_S = 2.4e-3
MIN_SPEED_SAMPLES = 3
MIN_TRACED = 2
# a run must end within 180 s; a child still running at this mark is killed
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# tolerance of the comparison with a reference summary: ATOL + RTOL * |ref|;
# ATOL covers values at rounding level, such as the 1e-13 solver difference
RTOL = 1e-6
ATOL = 1e-12
# per-layer metrics that are not times must repeat exactly between executions;
# bytes_written is left out because summary.json echoes the run time
NOT_REPEATABLE = {"cli.bytes_written"}
TIME_UNITS = {"s", "us", "ns"}


# -- workloads ----------------------------------------------------------------


def _gate_phase_sweep(s: dict) -> list[str]:
    errs = []
    resid = s["fit_residual_over_peak"]
    worst = min(s["zeta_slice_r_squared"].values())
    if not resid <= 0.10:
        errs.append(f"fit residual/peak {resid} > 0.10")
    if not worst >= 0.99:
        errs.append(f"worst zeta-slice R^2 {worst} < 0.99")
    return errs


def _gate_modulated_resonance(s: dict, n_spots: int) -> list[str]:
    errs = []
    dev_w = max(abs(v["fitted_inv_e_halfwidth"] / v["expected"] - 1.0)
                for v in s["fitted_widths"].values())
    spots = s["born_spot_checks"]
    if not dev_w <= 0.05:
        errs.append(f"width deviation {dev_w} > 0.05")
    if len(spots) != n_spots:
        errs.append(f"{len(spots)} Born spot checks, expected {n_spots}")
    else:
        dev_b = max(abs(x["born_dp2"] / x["analytic_dp2"] - 1.0) for x in spots)
        if not dev_b <= 0.15:
            errs.append(f"Born spot deviation {dev_b} > 0.15")
    return errs


def _gate_large_grid(s: dict) -> list[str]:
    rel = s["final_rel_difference"]
    return [] if rel <= 1e-3 else [f"solver difference {rel} > 1e-3"]


def _gate_train_buildup(s: dict) -> list[str]:
    """Acceptance criterion 9."""
    errs = []
    ratio = s["p2_ratio_20_over_1"]
    cross = abs(s["crossing_n_random"] / s["crossing_expected"] - 1.0)
    if not s["quadratic_r_squared"] >= 0.99:
        errs.append(f"quadratic R^2 {s['quadratic_r_squared']} < 0.99")
    if not abs(ratio / 400.0 - 1.0) <= 0.08:
        errs.append(f"P2 ratio 20/1 {ratio} not within 8% of 400")
    if not len(s["ensemble_seeds"]) >= 32:
        errs.append(f"ensemble of {len(s['ensemble_seeds'])} < 32 seeds")
    if not s["linear_r_squared"] >= 0.95:
        errs.append(f"linear R^2 {s['linear_r_squared']} < 0.95")
    if not cross <= 0.25:
        errs.append(f"crossing deviation {cross} > 0.25")
    return errs


@dataclass
class Workload:
    """A scenario config (defaults plus ``overrides``) and its correctness gate.

    ``reference`` names a summary recorded at the seed commit under
    ``reference/`` (or holds one inline); numbers must match it within
    RTOL/ATOL.  Only ``[run] seed`` depends on the benchmark seed.
    """

    scenario: str
    gate: object
    overrides: dict = field(default_factory=dict)
    reference: str | dict | None = None

    def ini(self, seed: int) -> str:
        sections = {"run": {"scenario": self.scenario, "seed": seed}}
        for section, keys in self.overrides.items():
            sections.setdefault(section, {}).update(keys)
        lines = []
        for section, keys in sections.items():
            lines.append(f"[{section}]")
            for k, v in keys.items():
                v = ", ".join(map(repr, v)) if isinstance(v, (list, tuple)) else v
                lines.append(f"{k} = {v}")
        return "\n".join(lines) + "\n"

    def reference_summary(self) -> dict | None:
        if isinstance(self.reference, str):
            data = json.loads((HERE / "reference" / self.reference).read_text("utf-8"))
            return data["summary"]
        return self.reference


WORKLOADS = {
    "phase_sweep": Workload(
        "fig56_phase_size_sweep", _gate_phase_sweep, reference="phase_sweep.json"),
    # impact parameter 9.6 nm instead of 2.4: the transit time, and with it
    # the profile step, is four times longer, so the Born profile has 183k
    # samples instead of 727k and an execution takes about 5 s instead of
    # 18 s; a run then takes the median of several executions, where one
    # execution of the default size was all a run had
    "modulated_resonance": Workload(
        "modulated_resonance", lambda s: _gate_modulated_resonance(s, 1),
        overrides={"physics": {"impact_parameter_nm": 9.6},
                   "sweep": {"spot_check_detunings": [0.0]}},
        reference="modulated_resonance.json"),
    "large_grid": Workload(
        "solver_crosscheck", _gate_large_grid,
        overrides={"numerics": {"grid_points": 1024}}, reference="large_grid.json"),
    # 256 ensemble members instead of the default 64: with 64 the criterion-9
    # ensemble thresholds fail on about one seed in twenty (seeds 13 and 36 of
    # 43 tried), so a seeded run would fail at random; with 256 none of 62
    # seeds tried came within half of either threshold
    "train_buildup": Workload(
        "fig9_buildup", _gate_train_buildup,
        overrides={"sweep": {"ensemble_seeds": 256}}),
}


# -- correctness --------------------------------------------------------------


def _leaves(obj, path=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, f"{path}.{k}" if path else k)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, obj


def compare_reference(summary: dict, ref: dict) -> list[str]:
    got = dict(_leaves(summary))
    want = dict(_leaves(ref))
    if got.keys() != want.keys():
        return [f"summary keys differ from the reference: "
                f"{sorted(got.keys() ^ want.keys())}"]
    errs = []
    for key, w in want.items():
        g = got[key]
        numeric = all(isinstance(x, (int, float)) and not isinstance(x, bool)
                      for x in (g, w))
        if numeric and abs(g - w) <= ATOL + RTOL * abs(w):
            continue
        if not numeric and g == w:
            continue
        errs.append(f"{key} = {g!r}, reference {w!r}")
    return errs


def check_summary(workload: Workload, payload: dict) -> list[str]:
    """Finite values, the workload's gate, and the seed-commit reference."""
    summary = payload["summary"]
    bad = [k for k, v in _leaves(summary) if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        return [f"non-finite summary values: {bad}"]
    try:
        errs = workload.gate(summary)
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"summary cannot be gated: {exc!r}"]
    ref = workload.reference_summary()
    if ref is not None:
        errs += compare_reference(summary, ref)
    return errs


# -- child processes ----------------------------------------------------------


@dataclass
class Execution:
    mode: str
    report: dict
    wall_s: float
    payload: dict | None
    errors: list[str]
    samples: list = field(default_factory=list)


def reference_seconds(cpu_s: float, span: list[float], samples: list) -> float:
    """CPU seconds spent in ``span`` at the reference speed.

    The host of a small VM runs its CPUs at a speed that changes from second
    to second (a busy sibling hyper-thread, clock changes) by up to 1.6x.
    sampler.py shares the worker's CPU and times a fixed piece of work every
    SAMPLE_PERIOD_S; the pieces inside ``span`` (at least the
    MIN_SPEED_SAMPLES nearest to its middle) give the mean speed during it,
    and the CPU time is scaled by PIECE_REF_S over their mean time.
    """
    start, end = span
    inside = [c for t0, t1, c in samples if start <= (t0 + t1) / 2 <= end]
    if len(inside) < MIN_SPEED_SAMPLES:
        mid = (start + end) / 2
        nearest = sorted(samples, key=lambda x: abs((x[0] + x[1]) / 2 - mid))
        inside = [c for _, _, c in nearest[:MIN_SPEED_SAMPLES]]
    return cpu_s * PIECE_REF_S / statistics.fmean(inside)


def _stop_sampler(proc: subprocess.Popen) -> list:
    """Stop sampler.py, wait for it, and return its samples."""
    proc.terminate()
    try:
        out, _ = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return []
    try:
        return json.loads(out)
    except ValueError:
        return []


class Runner:
    def __init__(self, root: Path, work: Path, workload: Workload, seed: int):
        self.root = root
        self.work = work
        self.workload = workload
        self.config = work / "config.ini"
        self.config.write_text(workload.ini(seed), encoding="utf-8")
        (work / "tmp").mkdir(exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(work / "tmp"))
        self.env.update({v: "1" for v in THREAD_VARS})
        self.executions: list[Execution] = []
        self.limit = time.perf_counter() + RUN_LIMIT_S
        self.cpu = max(os.sched_getaffinity(0))

    def _pin(self) -> None:
        os.sched_setaffinity(0, {self.cpu})

    def execute(self, mode: str) -> Execution:
        """One worker process; failures are recorded, never raised."""
        tag = f"{len(self.executions):03d}-{mode}"
        out = self.work / tag
        report_path = self.work / f"{tag}.report.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
               "--config", str(self.config), "--out", str(out),
               "--report", str(report_path), "--spans", str(self.work / f"{tag}.spans.jsonl")]
        errors: list[str] = []
        t0 = time.perf_counter()
        sampler = subprocess.Popen([sys.executable, str(HERE / "sampler.py"),
                                    str(SAMPLE_PERIOD_S)], stdout=subprocess.PIPE,
                                   text=True, preexec_fn=self._pin)
        try:
            with open(self.work / f"{tag}.log", "w", encoding="utf-8") as log:
                proc = subprocess.run(cmd, cwd=self.root, env=self.env, stdout=log,
                                      stderr=subprocess.STDOUT, preexec_fn=self._pin,
                                      timeout=max(0.0, self.limit - t0))
            if proc.returncode != 0:
                errors.append(f"exit code {proc.returncode}")
        except subprocess.TimeoutExpired:
            errors.append(f"killed at the run's {RUN_LIMIT_S} s limit")
        finally:
            samples = _stop_sampler(sampler)
        wall = time.perf_counter() - t0
        if not errors and len(samples) < MIN_SPEED_SAMPLES:
            errors.append(f"{len(samples)} speed samples, fewer than {MIN_SPEED_SAMPLES}")
        report = json.loads(report_path.read_text("utf-8")) if report_path.exists() else {}
        payload = None
        if not errors and not report:
            errors.append("no report written")
        if not errors:
            if Path(report["feberi_file"]).resolve().is_relative_to(self.root / "src"):
                if mode != "setup":
                    payload, errors = self._check_output(out)
            else:
                errors.append(f"feberi imported from {report['feberi_file']}")
        if errors:
            tail = (self.work / f"{tag}.log").read_text("utf-8", "replace")[-2000:]
            print(f"FAILED {tag}: {'; '.join(errors)}\n{tail}", file=sys.stderr)
        ex = Execution(mode, report, wall, payload, errors, samples)
        self.executions.append(ex)
        return ex

    def _check_output(self, out: Path) -> tuple[dict | None, list[str]]:
        try:
            payload = json.loads((out / "summary.json").read_text("utf-8"),
                                 parse_constant=float)
        except (OSError, ValueError) as exc:
            return None, [f"summary.json unreadable: {exc}"]
        return payload, check_summary(self.workload, payload)


def _median(values):
    return statistics.median(values) if values else float("nan")


def _comparable(payload: dict) -> dict:
    """summary.json without the run time, which differs between any two runs."""
    meta = {k: v for k, v in payload.get("metadata", {}).items() if k != "runtime_s"}
    return {"summary": payload.get("summary"), "metadata": meta}


def measure_untraced(runner: Runner, seconds: float) -> dict:
    deadline = time.perf_counter() + seconds
    runs = []
    while True:
        runs.append(runner.execute("run"))
        expected = _median([r.wall_s for r in runs])
        if time.perf_counter() + expected > deadline:
            break
    # set-up-only processes fill what is left of the budget, and make up
    # MIN_SETUP_SAMPLES set-up samples in all
    while True:
        setups = [e.wall_s for e in runner.executions if e.mode == "setup"]
        if len(runner.executions) >= MIN_SETUP_SAMPLES \
                and time.perf_counter() + _median(setups or [0.0]) > deadline:
            break
        runner.execute("setup")
    ok = [e for e in runner.executions if not e.errors]
    ok_runs = [e for e in runs if not e.errors]
    return {
        "setup_s": _median([reference_seconds(
            e.report["import_s"] + e.report["load_config_s"], e.report["setup_span"], e.samples)
            for e in ok]),
        "run_s": _median([reference_seconds(e.report["run_s"], e.report["run_span"], e.samples)
                          for e in ok_runs]),
        "peak_rss_mb": _median([e.report["peak_rss_mb"] for e in ok_runs]),
        "correct_fraction": len(ok_runs) / len(runs),
        # not scaled; printed with the environment
        "unscaled": {
            "setup_cpu_s": _median([e.report["import_s"] + e.report["load_config_s"]
                                    for e in ok]),
            "run_cpu_s": _median([e.report["run_s"] for e in ok_runs]),
            "run_wall_s": _median([e.report["run_wall_s"] for e in ok_runs]),
            "speed_piece_s": _median([c for e in ok for _, _, c in e.samples]),
        },
    }


def measure_traced(runner: Runner, seconds: float, names: list[str],
                   repeatable: list[str]) -> dict:
    deadline = time.perf_counter() + seconds
    plain = runner.execute("run")
    traced = []
    while True:
        t0 = time.perf_counter()
        t = runner.execute("trace")
        traced.append(t)
        if plain.payload is not None and t.payload is not None \
                and _comparable(plain.payload) != _comparable(t.payload):
            t.errors.append("traced summary.json differs from the untraced one")
        if len(traced) >= MIN_TRACED \
                and time.perf_counter() + (time.perf_counter() - t0) > deadline:
            break
    ok = [t for t in traced if not t.errors]
    _check_counts(ok, repeatable)
    ok = [t for t in ok if not t.errors]
    layer_names = [k for k in names if not k.startswith("trace.")]
    metrics = {k: _median([t.report["layers"][k] for t in ok]) for k in layer_names}
    metrics["trace.run_s"] = _median([t.report["run_wall_s"] for t in ok])
    metrics["trace.overhead_s"] = (metrics["trace.run_s"] - plain.report["run_wall_s"]
                                   if not plain.errors else float("nan"))
    return metrics


def _check_counts(traced: list[Execution], names: list[str]) -> None:
    """Non-time layer metrics must repeat exactly between the traced
    executions of a run."""
    if not traced:
        return
    first = traced[0].report["layers"]
    for t in traced[1:]:
        diff = [k for k in names if t.report["layers"][k] != first[k]]
        if diff:
            t.errors.append(f"counts differ from the first traced execution: {diff}")
            print(f"FAILED: counts differ: {diff}", file=sys.stderr)


# -- environment --------------------------------------------------------------


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    files = sorted((root / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for p in files:
        h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def _caches() -> dict[str, str]:
    """CPU cache sizes as the kernel reports them (empty if unreadable)."""
    caches = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((d / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}_{kind.lower()}"] = size
    return caches


def environment(root: Path, runner: Runner) -> dict:
    child = next((e.report["environment"] for e in runner.executions
                  if "environment" in e.report), {})
    return {
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
        **child,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "caches": _caches(),
        "threads": {v: runner.env[v] for v in THREAD_VARS},
        "worker_cpu": runner.cpu,
        "jobs": 1,
        "page_cache": "warm: imports are timed with the page cache as the "
                      "previous process left it; the benchmark does not drop it",
    }


# -- entry point --------------------------------------------------------------


def declared_metrics(root: Path) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text("utf-8"))
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def run_benchmark(root: Path, workload: Workload, name: str, seed: int,
                  seconds: float, trace: bool) -> dict:
    declared = declared_metrics(root)["per_layer" if trace else "end_to_end"]
    work = root / ".bench_out" / f"{name}-s{seed}-t{int(trace)}-{time.time_ns()}"
    work.mkdir(parents=True)
    runner = Runner(root, work, workload, seed)
    if trace:
        repeatable = [k for k, unit in declared.items()
                      if unit not in TIME_UNITS and k not in NOT_REPEATABLE]
        values = measure_traced(runner, seconds, list(declared), repeatable)
    else:
        values = measure_untraced(runner, seconds)
    env = environment(root, runner)
    (work / "environment.json").write_text(json.dumps(env, indent=1), "utf-8")
    print(json.dumps({"environment": env, "unscaled": values.get("unscaled")}))
    missing = [k for k in declared if k not in values]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    failed = sum(1 for e in runner.executions if e.errors)
    return {"correct": failed == 0, "attempted": len(runner.executions), "failed": failed,
            "metrics": {k: {"value": _number(values[k]), "unit": u}
                        for k, u in declared.items()}}


def _number(v):
    """A metric value; None where nothing was measured (every execution failed)."""
    return v if math.isfinite(v) else None


def _terminated(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills and waits for
    # the worker, and through Runner.execute, which stops the sampler
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminated)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "feberi" / "__init__.py").is_file():
        print(f"error: {root} holds no feberi source tree (src/feberi)", file=sys.stderr)
        return 2
    result = run_benchmark(root, WORKLOADS[args.workload], args.workload, args.seed,
                           args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
