"""Command-line runner: `feberi run|validate|scenarios`.

Configs are INI files with [run], [physics], [numerics] and [sweep]
sections.  Parsing is strict: unknown keys are rejected with their line
numbers, every physical default equals the reference parameter set
(200 keV beam, 2.4 nm impact parameter, 2 eV gap, 5 Debye transverse
dipole).  Results go to files only (CSV per series, summary.json, SVG
plots); logs go to stderr.  Exit codes: 0 ok, 2 config error, 3 numerical
failure.  Every ERROR line that `validate` prints (the plan's, see
``scenarios.plan``) makes `run` exit 2 before any work; so do a config that
breaks a rule of its keys and an unwritable output_dir.  Both commands exit
3 when the physics cannot be built.
"""

from __future__ import annotations

import argparse
import configparser
import json
import logging
import math
import operator
import sys
from pathlib import Path

import numpy as np

from feberi import __version__
from feberi.born_dynamics import PROFILE_POINTS_PER_SCALE, StepSizeError
from feberi.core import HBAR_EV_FS, TWO_PI, DomainError
from feberi.grid import WINDOW_SIGMA_FACTOR, WINDOW_TRANSIT_FACTOR
from feberi.qew import ResolutionError, TruncationError, gamma_parameter
from feberi.scenarios import SCENARIOS, ScenarioResult, plan, resonance_scan, run_scenario
from feberi.solver_density import CHEBYSHEV_BLOCK, MAX_CHEBYSHEV_ORDER, AssemblyError, \
    PropagationError, write_rho_b_bin
from feberi.solver_momentum import InstabilityError

log = logging.getLogger("feberi")


class ConfigError(ValueError):
    """Invalid configuration file (reported with line/field diagnostics)."""


# -- schema ---------------------------------------------------------------------------

# (kind, choices, default, bound).  Every float must be finite and every list
# non-empty; a bound "> x" or ">= x" also applies to each value (list items too).
_COMMON_SCHEMA = {
    "run": {
        "scenario": ("choice", sorted(SCENARIOS), None, None),
        "seed": ("int", None, 12345, ">= 0"),
        "output_dir": ("str", None, "out", None),
    },
    "physics": {
        "beam_energy_kev": ("float", None, 200.0, "> 0"),
        "impact_parameter_nm": ("float", None, 2.4, "> 0"),
        "energy_gap_ev": ("float", None, 2.0, "> 0"),
        "dipole_debye": ("float", None, 5.0, "> 0"),
        "orientation": ("choice", ["parallel", "transverse"], "transverse", None),
    },
    "numerics": {
        "grid_points": ("int", None, 256, None),   # validate reports a bad size
        "window_transit_factor": ("float", None, WINDOW_TRANSIT_FACTOR, "> 0"),
        "window_sigma_factor": ("float", None, WINDOW_SIGMA_FACTOR, ">= 0"),
        "time_samples": ("int", None, 300, ">= 2"),
        "dump_rho_b": ("bool", None, False, None),
        "profile_points_per_scale": ("int", None, PROFILE_POINTS_PER_SCALE, ">= 1"),
    },
}

_SWEEP_SCHEMAS = {
    "fig3_ground": {
        "sigma_et_over_period": ("float_list", None, [0.1, 0.3, 1.0], "> 0"),
    },
    "fig4_superposition": {
        "sigma_et_over_period": ("float_list", None, [0.1, 0.3, 1.0], "> 0"),
        "zeta_over_pi": ("float", None, 0.5, None),
    },
    "fig56_phase_size_sweep": {
        "gamma_values": ("float_list", None,
                         [0.1, 0.3, 0.6, 0.9, 1.2, 1.5, 2.0, 2.8, 3.8], "> 0"),
        "zeta_points": ("int", None, 16, ">= 3"),   # the sin(zeta) fit needs sin != 0
    },
    "modulated_resonance": {
        "modulation_g": ("float", None, 4.0, "> 0"),
        "harmonic": ("int", None, 2, ">= 1"),
        "envelope_sigma_et_fs": ("float", None, 5.0, "> 0"),
        "harmonic_order": ("int", None, 24, ">= 1"),
        "scan_points": ("int", None, 41, ">= 1"),
        "scan_halfwidth_inv_sigma": ("float", None, 4.0, "> 0"),
        "scan_harmonics": ("int_list", None, [1, 2, 3], ">= 1"),
        "born_check": ("bool", None, True, None),
        "spot_check_detunings": ("float_list", None, [0.0, 0.5, 1.0], None),
    },
    "fig8_single_point": {
        "sigma_et_over_period": ("float_list", None, [0.015], ">= 0"),
    },
    "fig9_buildup": {
        "harmonic": ("int", None, 2, ">= 1"),
        "modulation_g": ("float", None, 4.0, "> 0"),
        "envelope_sigma_et_fs": ("float", None, 10.0, "> 0"),
        "harmonic_order": ("int", None, 32, ">= 1"),
        "mean_spacing_periods": ("float", None, 3.0, "> 0"),
        "correlated_electrons": ("int", None, 20, ">= 1"),
        "random_electrons": ("int", None, 400, ">= 1"),
        "ensemble_seeds": ("int", None, 256, ">= 1"),
        "sigma_et_point_fs": ("float", None, 0.0, ">= 0"),  # 0 = use the bunch width
    },
    "solver_crosscheck": {
        "sigma_et_over_period": ("float_list", None, [0.1], "> 0"),
    },
}

_BOUND_OPS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}

# (key, op, other key): [sweep] rules across two keys, checked where both exist, on
# each item of a list key.  A spectrum cut below a harmonic has no resonance there.
_SWEEP_RULES = (("harmonic_order", ">=", "harmonic"), ("scan_harmonics", "<=", "harmonic_order"))

# [sweep] lists whose values label a scenario's CSV, SVG and summary keys, floats by
# "{:g}" and ints by str: two values of one label would write one run over the other
_LABEL_KEYS = ("sigma_et_over_period", "gamma_values", "scan_harmonics")

# (section, key, scenarios): a key every scenario accepts but only these act
# on; elsewhere a value other than the default would be silently ignored.
_SCENARIO_ONLY = (("numerics", "dump_rho_b", ("fig3_ground",)),)


def default_config(scenario: str) -> dict:
    """Effective config of a scenario with every key at its default."""
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}")
    schema = dict(_COMMON_SCHEMA, sweep=_SWEEP_SCHEMAS[scenario])
    cfg = {section: {k: spec[2] for k, spec in keys.items()}
           for section, keys in schema.items()}
    cfg["run"]["scenario"] = scenario
    return cfg


def _check_range(value, kind: str, bound: str | None, where: str) -> None:
    """Reject empty lists, non-finite floats and values outside ``bound``."""
    items = value if kind.endswith("_list") else [value]
    if not items:
        raise ConfigError(f"{where}: needs at least one value")
    for x in items:
        if isinstance(x, float) and not math.isfinite(x):
            raise ConfigError(f"{where}: must be finite, got {x!r}")
        if bound is not None:
            op, limit = bound.split()
            if not _BOUND_OPS[op](x, float(limit)):
                raise ConfigError(f"{where}: must be {bound}, got {x!r}")


def _parse_value(raw: str, kind: str, choices, where: str):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            low = raw.strip().lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind == "float_list":
            return [float(x) for x in raw.replace(",", " ").split()]
        if kind == "int_list":
            return [int(x) for x in raw.replace(",", " ").split()]
        if kind == "choice":
            if raw not in choices:
                raise ValueError(f"must be one of {choices}, got {raw!r}")
            return raw
        return raw
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _key_lines(text: str) -> dict[tuple[str, str], int]:
    """Map (section, key) to its 1-based line number for diagnostics."""
    lines = {}
    section = ""
    for i, line in enumerate(text.splitlines(), start=1):
        s = line.strip()
        if not s or s.startswith(("#", ";")):
            continue
        if s.startswith("[") and s.endswith("]"):
            section = s[1:-1].strip()
        elif "=" in s or ":" in s:
            sep = min((s.find(c) for c in "=:" if s.find(c) >= 0), default=-1)
            if sep > 0:
                lines[(section, s[:sep].strip().lower())] = i
    return lines


def _check_resonance_scan(cfg: dict, path, lines: dict) -> None:
    """Refuse a scan whose width fit would be undefined: the fit's mask must
    keep two distinct squared detunings (equal up to rounding count as one),
    and the central six points decide it.  Refuse a scan start or a Born spot
    check at omega_21 <= 0, too.  Plain floats, as the scenario computes them."""
    sweep = cfg["sweep"]
    points = sweep["scan_points"]
    centre = (points - 1) // 2
    detuning, mask = resonance_scan(sweep, range(max(0, centre - 2), min(points, centre + 4)))
    squares = sorted((d * sweep["envelope_sigma_et_fs"]) ** 2
                     for d, kept in zip(detuning, mask) if kept)
    distinct = len(squares) and 1 + sum(b - a > 1e-9 * squares[-1]
                                        for a, b in zip(squares, squares[1:]))
    if distinct < 2:
        ln = lines.get(("sweep", "scan_points")) \
            or lines.get(("sweep", "scan_halfwidth_inv_sigma"), 0)
        raise ConfigError(
            f"{path}:{ln}: [sweep] scan_points = {points} over "
            f"scan_halfwidth_inv_sigma = {sweep['scan_halfwidth_inv_sigma']!r} leaves "
            f"{distinct} distinct squared detuning(s) within 3/sigma of a harmonic; "
            "the resonance-width fit needs 2")
    omega_b = cfg["physics"]["energy_gap_ev"] / HBAR_EV_FS / sweep["harmonic"]
    checks = [("scan_halfwidth_inv_sigma",
               min(sweep["scan_harmonics"]) * omega_b + resonance_scan(sweep, [0])[0][0])]
    checks += [("spot_check_detunings",
                sweep["harmonic"] * omega_b + d / sweep["envelope_sigma_et_fs"])
               for d in (sweep["spot_check_detunings"] if sweep["born_check"] else [])]
    for key, w21 in checks:
        if w21 <= 0.0:
            raise ConfigError(f"{path}:{lines.get(('sweep', key), 0)}: [sweep] {key}: puts "
                              f"omega_21 at {w21:.4g} rad/fs; the TLS gap must be > 0")


# the largest float rounding eps * omega_21 * t_N, in rad, of the phase-locked
# train's last arrival t_N: it bounds the drift of the arrival phases, and
# 0.1 rad keeps the N^2 buildup within about 1e-3 of its lock
_COMB_PHASE_RAD = 0.1


def _check_comb_phase(sweep: dict, path, lines: dict) -> None:
    """Refuse a fig9 comb whose arrival times are too large to lock in phase.

    Correlated gaps are drawn below 2 round(x) modulation periods of
    x = mean_spacing_periods, so omega_21 t_N < 2 pi h 2 round(x) n for n
    electrons at harmonic h.  Plain floats; the bound also keeps the comb
    indices far below 2^53."""
    x, n, h = sweep["mean_spacing_periods"], sweep["correlated_electrons"], sweep["harmonic"]
    per_period = sys.float_info.epsilon * TWO_PI * h * 2.0 * n    # per period of round(x)
    rounding = per_period * max(1, round(x))
    if rounding > _COMB_PHASE_RAD:
        ln = lines.get(("sweep", "mean_spacing_periods")) \
            or lines.get(("sweep", "correlated_electrons")) or lines.get(("sweep", "harmonic"), 0)
        raise ConfigError(
            f"{path}:{ln}: [sweep] mean_spacing_periods: {x!r} with correlated_electrons = "
            f"{n} and harmonic = {h} rounds the last arrival's phase omega_21 t_N by up to "
            f"{rounding:.4g} rad, above {_COMB_PHASE_RAD} rad; must be "
            f"<= {math.floor(_COMB_PHASE_RAD / per_period)}")


def load_config(path) -> dict:
    """Parse and validate a config file into the effective config dict."""
    text = Path(path).read_text(encoding="utf-8")
    lines = _key_lines(text)
    # no interpolation: a "%" in a value (say, a path) is a literal character
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    if not parser.has_section("run") or not parser.has_option("run", "scenario"):
        raise ConfigError(f"{path}: missing [run] scenario = <name>")
    scenario = parser.get("run", "scenario").strip()
    if scenario not in SCENARIOS:
        ln = lines.get(("run", "scenario"), 0)
        raise ConfigError(f"{path}:{ln}: unknown scenario {scenario!r}; "
                          f"known: {', '.join(sorted(SCENARIOS))}")

    schema = dict(_COMMON_SCHEMA, sweep=_SWEEP_SCHEMAS[scenario])
    cfg = default_config(scenario)
    for section in parser.sections():
        if section not in schema:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in schema[section]:
                ln = lines.get((section, key), 0)
                raise ConfigError(
                    f"{path}:{ln}: unknown key {key!r} in [{section}] for "
                    f"scenario {scenario}")
            kind, choices, _default, bound = schema[section][key]
            where = f"{path}:{lines.get((section, key), 0)}: [{section}] {key}"
            cfg[section][key] = _parse_value(raw, kind, choices, where)
            _check_range(cfg[section][key], kind, bound, where)

    sweep = cfg["sweep"]
    for key, op, other in _SWEEP_RULES:
        values = sweep.get(key, [])
        for x in values if isinstance(values, list) else [values]:
            if other in sweep and not _BOUND_OPS[op](x, sweep[other]):
                ln = lines.get(("sweep", key)) or lines.get(("sweep", other), 0)
                raise ConfigError(f"{path}:{ln}: [sweep] {key}: must be {op} {other} "
                                  f"({sweep[other]!r}), got {x!r}")
    for key in _LABEL_KEYS:
        labels = [f"{x:g}" if isinstance(x, float) else str(x) for x in sweep.get(key, [])]
        twice = [label for i, label in enumerate(labels) if label in labels[:i]]
        if twice:
            raise ConfigError(f"{path}:{lines.get(('sweep', key), 0)}: [sweep] {key}: two "
                              f"values share the output label {twice[0]!r}")
    if scenario in ("fig8_single_point", "solver_crosscheck") \
            and len(sweep["sigma_et_over_period"]) > 1:
        raise ConfigError(f"{path}:{lines.get(('sweep', 'sigma_et_over_period'), 0)}: "
                          f"[sweep] sigma_et_over_period: scenario {scenario} runs one "
                          f"packet size, got {len(sweep['sigma_et_over_period'])} values")
    if scenario == "modulated_resonance":
        _check_resonance_scan(cfg, path, lines)
    if scenario == "fig9_buildup":
        _check_comb_phase(sweep, path, lines)
    for section, key, scenarios in _SCENARIO_ONLY:
        if scenario not in scenarios and cfg[section][key] != schema[section][key][2]:
            ln = lines.get((section, key), 0)
            raise ConfigError(f"{path}:{ln}: [{section}] {key} = {cfg[section][key]!r} "
                              f"has no effect in scenario {scenario}; only "
                              f"{', '.join(scenarios)} uses it")
    return cfg


# -- output writers --------------------------------------------------------------------

def write_result(result: ScenarioResult, out_dir: Path) -> list[Path]:
    """Write the result's files into out_dir and return their paths.

    Each file is written under a temporary name in out_dir and renamed into
    place, summary.json last: an old summary.json goes first, so one only
    ever sits beside the complete outputs of its own run."""
    from feberi.plotsvg import line_plot

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "summary.json").unlink(missing_ok=True)
    written = []

    def place(name: str, write) -> None:
        path, tmp = out_dir / name, out_dir / f"{name}.tmp"
        try:
            write(tmp)
            tmp.replace(path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        written.append(path)

    for s in result.series:
        cols = {k: v for k, v in s.columns.items() if not k.startswith("_")}
        # each column as Python values, once: str() of a float (float32 widened)
        # is its shortest repr, of an int or bool what Python prints
        rows = [list(cols), *zip(*(np.asarray(v).ravel().tolist() for v in cols.values()))]
        text = "".join(",".join(map(str, row)) + "\n" for row in rows)
        place(f"results_{s.name}.csv",
              lambda p: p.write_text(text, encoding="utf-8", newline="\n"))
        if s.plot_x and s.plot_y:
            place(f"{s.name}.svg", lambda p: line_plot(
                p, [(cols[s.plot_x], cols[y], y) for y in s.plot_y],
                s.title or s.name, s.xlabel or s.plot_x, s.ylabel or ""))
        rho = s.columns.get("_rho_b")
        if rho is not None:
            times = np.asarray(next(iter(cols.values())), dtype=float)
            place(f"rho_b_{s.name}.bin", lambda p: write_rho_b_bin(p, times, rho))
    # numpy scalars and arrays as their Python values (float64 is a float already)
    payload = json.dumps({"summary": result.summary, "metadata": result.metadata}, indent=2,
                         default=lambda obj: obj.tolist())
    place("summary.json", lambda p: p.write_text(payload + "\n", encoding="utf-8"))
    return written


# -- validation report -------------------------------------------------------------------

def validate_config(cfg: dict) -> list[str]:
    """The report of the run's plan, ending in "valid" when it has no ERROR
    line.  Raises DomainError if the physics cannot be built."""
    planned = plan(cfg)
    kin, tls, geo, _ = planned.physics
    scenario = cfg["run"]["scenario"]
    num = cfg["numerics"]
    n = num["grid_points"]
    # the plan's ERROR lines, each where the report tells of its subject
    first = [e for e in planned.errors if e.startswith("ERROR grid:")]
    late = [e for e in planned.errors if e.startswith(("ERROR bunch", "ERROR closed"))]
    report = [f"scenario: {scenario}",
              f"gamma={kin.gamma:.4f} beta={kin.beta:.4f} "
              f"omega21={tls.omega_21:.4f} rad/fs t_r={geo.transit_time * 1e3:.3f} as",
              *(first or [f"grid points: {n} (ok)"])]

    sweep = cfg["sweep"]
    for frac in sweep.get("sigma_et_over_period", []):
        sigma = frac * tls.period
        gam = gamma_parameter(tls.omega_21, sigma)
        regime = "near-point-particle" if gam < 1.0 else "wave"
        line = (f"sigma_et = {frac:g} T21 = {sigma:.4g} fs: Gamma = {gam:.3g} "
                f"({regime} regime)")
        if gam > 1.0:
            line += "; WARNING: outside the short-packet validity of the " \
                    "probabilistic closed forms (size-independent law governs)"
        report.append(line)
    for gam in sweep.get("gamma_values", []):
        if gam > 1.0:
            report.append(f"Gamma = {gam:g}: wave regime (size-independent law governs)")
    report += [e for e in planned.errors if e not in first + late]
    if planned.states is not None:
        # what a grid run holds, at most: as many complex vectors as sampled
        # states (the states, or a trajectory's kept orders when it has no
        # more of them than samples); one leg's real Chebyshev coefficient
        # tables; the recurrence's block of orders and its GEMM batch, or a
        # trajectory's sample blocks; the assembly itself is O(N)
        states, work = planned.states, 2 * CHEBYSHEV_BLOCK
        mem = (states * 2 * n * 16 + MAX_CHEBYSHEV_ORDER * states * 8 + work * 2 * n * 16) / 1e6
        report.append(f"estimated peak memory: {mem:.0f} MB ({states} states or kept orders "
                      f"of {2 * n}, Chebyshev tables {MAX_CHEBYSHEV_ORDER} x {states}, "
                      f"recurrence {work} x {2 * n})")
    if planned.bunch_sigma_et is not None:
        what = "point-packet" if scenario == "fig9_buildup" else "bunch"
        report.append(f"{what} sigma_et = {planned.bunch_sigma_et:.4g} fs")
    report += late
    report.append(f"window factors: transit x{num['window_transit_factor']:g}, "
                  f"sigma x{num['window_sigma_factor']:g}")
    t_r_w = geo.transit_time * tls.omega_21
    report.append(f"t_r * omega21 = {t_r_w:.3g} "
                  f"({'fast transit' if t_r_w < 1 else 'slow transit'})")
    if not planned.errors:
        report.append("valid")
    return report


# -- entry point ---------------------------------------------------------------------------

def non_finite_leaves(obj, path: str = "summary") -> list[str]:
    """Paths of the NaN/inf numbers in a nested summary (JSON cannot hold them)."""
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in non_finite_leaves(v, f"{path}.{k}")]
    if isinstance(obj, (list, tuple)):
        return [p for i, v in enumerate(obj) for p in non_finite_leaves(v, f"{path}[{i}]")]
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        return [path]
    return []


_NUMERICAL_ERRORS = (DomainError, ResolutionError, TruncationError, AssemblyError,
                     PropagationError, StepSizeError, InstabilityError,
                     np.linalg.LinAlgError, FloatingPointError)


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    ap = argparse.ArgumentParser(
        prog="feberi",
        description="Free-electron / two-level-system interaction simulator")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    ap_run = sub.add_parser("run", help="run a scenario config")
    ap_run.add_argument("config")
    ap_run.add_argument("--seed", type=int, default=None, help="override [run] seed")
    ap_run.add_argument("--out", default=None, help="override [run] output_dir")

    ap_val = sub.add_parser("validate", help="dry-run checks of a config")
    ap_val.add_argument("config")

    sub.add_parser("scenarios", help="list built-in scenarios")

    args = ap.parse_args(argv)

    if args.command == "scenarios":
        for name in sorted(SCENARIOS):
            print(f"{name:26s} {SCENARIOS[name][1]}")
        return 0

    try:
        cfg = load_config(args.config)
        if args.command == "run" and args.seed is not None:    # the [run] seed rule
            _check_range(args.seed, "int", _COMMON_SCHEMA["run"]["seed"][3], "--seed")
            cfg["run"]["seed"] = args.seed
    except (ConfigError, OSError) as exc:
        log.error("%s", exc)
        return 2

    if args.command == "validate":
        try:
            report = validate_config(cfg)
        except DomainError as exc:
            print(f"ERROR physics: {exc}")
            return 3
        for line in report:
            print(line)
        return 0

    if args.out is not None:
        cfg["run"]["output_dir"] = args.out

    try:
        planned = plan(cfg)
        if planned.errors:      # what validate flags, refused before any work
            for line in planned.errors:
                log.error("%s: %s", args.config, line)
            return 2
        log.info("running scenario %s (seed %d)", cfg["run"]["scenario"],
                 cfg["run"]["seed"])
        result = run_scenario(cfg, plan=planned)
    except _NUMERICAL_ERRORS as exc:
        log.error("numerical failure: %s", exc)
        return 3
    bad = non_finite_leaves(result.summary)
    if bad:
        log.error("numerical failure: non-finite summary values at %s; nothing written",
                  ", ".join(bad))
        return 3
    out_dir = Path(cfg["run"]["output_dir"])
    try:
        files = write_result(result, out_dir)
    except OSError as exc:
        log.error("cannot write results to %s: %s", out_dir, exc)
        return 2
    for f in files:
        log.info("wrote %s", f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
