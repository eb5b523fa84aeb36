"""Mutation checks: each entry of MUTANTS breaks ``src/feberi`` on purpose in
one place, and the tests it names must catch that.

    python tests/mutants.py [NAME ...]

runs every entry, or only the named ones.  The runner first checks that each
entry's snippet occurs exactly once in its module and names every stale entry.
It copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory,
where the named tests of all entries must pass unmutated.  Then, two entries
at a time, it applies one replacement to a fresh copy and runs that entry's
tests, which must fail.  It exits 0 when every mutant is killed and 1
otherwise.  The standard library only; pytest runs in a subprocess on the
copy, which it imports through PYTHONPATH.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PARALLEL = 2          # mutants run at once, each one pytest process
TIMEOUT_S = 300       # per pytest run


class Mutant(NamedTuple):
    name: str
    module: str                  # file under src/feberi
    snippet: str                 # exact source text, once in the module
    replacement: str
    tests: tuple[str, ...]       # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant("grid window edge sign", "solver_density.py",
           "edge = np.exp(-1j * w21", "edge = np.exp(1j * w21",
           ("tests/test_scenarios.py::test_fig56_quadratic_form_equals_per_zeta_runs"
            "[0.1-transverse]",
            "tests/test_solver_density.py::TestSequentialTrain::test_single_matches_direct")),
    Mutant("grid window per-grid assembly", "solver_density.py",
           "rows += [assemblies[grid]] * 2", "rows += [next(iter(assemblies.values()))] * 2",
           ("tests/test_scenarios.py::test_fig56_block_equals_one_gamma_blocks",
            "tests/test_properties.py::test_grid_windows_are_channels_equal_to_one_shape_calls")),
    Mutant("fig56 reads the channel's upper-level row 3", "scenarios.py",
           "w.channel[3] for w in windows", "w.channel[0] for w in windows",
           ("tests/test_scenarios.py::test_fig56_quadratic_form_equals_per_zeta_runs"
            "[1.2-parallel]",)),
    Mutant("fig56 rows in rising Gamma, not the plan's config order", "scenarios.py",
           'sorted(zip(cfg["sweep"]["gamma_values"], plan.packets), key=lambda row: row[0])',
           'list(zip(cfg["sweep"]["gamma_values"], plan.packets))',
           ("tests/test_scenarios.py::test_fig56_rows_follow_gamma_not_config_order",)),
    Mutant("grid window channel without the conjugate branch", "solver_density.py",
           "phi, phi.conj(), edge", "phi, phi, edge",
           ("tests/test_solver_density.py::TestSequentialTrain::test_channel_matches_eigh_train"
            "[mixed-correlated]",)),
    Mutant("train stepper phase sign", "born_dynamics.py",
           "d = np.exp(1j * window.omega_21 * t_k)", "d = np.exp(-1j * window.omega_21 * t_k)",
           ("tests/test_born_dynamics.py::TestTrains::test_ensemble_equals_loop",
            "tests/test_solver_density.py::TestSequentialTrain::test_channel_matches_eigh_train"
            "[mixed-random]")),
    Mutant("RK4 weight of the second midpoint stage", "born_dynamics.py",
           "(a + 2.0 * b + 2.0 * k + c", "(a + 2.0 * b + 1.0 * k + c",
           ("tests/test_born_dynamics.py::TestStepMatrixPropagator"
            "::test_step_pairs_match_dense_rk4",)),
    Mutant("profile span step", "born_dynamics.py",
           "return float(times[-1] - times[0]) / (len(times) - 1)",
           "return float(times[1] - times[0])",
           ("tests/test_born_dynamics.py::TestPhaseTables::test_drive_matches_complex_exp",)),
    Mutant("density spectrum's lobes at -m w_b without the conjugate", "born_dynamics.py",
           "lower @ a.conj()", "lower @ a",
           ("tests/test_born_dynamics.py::test_density_spectrum_inverts_to_reconstruction"
            "[8-0.5]",)),
    Mutant("modulated profile read off the transform unrolled", "born_dynamics.py",
           "fft.irfft(spec, size)[np.arange(-n, n + 1)]",
           "fft.irfft(spec, size)[np.arange(2 * n + 1)]",
           ("tests/test_born_dynamics.py::TestInteractionProfile"
            "::test_flat_modulated_profile[transverse]",)),
    Mutant("parallel profile mirrored even", "born_dynamics.py",
           "np.negative(half[:0:-1], out=vals[:n])", "vals[:n] = half[:0:-1]",
           ("tests/test_born_dynamics.py::TestInteractionProfile"
            "::test_convolution_matches_full_length_oracle[fig9-point-parallel]",)),
    Mutant("plain profile read one sample late", "born_dynamics.py",
           "[-lo - j_lo:n + 1 - lo - j_lo]", "[1 - lo - j_lo:n + 2 - lo - j_lo]",
           ("tests/test_born_dynamics.py::TestInteractionProfile"
            "::test_convolution_matches_full_length_oracle[fig9-point-transverse]",)),
    Mutant("Born profile ceiling", "born_dynamics.py",
           "if count > MAX_PROFILE_SAMPLES:", "if False:",
           ("tests/test_born_dynamics.py::TestProfileCeiling"
            "::test_grid_just_past_the_ceiling_is_refused",)),
    Mutant("momentum RK4 inner phase one step late", "solver_momentum.py",
           "np.multiply(outer[b], inner[i], out=ph)",
           "np.multiply(outer[b], inner[i - 1], out=ph)",
           ("tests/test_solver_momentum.py::TestStageKernel::test_matches_reference_loop"
            "[transverse-rk4-ground]",)),
    Mutant("circulant pad's zero tail written once", "grid.py",
           "buf[..., n:] = 0.0", "buf[..., n:n] = 0.0",
           ("tests/test_properties.py::test_circulant_product_keeps_its_zero_pad",)),
    Mutant("series' sample block column bound", "solver_density.py",
           "cols = slice(first, first + step)",
           "cols = slice(first, first + step - 1)",
           ("tests/test_solver_density.py::TestChebyshev::test_matches_eigh"
            "[transverse-spectral-60.0]",
            "tests/test_solver_density.py::TestChebyshev::test_matches_eigh"
            "[transverse-spectral-500.0]")),
    Mutant("finished states' centre phase sign", "solver_density.py",
           "states *= np.exp(-1j * centre[i]", "states *= np.exp(1j * centre[i]",
           ("tests/test_solver_density.py::TestChebyshev::test_matches_eigh"
            "[transverse-spectral-60.0]",)),
    Mutant("finished states' upper-level gauge factor", "solver_density.py",
           "states[:, n:] *= gauge[i, -1]", "states[:, n:] *= gauge[i, -1].conjugate()",
           ("tests/test_solver_density.py::TestChebyshev::test_matches_eigh"
            "[parallel-spectral-60.0]",)),
    Mutant("parallel gauge phi", "solver_density.py",
           'gauge = 1j if coupling.orientation == "parallel" else 1.0', "gauge = 1.0",
           ("tests/test_solver_density.py::TestRealGauge::test_real_symmetric"
            "[parallel-spectral]",)),
    Mutant("Bessel orders past a row's Kapteyn order", "solver_density.py",
           "per_row[kept[p]:, p] = 0.0", "per_row[kept[p] + 1:, p] = 0.0",
           ("tests/test_solver_density.py::TestChebyshev"
            "::test_series_stops_each_row_at_its_own_order",)),
    Mutant("comb harmonics' (-1)^m", "qew.py",
           "[m % n_samp] * (-1.0) ** m", "[m % n_samp]",
           ("tests/test_qew.py::TestHarmonicSumsByFft::test_fft_extraction_equals_dense"
            "[24-4.0-1.3]",)),
    Mutant("negative sidebands without the conjugate power", "qew.py",
           "amp += term(top - n, power.conj())", "amp += term(top - n, power)",
           ("tests/test_qew.py::test_running_power_sum_equals_per_sideband_exp",)),
    Mutant("grid windows take a packet arriving off t = 0", "solver_density.py",
           "if spec.t0 != 0.0:", "if False:",
           ("tests/test_solver_density.py"
            "::test_grid_windows_refuse_a_packet_not_arriving_at_zero",)),
    Mutant("packets take kinematics other than the coupling's", "qew.py",
           "if spec.kin != coupling.kin:", "if False:",
           ("tests/test_qew.py::test_packet_for_spec_refuses_kinematics_other_than_the_couplings"
            "[gaussian-128]",)),
    Mutant("packets take a window whose travel reaches the position period", "qew.py",
           "if reach >= period:", "if False:",
           ("tests/test_cli.py::TestCommands"
            "::test_window_travel_reaching_the_position_period_is_config_error[256-True]",)),
    Mutant("packet grids without sideband headroom", "qew.py",
           "+ spec.sideband_count * spec.delta_p", "+ 0.0",
           ("tests/test_qew.py::TestModulatedAmplitudes::test_normalized",)),
    Mutant("comb sampled without its drift phase", "qew.py",
           "if spec.drift_time != 0.0:", "if False:",
           ("tests/test_qew.py::TestModulatedAmplitudes"
            "::test_drifted_comb_is_the_exact_chirped_sideband_sum",)),
    Mutant("SVG x axis from the first point, not the least", "plotsvg.py",
           "x_lo, x_hi = float(xs_all.min())", "x_lo, x_hi = float(xs_all[0])",
           ("tests/test_cli.py::test_writer_bytes_equal_cell_by_cell_formatting",)),
    Mutant("fig4's packets arrive at its t0", "scenarios.py",
           "t0 = _fig4_start(cfg, tls)[2] if", "t0 = 0.0 if",
           ("tests/test_golden.py::test_summary_matches_golden[fig4_superposition]",)),
    Mutant("shared Born profile on the largest spot omega_21", "scenarios.py",
           "finest = coupling_at(max(w_spots))", "finest = coupling_at(min(w_spots))",
           ("tests/test_scenarios.py::test_spot_checks_share_one_profile[small]",)),
    Mutant("harmonic_order >= harmonic rule", "cli.py",
           '_SWEEP_RULES = (("harmonic_order", ">=", "harmonic"), ', "_SWEEP_RULES = (",
           ("tests/test_cli.py::TestCommands::test_harmonic_order_below_harmonic_is_config_error"
            "[harmonic_order = 1-6-fig9_buildup]",)),
    Mutant("run refuses the plan's ERROR lines", "cli.py",
           "if planned.errors:", "if False:",
           ("tests/test_cli.py::TestCommands::test_bad_grid_is_config_error[17]",
            "tests/test_cli.py::TestCommands::test_plan_error_is_config_error"
            "[closed-form-underflow]")),
    Mutant("sweep output labels of floats", "cli.py",
           'f"{x:g}" if isinstance(x, float)', "repr(x) if isinstance(x, float)",
           ("tests/test_cli.py::TestCommands::test_colliding_sweep_labels_are_config_error"
            "[fig56-rounded]",)),
    Mutant("array nearest harmonic's tie rule", "analytic.py",
           "tie = x - lo == 0.5", "tie = x - lo >= 0.5",
           ("tests/test_analytic.py::TestModulatedIncrements"
            "::test_array_tie_and_neighbour_harmonic",)),
)


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(copy: Path, tests) -> subprocess.CompletedProcess:
    """The tests on ``copy``, with its src first on the import path; the
    returncode is None when the run timed out."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        return subprocess.CompletedProcess(command, None, exc.stdout or "", exc.stderr or "")


def _tail(run: subprocess.CompletedProcess, lines: int = 15) -> str:
    return "\n".join((run.stdout + run.stderr).splitlines()[-lines:])


def _stale(mutants) -> list[str]:
    """Entries whose snippet does not occur exactly once in their module."""
    out = []
    for m in mutants:
        path = ROOT / "src" / "feberi" / m.module
        count = path.read_text(encoding="utf-8").count(m.snippet) if path.exists() else 0
        if count != 1:
            out.append(f"STALE    {m.name}: snippet found {count} times in {m.module}")
    return out


def _run_mutant(m: Mutant) -> tuple[bool, str]:
    """(killed, report line) of one entry, on a fresh mutated copy."""
    with tempfile.TemporaryDirectory(prefix="feberi-mutant-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        path = copy / "src" / "feberi" / m.module
        path.write_text(path.read_text(encoding="utf-8").replace(m.snippet, m.replacement),
                        encoding="utf-8")
        start = time.perf_counter()
        run = _pytest(copy, m.tests)
    took = f"({time.perf_counter() - start:.1f} s)"
    if run.returncode == 1:
        return True, f"killed   {m.name} {took}"
    if run.returncode is None:
        return True, f"killed   {m.name}: timed out after {TIMEOUT_S} s"
    if run.returncode == 0:
        return False, f"SURVIVED {m.name} {took}"
    return False, f"ERROR    {m.name}: pytest exit {run.returncode} {took}\n{_tail(run)}"


def main(names) -> int:
    mutants = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 1
    stale = _stale(mutants)
    if stale:
        print("\n".join(stale))
        return 1
    tests = list(dict.fromkeys(t for m in mutants for t in m.tests))
    with tempfile.TemporaryDirectory(prefix="feberi-unmutated-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        probe = subprocess.run(
            [sys.executable, "-c", "import importlib.util as u; print(u.find_spec('feberi').origin)"],
            cwd=copy, env=dict(os.environ, PYTHONPATH=str(copy / "src")),
            capture_output=True, text=True)
        if not probe.stdout.startswith(str(copy)):
            print(f"the copy's feberi is not the one imported: {probe.stdout or probe.stderr}")
            return 1
        baseline = _pytest(copy, tests)
    if baseline.returncode != 0:
        print(f"the named tests fail unmutated (pytest exit {baseline.returncode}):\n"
              f"{_tail(baseline)}")
        return 1
    print(f"unmutated: {len(tests)} tests pass")
    with ThreadPoolExecutor(max_workers=PARALLEL) as pool:
        results = list(pool.map(_run_mutant, mutants))
    for _, line in results:
        print(line)
    killed = sum(k for k, _ in results)
    print(f"{killed} of {len(results)} mutants killed")
    return 0 if killed == len(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
