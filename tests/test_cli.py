import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import feberi
from feberi import cli, plotsvg, scenarios
from feberi.cli import ConfigError, load_config, main
from feberi.core import DomainError
from feberi.scenarios import SCENARIOS
from feberi.solver_density import read_rho_b_bin


def write(tmp_path, text, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


MINIMAL = """\
[run]
scenario = fig8_single_point
output_dir = {out}
"""


class TestConfigParsing:
    def test_defaults_are_reference_parameters(self, tmp_path):
        cfg = load_config(write(tmp_path, MINIMAL.format(out=tmp_path)))
        phys = cfg["physics"]
        assert phys["beam_energy_kev"] == 200.0
        assert phys["impact_parameter_nm"] == 2.4
        assert phys["energy_gap_ev"] == 2.0
        assert phys["dipole_debye"] == 5.0
        assert phys["orientation"] == "transverse"
        assert cfg["numerics"]["grid_points"] == 256
        assert cfg["run"]["seed"] == 12345

    def test_unknown_key_reports_line(self, tmp_path):
        text = "[run]\nscenario = fig3_ground\n\n[physics]\nbogus = 1\n"
        with pytest.raises(ConfigError, match=r":5: unknown key 'bogus'"):
            load_config(write(tmp_path, text))

    def test_unknown_section(self, tmp_path):
        text = "[run]\nscenario = fig3_ground\n\n[extras]\nx = 1\n"
        with pytest.raises(ConfigError, match=r"unknown section"):
            load_config(write(tmp_path, text))

    def test_unknown_scenario(self, tmp_path):
        text = "[run]\nscenario = warp_drive\n"
        with pytest.raises(ConfigError, match="unknown scenario"):
            load_config(write(tmp_path, text))

    def test_bad_value_reports_location(self, tmp_path):
        text = "[run]\nscenario = fig3_ground\nseed = pi\n"
        with pytest.raises(ConfigError, match=r":3:"):
            load_config(write(tmp_path, text))

    def test_scenario_specific_keys(self, tmp_path):
        # a fig9 key is rejected for fig3
        text = "[run]\nscenario = fig3_ground\n\n[sweep]\nensemble_seeds = 4\n"
        with pytest.raises(ConfigError, match="unknown key 'ensemble_seeds'"):
            load_config(write(tmp_path, text))

    def test_float_list_parsing(self, tmp_path):
        text = ("[run]\nscenario = fig3_ground\n\n[sweep]\n"
                "sigma_et_over_period = 0.1, 0.25 0.9\n")
        cfg = load_config(write(tmp_path, text))
        assert cfg["sweep"]["sigma_et_over_period"] == [0.1, 0.25, 0.9]


class TestCommands:
    def test_scenarios_listing(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("fig3_ground", "fig9_buildup", "solver_crosscheck"):
            assert name in out

    def test_config_error_exit_code(self, tmp_path):
        bad = write(tmp_path, "[run]\nscenario = nope\n")
        assert main(["run", str(bad)]) == 2
        assert main(["run", str(tmp_path / "missing.ini")]) == 2

    def test_numerical_error_exit_code(self, tmp_path):
        text = ("[run]\nscenario = fig8_single_point\n"
                f"output_dir = {tmp_path / 'o'}\n\n"
                "[numerics]\nprofile_points_per_scale = 10\n")   # profile too coarse
        assert main(["run", str(write(tmp_path, text))]) == 3

    def test_modulated_profile_too_coarse_exit_code(self, tmp_path, caplog):
        # the modulated Born spot checks obey the same profile resolution rule
        out = tmp_path / "o"
        text = ("[run]\nscenario = modulated_resonance\n"
                f"output_dir = {out}\n\n"
                "[numerics]\nprofile_points_per_scale = 10\n\n"
                "[sweep]\nscan_points = 11\nspot_check_detunings = 0\n")
        assert main(["run", str(write(tmp_path, text))]) == 3
        assert "profile step" in caplog.text
        assert not out.exists()

    def test_unwritable_output_dir_exit_code(self, tmp_path, caplog):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        out = blocker / "o"
        text = MINIMAL.format(out=out)
        assert main(["run", str(write(tmp_path, text))]) == 2
        assert f"cannot write results to {out}" in caplog.text

    def test_percent_in_value_is_literal(self, tmp_path):
        out = tmp_path / "out%1"
        cfg = write(tmp_path, MINIMAL.format(out=out))
        assert load_config(cfg)["run"]["output_dir"] == str(out)
        assert main(["validate", str(cfg)]) == 0

    def test_spot_check_that_does_not_run_is_not_refused(self, tmp_path):
        # with born_check = false no spot check runs, so none is refused at omega_21 <= 0
        text = ("[run]\nscenario = modulated_resonance\n\n"
                "[sweep]\nspot_check_detunings = -100\nborn_check = false\n")
        assert main(["validate", str(write(tmp_path, text))]) == 0

    def test_zeta_over_pi_is_reduced_mod_2(self, tmp_path):
        # zeta is 2 pi periodic: a huge finite zeta_over_pi runs, and 3 arrives as 1
        arrival = {}
        for zeta in ("1e308", "3", "1"):
            out = tmp_path / zeta
            text = (f"[run]\nscenario = fig4_superposition\noutput_dir = {out}\n\n"
                    "[numerics]\ngrid_points = 128\ntime_samples = 20\n\n"
                    f"[sweep]\nsigma_et_over_period = 0.1\nzeta_over_pi = {zeta}\n")
            assert main(["run", str(write(tmp_path, text))]) == 0
            summary = json.loads((out / "summary.json").read_text())["summary"]
            arrival[zeta] = summary["arrival_time_fs"]
        assert arrival["3"] == pytest.approx(arrival["1"], rel=0, abs=1e-12)

    @pytest.mark.parametrize("scenario, section, entry", [
        ("fig9_buildup", "sweep", "ensemble_seeds = 0"),
        ("fig56_phase_size_sweep", "sweep", "zeta_points = 0"),
        ("fig3_ground", "sweep", "sigma_et_over_period ="),
        ("fig8_single_point", "physics", "impact_parameter_nm = nan"),
        ("fig8_single_point", "numerics", "profile_points_per_scale = 0"),
        ("fig8_single_point", "physics", "energy_gap_ev = -1"),
        ("fig8_single_point", "physics", "beam_energy_kev = 0"),
        ("fig9_buildup", "sweep", "correlated_electrons = 0"),
        # omega_21 = gap/hbar + d/sigma_env < 0 at a spot check, and the harmonic-1
        # scan starting at omega_b - 2.4 rad/fs < 0
        ("modulated_resonance", "sweep", "spot_check_detunings = -100"),
        ("modulated_resonance", "sweep", "scan_halfwidth_inv_sigma = 12\nborn_check = false"),
        # scenarios that run only the first packet size
        ("fig8_single_point", "sweep", "sigma_et_over_period = 0.015, 0.3"),
        ("solver_crosscheck", "sweep", "sigma_et_over_period = 0.1, 0.3"),
        # correlated arrivals whose phase omega_21 t_N rounds by more than
        # 0.1 rad: at 2.25e14 the comb indices are still below 2^53, but the
        # buildup ratio reads 101 instead of 400; at 1e300 the draw overflows
        ("fig9_buildup", "sweep", "mean_spacing_periods = 1e13"),
        ("fig9_buildup", "sweep", "mean_spacing_periods = 2.25e14"),
        ("fig9_buildup", "sweep", "mean_spacing_periods = 1e300"),
    ])
    def test_out_of_range_value_is_config_error(self, tmp_path, caplog, scenario,
                                                section, entry):
        out = tmp_path / "o"
        text = (f"[run]\nscenario = {scenario}\noutput_dir = {out}\n\n"
                f"[{section}]\n{entry}\n")
        cfg = write(tmp_path, text)
        assert main(["validate", str(cfg)]) == 2
        assert main(["run", str(cfg)]) == 2
        assert caplog.text.count(f":6: [{section}] {entry.split()[0]}: ") == 2
        assert not out.exists()

    def test_fig9_spacing_below_the_phase_bound_keeps_its_lock(self, tmp_path):
        # 1e11 periods is below the comb-phase bound, and the phase-locked
        # train's N^2 buildup reads as at the default spacing of 3
        ratios = []
        for spacing in ("3", "1e11"):
            out = tmp_path / spacing
            text = (f"[run]\nscenario = fig9_buildup\noutput_dir = {out}\n\n"
                    f"[sweep]\nmean_spacing_periods = {spacing}\nensemble_seeds = 4\n")
            assert main(["run", str(write(tmp_path, text))]) == 0
            summary = json.loads((out / "summary.json").read_text())["summary"]
            ratios.append(summary["p2_ratio_20_over_1"])
        assert ratios[1] == pytest.approx(ratios[0], rel=1e-3)

    @pytest.mark.parametrize("scenario, impact_nm, error", [
        # solver_crosscheck at a 1 mm impact parameter needs 28.7M momentum RK4 steps
        ("solver_crosscheck", "1e6", "ERROR momentum RK4: 28670114 steps predicted, above "
                                     "the ceiling MAX_RK4_STEPS = 1048576"),
        # fig3 at 0.1 mm divides by a closed form that underflows to 0.0
        ("fig3_ground", "1e5", "ERROR closed form: P2 from ground = 0 underflows at "
                               "omega21 * t_r = 1048; lower impact_parameter_nm"),
    ], ids=["rk4-ceiling", "closed-form-underflow"])
    def test_plan_error_is_config_error(self, tmp_path, caplog, capsys, scenario, impact_nm,
                                        error):
        # validate flags what the run cannot do, and run refuses it before any work
        out = tmp_path / "o"
        text = (f"[run]\nscenario = {scenario}\noutput_dir = {out}\n\n"
                f"[physics]\nimpact_parameter_nm = {impact_nm}\n")
        cfg = write(tmp_path, text)
        assert main(["validate", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert error in lines
        assert lines[-1] != "valid"
        assert main(["run", str(cfg)]) == 2
        assert f"{cfg}: {error}" in caplog.text
        assert "running scenario" not in caplog.text
        assert not out.exists()
        with pytest.raises(DomainError, match=re.escape(f"{scenario} refused: {error}")):
            scenarios.run_scenario(load_config(cfg))    # the benchmark's path

    @pytest.mark.parametrize("scenario", ["modulated_resonance", "fig9_buildup"])
    @pytest.mark.parametrize("entries, line", [
        ("harmonic_order = 1", 6),               # below the default harmonic = 2
        ("harmonic = 40", 6),                    # above the default order
        ("harmonic = 3\nharmonic_order = 2", 7),
    ])
    def test_harmonic_order_below_harmonic_is_config_error(self, tmp_path, caplog,
                                                           scenario, entries, line):
        out = tmp_path / "o"
        text = (f"[run]\nscenario = {scenario}\noutput_dir = {out}\n\n"
                f"[sweep]\n{entries}\n")
        assert main(["run", str(write(tmp_path, text))]) == 2
        assert f":{line}: [sweep] harmonic_order: must be >= harmonic" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("entries, line", [
        ("scan_harmonics = 1, 2, 30", 6),        # above the default order 24
        ("harmonic_order = 3\nscan_harmonics = 1, 4", 7),
    ])
    def test_scan_harmonic_above_order_is_config_error(self, tmp_path, caplog, entries,
                                                       line):
        # both commands refuse what run would end in a NaN width for
        out = tmp_path / "o"
        text = (f"[run]\nscenario = modulated_resonance\noutput_dir = {out}\n\n"
                f"[sweep]\n{entries}\n")
        cfg = write(tmp_path, text)
        assert main(["validate", str(cfg)]) == 2
        assert main(["run", str(cfg)]) == 2
        rule = f":{line}: [sweep] scan_harmonics: must be <= harmonic_order"
        assert caplog.text.count(rule) == 2
        assert not out.exists()

    @pytest.mark.parametrize("grid_points", [17, 2, 4, 62])
    def test_bad_grid_is_config_error(self, tmp_path, caplog, grid_points):
        # the run applies validate's grid check before any solver sees the size
        out = tmp_path / "o"
        text = (f"[run]\nscenario = fig3_ground\noutput_dir = {out}\n\n"
                f"[numerics]\ngrid_points = {grid_points}\n")
        cfg = write(tmp_path, text)
        assert main(["run", str(cfg)]) == 2
        assert f"{cfg}: ERROR grid: grid size must be even and >= 64, got {grid_points}" \
            in caplog.text
        assert "running scenario" not in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("scenario", sorted(set(SCENARIOS) - {"fig3_ground"}))
    def test_dump_rho_b_without_dump_is_config_error(self, tmp_path, caplog, scenario):
        # only fig3_ground writes rho_b_*.bin; elsewhere the key would be ignored
        out = tmp_path / "o"
        text = (f"[run]\nscenario = {scenario}\noutput_dir = {out}\n\n"
                "[numerics]\ndump_rho_b = true\n")
        assert main(["run", str(write(tmp_path, text))]) == 2
        assert ":6: [numerics] dump_rho_b = True has no effect in scenario " \
            f"{scenario}; only fig3_ground uses it" in caplog.text
        assert not out.exists()

    def test_non_finite_summary_not_written(self, tmp_path, caplog, monkeypatch):
        # a scenario that ends with a NaN summary leaf is a numerical failure
        run = feberi.cli.run_scenario

        def nan_leaf(cfg, **kwargs):
            result = run(cfg, **kwargs)
            result.summary["plateau"] = float("nan")
            return result

        monkeypatch.setattr(feberi.cli, "run_scenario", nan_leaf)
        out = tmp_path / "o"
        assert main(["run", str(write(tmp_path, MINIMAL.format(out=out)))]) == 3
        assert "non-finite summary values at summary.plateau" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("points", [1, 2, 3, 4, 5])
    def test_scan_too_sparse_to_fit_is_config_error(self, tmp_path, caplog, points):
        # at the default half-width 4/sigma, up to four points leave at most
        # one squared detuning inside the fit's |detuning| <= 3/sigma: both
        # commands refuse what run would end in a NaN width; five points fit
        out = tmp_path / "o"
        text = (f"[run]\nscenario = modulated_resonance\noutput_dir = {out}\n\n"
                f"[sweep]\nscan_points = {points}\nborn_check = false\n")
        cfg = write(tmp_path, text)
        fits = points == 5
        assert main(["validate", str(cfg)]) == (0 if fits else 2)
        assert main(["run", str(cfg)]) == (0 if fits else 2)
        rule = (f":6: [sweep] scan_points = {points} over scan_halfwidth_inv_sigma = 4.0 "
                "leaves")
        assert caplog.text.count(rule) == (0 if fits else 2)
        assert out.exists() == fits
        if fits:
            widths = json.loads((out / "summary.json").read_text())["summary"]["fitted_widths"]
            assert all(np.isfinite(w["fitted_inv_e_halfwidth"]) for w in widths.values())

    @pytest.mark.parametrize("scenario, line, label", [
        ("fig56_phase_size_sweep", "gamma_values = 0.5, 0.5, 1.0", "0.5"),
        ("fig56_phase_size_sweep", "gamma_values = 0.5, 0.50000001, 1.0", "0.5"),
        ("fig3_ground", "sigma_et_over_period = 0.1, 0.1, 0.3", "0.1"),
        ("fig4_superposition", "sigma_et_over_period = 0.1, 0.1, 0.3", "0.1"),
        ("modulated_resonance", "scan_harmonics = 1, 1", "1"),
    ], ids=["fig56-equal", "fig56-rounded", "fig3", "fig4", "resonance"])
    def test_colliding_sweep_labels_are_config_error(self, tmp_path, caplog, scenario, line,
                                                     label):
        # each value names its own CSV, SVG and summary key ("{:g}" or str), so
        # two values of one label would write one run over the other
        out = tmp_path / "o"
        text = f"[run]\nscenario = {scenario}\noutput_dir = {out}\n\n[sweep]\n{line}\n"
        cfg = write(tmp_path, text)
        assert main(["validate", str(cfg)]) == 2
        assert main(["run", str(cfg)]) == 2
        key = line.split(" = ")[0]
        rule = f":6: [sweep] {key}: two values share the output label {label!r}"
        assert caplog.text.count(rule) == 2
        assert not out.exists()

    def test_writer_failing_midway_leaves_no_summary(self, tmp_path, caplog, monkeypatch):
        # a rerun whose plot cannot be written exits 2: the old summary.json is
        # gone, and no file is left under a temporary name
        out = tmp_path / "o"
        cfg = write(tmp_path, MINIMAL.format(out=out))
        assert main(["run", str(cfg)]) == 0
        assert (out / "summary.json").exists()

        def disk_full(path, *args):
            Path(path).write_text("<svg")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(plotsvg, "line_plot", disk_full)
        assert main(["run", str(cfg)]) == 2
        assert "No space left on device" in caplog.text
        assert sorted(p.name for p in out.iterdir()) == ["occupations.svg",
                                                         "results_occupations.csv"]

    def test_window_factors_honoured_by_fig8(self, tmp_path):
        out = tmp_path / "o"
        text = ("[run]\nscenario = fig8_single_point\n"
                f"output_dir = {out}\n\n"
                "[numerics]\nwindow_transit_factor = 5\n")
        assert main(["run", str(write(tmp_path, text))]) == 0
        data = json.loads((out / "summary.json").read_text())
        assert data["summary"]["norm_drift"] < 1e-6

    def test_removed_convention_keys_rejected(self, tmp_path):
        for key in ("transform_convention = reduced", "prefactor_convention = two_pi",
                    "assembly = dft", "integrator = euler"):
            text = f"[run]\nscenario = fig3_ground\n\n[numerics]\n{key}\n"
            assert main(["run", str(write(tmp_path, text))]) == 2

    def test_run_writes_files(self, tmp_path):
        out = tmp_path / "out"
        cfg = write(tmp_path, MINIMAL.format(out=out))
        assert main(["run", str(cfg)]) == 0
        assert (out / "summary.json").exists()
        assert (out / "results_occupations.csv").exists()
        svg = (out / "occupations.svg").read_text()
        assert svg.startswith("<svg")
        data = json.loads((out / "summary.json").read_text())
        assert data["metadata"]["derived"]["transit_time"]["value_as"] == \
            pytest.approx(8.2749, abs=1e-3)
        header = (out / "results_occupations.csv").read_text().splitlines()[0]
        assert header.split(",")[0] == "t [fs]"

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg = write(tmp_path, MINIMAL.format(out=out1))
        assert main(["run", str(cfg)]) == 0
        assert main(["run", str(cfg), "--out", str(out2)]) == 0
        b1 = (out1 / "results_occupations.csv").read_bytes()
        b2 = (out2 / "results_occupations.csv").read_bytes()
        assert b1 == b2

    def test_seed_override(self, tmp_path):
        out = tmp_path / "o"
        text = ("[run]\nscenario = fig9_buildup\n"
                f"output_dir = {out}\n\n[sweep]\n"
                "correlated_electrons = 5\nrandom_electrons = 10\n"
                "ensemble_seeds = 2\n")
        cfg = write(tmp_path, text)
        assert main(["run", str(cfg), "--seed", "777"]) == 0
        data = json.loads((out / "summary.json").read_text())
        assert data["metadata"]["config"]["run"]["seed"] == 777
        assert data["summary"]["ensemble_seeds"] == [1777, 2777]

    def test_negative_seed_override_is_config_error(self, tmp_path, caplog):
        # the override obeys the [run] seed rule, as the config key does
        out = tmp_path / "o"
        cfg = write(tmp_path, f"[run]\nscenario = fig9_buildup\noutput_dir = {out}\n")
        assert main(["run", str(cfg), "--seed", "-1"]) == 2
        assert "--seed: must be >= 0, got -1" in caplog.text
        assert not out.exists()

    def test_validate_reports(self, tmp_path, capsys):
        cfg = write(tmp_path, "[run]\nscenario = fig3_ground\n")
        assert main(["validate", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "valid" in out
        assert "Gamma" in out

    def test_validate_flags_odd_grid(self, tmp_path, capsys):
        text = ("[run]\nscenario = fig3_ground\n\n"
                "[numerics]\ngrid_points = 17\n")
        cfg = write(tmp_path, text)
        assert main(["validate", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "ERROR grid" in out
        assert "valid" not in out.splitlines()[-1]

    def test_validate_flags_wave_regime(self, tmp_path, capsys):
        text = ("[run]\nscenario = fig3_ground\n\n[sweep]\n"
                "sigma_et_over_period = 10\n")
        cfg = write(tmp_path, text)
        main(["validate", str(cfg)])
        out = capsys.readouterr().out
        assert "WARNING" in out and "wave" in out

    def test_validate_physics_error_exit_code(self, tmp_path, capsys):
        # gamma rounds to 1: no transit time, so no physics to validate; the
        # run of the same config exits 3 too
        text = ("[run]\nscenario = fig8_single_point\n"
                f"output_dir = {tmp_path / 'o'}\n\n"
                "[physics]\nbeam_energy_kev = 1e-300\n")
        cfg = write(tmp_path, text)
        assert main(["validate", str(cfg)]) == 3
        assert capsys.readouterr().out.startswith("ERROR physics: beta = 0")
        assert main(["run", str(cfg)]) == 3

    def test_validate_point_limit_builds_no_grid(self, tmp_path, capsys):
        # sigma_et = 0 is the point limit of fig8, which `run` completes: no
        # momentum grid is sized for it
        text = ("[run]\nscenario = fig8_single_point\n\n"
                "[sweep]\nsigma_et_over_period = 0\n")
        assert main(["validate", str(write(tmp_path, text))]) == 0
        out = capsys.readouterr().out
        assert "ERROR" not in out
        assert out.splitlines()[-1] == "valid"

    def test_validate_memory_estimate(self, tmp_path, capsys):
        # as many complex vectors as the largest propagation's states (or a
        # trajectory's kept orders, no more than its samples), plus one leg's
        # real Chebyshev tables of up to 2048 orders and the recurrence's 128
        # vectors: fig56's one block holds the 9 Gammas' two basis starts at
        # one time each; solver_crosscheck samples at the momentum RK4's 369
        # records, not at time_samples = 300
        for scenario, states, mb in (("fig56_phase_size_sweep", 18, 5),
                                     ("solver_crosscheck", 369, 22)):
            text = f"[run]\nscenario = {scenario}\n\n[numerics]\ngrid_points = 1024\n"
            assert main(["validate", str(write(tmp_path, text))]) == 0
            out = capsys.readouterr().out
            assert f"estimated peak memory: {mb} MB ({states} states or kept orders of 2048, " \
                   f"Chebyshev tables 2048 x {states}, recurrence 128 x 2048)" in out
            assert out.splitlines()[-1] == "valid"

    @pytest.mark.parametrize("n, frac, ok", [(128, 1.0, True), (128, 1.5, False),
                                             (128, 2.5, False), (256, 2.0, True)])
    def test_validate_resolution_guard(self, tmp_path, capsys, n, frac, ok):
        # the conjugate z-span must hold +-5 sigma_z0: sigma_p0/dp >= 0.80;
        # 0.85 passes, 0.57 is rejected (at 2.5 T21 the plateau was 89% off)
        text = ("[run]\nscenario = fig3_ground\n\n"
                f"[numerics]\ngrid_points = {n}\n\n[sweep]\nsigma_et_over_period = {frac}\n")
        assert main(["validate", str(write(tmp_path, text))]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert (lines[-1] == "valid") == ok
        flagged = [ln for ln in lines if ln.startswith("ERROR")]
        assert len(flagged) == (0 if ok else 1)
        for line in flagged:
            assert line.startswith(f"ERROR grid sizing at sigma_et={frac:g} T21: "
                                   f"{n} grid points under-resolve the packet")

    @pytest.mark.parametrize("frac, code", [(1.0, 0), (2.5, 2)])
    def test_run_resolution_guard(self, tmp_path, caplog, frac, code):
        # validate's ERROR grid sizing line is a config error of run
        out = tmp_path / "o"
        text = ("[run]\nscenario = fig3_ground\n"
                f"output_dir = {out}\n\n[numerics]\ngrid_points = 128\n"
                f"time_samples = 20\n\n[sweep]\nsigma_et_over_period = {frac}\n")
        assert main(["run", str(write(tmp_path, text))]) == code
        assert out.exists() == (code == 0)
        assert ("under-resolve the packet" in caplog.text) == (code == 2)

    @pytest.mark.parametrize("scenario", ["fig9_buildup", "modulated_resonance"])
    def test_comb_without_bunch_refused(self, tmp_path, caplog, capsys, monkeypatch,
                                        scenario):
        # at modulation_g = 0.1 (|f_1| = 0.15) the bunched density never falls
        # to half its peak: there is no bunch width to report or train with.
        # validate flags it, and run refuses it before any resonance scan
        out = tmp_path / "o"
        cfg = write(tmp_path, f"[run]\nscenario = {scenario}\noutput_dir = {out}\n\n"
                              "[sweep]\nmodulation_g = 0.1\n")
        assert main(["validate", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        flagged = [ln for ln in lines if ln.startswith("ERROR")]
        assert len(flagged) == 1 and flagged[0].startswith("ERROR bunch width: ")
        assert "no half-maximum" in flagged[0]
        assert lines[-1] != "valid"

        def refuse(*args, **kwargs):
            raise AssertionError("resonance scan before the bunch width")

        monkeypatch.setattr(scenarios.analytic, "modulated_increments", refuse)
        assert main(["run", str(cfg)]) == 2
        assert not (out / "summary.json").exists()
        assert "no half-maximum" in caplog.text
        assert ("sigma_et_point_fs" in caplog.text) == (scenario == "fig9_buildup")
        assert ("sigma_et_point_fs" in flagged[0]) == (scenario == "fig9_buildup")

    def test_norm_drift_exit_code(self, tmp_path, caplog, monkeypatch):
        # a propagation that loses its norm is a numerical failure: exit 3,
        # nothing written
        from feberi import solver_density
        bounds = solver_density._spectral_bounds
        monkeypatch.setattr(solver_density, "_spectral_bounds",
                            lambda h: (bounds(h)[0], 0.5 * bounds(h)[1]))
        out = tmp_path / "o"
        text = ("[run]\nscenario = solver_crosscheck\n"
                f"output_dir = {out}\n\n[numerics]\ngrid_points = 64\n")
        assert main(["run", str(write(tmp_path, text))]) == 3
        assert "norm drifted" in caplog.text
        assert not out.exists()

    def test_rho_b_dump(self, tmp_path):
        out = tmp_path / "o"
        text = ("[run]\nscenario = fig3_ground\n"
                f"output_dir = {out}\n\n"
                "[numerics]\ngrid_points = 64\ndump_rho_b = true\n"
                "time_samples = 40\n\n"
                "[sweep]\nsigma_et_over_period = 0.1\n")
        assert main(["run", str(write(tmp_path, text))]) == 0
        dt, rho = read_rho_b_bin(out / "rho_b_sigma_0.1T21.bin")
        assert rho.shape == (40, 2, 2)
        np.testing.assert_allclose(np.trace(rho, axis1=1, axis2=2), 1.0, atol=1e-9)
        assert dt > 0.0


def test_entry_point_imports_no_heavy_scipy():
    # the CLI and the scenarios need only scipy.fft and scipy.special
    code = ("import sys, feberi.cli, feberi.scenarios; "
            "print(sorted(m for m in ('scipy.signal', 'scipy.linalg', 'scipy.stats') "
            "if m in sys.modules))")
    env = dict(os.environ)
    src = str(Path(feberi.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.strip() == "[]"


def reference_csv(columns) -> str:
    """The CSV text cell by cell: repr(float(v)) of a float scalar, str of any other."""
    def cell(v):
        return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
    rows = [list(columns), *zip(*(np.asarray(v).ravel() for v in columns.values()))]
    return "".join(",".join(map(cell, row)) + "\n" for row in rows)


def reference_svg_geometry(series):
    """The polyline points and x-tick positions of ``plotsvg.line_plot``, from
    limits over Python lists and the scalar pixel maps, one point at a time."""
    xs_all = [x for x, _, _ in series for x in x]
    ys_all = [y for _, y, _ in series for y in y]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + max(1e-30, abs(y_lo))
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    pw = plotsvg._W - plotsvg._ML - plotsvg._MR
    ph = plotsvg._H - plotsvg._MT - plotsvg._MB

    def sx(v):
        return plotsvg._ML + (v - x_lo) / (x_hi - x_lo) * pw

    def sy(v):
        return plotsvg._MT + ph - (v - y_lo) / (y_hi - y_lo) * ph

    points = [" ".join(f"{sx(float(a)):.2f},{sy(float(b)):.2f}" for a, b in zip(x, y))
              for x, y, _ in series]
    ticks = [f"{sx(t):.1f}" for t in plotsvg._ticks(x_lo, x_hi)]
    return points, ticks


def test_writer_bytes_equal_cell_by_cell_formatting(tmp_path):
    # float64 values whose shortest repr is long, tiny, huge or signed zero;
    # float32 values that widen; ints and bools; and a one-point series, whose
    # flat axes take the widening branches of line_plot
    n = 7
    wide = np.array([0.1, 1.0 / 3.0, -0.0, 5e-324, 1e16, -2.5e-7, 123456789.123456789])
    columns = {
        "x": wide,
        "f32": (np.arange(n, dtype=np.float32) * np.float32(0.1) - np.float32(0.25)),
        "i": np.arange(n, dtype=np.int64) * 7 - 20,
        "b": np.arange(n) % 3 == 0,
    }
    one = {"t": np.array([2.5]), "y": np.array([np.float32(0.3)]),
           "k": np.array([4], dtype=np.int32)}
    result = scenarios.ScenarioResult(
        series=[scenarios.SeriesData("mixed", columns, plot_x="x", plot_y=("f32", "i", "b")),
                scenarios.SeriesData("single", one, plot_x="t", plot_y=("y", "k"))],
        summary={"value": 1.5})
    cli.write_result(result, tmp_path)
    for s in result.series:
        assert (tmp_path / f"results_{s.name}.csv").read_bytes() == \
            reference_csv(s.columns).encode("utf-8")
        x = np.asarray(s.columns[s.plot_x], dtype=float)
        points, ticks = reference_svg_geometry(
            [(x, np.asarray(s.columns[y], dtype=float), y) for y in s.plot_y])
        svg = (tmp_path / f"{s.name}.svg").read_text(encoding="utf-8")
        assert re.findall(r'<polyline points="([^"]*)"', svg) == points
        ph = plotsvg._H - plotsvg._MT - plotsvg._MB
        assert re.findall(rf'<line x1="([^"]*)" y1="{plotsvg._MT + ph}"', svg) == ticks
