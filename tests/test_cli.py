import json

import numpy as np
import pytest

from feberi.cli import ConfigError, load_config, main
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

    @pytest.mark.parametrize("scenario, section, entry", [
        ("fig9_buildup", "sweep", "ensemble_seeds = 0"),
        ("fig56_phase_size_sweep", "sweep", "zeta_points = 0"),
        ("fig3_ground", "sweep", "sigma_et_over_period ="),
        ("fig8_single_point", "physics", "impact_parameter_nm = nan"),
        ("fig8_single_point", "numerics", "profile_points_per_scale = 0"),
        ("fig8_single_point", "physics", "energy_gap_ev = -1"),
        ("fig8_single_point", "physics", "beam_energy_kev = 0"),
        ("fig9_buildup", "sweep", "correlated_electrons = 0"),
    ])
    def test_out_of_range_value_is_config_error(self, tmp_path, caplog, scenario,
                                                section, entry):
        out = tmp_path / "o"
        text = (f"[run]\nscenario = {scenario}\noutput_dir = {out}\n\n"
                f"[{section}]\n{entry}\n")
        assert main(["run", str(write(tmp_path, text))]) == 2
        assert f":6: [{section}] {entry.split()[0]}: " in caplog.text
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_summary_not_written(self, tmp_path, caplog):
        # one scan point leaves the resonance-width fit undefined (NaN)
        out = tmp_path / "o"
        text = ("[run]\nscenario = modulated_resonance\n"
                f"output_dir = {out}\n\n"
                "[sweep]\nscan_points = 1\nborn_check = false\n")
        assert main(["run", str(write(tmp_path, text))]) == 3
        assert "non-finite" in caplog.text
        assert not out.exists()

    def test_window_factors_honoured_by_fig8(self, tmp_path):
        out = tmp_path / "o"
        text = ("[run]\nscenario = fig8_single_point\n"
                f"output_dir = {out}\n\n"
                "[numerics]\nwindow_transit_factor = 5\n")
        assert main(["run", str(write(tmp_path, text))]) == 0
        data = json.loads((out / "summary.json").read_text())
        assert data["summary"]["norm_drift"] < 1e-6

    def test_removed_convention_keys_rejected(self, tmp_path):
        for key in ("transform_convention = reduced", "prefactor_convention = two_pi"):
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
