import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from feberi import analytic, born_dynamics as bd, cli, grid, qew, scenarios, \
    solver_density as sd
from feberi.cli import ConfigError, default_config
from feberi.core import HBAR_EV_FS, TWO_PI, TlsState, wrap_phase
from feberi.coulomb import DipoleCoupling
from feberi.grid import interaction_window
from feberi.scenarios import _fig56_block, physics_bundle, plan, run_scenario, window_factors


def test_default_config_unknown_scenario():
    with pytest.raises(ConfigError):
        default_config("fig99")


def small_resonance_config(detunings):
    """modulated_resonance shrunk as in the golden lock: b = 9.6 nm, harmonic 1."""
    cfg = default_config("modulated_resonance")
    cfg["physics"]["impact_parameter_nm"] = 9.6
    cfg["sweep"].update({"harmonic": 1, "envelope_sigma_et_fs": 2.5, "scan_points": 11,
                         "spot_check_detunings": detunings})
    return cfg


@pytest.mark.parametrize("detunings", [[0.0, 1.0], [1.0, -0.5, 0.0], None],
                         ids=["small", "small-unsorted", "default"])
def test_spot_checks_share_one_profile(monkeypatch, detunings):
    # one profile per run, on the largest spot check's omega_21 (the finest step any
    # check needs); each check's Born increment equals a profile built for its own
    cfg = default_config("modulated_resonance") if detunings is None \
        else small_resonance_config(detunings)
    kin, tls0, geo, _ = physics_bundle(cfg)

    def coupling_at(w21):
        return DipoleCoupling(replace(tls0, energy_gap=w21 * HBAR_EV_FS), geo, kin)

    build = bd.modulated_interaction_profile
    calls = counted(monkeypatch, bd, "modulated_interaction_profile")
    spots = run_scenario(cfg).summary["born_spot_checks"]
    assert len(spots) == len(cfg["sweep"]["spot_check_detunings"])
    largest = coupling_at(max(s["omega_21"] for s in spots)).tls.omega_21
    assert [args[5] for args in calls] == [largest]

    spectrum = scenarios.bunched_spectrum(cfg, kin, tls0)
    for spot in spots:
        coupling = coupling_at(spot["omega_21"])
        prof = build(coupling, cfg["sweep"]["envelope_sigma_et_fs"], spectrum, 0.0, 0.0,
                     coupling.tls.omega_21, max_harmonic=cfg["sweep"]["harmonic"] + 6,
                     **scenarios.profile_grid_args(cfg))
        traj = bd.evolve_tls(TlsState.ground(), prof, coupling.tls.omega_21)
        assert spot["born_dp2"] == float(traj.p2[-1])

    calls.clear()
    cfg["sweep"]["born_check"] = False
    assert run_scenario(cfg).summary["born_spot_checks"] == []
    assert calls == []


def per_zeta_increments(cfg, packet):
    """fig56's increments at one Gamma, whose packet of the plan of ``cfg`` is
    ``packet``, by one propagation per zeta."""
    kin, tls, geo, coupling = physics_bundle(cfg)
    window = interaction_window(packet.spec.sigma_et, geo.transit_time, 0.0,
                                **window_factors(cfg))
    out = []
    for zeta in fig56_zetas(cfg):
        traj = sd.run_qew_interaction(packet, TlsState.equatorial(wrap_phase(-zeta)),
                                      coupling, tls, times=window)
        out.append(traj.p2[-1] - traj.p2[0])
    return out


def fig56_zetas(cfg):
    n_zeta = cfg["sweep"]["zeta_points"]
    return np.arange(n_zeta) / n_zeta * TWO_PI


def fig56_block(cfg, gammas):
    """(the plan of ``cfg`` at ``gammas``, fig56's block of increments at its packets)."""
    cfg["sweep"]["gamma_values"] = gammas
    planned = plan(cfg)
    return planned, _fig56_block(planned, planned.packets, fig56_zetas(cfg))


@pytest.mark.parametrize("orientation", ["transverse", "parallel"])
@pytest.mark.parametrize("gamma", [0.1, 1.2, 3.8])
def test_fig56_quadratic_form_equals_per_zeta_runs(orientation, gamma):
    cfg = default_config("fig56_phase_size_sweep")
    cfg["physics"]["orientation"] = orientation
    cfg["numerics"]["grid_points"] = 128
    cfg["sweep"]["zeta_points"] = 7
    planned, [got] = fig56_block(cfg, [gamma])
    np.testing.assert_allclose(got, per_zeta_increments(cfg, planned.packets[0]),
                               rtol=0, atol=1e-14)


def test_fig56_block_equals_one_gamma_blocks():
    # Gammas on three grids, two of them recoil-limited and sharing one: their
    # block of ten basis starts, each under its own grid's assembly and to its
    # own window end, gives each Gamma's one-Gamma increments
    cfg = default_config("fig56_phase_size_sweep")
    cfg["numerics"]["grid_points"] = 128
    cfg["sweep"]["zeta_points"] = 5
    planned, rows = fig56_block(cfg, [3.8, 0.1, 1.2, 0.6, 2.0])
    for packet, row in zip(planned.packets, rows):
        [alone] = _fig56_block(planned, [packet], fig56_zetas(cfg))
        np.testing.assert_allclose(row, alone, rtol=0, atol=1e-14)


def test_fig56_one_assembly_per_grid_and_one_block(monkeypatch):
    # the 9 default Gammas need 4 grids, every Gamma >= 0.9 recoil-limited:
    # one assembly per grid, and one block of all 18 basis starts
    cfg = default_config("fig56_phase_size_sweep")
    grids, blocks = [], []
    assemble, evolve = sd.assemble_hamiltonian, sd.evolve_vector

    def counted_assemble(grid, *args, **kwargs):
        grids.append(grid)
        return assemble(grid, *args, **kwargs)

    def counted_evolve(psi0, h, t):
        blocks.append([grids.index(a.grid) for a in h])
        return evolve(psi0, h, t)

    monkeypatch.setattr(sd, "assemble_hamiltonian", counted_assemble)
    monkeypatch.setattr(sd, "evolve_vector", counted_evolve)
    summary = run_scenario(cfg).summary
    assert len(grids) == len(set(grids)) == 4
    # rows in Gamma order, two per Gamma: 0.1, 0.3 and 0.6 on grids of their
    # own, then 0.9 .. 3.8 on the recoil-limited one
    assert blocks == [[0, 0, 1, 1, 2, 2] + [3] * 12]
    assert summary["fit_residual_over_peak"] <= 0.10


def test_fig56_rows_follow_gamma_not_config_order(tmp_path):
    # the plan lists the packets in config order, the run writes its rows in
    # rising Gamma: a shuffled gamma_values writes the defaults' files
    cfg = default_config("fig56_phase_size_sweep")
    shuffled = default_config("fig56_phase_size_sweep")
    shuffled["sweep"]["gamma_values"] = [2.8, 0.1, 1.5, 0.6, 3.8, 0.3, 2.0, 0.9, 1.2]
    assert sorted(shuffled["sweep"]["gamma_values"]) == cfg["sweep"]["gamma_values"]
    out = {}
    for name, config in (("sorted", cfg), ("shuffled", shuffled)):
        result = run_scenario(config)
        out[name] = {p.name: p.read_bytes() for p in cli.write_result(result, tmp_path / name)
                     if p.suffix in (".csv", ".svg")}
        out[name]["summary"] = result.summary
    assert out["shuffled"] == out["sorted"]


@pytest.mark.parametrize("scenario", ["fig3_ground", "fig4_superposition",
                                      "fig56_phase_size_sweep", "solver_crosscheck"])
def test_grid_scenarios_size_nothing_after_the_plan(monkeypatch, scenario):
    # the plan's packets hold every grid and window a grid run uses: with the
    # grid and window rules raising wherever a feberi module holds them, a run
    # from the plan still ends, with the unpatched run's summary
    cfg = default_config(scenario)
    cfg["numerics"]["grid_points"] = 128
    planned = plan(cfg)
    assert not planned.errors
    want = run_scenario(cfg, plan=planned).summary

    def refuse(*args, **kwargs):
        raise AssertionError("sized after the plan")

    rules = (qew.grid_for_spec, grid.interaction_window)
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "feberi"]:
        for attr, value in list(vars(module).items()):
            if any(value is rule for rule in rules):
                monkeypatch.setattr(module, attr, refuse)
    with pytest.raises(AssertionError, match="sized after the plan"):
        plan(cfg)
    assert run_scenario(cfg, plan=planned).summary == want


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
        cfg = small_resonance_config([0.0])
        cfg["numerics"]["profile_points_per_scale"] = pps
        spots[pps] = run_scenario(cfg).summary["born_spot_checks"][0]
    assert spots[50]["born_dp2"] != spots[100]["born_dp2"]
    for spot in spots.values():
        assert abs(spot["born_dp2"] / spot["analytic_dp2"] - 1.0) <= 0.15


def counted(monkeypatch, module, name):
    """Replace module.name by a wrapper that appends each call's arguments."""
    calls = []
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_fig9_one_window_per_run(monkeypatch):
    # both trains, 20 locked electrons and 256 random schedules, share one
    # profile and one window propagator
    profiles = counted(monkeypatch, bd, "interaction_profile")
    propagators = counted(monkeypatch, bd, "window_propagator")
    summary = run_scenario(default_config("fig9_buildup")).summary
    assert (len(profiles), len(propagators)) == (1, 1)
    assert summary["quadratic_r_squared"] >= 0.99


def test_modulated_resonance_one_spectrum_per_run(monkeypatch):
    # the scans, the three default Born spot checks and the bunch width all
    # read the one extracted spectrum
    spectra = counted(monkeypatch, scenarios, "modulation_fourier_coefficients")
    cfg = default_config("modulated_resonance")
    summary = run_scenario(cfg).summary
    assert len(summary["born_spot_checks"]) == len(cfg["sweep"]["spot_check_detunings"]) == 3
    assert len(spectra) == 1


def test_modulated_resonance_raises_no_warning():
    # the default scan and its three Born spot checks, with every warning an error
    cfg = default_config("modulated_resonance")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(run_scenario(cfg).summary["born_spot_checks"]) == 3


def test_modulated_scan_equals_one_call_per_point():
    # the scan's one array call per harmonic against one scalar call per default
    # scan point, each on a coupling built at that point's gap; dp1 on an
    # equatorial state with arrival and modulation phases
    cfg = default_config("modulated_resonance")
    cfg["sweep"]["born_check"] = False
    planned = scenarios.plan(cfg)
    kin, tls0, geo, coupling = planned.physics
    spectrum, sigma = planned.spectrum, cfg["sweep"]["envelope_sigma_et_fs"]
    series = {s.name: s.columns for s in run_scenario(cfg).series}
    detuning = np.array(scenarios.resonance_scan(cfg["sweep"])[0])
    state = TlsState.equatorial(0.7)
    assert len(cfg["sweep"]["scan_harmonics"]) == 3
    for n_h in cfg["sweep"]["scan_harmonics"]:
        w_scan = n_h * spectrum.omega_b + detuning
        dp2 = series[f"scan_harmonic_{n_h}"]["dP2_analytic"]
        inc = analytic.modulated_increments(coupling, kin, spectrum, sigma, w_scan,
                                            state, 0.3, 0.8)
        for k, w21 in enumerate(w_scan):
            point = DipoleCoupling(replace(tls0, energy_gap=w21 * HBAR_EV_FS), geo, kin)
            ground = analytic.modulated_increments(point, kin, spectrum, sigma, w21,
                                                   TlsState.ground(), 0.0, 0.0)
            one = analytic.modulated_increments(point, kin, spectrum, sigma, w21,
                                                state, 0.3, 0.8)
            assert ground.dp2 == pytest.approx(dp2[k], rel=1e-14)
            assert one.dp2 == pytest.approx(inc.dp2[k], rel=1e-14)
            assert one.dp1 == pytest.approx(inc.dp1[k], rel=1e-14,
                                            abs=1e-14 * np.max(np.abs(inc.dp1)))


def test_born_step_products_memory(monkeypatch):
    # the benchmark's modulated_resonance spot check (b = 9.6 nm, zero
    # detuning): evolve_tls on its 183k-sample profile builds step pairs
    # chunk by chunk, so it holds no full-length complex drive array
    peaks = []
    evolve = bd.evolve_tls

    def traced(state0, profile, omega_21, *args):
        tracemalloc.start()
        try:
            out = evolve(state0, profile, omega_21, *args)
            peaks.append((len(profile.values), tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
        return out

    monkeypatch.setattr(bd, "evolve_tls", traced)
    cfg = default_config("modulated_resonance")
    cfg["physics"]["impact_parameter_nm"] = 9.6
    cfg["sweep"]["spot_check_detunings"] = [0.0]
    run_scenario(cfg)
    [(samples, peak)] = peaks
    assert samples == 183275
    assert peak <= 6 * 2**20


def test_planned_counts_equal_actual_counts(monkeypatch, tmp_path):
    # the default crosscheck's planned RK4 schedule gives its CSV rows and its
    # step; fig56's planned states are the rows of its one propagated block
    cfg = default_config("solver_crosscheck")
    plan = scenarios.plan(cfg)
    assert plan.schedule == (1101, 3)
    result = run_scenario(cfg, plan=plan)
    cli.write_result(result, tmp_path)
    rows = (tmp_path / "results_crosscheck.csv").read_text().splitlines()[1:]
    assert len(rows) == plan.states == 368
    start, end = plan.packets[0].window
    assert result.summary["time_step_fs"] == (end - start) / 1101

    blocks = []
    evolve = sd.evolve_vector

    def counted_evolve(psi0, h, t):
        blocks.append(len(psi0))
        return evolve(psi0, h, t)

    monkeypatch.setattr(sd, "evolve_vector", counted_evolve)
    cfg = default_config("fig56_phase_size_sweep")
    plan = scenarios.plan(cfg)
    run_scenario(cfg, plan=plan)
    assert blocks == [plan.states] == [18]
