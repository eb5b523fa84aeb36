"""Named experiment scenarios: each runs a physics study end to end.

Scenario functions take an effective configuration dict (see feberi.cli for
parsing and defaults) and return a ScenarioResult of named data series plus
summary/fit numbers.  All randomness is seeded from config["run"]["seed"],
and identical configs reproduce identical outputs.
"""

from __future__ import annotations

import math
import sys
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from feberi import __version__, analytic, born_dynamics as bd, solver_density as sd, \
    solver_momentum as sm
from feberi.core import (
    HBAR_EV_FS,
    TWO_PI,
    DomainError,
    TlsSpec,
    TlsState,
    fs_to_attoseconds,
    kinematics_from_kev,
    wrap_phase,
)
from feberi.coulomb import DipoleCoupling
from feberi.grid import MomentumGrid
from feberi.qew import (
    GaussianQewSpec,
    ModulationSpectrum,
    Packet,
    ResolutionError,
    gamma_parameter,
    modulation_fourier_coefficients,
    optimally_drifted,
    packet_for_spec,
    tooth_sigma_et,
)


@dataclass
class SeriesData:
    """One output table plus an optional line-plot recipe."""

    name: str
    columns: dict[str, np.ndarray]
    plot_x: str = ""
    plot_y: tuple[str, ...] = ()
    title: str = ""
    xlabel: str = ""
    ylabel: str = ""


@dataclass
class ScenarioResult:
    series: list[SeriesData]
    summary: dict
    metadata: dict = field(default_factory=dict)


# -- shared construction -----------------------------------------------------------

def coupling_for(cfg: dict) -> DipoleCoupling:
    """The configured physics: beam, TLS, impact parameter and orientation."""
    phys = cfg["physics"]
    return DipoleCoupling(TlsSpec.from_lab(phys["energy_gap_ev"], phys["dipole_debye"]),
                          phys["impact_parameter_nm"],
                          kinematics_from_kev(phys["beam_energy_kev"]), phys["orientation"])


def window_factors(cfg: dict) -> dict:
    """The configured interaction-window factors, as keyword arguments."""
    num = cfg["numerics"]
    return {"transit_factor": num["window_transit_factor"],
            "sigma_factor": num["window_sigma_factor"]}


def profile_grid_args(cfg: dict) -> dict:
    """Keyword arguments of a Born profile grid: window factors and resolution."""
    return {**window_factors(cfg),
            "points_per_scale": cfg["numerics"]["profile_points_per_scale"]}


def bunched_spectrum(cfg: dict, coupling: DipoleCoupling) -> ModulationSpectrum:
    """Bunching harmonics of the configured modulated packet, with
    omega_b = omega_21 / harmonic and the optimal drift time."""
    sw = cfg["sweep"]
    omega_b = coupling.tls.omega_21 / sw["harmonic"]
    base = GaussianQewSpec.from_duration(coupling.kin, sw["envelope_sigma_et_fs"], t0=0.0)
    return modulation_fourier_coefficients(optimally_drifted(base, sw["modulation_g"], omega_b),
                                           sw["harmonic_order"])


def _fig4_start(cfg: dict, tls) -> tuple[float, TlsState, float]:
    """fig4's arrival phase zeta, its TLS start and the arrival time of its packets."""
    # zeta is 2 pi periodic: reduced mod 2 first, a huge zeta_over_pi stays finite
    zeta = math.fmod(cfg["sweep"]["zeta_over_pi"], 2.0) * math.pi
    phi = math.pi / 2.0
    return zeta, TlsState.equatorial(phi), wrap_phase(zeta + phi) / tls.omega_21


# -- the preflight plan ------------------------------------------------------------

@dataclass
class Plan:
    """What a run of a config builds, decided before any of its work."""

    coupling: DipoleCoupling         # coupling_for(cfg)
    states: int | None = None        # sampled states of the largest grid propagation
    packets: list[Packet] = field(default_factory=list)   # the grid scenarios' swept packets
    dt: float | None = None          # solver_crosscheck's momentum RK4 step, fs
    spectrum: ModulationSpectrum | None = None  # modulated_resonance's bunched spectrum
    bunch_sigma_et: float | None = None   # its bunch width, or fig9's point-packet duration
    p2_closed: float | None = None   # the closed-form P2 that fig3 and fig8 divide by
    errors: list[str] = field(default_factory=list)   # "ERROR ..." lines: the run refuses


def plan(cfg: dict) -> Plan:
    """Every sizing decision of a run of ``cfg``, with an ERROR line for each
    thing the run cannot do; builds no Hamiltonian and propagates nothing.
    Raises DomainError if the physics cannot be built."""
    out = Plan(coupling_for(cfg))
    coupling, kin, tls = out.coupling, out.coupling.kin, out.coupling.tls
    scenario, num, sweep = cfg["run"]["scenario"], cfg["numerics"], cfg["sweep"]
    try:
        MomentumGrid(n=num["grid_points"], p0=0.0, p_cutoff=1.0)
    except DomainError as exc:
        out.errors.append(f"ERROR grid: {exc}")
    sizes = []
    if scenario == "fig56_phase_size_sweep":      # one block, two basis starts per Gamma
        sizes = [(f"Gamma={g:g}", g / tls.omega_21) for g in sweep["gamma_values"]]
        out.states = 2 * len(sizes)
    elif scenario in ("fig3_ground", "fig4_superposition", "solver_crosscheck"):
        sizes = [(f"sigma_et={frac:g} T21", frac * tls.period)
                 for frac in sweep["sigma_et_over_period"]]
        out.states = num["time_samples"]
    t0 = _fig4_start(cfg, tls)[2] if scenario == "fig4_superposition" else 0.0
    for label, sigma in sizes:
        spec = GaussianQewSpec.from_duration(kin, sigma, t0=t0)
        try:
            out.packets.append(packet_for_spec(spec, coupling, num["grid_points"],
                                               **window_factors(cfg)))
        except DomainError as exc:
            out.errors.append(f"ERROR grid sizing at {label}: {exc}")
    if scenario == "solver_crosscheck" and out.packets:
        out.dt = sm.default_time_step(out.packets[0].grid, coupling)
        steps, every = sm.step_schedule(out.packets[0].window, out.dt, num["time_samples"])
        out.states = 1 + math.ceil(steps / every)
        if steps > sm.MAX_RK4_STEPS:
            out.errors.append(f"ERROR momentum RK4: {steps} steps predicted, above the "
                              f"ceiling MAX_RK4_STEPS = {sm.MAX_RK4_STEPS}")
    # fig9's point packet lasts sigma_et_point_fs, at 0 the bunch width
    if scenario == "modulated_resonance" or sweep.get("sigma_et_point_fs") == 0.0:
        try:
            out.spectrum = bunched_spectrum(cfg, coupling)
        except ResolutionError as exc:
            out.errors.append(f"ERROR bunching harmonics: {exc}")
        try:
            out.bunch_sigma_et = None if out.spectrum is None else tooth_sigma_et(out.spectrum)
        except ResolutionError as exc:
            hint = "" if scenario == "modulated_resonance" else \
                "; sigma_et_point_fs = 0 asks for that width: set sigma_et_point_fs > 0 " \
                "or raise modulation_g"
            out.errors.append(f"ERROR bunch width: {exc}{hint}")
    elif scenario == "fig9_buildup":
        out.bunch_sigma_et = sweep["sigma_et_point_fs"]
    # the point packet of fig8's one Born profile and of fig9's train window
    point = None
    if scenario == "fig8_single_point":
        point = sweep["sigma_et_over_period"][0] * tls.period
    elif scenario == "fig9_buildup":
        point = out.bunch_sigma_et
    if point is not None:
        try:
            bd.profile_time_grid(coupling, point, 0.0, **profile_grid_args(cfg))
        except DomainError as exc:
            out.errors.append(f"ERROR Born profile: {exc}")
    if scenario in ("fig3_ground", "fig8_single_point"):
        out.p2_closed = analytic.p2_from_ground(coupling)
        if out.p2_closed < sys.float_info.min:
            out.errors.append(
                f"ERROR closed form: P2 from ground = {out.p2_closed:.3g} underflows at "
                f"omega21 * t_r = {tls.omega_21 * coupling.transit_time:.4g}; lower "
                "impact_parameter_nm")
    return out


def _planned(cfg: dict, given: Plan | None) -> Plan:
    """``given``, or plan(cfg); a DomainError names its ERROR lines if it has any."""
    out = given or plan(cfg)
    if out.errors:
        raise DomainError(f"{cfg['run']['scenario']} refused: {'; '.join(out.errors)}")
    return out


def base_metadata(cfg: dict, coupling: DipoleCoupling) -> dict:
    kin, tls = coupling.kin, coupling.tls
    return {
        "tool_version": __version__,
        "config": cfg,
        "derived": {
            "gamma": kin.gamma,
            "beta": kin.beta,
            "v0_nm_fs": kin.v0,
            "omega_21_rad_fs": tls.omega_21,
            "period_t21_fs": tls.period,
            "transit_time": {
                "value_as": fs_to_attoseconds(coupling.transit_time),
                "definition": "r_perp / (c beta gamma)",
                "note": "a nominal 6 as is often quoted for 2.4 nm at 200 keV; "
                        "the constants give the value recorded here",
            },
        },
    }


# -- scenarios: one packet per size on the joint grid ----------------------------------

def _size_runs(cfg: dict, plan: Plan, state: TlsState):
    """(frac, sigma_et, trajectory, energy accounting, energy residual) of the
    plan's packets from the TLS ``state``, sampled at time_samples points across
    each window; the residual dE_F + E_gap dP2 is not yet balanced by the TLS."""
    num = cfg["numerics"]
    coupling = plan.coupling
    for frac, packet in zip(cfg["sweep"]["sigma_et_over_period"], plan.packets):
        traj = sd.run_qew_interaction(
            packet, state, coupling, times=np.linspace(*packet.window, num["time_samples"]),
            collect_rho_b=num["dump_rho_b"])
        acc = sd.energy_accounting(traj)
        resid = acc["delta_e_free"] + coupling.tls.energy_gap * (traj.p2 - traj.p2[0])
        yield frac, frac * coupling.tls.period, traj, acc, resid


def run_fig3_ground(cfg: dict, plan: Plan) -> ScenarioResult:
    """From-ground excitation for several packet durations: the final
    occupation is size independent and matches the closed form."""
    p2_ref = plan.p2_closed

    series = []
    plateaus = {}
    energy_resid = {}
    for frac, _, traj, acc, resid in _size_runs(cfg, plan, TlsState.ground()):
        series.append(SeriesData(
            name=f"sigma_{frac:g}T21",
            columns={
                "t [fs]": traj.times,
                "P1": traj.p1,
                "P2": traj.p2,
                "dE_F [eV]": acc["delta_e_free"],
                "dE_I [eV]": acc["delta_e_int"],
                "energy_residual [eV]": resid,
            },
            plot_x="t [fs]", plot_y=("P2",),
            title=f"Upper-level occupation, sigma_et = {frac:g} T21",
            xlabel="t [fs]", ylabel="P2"))
        plateaus[f"{frac:g}"] = float(traj.p2[-1])
        energy_resid[f"{frac:g}"] = float(np.max(np.abs(resid)))
        if traj.rho_b is not None:
            series[-1].columns["_rho_b"] = traj.rho_b  # handled by the writer

    vals = np.array(list(plateaus.values()))
    summary = {
        "analytic_p2_from_ground": p2_ref,
        "plateau_p2": plateaus,
        "max_rel_dev_from_analytic": float(np.max(np.abs(vals / p2_ref - 1.0))),
        "mutual_spread": float((vals.max() - vals.min()) / vals.mean()),
        "max_energy_residual_ev": energy_resid,
    }
    return ScenarioResult(series=series, summary=summary)


def run_fig4_superposition(cfg: dict, plan: Plan) -> ScenarioResult:
    """Superposition start: the increment decays with packet size and the
    energy balance is violated only transiently."""
    coupling = plan.coupling
    zeta, state, t0 = _fig4_start(cfg, coupling.tls)

    series = []
    increments = {}
    transients = {}
    final_resid = {}
    for frac, sigma, traj, acc, resid in _size_runs(cfg, plan, state):
        series.append(SeriesData(
            name=f"sigma_{frac:g}T21",
            columns={
                "t [fs]": traj.times,
                "P2": traj.p2,
                "dP2": traj.p2 - traj.p2[0],
                "dE_F [eV]": acc["delta_e_free"],
                "dE_I [eV]": acc["delta_e_int"],
                "energy_residual [eV]": resid,
            },
            plot_x="t [fs]", plot_y=("dP2",),
            title=f"Superposition increment, sigma_et = {frac:g} T21, zeta = "
                  f"{zeta / math.pi:g} pi",
            xlabel="t [fs]", ylabel="dP2"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", analytic.RegimeWarning)
            # net second order = (p1 - p2) * single-electron rate: upward
            # gain from c1 minus stimulated downward loss from c2
            pred = analytic.dp1_superposition(coupling, state, t0, sigma) \
                + (abs(state.c1) ** 2 - abs(state.c2) ** 2) \
                * analytic.dp2_born(coupling, sigma)
        increments[f"{frac:g}"] = {
            "numeric": float(traj.p2[-1] - traj.p2[0]),
            "analytic": pred,
        }
        transients[f"{frac:g}"] = float(np.max(np.abs(resid)))
        final_resid[f"{frac:g}"] = float(np.abs(resid[-1]))
    summary = {
        "zeta": zeta,
        "arrival_time_fs": t0,
        "increments": increments,
        "transient_energy_residual_max_ev": transients,
        "final_energy_residual_ev": final_resid,
    }
    return ScenarioResult(series=series, summary=summary)


# -- scenario: arrival-phase x size sweep ----------------------------------------------

def _fig56_block(plan: Plan, packets: list[Packet], zetas: np.ndarray) -> np.ndarray:
    """(len(packets), len(zetas)) increments: a zeta's final P2 is the upper-level row
    of its packet's window channel (``sd.grid_windows``, one block) on vec(c c^dagger)."""
    windows = sd.grid_windows(packets, plan.coupling)
    states = [TlsState.equatorial(wrap_phase(-zeta)) for zeta in zetas]   # t0 = 0: zeta = -phi
    c = np.array([[s.c1, s.c2] for s in states])
    rho = (c[:, :, None] * c[:, None].conj()).reshape(-1, 4)     # row-major vec(c c^dagger)
    return np.real(np.array([w.channel[3] for w in windows]) @ rho.T) - [s.p2 for s in states]


def run_fig56_phase_size_sweep(cfg: dict, plan: Plan) -> ScenarioResult:
    """Increment vs (arrival phase, packet size): sinusoidal in zeta with an
    exp(-Gamma^2/2) envelope; fits the two-term law."""
    coupling = plan.coupling
    n_zeta = cfg["sweep"]["zeta_points"]
    zetas = np.arange(n_zeta) / n_zeta * TWO_PI

    # the rows in rising Gamma, the plan's packets in config order
    by_gamma = sorted(zip(cfg["sweep"]["gamma_values"], plan.packets), key=lambda row: row[0])
    table = _fig56_block(plan, [packet for _, packet in by_gamma], zetas)   # (n_gamma, n_zeta)
    g_arr = np.array([gamma for gamma, _ in by_gamma])

    # least-squares fit dp(gamma, zeta) = A e^{-G^2/2} sin z + B e^{-G^2}
    basis_a = np.exp(-0.5 * g_arr**2)[:, None] * np.sin(zetas)[None, :]
    basis_b = np.exp(-g_arr**2)[:, None] * np.ones_like(zetas)[None, :]
    design = np.stack([basis_a.ravel(), basis_b.ravel()], axis=1)
    coef, *_ = np.linalg.lstsq(design, table.ravel(), rcond=None)
    model = (design @ coef).reshape(table.shape)
    peak = float(np.max(np.abs(table)))
    resid = float(np.max(np.abs(table - model)))

    slice_r2 = {}
    for i, g in enumerate(g_arr):
        amp = float(np.sum(table[i] * np.sin(zetas)) / np.sum(np.sin(zetas) ** 2))
        off = float(np.mean(table[i] - amp * np.sin(zetas)))
        slice_r2[f"{g:g}"] = bd.r_squared(table[i], amp * np.sin(zetas) + off)

    # predicted A: first-order increment of an equal superposition at
    # zeta = pi/2 and vanishing size
    amp_pred = analytic.dp1_superposition(
        coupling, TlsState.equatorial(0.0), math.pi / 2 / coupling.tls.omega_21, 0.0)
    max_by_gamma = np.max(np.abs(table), axis=1)
    columns = {"zeta [rad]": zetas, **{f"dP2 (Gamma={g:g})": row for g, row in zip(g_arr, table)}}
    series = [SeriesData(
        name="phase_size_sweep", columns=columns, plot_x="zeta [rad]",
        plot_y=tuple(k for k in columns if k.startswith("dP2")),
        title="Increment vs arrival phase", xlabel="zeta [rad]", ylabel="dP2")]
    summary = {
        "fit_amplitude_A": float(coef[0]),
        "fit_offset_B": float(coef[1]),
        "analytic_amplitude": amp_pred,
        "fit_residual_over_peak": resid / peak,
        "zeta_slice_r_squared": slice_r2,
        "enhancement_ratio_small_over_large_sigma": float(max_by_gamma[0] / max_by_gamma[-1]),
    }
    return ScenarioResult(series=series, summary=summary)


# -- scenario: modulated-packet resonance ------------------------------------------------

def resonance_scan(sweep: dict, index=None) -> tuple[list[float], list[bool]]:
    """Detunings from a harmonic, rad/fs, of the scan points ``index`` (all
    by default), and the width fit's mask on them.

    The scan is np.linspace(-span, span, scan_points), span =
    scan_halfwidth_inv_sigma / sigma_env, evaluated point by point as
    linspace evaluates it, so that a config check reads a few points in
    plain floats.  The fit keeps |detuning| <= 3/sigma_env, where the
    harmonic dominates, well short of the midpoint to the next harmonic.
    """
    sigma_env = sweep["envelope_sigma_et_fs"]
    span = sweep["scan_halfwidth_inv_sigma"] / sigma_env
    last = sweep["scan_points"] - 1
    step = 2.0 * span / max(last, 1)
    detuning = [span if i == last > 0 else i * step - span
                for i in (range(last + 1) if index is None else index)]
    return detuning, [abs(d) * sigma_env <= 3.0 for d in detuning]


def run_modulated_resonance(cfg: dict, plan: Plan) -> ScenarioResult:
    """Second-order increment vs TLS frequency: Gaussian peaks at the
    bunching harmonics with 1/e half-width 1/sigma_et."""
    coupling0 = plan.coupling
    sw = cfg["sweep"]
    sigma_env = sw["envelope_sigma_et_fs"]
    spectrum = plan.spectrum

    def coupling_at(w21: float) -> DipoleCoupling:
        return replace(coupling0, tls=replace(coupling0.tls, energy_gap=w21 * HBAR_EV_FS))

    def analytic_dp2(w21):
        return analytic.modulated_increments(coupling0, spectrum, sigma_env, w21,
                                             TlsState.ground(), 0.0, 0.0).dp2

    series = []
    widths = {}
    detuning, mask = map(np.array, resonance_scan(sw))
    for n_h in sw["scan_harmonics"]:
        center = n_h * spectrum.omega_b
        w_scan = center + detuning
        dp2 = analytic_dp2(w_scan)
        # ln dp2 = const - (w - center)^2 sigma_fit^2 -> 1/e halfwidth = 1/sigma_fit
        x = (w_scan[mask] - center) ** 2
        y = np.log(dp2[mask])
        slope = float(np.sum((x - x.mean()) * (y - y.mean())) / np.sum((x - x.mean()) ** 2))
        widths[str(n_h)] = {
            "fitted_inv_e_halfwidth": 1.0 / math.sqrt(-slope),
            "expected": 1.0 / sigma_env,
            "peak_dp2": float(dp2.max()),
            "f_n_abs": abs(spectrum.coefficient(n_h)),
        }
        series.append(SeriesData(
            name=f"scan_harmonic_{n_h}",
            columns={"omega_21 [rad/fs]": w_scan, "dP2_analytic": dp2},
            plot_x="omega_21 [rad/fs]", plot_y=("dP2_analytic",),
            title=f"Resonance at harmonic {n_h}", xlabel="omega_21 [rad/fs]",
            ylabel="dP2"))

    spots = []
    if sw["born_check"]:
        # omega_21 enters a profile only through its step, min(T21, 2 pi/omega_top) /
        # points_per_scale: the largest spot omega_21 gives the finest step any needs
        w_spots = [sw["harmonic"] * spectrum.omega_b + d / sigma_env
                   for d in sw["spot_check_detunings"]]
        finest = coupling_at(max(w_spots))
        prof = bd.modulated_interaction_profile(finest, sigma_env, spectrum, 0.0, 0.0,
                                                max_harmonic=sw["harmonic"] + 6,
                                                **profile_grid_args(cfg))
        for d, w21 in zip(sw["spot_check_detunings"], w_spots):
            coupling = coupling_at(w21)
            traj = bd.evolve_tls(TlsState.ground(), prof, coupling.tls.omega_21)
            spots.append({"detuning_over_inv_sigma": d, "omega_21": w21,
                          "born_dp2": float(traj.p2[-1]),
                          "analytic_dp2": analytic_dp2(coupling.tls.omega_21)})
        series.append(SeriesData(
            name="born_spot_checks",
            columns={
                "detuning_over_inv_sigma": np.array([s["detuning_over_inv_sigma"] for s in spots]),
                "omega_21 [rad/fs]": np.array([s["omega_21"] for s in spots]),
                "dP2_born": np.array([s["born_dp2"] for s in spots]),
                "dP2_analytic": np.array([s["analytic_dp2"] for s in spots]),
            }))

    summary = {
        "omega_b_rad_fs": spectrum.omega_b,
        "fitted_widths": widths,
        "born_spot_checks": spots,
        "bunch_sigma_et_fs": plan.bunch_sigma_et,
    }
    return ScenarioResult(series=series, summary=summary)


# -- scenario: single near-point packet (time domain) -------------------------------------

def run_fig8_single_point(cfg: dict, plan: Plan) -> ScenarioResult:
    """Occupation dynamics P1(t), P2(t) for one near-point packet from ground."""
    coupling, tls = plan.coupling, plan.coupling.tls
    frac = cfg["sweep"]["sigma_et_over_period"][0]
    sigma = frac * tls.period
    prof = bd.interaction_profile(coupling, sigma, 0.0, **profile_grid_args(cfg))
    traj = bd.evolve_tls(TlsState.ground(), prof, tls.omega_21,
                         n_records=cfg["numerics"]["time_samples"])
    p2_ref = plan.p2_closed
    series = [SeriesData(
        name="occupations",
        columns={"t [fs]": traj.times, "P1": traj.p1, "P2": traj.p2,
                 "norm": traj.norm},
        plot_x="t [fs]", plot_y=("P2",),
        title=f"Near-point packet, sigma_et = {frac:g} T21",
        xlabel="t [fs]", ylabel="occupation")]
    summary = {
        "final_p2": float(traj.p2[-1]),
        "analytic_p2_from_ground": p2_ref,
        "rel_dev": float(traj.p2[-1] / p2_ref - 1.0),
        "gamma": gamma_parameter(tls.omega_21, sigma),
        "norm_drift": float(np.max(np.abs(traj.norm - 1.0))),
    }
    return ScenarioResult(series=series, summary=summary)


# -- scenario: correlated vs random trains -------------------------------------------------

def run_fig9_buildup(cfg: dict, plan: Plan) -> ScenarioResult:
    """N^2 buildup of a modulation-locked train vs linear growth of a random one."""
    coupling, tls = plan.coupling, plan.coupling.tls
    sw = cfg["sweep"]
    seed = cfg["run"]["seed"]
    omega_b = tls.omega_21 / sw["harmonic"]
    t_b = TWO_PI / omega_b
    mean_spacing = sw["mean_spacing_periods"] * t_b

    sigma_pt = plan.bunch_sigma_et
    window = bd.train_window(coupling, sigma_pt, **profile_grid_args(cfg))

    n_corr = sw["correlated_electrons"]
    times_c = bd.arrival_schedule(n_corr, omega_b, mean_spacing=mean_spacing, seed=seed)
    p2_corr = bd.simulate_train_ensemble(TlsState.ground(), times_c[None], window)[0]
    n_axis_c = np.arange(1, n_corr + 1)
    a_quad, r2_quad = bd.quadratic_fit(n_axis_c, p2_corr)

    n_rand = sw["random_electrons"]
    seeds = [seed + 1000 * (k + 1) for k in range(sw["ensemble_seeds"])]
    times = bd.random_arrival_times(n_rand, seeds, mean_spacing)
    ens = bd.simulate_train_ensemble(TlsState.ground(), times, window)
    p2_rand = ens.mean(axis=0)
    n_axis_r = np.arange(1, n_rand + 1)
    b_lin, r2_lin = bd.linear_fit(n_axis_r, p2_rand)

    crossing = float(p2_corr[-1] / b_lin)
    series = [
        SeriesData(name="correlated_train",
                   columns={"n_electrons": n_axis_c.astype(float), "P2": p2_corr,
                            "quadratic_fit": a_quad * n_axis_c.astype(float) ** 2},
                   plot_x="n_electrons", plot_y=("P2", "quadratic_fit"),
                   title="Phase-locked train buildup", xlabel="N", ylabel="P2"),
        SeriesData(name="random_train",
                   columns={"n_electrons": n_axis_r.astype(float),
                            "P2_mean": p2_rand,
                            "linear_fit": b_lin * n_axis_r.astype(float)},
                   plot_x="n_electrons", plot_y=("P2_mean", "linear_fit"),
                   title=f"Random train (ensemble of {len(seeds)})",
                   xlabel="N", ylabel="P2"),
    ]
    summary = {
        "sigma_et_point_fs": sigma_pt,
        "quadratic_coefficient": a_quad,
        "quadratic_r_squared": r2_quad,
        "p2_ratio_20_over_1": float(p2_corr[-1] / p2_corr[0]),
        "linear_slope": b_lin,
        "linear_r_squared": r2_lin,
        "crossing_n_random": crossing,
        "crossing_expected": float(n_corr**2),
        "ensemble_seeds": seeds,
    }
    return ScenarioResult(series=series, summary=summary)


# -- scenario: amplitude vs density-matrix solver agreement ----------------------------------

def run_solver_crosscheck(cfg: dict, plan: Plan) -> ScenarioResult:
    """Both grid solvers on the same discretized problem: final occupations
    must agree to a part in a thousand."""
    coupling = plan.coupling
    packet = plan.packets[0]

    state0 = sm.initial_amplitudes(packet.grid, packet.spec, TlsState.ground(),
                                   packet.window[0])
    traj_a = sm.integrate(state0, packet.window, plan.dt, packet.grid, coupling,
                          n_records=cfg["numerics"]["time_samples"])
    # the density solver at the amplitude solver's records
    traj_b = sd.run_qew_interaction(packet, TlsState.ground(), coupling, traj_a.times)

    rel = abs(traj_a.p2[-1] - traj_b.p2[-1]) / traj_b.p2[-1]
    series = [SeriesData(
        name="crosscheck",
        columns={"t [fs]": traj_a.times, "P2_amplitude_solver": traj_a.p2,
                 "P2_density_solver": traj_b.p2,
                 "difference": traj_a.p2 - traj_b.p2},
        plot_x="t [fs]", plot_y=("P2_amplitude_solver", "P2_density_solver"),
        title="Solver cross-check", xlabel="t [fs]", ylabel="P2")]
    summary = {
        "final_p2_amplitude": float(traj_a.p2[-1]),
        "final_p2_density": float(traj_b.p2[-1]),
        "final_rel_difference": float(rel),
        "time_step_fs": traj_a.dt,
        "integrator": "rk4",
    }
    return ScenarioResult(series=series, summary=summary)


SCENARIOS = {
    "fig3_ground": (run_fig3_ground,
                    "from-ground excitation vs packet size (size-independent plateau)"),
    "fig4_superposition": (run_fig4_superposition,
                           "superposition start: size-dependent increment, "
                           "transient energy imbalance"),
    "fig56_phase_size_sweep": (run_fig56_phase_size_sweep,
                               "increment vs arrival phase and size; "
                               "sinusoidal slices with Gaussian-in-Gamma envelope"),
    "modulated_resonance": (run_modulated_resonance,
                            "bunched-packet resonance at harmonics of the "
                            "modulation frequency"),
    "fig8_single_point": (run_fig8_single_point,
                          "time-domain occupations for one near-point packet"),
    "fig9_buildup": (run_fig9_buildup,
                     "N^2 buildup of a phase-locked train vs linear random growth"),
    "solver_crosscheck": (run_solver_crosscheck,
                          "amplitude-equation vs density-matrix solver agreement"),
}


def run_scenario(cfg: dict, jobs: int = 1, plan: Plan | None = None) -> ScenarioResult:
    """Run the configured scenario from ``plan``, by default plan(cfg), and
    refuse one with ERROR lines; its metadata is base_metadata plus runtime_s."""
    # ``jobs`` is ignored; perfbench/worker.py still passes it (ROADMAP item 2 removes it)
    fn, _ = SCENARIOS[cfg["run"]["scenario"]]
    start = time.perf_counter()
    plan = _planned(cfg, plan)
    result = fn(cfg, plan)
    result.metadata = {**base_metadata(cfg, plan.coupling),
                       "runtime_s": round(time.perf_counter() - start, 3)}
    return result
