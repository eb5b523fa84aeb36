"""Named experiment scenarios: each runs a physics study end to end.

Scenario functions take an effective configuration dict (see feberi.cli for
parsing and defaults) and return a ScenarioResult of named data series plus
summary/fit numbers.  All randomness is seeded from config["run"]["seed"],
and identical configs reproduce identical outputs.
"""

from __future__ import annotations

import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from feberi import __version__, analytic, born_dynamics as bd, solver_density as sd, \
    solver_momentum as sm
from feberi.core import (
    HBAR_EV_FS,
    TWO_PI,
    InteractionGeometry,
    TlsSpec,
    TlsState,
    fs_to_attoseconds,
    kinematics_from_kev,
    wrap_phase,
)
from feberi.coulomb import DipoleCoupling
from feberi.grid import interaction_window
from feberi.qew import (
    GaussianQewSpec,
    ModulatedQewSpec,
    gamma_parameter,
    grid_for_spec,
    modulation_fourier_coefficients,
    optimal_drift_time,
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

def physics_bundle(cfg: dict):
    phys = cfg["physics"]
    kin = kinematics_from_kev(phys["beam_energy_kev"])
    tls = TlsSpec.from_lab(phys["energy_gap_ev"], phys["dipole_debye"],
                           phys["orientation"])
    geo = InteractionGeometry.from_kinematics(phys["impact_parameter_nm"], kin)
    return kin, tls, geo, DipoleCoupling(tls, geo, kin)


def window_factors(cfg: dict) -> dict:
    """The configured interaction-window factors, as keyword arguments."""
    num = cfg["numerics"]
    return {"transit_factor": num["window_transit_factor"],
            "sigma_factor": num["window_sigma_factor"]}


def profile_grid_args(cfg: dict) -> dict:
    """Keyword arguments of a Born profile grid: window factors and resolution."""
    return {**window_factors(cfg),
            "points_per_scale": cfg["numerics"]["profile_points_per_scale"]}


def base_metadata(cfg: dict, kin, tls, geo) -> dict:
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
                "value_as": fs_to_attoseconds(geo.transit_time),
                "definition": "r_perp / (c beta gamma)",
                "note": "a nominal 6 as is often quoted for 2.4 nm at 200 keV; "
                        "the constants give the value recorded here",
            },
        },
    }


# -- scenario: ground-state excitation vs packet size --------------------------------

def run_fig3_ground(cfg: dict) -> ScenarioResult:
    """From-ground excitation for several packet durations: the final
    occupation is size independent and matches the closed form."""
    kin, tls, geo, coupling = physics_bundle(cfg)
    num = cfg["numerics"]
    fractions = cfg["sweep"]["sigma_et_over_period"]
    p2_ref = analytic.p2_from_ground(coupling, kin)

    series = []
    plateaus = {}
    energy_resid = {}
    for frac in fractions:
        sigma = frac * tls.period
        spec = GaussianQewSpec.from_duration(kin, sigma, t0=0.0)
        window = interaction_window(sigma, geo.transit_time, 0.0, **window_factors(cfg))
        traj = sd.run_qew_interaction(
            spec, TlsState.ground(), coupling, tls, n=num["grid_points"],
            window=window, n_samples=num["time_samples"],
            collect_rho_b=num["dump_rho_b"], mode=num["assembly"])
        acc = sd.energy_accounting(traj)
        resid = acc["delta_e_free"] + tls.energy_gap * (traj.p2 - traj.p2[0])
        name = f"sigma_{frac:g}T21"
        series.append(SeriesData(
            name=name,
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
        if num["dump_rho_b"]:
            series[-1].columns["_rho_b"] = traj.rho_b  # handled by the writer

    vals = np.array(list(plateaus.values()))
    summary = {
        "analytic_p2_from_ground": p2_ref,
        "plateau_p2": plateaus,
        "max_rel_dev_from_analytic": float(np.max(np.abs(vals / p2_ref - 1.0))),
        "mutual_spread": float((vals.max() - vals.min()) / vals.mean()),
        "max_energy_residual_ev": energy_resid,
    }
    return ScenarioResult(series=series, summary=summary,
                          metadata=base_metadata(cfg, kin, tls, geo))


# -- scenario: superposition start at fixed arrival phase ------------------------------

def run_fig4_superposition(cfg: dict) -> ScenarioResult:
    """Superposition start: the increment decays with packet size and the
    energy balance is violated only transiently."""
    kin, tls, geo, coupling = physics_bundle(cfg)
    num = cfg["numerics"]
    fractions = cfg["sweep"]["sigma_et_over_period"]
    zeta = cfg["sweep"]["zeta_over_pi"] * math.pi
    phi = math.pi / 2.0
    state = TlsState.equatorial(phi)
    t0 = wrap_phase(zeta + phi) / tls.omega_21

    series = []
    increments = {}
    transients = {}
    final_resid = {}
    for frac in fractions:
        sigma = frac * tls.period
        spec = GaussianQewSpec.from_duration(kin, sigma, t0=t0)
        window = interaction_window(sigma, geo.transit_time, t0, **window_factors(cfg))
        traj = sd.run_qew_interaction(
            spec, state, coupling, tls, n=num["grid_points"], window=window,
            n_samples=num["time_samples"], mode=num["assembly"])
        acc = sd.energy_accounting(traj)
        resid = acc["delta_e_free"] + tls.energy_gap * (traj.p2 - traj.p2[0])
        name = f"sigma_{frac:g}T21"
        series.append(SeriesData(
            name=name,
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
            pred = analytic.dp1_superposition(coupling, kin, state, t0, sigma) \
                + (abs(state.c1) ** 2 - abs(state.c2) ** 2) \
                * analytic.dp2_born(coupling, kin, sigma)
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
    return ScenarioResult(series=series, summary=summary,
                          metadata=base_metadata(cfg, kin, tls, geo))


# -- scenario: arrival-phase x size sweep ----------------------------------------------

def _fig56_point(args: tuple) -> tuple[float, list[float]]:
    """Worker: increments over the zeta grid at one Gamma (one shared grid)."""
    cfg, gamma = args
    kin, tls, geo, coupling = physics_bundle(cfg)
    num = cfg["numerics"]
    sigma = gamma / tls.omega_21
    spec = GaussianQewSpec.from_duration(kin, sigma, t0=0.0)
    grid = grid_for_spec(spec, coupling, num["grid_points"])
    h = sd.assemble_hamiltonian(grid, kin, coupling, tls, mode=num["assembly"])
    window = interaction_window(sigma, geo.transit_time, 0.0, **window_factors(cfg))
    zetas = np.arange(cfg["sweep"]["zeta_points"]) / cfg["sweep"]["zeta_points"] * TWO_PI
    out = []
    for zeta in zetas:
        state = TlsState.equatorial(wrap_phase(-zeta))   # t0 = 0: zeta = -phi
        traj = sd.run_qew_interaction(spec, state, coupling, tls, h=h,
                                      window=window,
                                      n_samples=num["time_samples"])
        out.append(float(traj.p2[-1] - traj.p2[0]))
    return gamma, out


def run_fig56_phase_size_sweep(cfg: dict, jobs: int = 1) -> ScenarioResult:
    """Increment vs (arrival phase, packet size): sinusoidal in zeta with an
    exp(-Gamma^2/2) envelope; fits the two-term law."""
    kin, tls, geo, coupling = physics_bundle(cfg)
    gammas = cfg["sweep"]["gamma_values"]
    n_zeta = cfg["sweep"]["zeta_points"]
    zetas = np.arange(n_zeta) / n_zeta * TWO_PI

    points = [(cfg, g) for g in gammas]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            rows = list(ex.map(_fig56_point, points))
    else:
        rows = [_fig56_point(p) for p in points]
    rows.sort(key=lambda r: r[0])

    table = np.array([r[1] for r in rows])        # (n_gamma, n_zeta)
    g_arr = np.array([r[0] for r in rows])

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
        coupling, kin, TlsState.equatorial(0.0), math.pi / 2 / tls.omega_21, 0.0)
    max_by_gamma = np.max(np.abs(table), axis=1)
    columns = {"zeta [rad]": zetas}
    for g, row in zip(g_arr, table):
        columns[f"dP2 (Gamma={g:g})"] = np.asarray(row)
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
    return ScenarioResult(series=series, summary=summary,
                          metadata=base_metadata(cfg, kin, tls, geo))


# -- scenario: modulated-packet resonance ------------------------------------------------

def _resonance_spot(args: tuple) -> dict:
    """Worker: one Born-dynamics check of the resonance curve at a detuning."""
    cfg, detune_over_sigma = args
    kin, tls0, geo, _ = physics_bundle(cfg)
    sw = cfg["sweep"]
    sigma_env = sw["envelope_sigma_et_fs"]
    harmonic = sw["harmonic"]
    omega_b = tls0.omega_21 / harmonic
    w21 = harmonic * omega_b + detune_over_sigma / sigma_env
    tls = TlsSpec(energy_gap=w21 * HBAR_EV_FS,
                  dipole_magnitude=tls0.dipole_magnitude,
                  orientation=tls0.orientation)
    coupling = DipoleCoupling(tls, geo, kin)
    base = GaussianQewSpec.from_duration(kin, sigma_env, t0=0.0)
    mspec = ModulatedQewSpec(base=base, g=sw["modulation_g"], omega_b=omega_b,
                             drift_time=optimal_drift_time(kin, omega_b,
                                                           sw["modulation_g"]))
    spectrum = modulation_fourier_coefficients(mspec, sw["harmonic_order"])
    grid = bd.profile_time_grid(coupling, sigma_env, 0.0, tls.omega_21, **profile_grid_args(cfg))
    prof = bd.modulated_interaction_profile(coupling, sigma_env, spectrum, 0.0,
                                            grid, t0=0.0,
                                            max_harmonic=harmonic + 6)
    traj = bd.evolve_tls(TlsState.ground(), prof, tls.omega_21)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inc = analytic.modulated_increments(
            coupling, kin, spectrum, sigma_env, tls.omega_21, TlsState.ground(), 0.0, 0.0)
    return {"detuning_over_inv_sigma": detune_over_sigma,
            "omega_21": w21, "born_dp2": float(traj.p2[-1]),
            "analytic_dp2": inc.dp2}


def run_modulated_resonance(cfg: dict, jobs: int = 1) -> ScenarioResult:
    """Second-order increment vs TLS frequency: Gaussian peaks at the
    bunching harmonics with 1/e half-width 1/sigma_et."""
    kin, tls0, geo, _ = physics_bundle(cfg)
    sw = cfg["sweep"]
    sigma_env = sw["envelope_sigma_et_fs"]
    harmonic = sw["harmonic"]
    omega_b = tls0.omega_21 / harmonic
    base = GaussianQewSpec.from_duration(kin, sigma_env, t0=0.0)
    g_mod = sw["modulation_g"]
    mspec = ModulatedQewSpec(base=base, g=g_mod, omega_b=omega_b,
                             drift_time=optimal_drift_time(kin, omega_b, g_mod))
    spectrum = modulation_fourier_coefficients(mspec, sw["harmonic_order"])

    series = []
    widths = {}
    for n_h in sw["scan_harmonics"]:
        center = n_h * omega_b
        span = sw["scan_halfwidth_inv_sigma"] / sigma_env
        w_scan = center + np.linspace(-span, span, sw["scan_points"])
        dp2 = np.empty_like(w_scan)
        for i, w21 in enumerate(w_scan):
            tls = TlsSpec(energy_gap=w21 * HBAR_EV_FS,
                          dipole_magnitude=tls0.dipole_magnitude,
                          orientation=tls0.orientation)
            coupling = DipoleCoupling(tls, geo, kin)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                inc = analytic.modulated_increments(
                    coupling, kin, spectrum, sigma_env, w21, TlsState.ground(), 0.0, 0.0)
            dp2[i] = inc.dp2
        # ln dp2 = const - (w - center)^2 sigma_fit^2 -> 1/e halfwidth = 1/sigma_fit
        # fit only where this harmonic dominates (inside |detuning| <= 3/sigma,
        # well short of the midpoint to the next harmonic)
        mask = np.abs(w_scan - center) * sigma_env <= 3.0
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
        args = [(cfg, d) for d in sw["spot_check_detunings"]]
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as ex:
                spots = list(ex.map(_resonance_spot, args))
        else:
            spots = [_resonance_spot(a) for a in args]
        series.append(SeriesData(
            name="born_spot_checks",
            columns={
                "detuning_over_inv_sigma": np.array([s["detuning_over_inv_sigma"] for s in spots]),
                "omega_21 [rad/fs]": np.array([s["omega_21"] for s in spots]),
                "dP2_born": np.array([s["born_dp2"] for s in spots]),
                "dP2_analytic": np.array([s["analytic_dp2"] for s in spots]),
            }))

    summary = {
        "omega_b_rad_fs": omega_b,
        "fitted_widths": widths,
        "born_spot_checks": spots,
        "bunch_sigma_et_fs": tooth_sigma_et(spectrum),
    }
    return ScenarioResult(series=series, summary=summary,
                          metadata=base_metadata(cfg, kin, tls0, geo))


# -- scenario: single near-point packet (time domain) -------------------------------------

def run_fig8_single_point(cfg: dict) -> ScenarioResult:
    """Occupation dynamics P1(t), P2(t) for one near-point packet from ground."""
    kin, tls, geo, coupling = physics_bundle(cfg)
    frac = cfg["sweep"]["sigma_et_over_period"][0]
    sigma = frac * tls.period
    grid = bd.profile_time_grid(coupling, sigma, 0.0, tls.omega_21, **profile_grid_args(cfg))
    prof = bd.interaction_profile(coupling, sigma, grid, t0=0.0, **window_factors(cfg))
    traj = bd.evolve_tls(TlsState.ground(), prof, tls.omega_21,
                         n_records=cfg["numerics"]["time_samples"])
    p2_ref = analytic.p2_from_ground(coupling, kin)
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
    return ScenarioResult(series=series, summary=summary,
                          metadata=base_metadata(cfg, kin, tls, geo))


# -- scenario: correlated vs random trains -------------------------------------------------

def run_fig9_buildup(cfg: dict, jobs: int = 1) -> ScenarioResult:
    """N^2 buildup of a modulation-locked train vs linear growth of a random one."""
    kin, tls, geo, coupling = physics_bundle(cfg)
    sw = cfg["sweep"]
    seed = cfg["run"]["seed"]
    omega_b = tls.omega_21 / sw["harmonic"]
    t_b = TWO_PI / omega_b
    mean_spacing = sw["mean_spacing_periods"] * t_b

    sigma_pt = sw["sigma_et_point_fs"]
    if sigma_pt <= 0.0:   # default: the bunch width of the modulated packet
        base = GaussianQewSpec.from_duration(kin, sw["envelope_sigma_et_fs"], t0=0.0)
        mspec = ModulatedQewSpec(base=base, g=sw["modulation_g"], omega_b=omega_b,
                                 drift_time=optimal_drift_time(kin, omega_b,
                                                               sw["modulation_g"]))
        sigma_pt = tooth_sigma_et(modulation_fourier_coefficients(
            mspec, sw["harmonic_order"]))

    n_corr = sw["correlated_electrons"]
    sched_c = bd.arrival_schedule("correlated", n_corr, omega_b,
                                  mean_spacing=mean_spacing, seed=seed)
    p2_corr = bd.simulate_train(TlsState.ground(), sched_c, coupling, sigma_pt,
                                tls.omega_21, **profile_grid_args(cfg))
    n_axis_c = np.arange(1, n_corr + 1)
    a_quad, r2_quad = bd.quadratic_fit(n_axis_c, p2_corr)

    n_rand = sw["random_electrons"]
    seeds = [seed + 1000 * (k + 1) for k in range(sw["ensemble_seeds"])]
    schedules = [bd.arrival_schedule("random", n_rand, omega_b,
                                     mean_spacing=mean_spacing, seed=s)
                 for s in seeds]
    ens = bd.simulate_train_ensemble(TlsState.ground(), schedules, coupling,
                                     sigma_pt, tls.omega_21, **profile_grid_args(cfg))
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
    return ScenarioResult(series=series, summary=summary,
                          metadata=base_metadata(cfg, kin, tls, geo))


# -- scenario: amplitude vs density-matrix solver agreement ----------------------------------

def run_solver_crosscheck(cfg: dict) -> ScenarioResult:
    """Both grid solvers on the same discretized problem: final occupations
    must agree to a part in a thousand."""
    kin, tls, geo, coupling = physics_bundle(cfg)
    num = cfg["numerics"]
    frac = cfg["sweep"]["sigma_et_over_period"][0]
    sigma = frac * tls.period
    spec = GaussianQewSpec.from_duration(kin, sigma, t0=0.0)
    grid = grid_for_spec(spec, coupling, num["grid_points"])
    window = interaction_window(sigma, geo.transit_time, 0.0, **window_factors(cfg))

    state0 = sm.initial_amplitudes(grid, spec, TlsState.ground(), window[0])
    dt = sm.default_time_step(grid, coupling, tls)
    traj_a = sm.integrate(state0, window, dt, grid, coupling, tls,
                          method=num["integrator"], n_records=num["time_samples"])

    h = sd.assemble_hamiltonian(grid, kin, coupling, tls, mode=num["assembly"])
    psi0 = sd.initial_joint_vector(grid, spec, TlsState.ground(), window[0],
                                   tls.energy_gap)
    states = sd.evolve_vector(psi0, h, traj_a.times - window[0])
    traj_b = sd._observables(traj_a.times, states, h, collect_rho_b=False)

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
        "integrator": num["integrator"],
    }
    return ScenarioResult(series=series, summary=summary,
                          metadata=base_metadata(cfg, kin, tls, geo))


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

PARALLEL_SCENARIOS = {"fig56_phase_size_sweep", "modulated_resonance"}


def run_scenario(cfg: dict, jobs: int = 1) -> ScenarioResult:
    name = cfg["run"]["scenario"]
    fn, _ = SCENARIOS[name]
    t0 = time.time()
    if name in PARALLEL_SCENARIOS:
        result = fn(cfg, jobs=jobs)
    else:
        result = fn(cfg)
    result.metadata["runtime_s"] = round(time.time() - t0, 3)
    return result
