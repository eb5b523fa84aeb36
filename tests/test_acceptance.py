"""Acceptance suite: every criterion printed as one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; each
criterion is also an ordinary assertion so the suite fails loudly.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import k0, k1

from feberi import analytic, solver_density as sd
from feberi.cli import default_config
from feberi.core import HBAR_EV_FS, TlsState
from feberi.coulomb import m_spatial, m_tilde
from feberi.qew import GaussianQewSpec
from feberi.scenarios import run_scenario
from helpers import default_packet, run_gaussian_scenario


def _report(num: int, desc: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:02d} {desc}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def ground_runs(kin, tls, coupling):
    """Density-solver from-ground runs for the three reference sizes."""
    t_start = time.time()
    runs = {}
    for frac in (0.1, 0.3, 1.0):
        spec = GaussianQewSpec.from_duration(kin, frac * tls.period, t0=0.0)
        runs[frac] = sd.run_qew_interaction(default_packet(spec, coupling, 256),
                                            TlsState.ground(), coupling)
    return runs, time.time() - t_start


@pytest.fixture(scope="module")
def sweep_result():
    cfg = default_config("fig56_phase_size_sweep")
    cfg["sweep"]["gamma_values"] = [0.1, 0.3, 0.6, 0.9, 1.2, 1.5]
    cfg["sweep"]["zeta_points"] = 16
    return run_scenario(cfg)


def test_criterion_01_ground_size_independence(coupling, ground_runs):
    runs, elapsed = ground_runs
    p2_ref = analytic.p2_from_ground(coupling)
    finals = np.array([runs[f].p2[-1] for f in (0.1, 0.3, 1.0)])
    mutual = (finals.max() - finals.min()) / finals.mean()
    vs_analytic = np.max(np.abs(finals / p2_ref - 1.0))
    ok = mutual <= 0.03 and vs_analytic <= 0.02 and elapsed < 60.0
    _report(1, "from-ground size independence", ok,
            f"mutual spread {mutual:.2e}, vs closed form {vs_analytic:.2e}, "
            f"{elapsed:.1f}s at n=256")


def test_criterion_02_energy_conservation(kin, tls, coupling, ground_runs):
    runs, _ = ground_runs
    tol = 1e-3 * tls.energy_gap
    worst_ground = 0.0
    for traj in runs.values():
        acc = sd.energy_accounting(traj)
        resid = np.abs(acc["delta_e_free"] + tls.energy_gap * (traj.p2 - traj.p2[0]))
        worst_ground = max(worst_ground, float(resid.max()))
    ok_ground = worst_ground <= tol

    t0 = math.pi / tls.omega_21
    spec = GaussianQewSpec.from_duration(kin, 0.1 * tls.period, t0=t0)
    traj_s = sd.run_qew_interaction(default_packet(spec, coupling, 256),
                                    TlsState.equatorial(math.pi / 2), coupling)
    acc_s = sd.energy_accounting(traj_s)
    resid_s = np.abs(acc_s["delta_e_free"] + tls.energy_gap * (traj_s.p2 - traj_s.p2[0]))
    transient = float(resid_s.max())
    ok_sup = resid_s[-1] <= tol and transient > 50.0 * worst_ground
    _report(2, "energy conservation", ok_ground and ok_sup,
            f"ground max residual {worst_ground:.2e} eV <= {tol:.1e}; "
            f"superposition final {resid_s[-1]:.2e} eV, transient {transient:.2e} eV")


def test_criterion_03_phase_and_size_law(sweep_result):
    s = sweep_result.summary
    resid = s["fit_residual_over_peak"]
    worst_r2 = min(s["zeta_slice_r_squared"].values())
    ok = resid <= 0.10 and worst_r2 >= 0.99
    _report(3, "phase and size law", ok,
            f"residual/peak {resid:.2e}, worst zeta-slice R^2 {worst_r2:.6f}")


def test_criterion_04_max_increment_identity(kin, tls, coupling, sweep_result, ground_runs):
    # analytic: exact identity
    t_quarter = math.pi / 2.0 / tls.omega_21
    exact = []
    for sigma in (0.0, 0.1, 0.3):
        a = analytic.dp1_superposition(coupling, TlsState.equatorial(0.0),
                                       t_quarter, sigma)
        b = math.sqrt(analytic.dp2_born(coupling, sigma))
        exact.append(abs(a / b - 1.0))
    ok_exact = max(exact) < 1e-12

    # numeric, small-Gamma: max over zeta of the sweep's first row vs sqrt of
    # the from-ground numeric value at the same Gamma
    cols = sweep_result.series[0].columns
    dp_small = np.abs(cols["dP2 (Gamma=0.1)"])
    spec = GaussianQewSpec.from_duration(kin, 0.1 / tls.omega_21, t0=0.0)
    traj_g = sd.run_qew_interaction(default_packet(spec, coupling, 256), TlsState.ground(),
                                    coupling)
    ratio = dp_small.max() / math.sqrt(traj_g.p2[-1] * math.exp(-0.1**2))
    ok_num = abs(ratio - 1.0) <= 0.05
    _report(4, "max increment equals sqrt of second order", ok_exact and ok_num,
            f"analytic dev {max(exact):.1e}, numeric ratio {ratio:.4f}")


def test_criterion_05_solver_crosscheck():
    cfg = default_config("solver_crosscheck")
    res = run_scenario(cfg)
    rel = res.summary["final_rel_difference"]
    ok = rel <= 1e-3
    _report(5, "amplitude vs density solver", ok, f"relative difference {rel:.2e}")


def test_criterion_05_solver_crosscheck_parallel_large_grid():
    # the parallel dipole runs the density solver's i-phase gauge branch
    cfg = default_config("solver_crosscheck")
    cfg["numerics"]["grid_points"] = 1024
    cfg["physics"]["orientation"] = "parallel"
    rel = run_scenario(cfg).summary["final_rel_difference"]
    _report(5, "amplitude vs density solver, parallel, N = 1024", rel <= 1e-3,
            f"relative difference {rel:.2e}")


@pytest.mark.parametrize("orientation", ["transverse", "parallel"])
def test_criterion_05_solver_crosscheck_n2048(orientation):
    # matrix-free density propagation makes the 4096-dimensional joint problem
    # affordable: no (2N)^3 decomposition
    cfg = default_config("solver_crosscheck")
    cfg["numerics"]["grid_points"] = 2048
    cfg["physics"]["orientation"] = orientation
    rel = run_scenario(cfg).summary["final_rel_difference"]
    _report(5, f"amplitude vs density solver, {orientation}, N = 2048", rel <= 1e-3,
            f"relative difference {rel:.2e}")


def test_criterion_06_matrix_element_oracles(coupling, coupling_parallel):

    def k_oracle(x, order):
        # exp(-x) factored out keeps the quadrature relative-accurate at large x
        t_max = math.acosh(745.0 / x) if x < 745.0 else 1.0
        val, _ = quad(lambda t: math.exp(-x * (math.cosh(t) - 1.0))
                      * math.cosh(order * t),
                      0.0, t_max, limit=400, epsabs=0.0, epsrel=1e-12)
        return val * math.exp(-x)

    xs = np.logspace(-3, math.log10(50.0), 40)
    err_k = max(max(abs(k0(float(x)) / k_oracle(float(x), 0) - 1.0),
                    abs(k1(float(x)) / k_oracle(float(x), 1) - 1.0))
                for x in xs)
    ok_k = err_k <= 1e-6

    par = coupling_parallel
    rng = np.random.default_rng(101)
    err_m = 0.0
    for i in range(50):
        p = float(rng.uniform(0.002, 1.5))
        w = p / HBAR_EV_FS
        if i % 2 == 0:
            ref, _ = quad(lambda z: m_spatial(z, coupling), 0, np.inf,
                          weight="cos", wvar=w, limlst=200, limit=400)
            err_m = max(err_m, abs(2.0 * ref / m_tilde(p, coupling).real - 1.0))
        else:
            ref, _ = quad(lambda z: m_spatial(z, par), 0, np.inf,
                          weight="sin", wvar=w, limlst=200, limit=400)
            err_m = max(err_m, abs(-2.0 * ref / m_tilde(p, par).imag - 1.0))
    ok_m = err_m <= 1e-5
    _report(6, "special-function and kernel oracles", ok_k and ok_m,
            f"K max rel err {err_k:.2e}, Mt vs quadrature {err_m:.2e}")


def test_criterion_07_overlap_integral():
    sigma = 0.008
    worst = 0.0
    for gam in np.linspace(0.0, 4.0, 17):
        p_rec = 2.0 * sigma * float(gam)
        ref, _ = quad(lambda p: math.exp(-(p**2 + (p - p_rec) ** 2) / (4 * sigma**2)),
                      -14 * sigma, 14 * sigma, limit=400, epsabs=1e-17, epsrel=1e-13)
        ref /= math.sqrt(2 * math.pi) * sigma
        got = abs(analytic.overlap_integral(p_rec, sigma, 0.0, 3.0))
        worst = max(worst, abs(got - ref))
    ok = worst <= 1e-8
    _report(7, "overlap integral vs quadrature", ok, f"max abs dev {worst:.2e}")


def test_criterion_08_modulated_resonance():
    cfg = default_config("modulated_resonance")
    res = run_scenario(cfg)
    widths = res.summary["fitted_widths"]
    dev_w = max(abs(v["fitted_inv_e_halfwidth"] / v["expected"] - 1.0)
                for v in widths.values())
    ok_w = dev_w <= 0.05
    spots = res.summary["born_spot_checks"]
    dev_b = max(abs(s["born_dp2"] / s["analytic_dp2"] - 1.0) for s in spots)
    ok_b = dev_b <= 0.15 and len(spots) == 3
    _report(8, "modulated resonance", ok_w and ok_b,
            f"width dev {dev_w:.2e}, born spot dev {dev_b:.2e}")


@pytest.mark.parametrize("orientation, bound", [("transverse", 1e-6), ("parallel", 1e-4)],
                         ids=["transverse", "parallel"])
def test_criterion_08_born_spot_checks_at_closed_form(orientation, bound):
    # the three default Born spot checks, whose profile comes from the exact
    # kernel spectrum, against analytic.modulated_increments: transverse reads
    # at most 1.1e-7, parallel 6.0e-5 (its kernel's 1/t^2 tail outside the
    # interaction window is the rest, ROADMAP item 4)
    cfg = default_config("modulated_resonance")
    cfg["physics"]["orientation"] = orientation
    spots = run_scenario(cfg).summary["born_spot_checks"]
    dev = max(abs(s["born_dp2"] / s["analytic_dp2"] - 1.0) for s in spots)
    _report(8, f"Born spot checks at the closed form, {orientation}",
            dev <= bound and len(spots) == 3, f"born spot dev {dev:.2e}")


def _buildup_gates(cfg: dict, s: dict) -> tuple[bool, str]:
    """Criterion-9 thresholds on a fig9_buildup summary."""
    ratio = s["p2_ratio_20_over_1"]
    cross_dev = abs(s["crossing_n_random"] / s["crossing_expected"] - 1.0)
    ok = (s["quadratic_r_squared"] >= 0.99
          and abs(ratio / 400.0 - 1.0) <= 0.08
          and cfg["sweep"]["ensemble_seeds"] >= 32
          and s["linear_r_squared"] >= 0.95
          and cross_dev <= 0.25)
    return ok, (f"quad R^2 {s['quadratic_r_squared']:.6f}, ratio {ratio:.1f}, "
                f"lin R^2 {s['linear_r_squared']:.3f}, crossing dev {cross_dev:.2f}")


def test_criterion_09_n_squared_buildup():
    t_start = time.time()
    cfg = default_config("fig9_buildup")
    res = run_scenario(cfg)
    elapsed = time.time() - t_start
    ok, detail = _buildup_gates(cfg, res.summary)
    _report(9, "N^2 buildup and crossing", ok and elapsed < 300.0,
            f"{detail}, {elapsed:.0f}s")


@pytest.mark.parametrize("seed", [13, 36])
def test_criterion_09_default_ensemble_seed_independent(seed):
    # at 64 ensemble members these seeds failed the random-train gates
    # (linear R^2 0.934 / 0.939, crossing deviation 0.43 / 0.11)
    cfg = default_config("fig9_buildup")
    cfg["run"]["seed"] = seed
    ok, detail = _buildup_gates(cfg, run_scenario(cfg).summary)
    assert ok, f"seed {seed}: {detail}"


def test_criterion_10_unitarity_suite(kin, tls, coupling, ground_runs):
    runs, _ = ground_runs

    # density evolutions: trace and purity to 1e-9 (mixed state explicit).
    # rho = sum_k p_k |phi_k><phi_k| propagates as the 2-row block of its
    # pure states: Tr rho = sum_k p_k |phi_k|^2 and
    # Tr rho^2 = sum_kl p_k p_l |<phi_k|phi_l>|^2
    spec = GaussianQewSpec.from_duration(kin, 0.1 * tls.period, t0=0.0)
    grid = default_packet(spec, coupling, 128).grid
    h = sd.assemble_hamiltonian(grid, coupling)
    starts = np.stack([
        sd.initial_joint_vector(grid, spec, state, -1.0, tls.energy_gap)
        for state in (TlsState.ground(), TlsState.equatorial(0.4))])
    p = np.array([0.6, 0.4])

    def trace_purity(states):
        overlaps = states.conj() @ states.T
        return (float(np.sum(p * overlaps.diagonal().real)),
                float(np.sum(np.outer(p, p) * np.abs(overlaps) ** 2)))

    _, purity0 = trace_purity(starts)
    trace, purity = trace_purity(sd.evolve_vector(starts, h, np.full(2, 2.2)))
    trace_err = abs(trace - 1.0)
    purity_err = abs(purity - purity0)
    ok_density = trace_err <= 1e-9 and purity_err <= 1e-9

    # occupations sum to one along every pure trajectory
    sum_err = max(float(np.max(np.abs(t.p1 + t.p2 - 1.0))) for t in runs.values())
    ok_sum = sum_err <= 1e-9

    # RK4 amplitude evolution: norm to 1e-8
    traj = run_gaussian_scenario(spec, TlsState.equatorial(0.2), coupling, n=128)
    norm_err = float(np.max(np.abs(traj.norm - 1.0)))
    ok_amp = norm_err <= 1e-8
    _report(10, "unitarity and trace suite", ok_density and ok_sum and ok_amp,
            f"trace {trace_err:.1e}, purity {purity_err:.1e}, "
            f"P1+P2 dev {sum_err:.1e}, RK4 norm {norm_err:.1e}")
