import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from feberi import solver_density
from feberi.cli import default_config, validate_config
from feberi.core import HBAR_EV_FS, TWO_PI, DomainError, TlsSpec, TlsState
from feberi.coulomb import DipoleCoupling, m_spatial
from feberi.qew import GaussianQewSpec, ModulatedQewSpec
from feberi.scenarios import SCENARIOS, physics_bundle, plan, profile_grid_args, run_scenario, \
    window_factors
from feberi.solver_density import (
    _SAMPLE_BLOCK,
    MAX_CHEBYSHEV_ORDER,
    AssemblyError,
    PropagationError,
    _chebyshev_coefficients,
    _chebyshev_points,
    _chebyshev_series,
    _kept_orders,
    _observables,
    _scaled_generators,
    _spectral_bounds,
    assemble_hamiltonian,
    energy_accounting,
    evolve_vector,
    grid_windows,
    initial_joint_vector,
    partial_trace_bound,
    read_rho_b_bin,
    run_qew_interaction,
    schrodinger_qew_vector,
    sequential_multi_qew,
    write_rho_b_bin,
)
from feberi.grid import build_grid, circulant_product, interaction_window
from feberi.qew import grid_for_spec, packet_for_spec
from feberi.solver_momentum import step_schedule
from feberi.born_dynamics import arrival_schedule, quadratic_fit, simulate_train_ensemble, \
    train_window
from helpers import default_packet


@pytest.fixture
def spec(kin, tls):
    return GaussianQewSpec.from_duration(kin, 0.1 * tls.period, t0=0.0)


@pytest.fixture
def assembly(kin, tls, coupling, spec):
    grid = grid_for_spec(spec, coupling, 128)
    return assemble_hamiltonian(grid, kin, coupling, tls)


class TestAssembly:
    def test_hermitian(self, assembly):
        h = assembly.h_total
        assert np.max(np.abs(h - h.conj().T)) < 1e-12 * np.max(np.abs(h))

    def test_negligible_dipole_leaves_free_part(self, kin, geometry, spec, coupling):
        tiny = TlsSpec.from_lab(2.0, 1e-9)
        cpl = DipoleCoupling(tiny, geometry, kin)
        grid = grid_for_spec(spec, cpl, 64)
        h = assemble_hamiltonian(grid, kin, cpl, tiny)
        off = h.h_total - np.diag(np.diag(h.h_total))
        assert np.max(np.abs(off)) < 1e-10

    def test_elements_match_kernel_quadrature(self, assembly, coupling, kin, tls):
        # <p_m|f|p_n> = dp*Mt(p_m - p_n)/(2 pi hbar r21): spot-check 20
        # random pairs against direct quadrature of the spatial kernel
        rng = np.random.default_rng(23)
        grid = assembly.grid
        h_ip = kernel_matrix(assembly)
        r21 = tls.dipole_length
        for _ in range(20):
            m, n = rng.integers(0, grid.n, size=2)
            q = (grid.points[m] - grid.points[n])
            w = abs(q) / HBAR_EV_FS
            if w == 0.0:
                continue
            cos_part, _ = quad(lambda z: m_spatial(z, coupling), 0, np.inf,
                               weight="cos", wvar=w, limlst=200, limit=400)
            ref = 2.0 * cos_part * grid.dp / (TWO_PI * HBAR_EV_FS * r21)
            assert h_ip[m, n].real == pytest.approx(ref, rel=1e-4)
            assert abs(h_ip[m, n].imag) < 1e-16

    def test_kernel_not_hermitian_rejected(self, kin, tls, geometry, spec, monkeypatch):
        # a real odd admixture to the real even transverse kernel:
        # Mt(-q) != conj(Mt(q)), so no Hermitian block holds it
        parallel = DipoleCoupling(tls, geometry, kin, "parallel")
        column = solver_density.kernel_column
        monkeypatch.setattr(solver_density, "kernel_column",
                            lambda grid, cpl: column(grid, cpl) + 1e-3j * column(grid, parallel))
        cpl = DipoleCoupling(tls, geometry, kin, "transverse")
        with pytest.raises(AssemblyError, match="not Hermitian"):
            assemble_hamiltonian(grid_for_spec(spec, cpl, 128), kin, cpl, tls)


def kernel_matrix(h):
    """The N x N kernel matrix h_ip, eV/nm, from the gauged block r21 phi h_ip of h_total."""
    return h.h_total[:h.n, h.n:] / (h.h_ib[0, 1] * h.gauge)


def physical_hamiltonian(h):
    """kron(H_IB, H_IP) + diag(H0B (+) H0F), complex Hermitian, built directly."""
    full = np.kron(h.h_ib, kernel_matrix(h))
    full[np.diag_indices_from(full)] += (h.h0b[:, None] + h.h0f[None, :]).reshape(-1)
    return full


@pytest.fixture(params=["transverse", "parallel"], ids=lambda o: f"{o}-spectral")
def gauged(request, kin, tls, geometry, spec):
    """(coupling, assembly) for both orientations."""
    cpl = DipoleCoupling(tls, geometry, kin, orientation=request.param)
    # a cutoff past the kernel's momentum width hbar*gamma/r_perp: the block
    # reaches far into the kernel's tail
    extra = 6.0 * HBAR_EV_FS * kin.gamma / 2.4
    grid = build_grid(kin, spec.sigma_p0, cpl.recoil_momentum, 128,
                      extra_halfwidth=extra)
    return cpl, assemble_hamiltonian(grid, kin, cpl, tls)


def eigh_reference(psi, h, t):
    """exp(-i H t/hbar) psi through a fresh eigh of the gauged h_total."""
    w, v = np.linalg.eigh(h.h_total)
    s = h.gauge_diagonal()
    phases = np.exp(-1j * np.outer(w, np.atleast_1d(t)) / HBAR_EV_FS)
    out = s[:, None] * (v @ (phases * (v.T @ (s.conj() * psi))[:, None]))
    return out[:, 0] if np.isscalar(t) else out


def taylor_reference(h, psi, t):
    """exp(-i H t/hbar) psi by Taylor steps in extended precision (long double).

    The real symmetric h_total is shifted by its diagonal's midpoint (a global
    phase), and each step keeps |H dt/hbar| <= 2 and sums terms to 1e-24.
    """
    ld = np.longdouble
    diag = h.h_total.diagonal()
    shift = 0.5 * (diag.max() + diag.min())
    mat = (h.h_total.astype(ld) - ld(shift) * np.eye(diag.size, dtype=ld)) / ld(HBAR_EV_FS)
    bound = float(np.max(np.sum(np.abs(mat), axis=1)))     # >= the spectral norm
    steps = math.ceil(bound * t / 2.0)
    dt = ld(t) / steps
    gauged_psi = h.gauge_diagonal().conj() * psi
    x = np.stack([gauged_psi.real, gauged_psi.imag]).astype(ld)   # (re, im)
    for _ in range(steps):
        term, k = x, 0
        while np.max(np.abs(term)) > 1e-24:
            k += 1
            # -i mat dt / k on (re, im)
            term = np.stack([mat @ term[1], -(mat @ term[0])]) * (dt / k)
            x = x + term
    return x


class TestRealGauge:
    """h_total is S^dagger H S, real symmetric, for both orientations."""

    def test_real_symmetric(self, gauged):
        _, h = gauged
        assert h.h_total.dtype == np.float64
        np.testing.assert_array_equal(h.h_total, h.h_total.T)

    def test_gauge_recovers_physical_hamiltonian(self, gauged):
        cpl, h = gauged
        assert h.gauge == (1j if cpl.orientation == "parallel" else 1.0)
        s = h.gauge_diagonal()
        full = physical_hamiltonian(h)
        np.testing.assert_allclose(s[:, None] * h.h_total * s.conj(), full,
                                   rtol=0, atol=1e-15 * np.max(np.abs(full)))

    def test_eigenvalues_match_complex_eigh(self, gauged):
        _, h = gauged
        w_complex = np.linalg.eigvalsh(physical_hamiltonian(h))
        w_real, v = h.eigensystem()
        assert v.dtype == np.float64
        assert np.max(np.abs(w_real - w_complex)) <= 1e-12 * np.max(np.abs(w_complex))

    def test_evolve_vector_keeps_norm(self, gauged, spec, tls):
        _, h = gauged
        psi = initial_joint_vector(h.grid, spec, TlsState.equatorial(0.7), -1.0,
                                   tls.energy_gap)
        states = evolve_vector(psi, h, np.linspace(0.0, 2.0, 7))
        np.testing.assert_allclose(np.linalg.norm(states, axis=0), 1.0, rtol=0, atol=1e-12)

    def test_matches_complex_propagator(self, gauged, spec, tls):
        # the gauged real path equals exp(-i H t/hbar) of the physical matrix
        _, h = gauged
        psi = initial_joint_vector(h.grid, spec, TlsState.equatorial(0.7), -1.0,
                                   tls.energy_gap)
        w, v = np.linalg.eigh(physical_hamiltonian(h))
        t = 1.3
        want = v @ (np.exp(-1j * w * t / HBAR_EV_FS) * (v.conj().T @ psi))
        np.testing.assert_allclose(evolve_vector(psi, h, t), want, rtol=0, atol=1e-10)

    def test_kernel_off_the_gauge_rejected(self, kin, tls, geometry, spec, monkeypatch):
        # the imaginary odd parallel kernel with a real even admixture is
        # Hermitian but neither real nor imaginary: the real gauge cannot hold it
        transverse = DipoleCoupling(tls, geometry, kin, "transverse")
        column = solver_density.kernel_column
        monkeypatch.setattr(solver_density, "kernel_column",
                            lambda grid, cpl: column(grid, cpl) + 1e-3 * column(grid, transverse))
        cpl = DipoleCoupling(tls, geometry, kin, "parallel")
        with pytest.raises(AssemblyError, match="TLS gauge"):
            assemble_hamiltonian(grid_for_spec(spec, cpl, 128), kin, cpl, tls)


def test_assembly_stores_no_dense_matrix(kin, tls, coupling, spec):
    h = assemble_hamiltonian(grid_for_spec(spec, coupling, 1024), kin, coupling, tls)
    stored = {k: v.size for k, v in vars(h).items() if isinstance(v, np.ndarray)}
    assert set(stored) == {"h0f", "h0b", "h_ib", "coupling_column"}
    assert max(stored.values()) <= 2 * 1024
    assert h._eig is None


def test_grid_runs_never_build_the_dense_matrix(coupling, tls, spec, monkeypatch):
    def refuse(h):
        raise AssertionError("dense h_total built")

    monkeypatch.setattr(solver_density.HamiltonianAssembly, "h_total", property(refuse))
    traj = run_qew_interaction(default_packet(spec, coupling, 128), TlsState.ground(),
                               coupling, tls)
    assert traj.p2[-1] == pytest.approx(8.27e-7, rel=0.01)
    summary = run_scenario(default_config("solver_crosscheck")).summary
    assert summary["final_rel_difference"] <= 1e-3


def test_evolve_vector_holds_one_copy_of_the_states():
    # solver_crosscheck at N = 1024: its 369 sampled states are 11.5 MiB, and
    # the whole propagation holds little more than that one copy
    cfg = default_config("solver_crosscheck")
    kin, tls, geo, coupling = physics_bundle(cfg)
    sigma = cfg["sweep"]["sigma_et_over_period"][0] * tls.period
    spec = GaussianQewSpec.from_duration(kin, sigma, t0=0.0)
    h = assemble_hamiltonian(grid_for_spec(spec, coupling, 1024), kin, coupling, tls)
    t_start, t_end = interaction_window(sigma, geo.transit_time, 0.0)
    psi0 = initial_joint_vector(h.grid, spec, TlsState.ground(), t_start, tls.energy_gap)
    tracemalloc.start()
    try:
        states = evolve_vector(psi0, h, np.linspace(0.0, t_end - t_start, 369))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert states.nbytes == 369 * 2048 * 16
    assert peak <= 20 * 2**20


@pytest.fixture(scope="module")
def traced_crosscheck():
    """(config, plan, trajectory, tracemalloc peak) of solver_crosscheck's
    density run at N = 1024: 369 states at the momentum RK4's records."""
    cfg = default_config("solver_crosscheck")
    cfg["numerics"]["grid_points"] = 1024
    planned = plan(cfg)
    _, tls, _, coupling = planned.physics
    packet, (steps, every) = planned.packets[0], planned.schedule
    k = np.append(np.arange(0, steps, every), steps)
    times = packet.window[0] + k * ((packet.window[1] - packet.window[0]) / steps)
    tracemalloc.start()
    try:
        traj = run_qew_interaction(packet, TlsState.ground(), coupling, tls, times=times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return cfg, planned, traj, peak


def test_trajectory_holds_its_states_once(traced_crosscheck):
    # the expansion keeps K = 101 orders for 369 samples, so the trajectory is
    # summed from the orders' vectors (3.2 MiB) 16 samples at a time: it peaks
    # at 5.5 MiB, below its 11.5 MiB of states, and keeps a copy of the last
    # state, not a view of the block that holds it
    _, planned, traj, peak = traced_crosscheck
    states_bytes = planned.states * 2048 * 16
    assert traj.times.size == planned.states == 369
    assert peak <= 0.6 * states_bytes
    assert traj.final_vector.flags.owndata and traj.final_vector.shape == (2048,)


def test_validate_estimate_bounds_the_traced_trajectory(traced_crosscheck):
    cfg, _, _, peak = traced_crosscheck
    [line] = [ln for ln in validate_config(cfg) if ln.startswith("estimated peak memory")]
    assert peak <= float(line.split()[3]) * 1e6


@pytest.mark.parametrize("extra", [5, 1], ids=["partial-block", "lone-column"])
def test_observables_by_block_equal_whole_array_formulas(gauged, spec, tls, extra):
    # two full blocks of samples and a partial one, or a one-column block:
    # every output equals its formula over all samples at once, to the bit
    _, h = gauged
    size = 2 * _SAMPLE_BLOCK + extra
    psi0 = initial_joint_vector(h.grid, spec, TlsState.equatorial(0.7), -1.0,
                                tls.energy_gap)
    times = np.linspace(-1.0, 1.0, size)
    states = evolve_vector(psi0, h, times + 1.0)
    traj = _observables(times, states, h, collect_rho_b=True)
    psi = states.reshape(2, h.n, -1)
    a = np.abs(psi) ** 2
    r21 = h.h_ib[0, 1]
    h_ip_psi2 = circulant_product(h.coupling_column / (r21 * h.gauge), h.n)(psi[1].T)
    want = {"p1": a[0].sum(axis=0), "p2": a[1].sum(axis=0),
            "e_free": np.einsum("n,ins->s", h.h0f, a),
            "e_int": 2.0 * r21 * np.real(np.einsum("sn,sn->s", psi[0].T.conj(), h_ip_psi2)),
            "rho_b": np.einsum("ins,jns->sij", psi, psi.conj())}
    want["e_bound"] = h.h0b[0] * want["p1"] + h.h0b[1] * want["p2"]
    want["norm"] = want["p1"] + want["p2"]
    for name, value in want.items():
        np.testing.assert_array_equal(getattr(traj, name), value, err_msg=name)
    np.testing.assert_array_equal(traj.final_vector, states[:, -1])


class TestChebyshev:
    """evolve_vector's Chebyshev expansion against the eigendecomposition."""

    @pytest.mark.parametrize("r_max", [60.0, 500.0, 1460.0])
    def test_matches_eigh(self, gauged, spec, tls, r_max):
        # r_max = half-width x longest time / hbar sets the expansion order,
        # here from about 140 to 1650
        _, h = gauged
        psi = initial_joint_vector(h.grid, spec, TlsState.equatorial(0.7), -1.0,
                                   tls.energy_gap)
        t_end = r_max * HBAR_EV_FS / _spectral_bounds(h)[1]
        assert 100 <= _chebyshev_points(r_max) <= MAX_CHEBYSHEV_ORDER
        for t in (t_end, np.linspace(0.0, t_end, 37)):
            got = evolve_vector(psi, h, t)
            want = eigh_reference(psi, h, t)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert h._eig is None       # nothing was decomposed

    def test_spectral_bounds_hold_the_spectrum(self, gauged):
        _, h = gauged
        centre, half = _spectral_bounds(h)
        w = np.linalg.eigvalsh(h.h_total)
        assert centre - half <= w[0] and w[-1] <= centre + half

    def test_legs_match_eigh(self, assembly, spec, tls, monkeypatch):
        # a window of 2.5 leg lengths runs as three expansions, each from the
        # state at the end of the one before; nothing is decomposed
        psi = initial_joint_vector(assembly.grid, spec, TlsState.equatorial(0.7), -1.0,
                                   tls.energy_gap)
        orders = []
        series = solver_density._chebyshev_series
        monkeypatch.setattr(solver_density, "_chebyshev_series",
                            lambda *a: orders.append(a[-1].shape[0]) or series(*a))
        r_max = 2.5 * MAX_CHEBYSHEV_ORDER
        t_end = r_max * HBAR_EV_FS / _spectral_bounds(assembly)[1]
        for t in (t_end, np.linspace(0.0, t_end, 37)):
            got = evolve_vector(psi, assembly, t)
            want = eigh_reference(psi, assembly, t)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert len(orders) == 6 and max(orders) <= MAX_CHEBYSHEV_ORDER
        assert assembly._eig is None

    def test_block_equals_one_row_calls(self, gauged, spec, tls, monkeypatch):
        # four rows out of Kapteyn order, each with its own norm, its own
        # unsorted times and its own order, share one recurrence and give
        # each row its one-row result
        _, h = gauged
        starts = np.array([initial_joint_vector(h.grid, spec, TlsState.equatorial(phi), -1.0,
                                                tls.energy_gap) for phi in (0.3, 1.1, 2.0, 2.9)])
        starts[2] *= 0.5
        t_end = np.array([200.0, 900.0, 40.0, 500.0]) * HBAR_EV_FS / _spectral_bounds(h)[1]
        times = t_end[:, None] * np.random.default_rng(5).uniform(0.0, 1.0, (4, 7))
        times[:, 3] = t_end
        kept = []
        series = solver_density._chebyshev_series
        monkeypatch.setattr(solver_density, "_chebyshev_series",
                            lambda *a: kept.append(list(a[-2])) or series(*a))
        block = evolve_vector(starts, h, times)
        assert block.shape == (4, 2 * h.n, 7)
        assert kept[0] == sorted(kept[0], reverse=True) and len(set(kept[0])) == 4
        for i in range(4):
            np.testing.assert_allclose(block[i], evolve_vector(starts[i], h, times[i]),
                                       rtol=0, atol=1e-13)
        ends = evolve_vector(starts, h, t_end)
        assert ends.shape == (4, 2 * h.n)
        for i in range(4):
            np.testing.assert_allclose(ends[i], evolve_vector(starts[i], h, t_end[i]),
                                       rtol=0, atol=1e-13)
        # the narrowest ring, three orders per block, gives the same states
        monkeypatch.setattr(solver_density, "CHEBYSHEV_BLOCK", 4)
        np.testing.assert_allclose(evolve_vector(starts, h, times), block, rtol=0, atol=1e-13)

    def test_series_stops_each_row_at_its_own_order(self, assembly, spec, tls):
        # coefficients past a row's own Kapteyn order never reach its columns
        starts = np.array([initial_joint_vector(assembly.grid, spec, TlsState.equatorial(phi),
                                                -1.0, tls.energy_gap) for phi in (0.7, 1.9)])
        diag, columns = _scaled_generators([assembly], [_spectral_bounds(assembly)])
        generator = (diag[[0, 0]], columns[[0, 0]])
        r = np.array([300.0, 60.0])
        points = _chebyshev_points(300.0)
        kept = np.array([_kept_orders(x, points) for x in r])
        table = _chebyshev_coefficients(r, points)
        poisoned = table.copy()
        poisoned[kept[1]:, 1] = 1.0
        want = _chebyshev_series(generator, starts, kept, table)
        np.testing.assert_array_equal(_chebyshev_series(generator, starts, kept, poisoned), want)
        assert kept[1] < kept[0] == table.shape[0]

    def test_block_rows_with_different_leg_counts(self, gauged, spec, tls, monkeypatch):
        # the longest row sets two legs of 0.75 MAX_CHEBYSHEV_ORDER; the row
        # that ends inside the first leg stops there, the others go on
        _, h = gauged
        starts = np.array([initial_joint_vector(h.grid, spec, TlsState.equatorial(phi), -1.0,
                                                tls.energy_gap) for phi in (0.7, 1.9, 2.6)])
        r_end = np.array([0.3, 1.5, 0.9]) * MAX_CHEBYSHEV_ORDER
        times = np.linspace(0.0, 1.0, 9) * (r_end * HBAR_EV_FS / _spectral_bounds(h)[1])[:, None]
        rows = []
        series = solver_density._chebyshev_series
        monkeypatch.setattr(solver_density, "_chebyshev_series",
                            lambda *a: rows.append(a[1].shape[0]) or series(*a))
        got = evolve_vector(starts, h, times)
        assert rows == [3, 2]
        for i in range(3):
            np.testing.assert_allclose(got[i], eigh_reference(starts[i], h, times[i]),
                                       rtol=0, atol=1e-12)
        assert h._eig is None

    def test_times_must_fit_the_states(self, assembly, spec, tls):
        psi = initial_joint_vector(assembly.grid, spec, TlsState.ground(), -1.0,
                                   tls.energy_gap)
        for states, t in ((psi, np.ones((2, 3))), (np.stack([psi, psi]), np.ones(3)),
                          (np.stack([psi, psi]), 1.0), (np.stack([psi, psi]), np.ones((2, 3, 1)))):
            with pytest.raises(DomainError, match="do not fit"):
                evolve_vector(states, assembly, t)

    @pytest.mark.parametrize("r_max", [40.0, 100.0, 300.0, 1500.0])
    def test_trim_drops_only_negligible_orders(self, r_max):
        # every dropped coefficient eps_k J_k(r) is below 1e-16 for all
        # |r| <= r_max, the rule trims every window, and it keeps at most a
        # dozen orders more than the exact Bessel values would
        from scipy.special import jv
        m = _chebyshev_points(r_max)
        kept = _kept_orders(r_max, m)
        assert kept < m
        k = np.arange(kept, m)[:, None]
        r = np.linspace(0.0, r_max, 401)[None, :]
        assert np.max(2.0 * np.abs(jv(k, r))) <= 1e-16
        exact = np.flatnonzero(2.0 * np.abs(jv(np.arange(m), r_max)) > 1e-16)[-1]
        assert kept - 1 - exact <= 12

    def test_trim_moves_states_by_rounding_only(self, assembly, spec, tls, monkeypatch):
        psi = initial_joint_vector(assembly.grid, spec, TlsState.equatorial(0.7), -1.0,
                                   tls.energy_gap)
        t = np.linspace(0.0, 500.0 * HBAR_EV_FS / _spectral_bounds(assembly)[1], 37)
        trimmed = evolve_vector(psi, assembly, t)
        monkeypatch.setattr(solver_density, "_kept_orders", lambda r_max, m: m)
        assert np.max(np.abs(evolve_vector(psi, assembly, t) - trimmed)) <= 1e-14

    def test_norm_drift_raises(self, assembly, spec, tls, coupling, monkeypatch):
        # a half-width below the spectrum's: the expansion diverges
        bounds = solver_density._spectral_bounds
        monkeypatch.setattr(solver_density, "_spectral_bounds",
                            lambda h: (bounds(h)[0], 0.5 * bounds(h)[1]))
        psi = initial_joint_vector(assembly.grid, spec, TlsState.ground(), -1.0,
                                   tls.energy_gap)
        with pytest.raises(PropagationError, match="norm"):
            evolve_vector(psi, assembly, 2.0)
        # and a trajectory summed from its orders, with no evolve_vector call
        monkeypatch.setattr(solver_density, "evolve_vector", None)
        with pytest.raises(PropagationError, match="norm"):
            run_qew_interaction(default_packet(spec, coupling, 128), TlsState.ground(),
                                coupling, tls)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="the reference needs an extended-precision long double")
def test_fig3_plateau_against_extended_precision():
    # fig3's golden config at sigma = 0.3 T21 (N = 128, 100 samples): the
    # final P2 of the scenario agrees to 1e-13 relative with a long-double
    # Taylor propagation of the same matrix; an eigh path misses by 2e-12
    cfg = default_config("fig3_ground")
    cfg["numerics"].update({"grid_points": 128, "time_samples": 100})
    cfg["sweep"]["sigma_et_over_period"] = [0.3]
    p2 = run_scenario(cfg).summary["plateau_p2"]["0.3"]

    kin, tls, geo, coupling = physics_bundle(cfg)
    sigma = 0.3 * tls.period
    spec = GaussianQewSpec.from_duration(kin, sigma, t0=0.0)
    h = assemble_hamiltonian(grid_for_spec(spec, coupling, 128), kin, coupling, tls)
    t_start, t_end = interaction_window(sigma, geo.transit_time, 0.0)
    psi0 = initial_joint_vector(h.grid, spec, TlsState.ground(), t_start, tls.energy_gap)
    x = taylor_reference(h, psi0, t_end - t_start)
    p2_ref = float(np.sum(x[:, h.n:] ** 2))
    assert p2 == pytest.approx(p2_ref, rel=1e-13, abs=0.0)


def test_interaction_energy_equals_dense_product(gauged, spec, tls):
    # e_int by FFT on the coupling column, in blocks of sample columns (150
    # samples: two full blocks and a partial one), against 2 r21 Re<psi_1|
    # h_ip psi_2> with the dense h_ip
    _, h = gauged
    psi0 = initial_joint_vector(h.grid, spec, TlsState.equatorial(0.7), -1.0,
                                tls.energy_gap)
    times = np.linspace(-1.0, 1.0, 150)
    states = evolve_vector(psi0, h, times + 1.0)
    got = _observables(times, states, h, collect_rho_b=False).e_int
    psi = states.reshape(2, h.n, -1)
    want = 2.0 * h.h_ib[0, 1] * np.real(np.einsum("ns,ns->s", psi[0].conj(),
                                                  kernel_matrix(h) @ psi[1]))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("orientation", ["transverse", "parallel"])
@pytest.mark.parametrize("divisions, n_records, streamed", [(31, 10, False), (310, 100, True)],
                         ids=["states", "streamed"])
def test_trajectory_at_record_times_equals_one_call_per_time(tls, geometry, spec, kin,
                                                             orientation, divisions,
                                                             n_records, streamed):
    # the momentum RK4's records (every 3rd step, then the last: a short final
    # interval) as absolute times: each sample equals the state evolved to that
    # time alone, through _observables (probabilities and eV, absolute).  The
    # expansion keeps K = 101 orders: above the 12 samples of 31 steps, whose
    # trajectory takes evolve_vector's states, and below the 105 of 310 steps,
    # whose trajectory is summed from the orders' vectors
    coupling = DipoleCoupling(tls, geometry, kin, orientation=orientation)
    window = interaction_window(spec.sigma_et, coupling.geometry.transit_time, spec.t0)
    steps, every = step_schedule(window, (window[1] - window[0]) / divisions, n_records)
    assert every == 3 and steps % every != 0
    k = np.append(np.arange(0, steps, every), steps)
    times = window[0] + k * ((window[1] - window[0]) / steps)
    state = TlsState.equatorial(0.7)
    traj = run_qew_interaction(default_packet(spec, coupling, 128), state, coupling, tls,
                               times=times, collect_rho_b=True)
    h = assemble_hamiltonian(grid_for_spec(spec, coupling, 128), kin, coupling, tls)
    r_max = _spectral_bounds(h)[1] * (times[-1] - times[0]) / HBAR_EV_FS
    assert (_kept_orders(r_max, _chebyshev_points(r_max)) <= times.size) == streamed
    psi0 = initial_joint_vector(h.grid, spec, state, times[0], tls.energy_gap)
    states = np.stack([evolve_vector(psi0, h, t - times[0]) for t in times], axis=-1)
    want = _observables(times, states, h, collect_rho_b=True)
    assert np.array_equal(traj.times, times)
    for name in ("p1", "p2", "norm", "e_free", "e_bound", "e_int", "rho_b", "final_vector"):
        got, ref = getattr(traj, name), getattr(want, name)
        assert np.max(np.abs(got - ref)) <= 1e-13, name
    assert traj.final_vector.flags.owndata and traj.final_vector.shape == (2 * h.n,)


class TestEvolution:
    def test_t_zero_identity(self, assembly, spec, tls):
        psi = initial_joint_vector(assembly.grid, spec, TlsState.ground(), -1.0,
                                   tls.energy_gap)
        np.testing.assert_allclose(evolve_vector(psi, assembly, 0.0), psi, atol=1e-14)

    def test_trace_purity_hermiticity_preserved(self, assembly, spec, tls):
        # mixed state 0.7/0.3 of two pure states, propagated as a 2-row block:
        # trace, purity and hermiticity preserved to 1e-9.  The weighted Gram
        # matrix sqrt(p_k p_l) <phi_k|phi_l> has the trace, the purity and the
        # nonzero spectrum of rho = sum_k p_k |phi_k><phi_k|.
        starts = np.stack([
            initial_joint_vector(assembly.grid, spec, TlsState.ground(), -1.0,
                                 tls.energy_gap),
            initial_joint_vector(assembly.grid, spec, TlsState.equatorial(0.3), -1.0,
                                 tls.energy_gap)])
        weights = np.sqrt([0.7, 0.3])[:, None]

        def gram(states):
            return (weights * states).conj() @ (weights * states).T

        g0 = gram(starts)
        g = gram(evolve_vector(starts, assembly, np.full(2, 1.7)))
        assert np.trace(g).real == pytest.approx(1.0, abs=1e-9)
        assert np.sum(np.abs(g) ** 2) == pytest.approx(np.sum(np.abs(g0) ** 2), abs=1e-9)
        assert np.max(np.abs(g - g.conj().T)) < 1e-9
        assert np.linalg.eigvalsh(g)[0] > -1e-8

    def test_negative_time_rejected(self, assembly, spec, tls):
        psi = initial_joint_vector(assembly.grid, spec, TlsState.ground(), -1.0,
                                   tls.energy_gap)
        with pytest.raises(DomainError):
            evolve_vector(psi, assembly, -1.0)
        with pytest.raises(DomainError):
            evolve_vector(np.stack([psi, psi]), assembly, np.array([0.5, -1.0]))


class TestPartialTraces:
    def test_product_state_factors(self, assembly, spec, tls):
        free = schrodinger_qew_vector(assembly.grid, spec, -1.0)
        tls_vec = np.array([math.sqrt(0.3), math.sqrt(0.7) * 1j])
        psi = np.kron(tls_vec, free)
        rho_b = partial_trace_bound(psi)
        np.testing.assert_allclose(rho_b, np.outer(tls_vec, tls_vec.conj()),
                                   atol=1e-12)

    def test_occupations_sum_to_one(self, coupling, tls, spec):
        traj = run_qew_interaction(default_packet(spec, coupling, 128),
                                   TlsState.equatorial(0.2), coupling, tls)
        np.testing.assert_allclose(traj.p1 + traj.p2, 1.0, atol=1e-9)

    def test_entanglement_entropy_positive(self, coupling, tls, spec):
        traj = run_qew_interaction(default_packet(spec, coupling, 128), TlsState.ground(),
                                   coupling, tls)
        rho_b = traj.final_rho_b()
        evals = np.linalg.eigvalsh(rho_b)
        evals = evals[evals > 1e-300]
        entropy = float(-np.sum(evals * np.log(evals)))
        assert entropy > 1e-7


class TestScenario:
    def test_ground_plateau_regression(self, coupling, tls, spec, kin):
        # frozen from this implementation at n=256; matches the closed form
        # within 2 percent (the criterion tolerance)
        from feberi.analytic import p2_from_ground
        traj = run_qew_interaction(default_packet(spec, coupling, 256), TlsState.ground(),
                                   coupling, tls)
        assert traj.p2[-1] == pytest.approx(8.266149849078361e-07, rel=1e-6)
        assert traj.p2[-1] == pytest.approx(p2_from_ground(coupling, kin), rel=0.02)

    def test_size_independence(self, coupling, tls, kin):
        # Gamma from 0.1 to 3: plateau constant within 3%
        finals = []
        for gam in (0.1, 0.6, 1.5, 3.0):
            spec = GaussianQewSpec.from_duration(kin, gam / tls.omega_21, t0=0.0)
            traj = run_qew_interaction(default_packet(spec, coupling, 256), TlsState.ground(),
                                       coupling, tls)
            finals.append(traj.p2[-1])
        finals = np.array(finals)
        assert (finals.max() - finals.min()) / finals.mean() < 0.03

    def test_energy_accounting_ground(self, coupling, tls, spec):
        traj = run_qew_interaction(default_packet(spec, coupling, 128), TlsState.ground(),
                                   coupling, tls)
        acc = energy_accounting(traj)
        np.testing.assert_allclose(acc["delta_e_total"], 0.0, atol=1e-9)
        resid = acc["delta_e_free"] + tls.energy_gap * (traj.p2 - traj.p2[0])
        assert np.max(np.abs(resid)) <= 1e-3 * tls.energy_gap
        # interaction energy returns to zero after the passage
        assert abs(acc["delta_e_int"][-1]) < 1e-9

    def test_energy_transient_superposition(self, coupling, tls, kin):
        t0 = math.pi / tls.omega_21
        spec = GaussianQewSpec.from_duration(kin, 0.1 * tls.period, t0=t0)
        traj = run_qew_interaction(default_packet(spec, coupling, 128),
                                   TlsState.equatorial(math.pi / 2), coupling, tls)
        acc = energy_accounting(traj)
        resid = np.abs(acc["delta_e_free"] + tls.energy_gap * (traj.p2 - traj.p2[0]))
        ground = run_qew_interaction(default_packet(spec.with_arrival(t0), coupling, 128),
                                     TlsState.ground(), coupling, tls)
        acc_g = energy_accounting(ground)
        resid_g = np.abs(acc_g["delta_e_free"]
                         + tls.energy_gap * (ground.p2 - ground.p2[0]))
        # transient imbalance far above the ground-start one; settles after
        assert resid.max() > 50.0 * resid_g.max()
        assert resid[-1] <= 1e-3 * tls.energy_gap


def eigh_train(rho_b0, qews, coupling, tls, n):
    """The train through one dense window propagator, from an eigh of
    h_total: each electron's TLS state is split into its eigenbranches, and
    each branch is propagated as a pure state with that electron's packet."""
    base = qews[0]
    grid = grid_for_spec(base, coupling, n)
    h = assemble_hamiltonian(grid, base.kin, coupling, tls)
    window_half = interaction_window(base.sigma_et, coupling.geometry.transit_time, 0.0)[1]
    w, v = np.linalg.eigh(h.h_total)
    s = h.gauge_diagonal()
    phases = np.exp(-1j * w * 2.0 * window_half / HBAR_EV_FS)
    u_window = s[:, None] * (v @ (phases[:, None] * v.T)) * s.conj()
    w21 = tls.energy_gap / HBAR_EV_FS
    rho_b = np.array(rho_b0, dtype=complex)
    p2_seq = []
    t_clock = base.t0 - window_half
    for spec in qews:
        t_start = spec.t0 - window_half
        rho_b[0, 1] *= np.exp(1j * w21 * (t_start - t_clock))
        rho_b[1, 0] = np.conj(rho_b[0, 1])
        free = schrodinger_qew_vector(grid, spec, t_start)
        evals, evecs = np.linalg.eigh(rho_b)
        rho_b = sum(lam * partial_trace_bound(u_window @ np.kron(u, free))
                    for lam, u in zip(evals, evecs.T) if lam >= 1e-14)
        t_clock = t_start + 2.0 * window_half
        p2_seq.append(rho_b[1, 1].real)
    return np.array(p2_seq), rho_b


def _pure(state):
    c = np.array([state.c1, state.c2])
    return np.outer(c, c.conj())


class TestSequentialTrain:
    def test_single_matches_direct(self, coupling, tls, kin, spec):
        p2_seq, rho_b = sequential_multi_qew(np.diag([1.0, 0.0]), [spec], coupling,
                                             tls, n=128)
        traj = run_qew_interaction(default_packet(spec, coupling, 128), TlsState.ground(),
                                   coupling, tls)
        assert p2_seq[-1] == pytest.approx(traj.p2[-1], rel=1e-9)
        np.testing.assert_allclose(rho_b, traj.final_rho_b(), atol=1e-12)

    def test_correlated_quadratic_matches_born(self, coupling, tls, kin):
        omega_b = tls.omega_21 / 2.0
        t_b = TWO_PI / omega_b
        sched = arrival_schedule("correlated", 6, omega_b, mean_spacing=3 * t_b,
                                 seed=5)
        sigma_pt = 0.1
        qews = [GaussianQewSpec.from_duration(kin, sigma_pt, t0=t)
                for t in sched.times]
        p2_seq, _ = sequential_multi_qew(np.diag([1.0, 0.0]), qews, coupling, tls,
                                         n=128)
        _, r2 = quadratic_fit(np.arange(1, 7), p2_seq)
        assert r2 > 0.999
        p2_born = simulate_train_ensemble(TlsState.ground(), sched.times[None],
                                          train_window(coupling, sigma_pt, tls.omega_21))[0]
        np.testing.assert_allclose(p2_seq[-1], p2_born[-1], rtol=0.10)

    def test_random_mean_linear(self, coupling, tls, kin):
        omega_b = tls.omega_21 / 2.0
        t_b = TWO_PI / omega_b
        acc = np.zeros(6)
        n_seeds = 24
        for s in range(n_seeds):
            sched = arrival_schedule("random", 6, omega_b, mean_spacing=3 * t_b,
                                     seed=300 + s)
            qews = [GaussianQewSpec.from_duration(kin, 0.1, t0=t)
                    for t in sched.times]
            p2_seq, _ = sequential_multi_qew(np.diag([1.0, 0.0]), qews, coupling,
                                             tls, n=64)
            acc += p2_seq
        mean = acc / n_seeds
        # ensemble mean grows linearly: P2(6)/P2(1) ~ 6 well below quadratic 36
        ratio = mean[-1] / mean[0]
        assert 2.0 < ratio < 14.0

    def test_window_overlap_rejected(self, coupling, tls, kin):
        qews = [GaussianQewSpec.from_duration(kin, 0.1, t0=0.0),
                GaussianQewSpec.from_duration(kin, 0.1, t0=0.3)]
        with pytest.raises(DomainError):
            sequential_multi_qew(np.diag([1.0, 0.0]), qews, coupling, tls, n=64)

    @pytest.mark.parametrize("kind", ["correlated", "random"])
    @pytest.mark.parametrize("rho_b0", [
        _pure(TlsState.equatorial(0.7)),
        np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]),
    ], ids=["pure", "mixed"])
    def test_channel_matches_eigh_train(self, coupling, tls, kin, kind, rho_b0):
        omega_b = tls.omega_21 / 2.0
        sched = arrival_schedule(kind, 20, omega_b, mean_spacing=3 * TWO_PI / omega_b,
                                 seed=7)
        qews = [GaussianQewSpec.from_duration(kin, 0.1, t0=t) for t in sched.times]
        p2_seq, rho_b = sequential_multi_qew(rho_b0, qews, coupling, tls, n=128)
        p2_want, rho_want = eigh_train(rho_b0, qews, coupling, tls, n=128)
        np.testing.assert_allclose(p2_seq, p2_want, rtol=1e-12, atol=0)
        np.testing.assert_allclose(rho_b, rho_want, rtol=0, atol=1e-12)

    def test_mixed_packet_shapes_rejected(self, coupling, tls, kin):
        # one grid and one window, sized from the first packet, would not
        # fit the second: the train rejects it rather than answer wrongly
        qews = [GaussianQewSpec.from_duration(kin, 0.1, t0=0.0),
                GaussianQewSpec.from_duration(kin, 1.0, t0=100.0)]
        with pytest.raises(DomainError, match="arrival time"):
            sequential_multi_qew(np.diag([1.0, 0.0]), qews, coupling, tls, n=64)
        base = GaussianQewSpec.from_duration(kin, 10.0)
        mods = [ModulatedQewSpec(base=base, g=1.0, omega_b=tls.omega_21 / 2.0),
                ModulatedQewSpec(base=base.with_arrival(300.0), g=1.0,
                                 omega_b=tls.omega_21 / 2.0, phi_b=0.5)]
        with pytest.raises(DomainError, match="arrival time"):
            sequential_multi_qew(np.diag([1.0, 0.0]), mods, coupling, tls, n=64)

    def test_modulated_packets_differing_in_arrival_accepted(self, coupling, tls, kin):
        # a g = 0 modulated train is its base packets' train
        bases = [GaussianQewSpec.from_duration(kin, 5.0, t0=t) for t in (0.0, 100.0)]
        mods = [ModulatedQewSpec(base=b, g=0.0, omega_b=tls.omega_21 / 2.0) for b in bases]
        rho_b0 = _pure(TlsState.equatorial(0.7))
        p2_mod, _ = sequential_multi_qew(rho_b0, mods, coupling, tls, n=512)
        p2_base, _ = sequential_multi_qew(rho_b0, bases, coupling, tls, n=512)
        np.testing.assert_allclose(p2_mod, p2_base, rtol=1e-12)

    @pytest.mark.parametrize("rho_b0, reason", [
        (np.eye(3) / 3.0, "2x2"),
        (np.array([[1.0, 0.9], [0.0, 0.0]]), "Hermitian"),
        (np.diag([1.5, -0.5]), "positive semidefinite"),
    ], ids=["not-2x2", "not-hermitian", "not-psd"])
    def test_invalid_rho_b0_rejected(self, coupling, tls, kin, rho_b0, reason):
        qews = [GaussianQewSpec.from_duration(kin, 0.1, t0=0.0)]
        with pytest.raises(DomainError, match=f"rho_b0 must be {reason}"):
            sequential_multi_qew(rho_b0, qews, coupling, tls, n=64)


@pytest.mark.parametrize("orientation, rel", [("transverse", 1e-4), ("parallel", 1e-3)])
def test_born_window_lacks_the_grid_windows_recoil_factor(orientation, rel):
    # default fig9's point packet (Gamma = 0.2195, N = 256): from ground, the
    # Born window's P2 is the joint grid's times e^{-Gamma^2}, the coherent
    # share that the Born model keeps of a packet of that size (1.5e-5 off,
    # transverse).  The parallel kernel's slow tail keeps both models' P2
    # rising past the default window (+11% at 40 t_r), so its ratio holds to
    # 3.8e-4 there and moves by 2e-3 with the window
    cfg = default_config("fig9_buildup")
    cfg["physics"]["orientation"] = orientation
    kin, tls, _, coupling = physics_bundle(cfg)
    sigma = plan(cfg).bunch_sigma_et
    gamma = tls.omega_21 * sigma
    assert gamma == pytest.approx(0.2195, abs=1e-4)
    born = train_window(coupling, sigma, tls.omega_21, **profile_grid_args(cfg))
    [grid] = grid_windows([packet_for_spec(GaussianQewSpec.from_duration(kin, sigma), coupling,
                                           cfg["numerics"]["grid_points"],
                                           **window_factors(cfg))], coupling, tls)
    ratio = born.channel[3, 0].real / grid.channel[3, 0].real
    assert ratio == pytest.approx(math.exp(-gamma ** 2), rel=rel)


def test_grid_windows_refuse_a_packet_not_arriving_at_zero(coupling, tls, kin):
    # each window starts its packet at -half of its own window: a packet
    # arriving at t0 = 5 fs would run over -(5 + half)..(5 + half) and give a
    # channel 1.5e-3 off its t0 = 0 channel, so it is refused, alone or in a block
    on_time = default_packet(GaussianQewSpec.from_duration(kin, 0.2), coupling, 128)
    late = default_packet(GaussianQewSpec.from_duration(kin, 0.2, t0=5.0), coupling, 128)
    grid_windows([on_time], coupling, tls)
    for packets in ([late], [on_time, late]):
        with pytest.raises(DomainError, match="arrive at t = 0"):
            grid_windows(packets, coupling, tls)


def test_no_scenario_or_train_calls_eigh(coupling, tls, kin, assembly, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigendecomposition called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    with pytest.raises(AssertionError):     # the patch reaches the dense reference
        assembly.eigensystem()
    for name in SCENARIOS:
        run_scenario(default_config(name))
    qews = [GaussianQewSpec.from_duration(kin, 0.1, t0=t) for t in (0.0, 20.0, 45.0)]
    p2_seq, _ = sequential_multi_qew(np.diag([1.0, 0.0]), qews, coupling, tls, n=64)
    assert np.all(p2_seq > 0.0)


def test_rho_b_bin_round_trip(tmp_path):
    times = np.linspace(0.0, 1.0, 5)
    rho = np.arange(5 * 4, dtype=float).reshape(5, 2, 2) + 1j
    path = tmp_path / "rho.bin"
    write_rho_b_bin(path, times, rho)
    dt, back = read_rho_b_bin(path)
    assert dt == pytest.approx(0.25)
    np.testing.assert_allclose(back, rho)
