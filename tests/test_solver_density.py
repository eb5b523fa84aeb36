import math

import numpy as np
import pytest
from scipy.integrate import quad

from feberi.core import HBAR_EV_FS, TWO_PI, DomainError, TlsSpec, TlsState
from feberi.coulomb import DipoleCoupling, m_spatial
from feberi.qew import GaussianQewSpec
from feberi.solver_density import (
    AssemblyError,
    JointDensityMatrix,
    assemble_hamiltonian,
    energy_accounting,
    evolve,
    evolve_vector,
    initial_joint_vector,
    partial_trace_bound,
    partial_trace_free,
    read_rho_b_bin,
    run_qew_interaction,
    schrodinger_qew_vector,
    sequential_multi_qew,
    write_rho_b_bin,
)
from feberi.grid import MomentumGrid, build_grid
from feberi.qew import grid_for_spec
from feberi.born_dynamics import arrival_schedule, quadratic_fit, simulate_train


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
            assert assembly.h_ip[m, n].real == pytest.approx(ref, rel=1e-4)
            assert abs(assembly.h_ip[m, n].imag) < 1e-16

    def test_dft_mode_matches_spectral_near_diagonal(self, kin, tls, coupling, spec):
        # kernel-resolving momentum cutoff: the sampled-kernel DFT assembly
        # agrees with the closed-form Toeplitz one for physical transfers
        extra = 6.0 * HBAR_EV_FS * kin.gamma / 2.4
        grid = build_grid(kin, spec.sigma_p0, coupling.recoil_momentum, 512,
                          extra_halfwidth=extra)
        h_dft = assemble_hamiltonian(grid, kin, coupling, tls, mode="dft")
        h_spc = assemble_hamiltonian(grid, kin, coupling, tls, mode="spectral")
        band = 40    # |m - n| <= band covers many recoil momenta
        k = np.arange(grid.n)
        mask = np.abs(k[:, None] - k[None, :]) <= band
        scale = np.max(np.abs(h_spc.h_ip))
        err = np.max(np.abs((h_dft.h_ip - h_spc.h_ip)[mask])) / scale
        assert err < 1e-4
        assert h_dft.aliasing_estimate < 1e-4

    def test_dft_mode_span_guard(self, kin, tls, geometry):
        # huge momentum cutoff -> tiny z-span -> kernel does not fit
        cpl = DipoleCoupling(tls, geometry, kin)
        grid = MomentumGrid(n=64, p0=kin.p0, p_cutoff=500.0)
        with pytest.raises(AssemblyError):
            assemble_hamiltonian(grid, kin, cpl, tls, mode="dft")

    def test_unknown_mode(self, assembly, kin, tls, coupling):
        with pytest.raises(DomainError):
            assemble_hamiltonian(assembly.grid, kin, coupling, tls, mode="exact")


class TestEvolution:
    def test_t_zero_identity(self, assembly, spec, tls):
        psi = initial_joint_vector(assembly.grid, spec, TlsState.ground(), -1.0,
                                   tls.energy_gap)
        rho = JointDensityMatrix(rho=np.outer(psi, psi.conj()), grid=assembly.grid)
        out = evolve(rho, assembly, 0.0)
        np.testing.assert_allclose(out.rho, rho.rho, atol=1e-14)

    def test_trace_purity_hermiticity_preserved(self, assembly, spec, tls):
        # mixed state: trace, purity and hermiticity preserved to 1e-9
        psi_a = initial_joint_vector(assembly.grid, spec, TlsState.ground(), -1.0,
                                     tls.energy_gap)
        psi_b = initial_joint_vector(assembly.grid, spec, TlsState.equatorial(0.3),
                                     -1.0, tls.energy_gap)
        rho0 = 0.7 * np.outer(psi_a, psi_a.conj()) + 0.3 * np.outer(psi_b, psi_b.conj())
        jdm = JointDensityMatrix(rho=rho0, grid=assembly.grid)
        purity0 = jdm.purity()
        out = evolve(jdm, assembly, 1.7)
        assert out.trace() == pytest.approx(1.0, abs=1e-9)
        assert out.purity() == pytest.approx(purity0, abs=1e-9)
        assert out.hermiticity_error() < 1e-9
        assert out.min_eigenvalue() > -1e-8

    def test_vector_path_matches_matrix_path(self, assembly, spec, tls):
        psi = initial_joint_vector(assembly.grid, spec, TlsState.equatorial(1.0),
                                   -1.0, tls.energy_gap)
        t = 0.9
        psi_t = evolve_vector(psi, assembly, t)
        rho_t = evolve(JointDensityMatrix(rho=np.outer(psi, psi.conj()),
                                          grid=assembly.grid), assembly, t)
        np.testing.assert_allclose(np.outer(psi_t, psi_t.conj()), rho_t.rho,
                                   atol=1e-12)

    def test_negative_time_rejected(self, assembly):
        rho = JointDensityMatrix(rho=np.eye(2 * assembly.n) / (2 * assembly.n),
                                 grid=assembly.grid)
        with pytest.raises(DomainError):
            evolve(rho, assembly, -1.0)


class TestPartialTraces:
    def test_product_state_factors(self, assembly, spec, tls):
        free = schrodinger_qew_vector(assembly.grid, spec, -1.0)
        tls_vec = np.array([math.sqrt(0.3), math.sqrt(0.7) * 1j])
        psi = np.kron(tls_vec, free)
        rho_b = partial_trace_bound(psi)
        np.testing.assert_allclose(rho_b, np.outer(tls_vec, tls_vec.conj()),
                                   atol=1e-12)
        rho_f = partial_trace_free(psi)
        np.testing.assert_allclose(rho_f, np.outer(free, free.conj()), atol=1e-12)

    def test_occupations_sum_to_one(self, coupling, tls, spec):
        traj = run_qew_interaction(spec, TlsState.equatorial(0.2), coupling, tls,
                                   n=128)
        np.testing.assert_allclose(traj.p1 + traj.p2, 1.0, atol=1e-9)

    def test_entanglement_entropy_positive(self, coupling, tls, spec):
        traj = run_qew_interaction(spec, TlsState.ground(), coupling, tls, n=128)
        rho_b = traj.final_rho_b()
        evals = np.linalg.eigvalsh(rho_b)
        evals = evals[evals > 1e-300]
        entropy = float(-np.sum(evals * np.log(evals)))
        assert entropy > 1e-7

    def test_matrix_input(self, assembly, spec, tls):
        psi = initial_joint_vector(assembly.grid, spec, TlsState.equatorial(0.5),
                                   -1.0, tls.energy_gap)
        rho = np.outer(psi, psi.conj())
        np.testing.assert_allclose(partial_trace_bound(rho),
                                   partial_trace_bound(psi), atol=1e-13)


class TestScenario:
    def test_ground_plateau_regression(self, coupling, tls, spec, kin):
        # frozen from this implementation at n=256; matches the closed form
        # within 2 percent (the criterion tolerance)
        from feberi.analytic import p2_from_ground
        traj = run_qew_interaction(spec, TlsState.ground(), coupling, tls, n=256)
        assert traj.p2[-1] == pytest.approx(8.266149849078361e-07, rel=1e-6)
        assert traj.p2[-1] == pytest.approx(p2_from_ground(coupling, kin), rel=0.02)

    def test_size_independence(self, coupling, tls, kin):
        # Gamma from 0.1 to 3: plateau constant within 3%
        finals = []
        for gam in (0.1, 0.6, 1.5, 3.0):
            spec = GaussianQewSpec.from_duration(kin, gam / tls.omega_21, t0=0.0)
            traj = run_qew_interaction(spec, TlsState.ground(), coupling, tls, n=256)
            finals.append(traj.p2[-1])
        finals = np.array(finals)
        assert (finals.max() - finals.min()) / finals.mean() < 0.03

    def test_energy_accounting_ground(self, coupling, tls, spec):
        traj = run_qew_interaction(spec, TlsState.ground(), coupling, tls, n=128)
        acc = energy_accounting(traj)
        np.testing.assert_allclose(acc["delta_e_total"], 0.0, atol=1e-9)
        resid = acc["delta_e_free"] + tls.energy_gap * (traj.p2 - traj.p2[0])
        assert np.max(np.abs(resid)) <= 1e-3 * tls.energy_gap
        # interaction energy returns to zero after the passage
        assert abs(acc["delta_e_int"][-1]) < 1e-9

    def test_energy_transient_superposition(self, coupling, tls, kin):
        t0 = math.pi / tls.omega_21
        spec = GaussianQewSpec.from_duration(kin, 0.1 * tls.period, t0=t0)
        traj = run_qew_interaction(spec, TlsState.equatorial(math.pi / 2), coupling,
                                   tls, n=128)
        acc = energy_accounting(traj)
        resid = np.abs(acc["delta_e_free"] + tls.energy_gap * (traj.p2 - traj.p2[0]))
        ground = run_qew_interaction(spec.with_arrival(t0), TlsState.ground(),
                                     coupling, tls, n=128)
        acc_g = energy_accounting(ground)
        resid_g = np.abs(acc_g["delta_e_free"]
                         + tls.energy_gap * (ground.p2 - ground.p2[0]))
        # transient imbalance far above the ground-start one; settles after
        assert resid.max() > 50.0 * resid_g.max()
        assert resid[-1] <= 1e-3 * tls.energy_gap


class TestSequentialTrain:
    def test_single_matches_direct(self, coupling, tls, kin, spec):
        p2_seq, rho_b = sequential_multi_qew(np.diag([1.0, 0.0]), [spec], coupling,
                                             tls, n=128)
        traj = run_qew_interaction(spec, TlsState.ground(), coupling, tls, n=128)
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
        p2_born = simulate_train(TlsState.ground(), sched, coupling, sigma_pt,
                                 tls.omega_21)
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


def test_rho_b_bin_round_trip(tmp_path):
    times = np.linspace(0.0, 1.0, 5)
    rho = np.arange(5 * 4, dtype=float).reshape(5, 2, 2) + 1j
    path = tmp_path / "rho.bin"
    write_rho_b_bin(path, times, rho)
    dt, back = read_rho_b_bin(path)
    assert dt == pytest.approx(0.25)
    np.testing.assert_allclose(back, rho)
