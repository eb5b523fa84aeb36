"""Joint density-matrix evolution of the free electron and the TLS.

The joint Hilbert space is {|p_n>, n grid points} x {|1>, |2>} with the
TLS-major index i*N + n.  The full Hamiltonian

    H = H0F (x) I2  +  IN (x) H0B  +  H_IP (x) H_IB

is time independent: the electron "moves" only through its momentum-space
phases, and the wavepacket's arrival time is encoded in the initial state.
Evolution is exact via one Hermitian eigendecomposition per assembly,
rho(t) = U rho U^dagger with U = V exp(-i Lambda t/hbar) V^dagger.

Two assembly modes for the momentum-space interaction kernel H_IP:

* "spectral" (default): Toeplitz matrix dp*Mt(p_m - p_n)/(2 pi hbar),
  built from the closed-form momentum kernel; alias-free and exactly the
  matrix the amplitude solver uses, at any grid size.
* "dft": F diag(f(z_l)) F^dagger with the spatial kernel sampled on the
  conjugate z-grid (span 2 pi hbar/dp).  Faithful to the discrete-Fourier
  construction but accurate only when the z-grid resolves the kernel, i.e.
  when p_cutoff exceeds the kernel's spectral width hbar*gamma/r_perp by a
  comfortable factor; aliasing is estimated and reported.

A pure-state fast path is used whenever the initial state is pure (or a
rank-k mixture, evolved as k vectors).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from feberi.core import HBAR_EV_FS, DomainError, ElectronKinematics, TlsSpec, TlsState
from feberi.coulomb import COULOMB_EV_NM, DipoleCoupling, m_tilde
from feberi.grid import MomentumGrid, interaction_window, toeplitz_kernel
from feberi.qew import ModulatedQewSpec, gaussian_momentum_amplitudes, grid_for_spec, \
    modulated_momentum_amplitudes


class AssemblyError(ValueError):
    """The z-grid cannot represent the interaction kernel faithfully."""


# -- Hamiltonian assembly -----------------------------------------------------------

@dataclass
class HamiltonianAssembly:
    """Pieces and total of the joint Hamiltonian (rest energy subtracted).

    h0f: (N,) free-electron dispersion on the grid, eV.
    h0b: (2,) TLS level energies (0, E_gap), eV.
    h_ip: (N, N) momentum-space kernel matrix, eV/nm (dipole factored out).
    h_ib: (2, 2) dipole matrix, off-diagonal r21 in nm.
    h_total: (2N, 2N) Hermitian total.
    """

    grid: MomentumGrid
    h0f: np.ndarray
    h0b: np.ndarray
    h_ip: np.ndarray
    h_ib: np.ndarray
    h_total: np.ndarray
    mode: str
    aliasing_estimate: float = 0.0
    _eig: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.grid.n

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached (eigenvalues, eigenvectors) of h_total."""
        if self._eig is None:
            w, v = np.linalg.eigh(self.h_total)
            self._eig = (w, v)
        return self._eig


def assemble_hamiltonian(grid: MomentumGrid, kin: ElectronKinematics,
                         coupling: DipoleCoupling, tls: TlsSpec,
                         mode: str = "spectral") -> HamiltonianAssembly:
    """Build the total joint Hamiltonian; Hermitian by construction."""
    if mode not in ("spectral", "dft"):
        raise DomainError(f"unknown assembly mode {mode!r}")
    n = grid.n
    p = grid.points
    h0f = np.real(kin.dispersion(p))
    h0b = np.array([0.0, tls.energy_gap])
    r21 = tls.dipole_length
    h_ib = np.array([[0.0, r21], [r21, 0.0]], dtype=complex)

    aliasing = 0.0
    if mode == "spectral":
        h_ip = grid.dp * (toeplitz_kernel(grid, coupling) / r21) / (2.0 * math.pi * HBAR_EV_FS)
    else:
        dz = 2.0 * math.pi * HBAR_EV_FS / (n * grid.dp)
        z = (np.arange(n) - n / 2) * dz
        f_z = COULOMB_EV_NM * coupling.spatial_kernel_unit(z)
        # kernel mass outside the representable span
        span = n * dz
        r_over_g = coupling.geometry.r_perp / kin.gamma
        if span / 2 < 20.0 * r_over_g:
            raise AssemblyError(
                f"z-span {span:.3g} nm too small for kernel scale {r_over_g:.3g} nm")
        # spectral leakage past the grid Nyquist momentum = aliasing estimate
        mt_ref = np.max(np.abs(m_tilde(np.linspace(-grid.p_cutoff, grid.p_cutoff, 257),
                                       coupling)))
        aliasing = float(abs(m_tilde(2.0 * grid.p_cutoff, coupling)) / mt_ref)
        if aliasing > 1e-2:
            warnings.warn(f"dft assembly aliasing estimate {aliasing:.2e}; "
                          "increase p_cutoff or use spectral mode", RuntimeWarning)
        v = np.exp(-1j * np.outer(p, z) / HBAR_EV_FS) / math.sqrt(n)
        h_ip = (v * f_z[None, :]) @ v.conj().T

    h_total = np.kron(h_ib, h_ip)
    diag = (h0b[:, None] + h0f[None, :]).reshape(-1)
    h_total[np.arange(2 * n), np.arange(2 * n)] += diag
    herm_err = float(np.max(np.abs(h_total - h_total.conj().T)))
    if herm_err > 1e-10 * max(1.0, float(np.max(np.abs(h_total)))):
        raise AssemblyError(f"assembled Hamiltonian not Hermitian (err {herm_err:.2e})")
    h_total = 0.5 * (h_total + h_total.conj().T)
    return HamiltonianAssembly(grid=grid, h0f=h0f, h0b=h0b, h_ip=h_ip, h_ib=h_ib,
                               h_total=h_total, mode=mode, aliasing_estimate=aliasing)


# -- states -------------------------------------------------------------------------

@dataclass
class JointDensityMatrix:
    """(2N, 2N) joint state over {|p_n>} x {|1>, |2>}, unit trace."""

    rho: np.ndarray
    grid: MomentumGrid

    def trace(self) -> float:
        return float(np.real(np.trace(self.rho)))

    def hermiticity_error(self) -> float:
        return float(np.max(np.abs(self.rho - self.rho.conj().T)))

    def purity(self) -> float:
        # Tr(rho^2) = sum |rho_ij|^2 for Hermitian rho
        return float(np.real(np.sum(self.rho * self.rho.conj())))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.rho)[0])

    def validate(self, tol: float = 1e-10):
        if abs(self.trace() - 1.0) > tol:
            raise DomainError(f"trace {self.trace()} != 1")
        if self.hermiticity_error() > tol:
            raise DomainError("state not Hermitian")


def schrodinger_qew_vector(grid: MomentumGrid, spec, t_start: float) -> np.ndarray:
    """Unit-norm free-electron vector at absolute time t_start.

    The wavepacket amplitude functions encode the arrival time t0 via the
    phase exp(+i E(p) t0/hbar); converting to the fixed-time Schrodinger
    picture multiplies by exp(-i E(p) t_start/hbar).  The centroid then
    sits at z = -v0 (t0 - t_start).
    """
    if isinstance(spec, ModulatedQewSpec):
        c = modulated_momentum_amplitudes(spec, grid)
        kin = spec.base.kin
    else:
        c = gaussian_momentum_amplitudes(spec, grid)
        kin = spec.kin
    c = c * np.exp(-1j * kin.dispersion(grid.points) * t_start / HBAR_EV_FS)
    w = c * math.sqrt(grid.dp)
    return w / np.linalg.norm(w)


def joint_vector(free_vec: np.ndarray, tls_amplitudes: np.ndarray) -> np.ndarray:
    """Product state kron(tls, free) in the TLS-major layout."""
    return np.kron(np.asarray(tls_amplitudes, dtype=complex), free_vec)


def initial_joint_vector(grid: MomentumGrid, spec, state: TlsState, t_start: float,
                         energy_gap: float) -> np.ndarray:
    """Product state with rotating-frame TLS amplitudes (c1, c2) given at t = 0.

    Both subsystems are rotated back to the Schrodinger picture at t_start so
    the absolute-time phases of the joint evolution come out consistent with
    the arrival-phase convention zeta = omega_21 t0 - arg(c1* c2).
    """
    free = schrodinger_qew_vector(grid, spec, t_start)
    tls_vec = np.array([state.c1,
                        state.c2 * np.exp(-1j * energy_gap * t_start / HBAR_EV_FS)])
    return joint_vector(free, tls_vec)


# -- evolution ----------------------------------------------------------------------

def evolve(rho0: JointDensityMatrix, h: HamiltonianAssembly, t: float) -> JointDensityMatrix:
    """Unitary evolution rho(t) = U rho0 U^dagger, U = V e^{-i Lambda t/hbar} V†."""
    if t < 0.0:
        raise DomainError("evolution time must be >= 0")
    w, v = h.eigensystem()
    phases = np.exp(-1j * w * t / HBAR_EV_FS)
    u = (v * phases[None, :]) @ v.conj().T
    return JointDensityMatrix(rho=u @ rho0.rho @ u.conj().T, grid=rho0.grid)


def evolve_vector(psi0: np.ndarray, h: HamiltonianAssembly, t) -> np.ndarray:
    """Pure-state fast path; t may be a scalar or an array of times.

    Returns shape (2N,) for scalar t, else (2N, len(t)).
    """
    w, v = h.eigensystem()
    coeff = v.conj().T @ psi0
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    phases = np.exp(-1j * np.outer(w, t_arr) / HBAR_EV_FS)
    out = v @ (phases * coeff[:, None])
    return out[:, 0] if np.isscalar(t) else out


def partial_trace_bound(state, n: int | None = None) -> np.ndarray:
    """2x2 TLS density matrix from a joint pure vector or density matrix."""
    if state.ndim == 1:
        psi = state.reshape(2, -1)
        return psi @ psi.conj().T
    rho = state
    m = rho.shape[0] // 2 if n is None else n
    r = rho.reshape(2, m, 2, m)
    return np.einsum("injn->ij", r)


def partial_trace_free(state, n: int | None = None) -> np.ndarray:
    """N x N free-electron density matrix from a joint pure vector or matrix."""
    if state.ndim == 1:
        psi = state.reshape(2, -1)
        return psi.T @ psi.conj()
    rho = state
    m = rho.shape[0] // 2 if n is None else n
    r = rho.reshape(2, m, 2, m)
    return np.einsum("injm->nm", r)


# -- trajectories and observables ------------------------------------------------------

@dataclass
class DensityTrajectory:
    """Sampled observables of one interaction window (pure-state path)."""

    times: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    e_free: np.ndarray    # <H0F> (rest energy subtracted), eV
    e_bound: np.ndarray   # <H0B>, eV
    e_int: np.ndarray     # <H_I>, eV
    norm: np.ndarray
    rho_b: np.ndarray | None   # (steps, 2, 2) if collected
    final_vector: np.ndarray
    grid: MomentumGrid

    @property
    def e_total(self) -> np.ndarray:
        return self.e_free + self.e_bound + self.e_int

    def final_rho_b(self) -> np.ndarray:
        return partial_trace_bound(self.final_vector)


def run_qew_interaction(spec, state: TlsState, coupling: DipoleCoupling, tls: TlsSpec,
                        n: int = 256, h: HamiltonianAssembly | None = None,
                        window: tuple[float, float] | None = None,
                        n_samples: int = 300, collect_rho_b: bool = False,
                        mode: str = "spectral") -> DensityTrajectory:
    """Evolve one wavepacket past the TLS and sample observables.

    The window defaults to t0 +- (10 t_r + 6 sigma_et).  The assembly ``h``
    may be passed in to reuse its eigendecomposition across runs that share
    the grid and coupling (e.g. arrival-phase sweeps).
    """
    base = spec.base if isinstance(spec, ModulatedQewSpec) else spec
    if h is None:
        grid = grid_for_spec(spec, coupling, n)
        h = assemble_hamiltonian(grid, base.kin, coupling, tls, mode=mode)
    grid = h.grid
    if window is None:
        window = interaction_window(base.sigma_et, coupling.geometry.transit_time, base.t0)
    t_start, t_end = window
    psi0 = initial_joint_vector(grid, spec, state, t_start, tls.energy_gap)
    times = np.linspace(t_start, t_end, n_samples)
    states = evolve_vector(psi0, h, times - t_start)
    return _observables(times, states, h, collect_rho_b)


def _observables(times: np.ndarray, states: np.ndarray, h: HamiltonianAssembly,
                 collect_rho_b: bool) -> DensityTrajectory:
    n = h.n
    psi = states.reshape(2, n, -1)
    a = np.abs(psi) ** 2
    p1 = a[0].sum(axis=0)
    p2 = a[1].sum(axis=0)
    e_free = np.einsum("n,ins->s", h.h0f, a)
    e_bound = h.h0b[0] * p1 + h.h0b[1] * p2
    # <H_IB (x) H_IP> = 2 r21 Re<psi_1| h_ip psi_2>, h_ip Hermitian
    e_int = 2.0 * h.h_ib[0, 1].real * np.real(
        np.einsum("ns,ns->s", psi[0].conj(), h.h_ip @ psi[1]))
    norm = p1 + p2
    rho_b = None
    if collect_rho_b:
        rho_b = np.einsum("ins,jns->sij", psi, psi.conj())
    return DensityTrajectory(times=times, p1=p1, p2=p2, e_free=e_free,
                             e_bound=e_bound, e_int=e_int, norm=norm,
                             rho_b=rho_b, final_vector=states[:, -1], grid=h.grid)


def energy_accounting(traj: DensityTrajectory) -> dict[str, np.ndarray]:
    """Energy increments relative to the window start.

    delta_e_total stays 0 (time-independent Hamiltonian, unitary evolution);
    delta_e_free + delta_e_bound = -delta_e_int at all times.
    """
    return {
        "delta_e_free": traj.e_free - traj.e_free[0],
        "delta_e_bound": traj.e_bound - traj.e_bound[0],
        "delta_e_int": traj.e_int - traj.e_int[0],
        "delta_e_total": traj.e_total - traj.e_total[0],
    }


# -- sequential multi-electron interaction ----------------------------------------------

def sequential_multi_qew(rho_b0: np.ndarray, qews, coupling: DipoleCoupling,
                         tls: TlsSpec, n: int = 128,
                         h: HamiltonianAssembly | None = None,
                         window_half: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Pass a train of wavepackets one at a time, carrying the TLS state.

    Each electron starts in a fresh product state rho_f (x) rho_b; after its
    window the electron is traced out and the TLS density matrix evolves
    freely (phase rotation) to the next window.  Interaction windows must
    not overlap, since the product-state reset assumes the previous electron
    is gone.

    Returns (P2 after each electron, final 2x2 rho_b).
    """
    qews = list(qews)
    if not qews:
        raise DomainError("empty electron train")
    base0 = qews[0].base if isinstance(qews[0], ModulatedQewSpec) else qews[0]
    if h is None:
        grid = grid_for_spec(qews[0], coupling, n)
        h = assemble_hamiltonian(grid, base0.kin, coupling, tls, mode="spectral")
    grid = h.grid
    if window_half is None:
        window_half = interaction_window(base0.sigma_et, coupling.geometry.transit_time, 0.0)[1]

    rho_b = np.array(rho_b0, dtype=complex)
    if abs(np.trace(rho_b) - 1.0) > 1e-9:
        raise DomainError("rho_b0 must have unit trace")

    # window overlap check
    arrivals = [(q.base.t0 if isinstance(q, ModulatedQewSpec) else q.t0) for q in qews]
    for t_prev, t_next in zip(arrivals, arrivals[1:]):
        if t_next - t_prev < 2.0 * window_half:
            raise DomainError(
                f"interaction windows overlap: arrivals {t_prev} and {t_next} "
                f"closer than {2 * window_half}")

    w21 = tls.energy_gap / HBAR_EV_FS
    p2_seq = []
    t_clock = arrivals[0] - window_half
    for spec, t0k in zip(qews, arrivals):
        t_start = t0k - window_half
        # free TLS rotation over the gap since the previous window end
        gap = t_start - t_clock
        rho_b = rho_b.copy()
        rho_b[0, 1] *= np.exp(1j * w21 * gap)
        rho_b[1, 0] = np.conj(rho_b[0, 1])
        free = schrodinger_qew_vector(grid, spec, t_start)
        # rank decomposition of rho_b; evolve each pure branch
        evals, evecs = np.linalg.eigh(rho_b)
        new_rho = np.zeros((2, 2), dtype=complex)
        for lam, u in zip(evals, evecs.T):
            if lam < 1e-14:
                continue
            psi0 = joint_vector(free, u)
            psi1 = evolve_vector(psi0, h, 2.0 * window_half)
            new_rho += lam * partial_trace_bound(psi1)
        rho_b = new_rho
        t_clock = t_start + 2.0 * window_half
        p2_seq.append(float(np.real(rho_b[1, 1])))
    return np.asarray(p2_seq), rho_b


# -- binary dump of TLS trajectories --------------------------------------------------

def write_rho_b_bin(path, times: np.ndarray, rho_b: np.ndarray) -> None:
    """Dump a (steps, 2, 2) TLS trajectory.

    Layout (little endian): int32 N (=2), int32 steps, float64 dt, then
    steps * N * N complex128 values row-major.
    """
    steps = rho_b.shape[0]
    dt = float(times[1] - times[0]) if steps > 1 else 0.0
    with open(path, "wb") as fh:
        np.array([rho_b.shape[1], steps], dtype="<i4").tofile(fh)
        np.array([dt], dtype="<f8").tofile(fh)
        np.ascontiguousarray(rho_b, dtype="<c16").tofile(fh)


def read_rho_b_bin(path) -> tuple[float, np.ndarray]:
    """Read back a trajectory written by write_rho_b_bin; returns (dt, rho_b)."""
    with open(path, "rb") as fh:
        n, steps = np.fromfile(fh, dtype="<i4", count=2)
        dt = float(np.fromfile(fh, dtype="<f8", count=1)[0])
        data = np.fromfile(fh, dtype="<c16", count=steps * n * n)
    return dt, data.reshape(steps, n, n)
