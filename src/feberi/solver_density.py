"""Joint density-matrix evolution of the free electron and the TLS.

The joint Hilbert space is {|p_n>, n grid points} x {|1>, |2>} with the
TLS-major index i*N + n.  The full Hamiltonian

    H = H0F (x) I2  +  IN (x) H0B  +  H_IP (x) H_IB

is time independent: the electron "moves" only through its momentum-space
phases, and the wavepacket's arrival time is encoded in the initial state.

A pure state is propagated matrix-free: exp(-i H t/hbar) psi for every
sampled t comes from one Chebyshev expansion (Tal-Ezer & Kosloff,
J. Chem. Phys. 81, 3967 (1984)) whose products are the diagonal plus the
coupling applied by FFT on the assembly's own kernel column.  A block of
states shares one recurrence, every row under one assembly or each under
its own of the same grid size; a window too long for MAX_CHEBYSHEV_ORDER
orders runs as legs, each restarting from the state at the end of the last.
One leg loop (``_propagated``) runs every propagation and hands out finished
states a block of samples at a time.  A leg holds min(K, T) vectors a row:
its K kept orders' when they are no more than its T samples, else those
samples.  ``evolve_vector`` collects the blocks into one array, and a
trajectory (``run_qew_interaction``) reduces each to its observables at once.
The solvers here size nothing: a ``qew.Packet`` brings its grid and window
(``qew.packet_for_spec``), and the ``DipoleCoupling`` the kinematics of the
free dispersion, the TLS levels and dipole, and the kernel.  A packet's
window is one rotating-frame 4x4 channel of the TLS density matrix
(``grid_windows``, every packet's two basis starts in one block): fig56
reads P2 off it, and born_dynamics.simulate_train_ensemble, the one train
stepper, carries it across an electron train as it does a Born window.

H is stored real: H_IB is real symmetric and H_IP = dp Mt(p_m - p_n)/(2 pi hbar)
is real symmetric (transverse) or i times real antisymmetric (parallel), so
in the TLS gauge S = diag(1, phi) (x) IN, phi = 1 or i respectively, the
matrix S^dagger H S is exactly real symmetric; the assembly stores only its
diagonal and its coupling block's kernel column, and the evolution applies S
at its edges.

The coupling block is the Toeplitz matrix dp*Mt(p_m - p_n)/(2 pi hbar) of
the closed-form momentum kernel (``grid.kernel_column``): alias-free at any
grid size and exactly the matrix the amplitude solver uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import fft

from feberi.born_dynamics import TrainWindow
from feberi.core import HBAR_EV_FS, DomainError, TlsState
from feberi.coulomb import DipoleCoupling
from feberi.grid import MomentumGrid, circulant_block, circulant_product, kernel_column
from feberi.qew import Packet, momentum_amplitudes


class AssemblyError(ValueError):
    """The kernel column is not Hermitian, or not real in the TLS gauge."""


class PropagationError(ArithmeticError):
    """A propagated state's norm drifted from the initial state's."""


# -- Hamiltonian assembly -----------------------------------------------------------

@dataclass
class HamiltonianAssembly:
    """Pieces of the joint Hamiltonian (rest energy subtracted), O(N) storage.

    h0f: (N,) free-electron dispersion on the grid, eV.
    h0b: (2,) TLS level energies (0, E_gap), eV.
    h_ib: (2, 2) real dipole matrix, off-diagonal r21 in nm.
    coupling_column: (2N,) real first column of the length-2N circulant whose
        leading N x N block is the upper-right block r21 phi h_ip of
        S^dagger H S, h_ip the Hermitian momentum-space kernel matrix in
        eV/nm (dipole factored out).
    gauge: phi of S = diag(1, phi) (x) IN; H = S h_total S^dagger.
    """

    grid: MomentumGrid
    h0f: np.ndarray
    h0b: np.ndarray
    h_ib: np.ndarray
    coupling_column: np.ndarray
    gauge: complex
    _eig: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def diagonal(self) -> np.ndarray:
        """(2N,) diagonal of S^dagger H S: H0B (+) H0F, TLS-major."""
        return (self.h0b[:, None] + self.h0f[None, :]).reshape(-1)

    @property
    def h_total(self) -> np.ndarray:
        """(2N, 2N) real symmetric S^dagger H S, float64, built on each read."""
        n = self.n
        h = np.zeros((2 * n, 2 * n))
        h[:n, n:] = circulant_block(self.coupling_column, n)
        h[n:, :n] = h[:n, n:].T
        h.flat[::2 * n + 1] = self.diagonal
        return h

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached (eigenvalues, real eigenvectors) of h_total.

        The dense reference for tests: no solver path calls it.
        """
        if self._eig is None:
            w, v = np.linalg.eigh(self.h_total)
            self._eig = (w, v)
        return self._eig

    def gauge_diagonal(self) -> np.ndarray:
        """Diagonal of S = diag(1, phi) (x) IN, shape (2N,)."""
        return np.repeat(np.array([1.0, self.gauge], dtype=complex), self.n)


def assemble_hamiltonian(grid: MomentumGrid, coupling: DipoleCoupling) -> HamiltonianAssembly:
    """Build the joint Hamiltonian, stored real symmetric in the TLS gauge: the
    free dispersion of coupling.kin, the levels and dipole of coupling.tls and
    the kernel of the coupling."""
    n = grid.n
    tls = coupling.tls
    h0f = np.real(coupling.kin.dispersion(grid.points))
    h0b = np.array([0.0, tls.energy_gap])
    r21 = tls.dipole_magnitude
    h_ib = np.array([[0.0, r21], [r21, 0.0]])
    column = grid.dp * (kernel_column(grid, coupling) / r21) / (2.0 * math.pi * HBAR_EV_FS)

    # the 2n - 1 lags m - k that the block reads, in FFT order; the column's
    # k = -n sample is not among them and has no parity partner
    lags = np.concatenate([column[:n], column[n + 1:]])
    mirror = lags[-np.arange(lags.size)].conj()     # the same lags of h_ip^dagger
    scale = float(np.max(np.abs(lags)))
    herm_err = float(np.max(np.abs(lags - mirror)))
    if herm_err > 1e-10 * scale:
        raise AssemblyError(f"assembled kernel not Hermitian (err {herm_err:.2e})")
    lags = 0.5 * (lags + mirror)
    # S^dagger (H_IB (x) H_IP) S has the off-diagonal blocks r21 phi h_ip and
    # its transpose; phi h_ip is real up to the residue checked here
    gauge = 1j if coupling.orientation == "parallel" else 1.0
    gauged = gauge * lags
    residue = float(np.max(np.abs(gauged.imag)))
    if residue > 1e-10 * scale:
        raise AssemblyError(f"kernel not real in the TLS gauge (residue {residue:.2e})")
    # the gauged coupling block in a length-2n circulant (slot k = -n unread)
    column = np.zeros(2 * n)
    column[:n] = r21 * gauged.real[:n]
    column[n + 1:] = r21 * gauged.real[n:]
    return HamiltonianAssembly(grid=grid, h0f=h0f, h0b=h0b, h_ib=h_ib,
                               coupling_column=column, gauge=gauge)


# -- states -------------------------------------------------------------------------

def schrodinger_qew_vector(grid: MomentumGrid, spec, t_start: float) -> np.ndarray:
    """Unit-norm free-electron vector at absolute time t_start.

    The wavepacket amplitude functions encode the arrival time t0 via the
    phase exp(+i E(p) t0/hbar); converting to the fixed-time Schrodinger
    picture multiplies by exp(-i E(p) t_start/hbar).  The centroid then
    sits at z = -v0 (t0 - t_start).
    """
    c = momentum_amplitudes(spec, grid) \
        * np.exp(-1j * spec.kin.dispersion(grid.points) * t_start / HBAR_EV_FS)
    w = c * math.sqrt(grid.dp)
    return w / np.linalg.norm(w)


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
    return np.kron(tls_vec, free)     # TLS-major layout


# -- evolution ----------------------------------------------------------------------

# Chebyshev points of one leg (order ~ spectral half-width x time), which
# bound one leg's DCT and Bessel table per sampled time; a longer window is
# cut into equal legs, each starting from the state at the end of the last.
MAX_CHEBYSHEV_ORDER = 2048
CHEBYSHEV_BLOCK = 64      # recurrence vectors of a block, over all its rows
# sample columns per batch of a GEMM (over all rows), a DCT or a block of
# summed states handed out
_SAMPLE_BLOCK = 64
# states per block summed from a leg's kept orders: a trajectory at N = 1024
# peaked twice as high with 64 as with 16, and ran slower with 8
_STREAM_BLOCK = 16
NORM_DRIFT_TOL = 1e-10    # relative to the initial norm
TRIM_BESSEL = 1e-16       # Chebyshev coefficients below this are dropped
_I_POWERS = np.array([1.0, 1j, -1.0, -1j])    # i^k by k mod 4, exactly
_FLIP = np.array([[0.0, 1.0], [-1.0, 0.0]])   # rotating rho = lab rho * exp(-i w21 t _FLIP)


def _spectral_bounds(h: HamiltonianAssembly) -> tuple[float, float]:
    """(centre, half-width) of an interval that holds the spectrum of h_total.

    h_total is its diagonal plus the coupling blocks, whose norm is the N x N
    block's, at most its circulant's, max |fft(coupling_column)|; by Weyl the
    spectrum lies within the diagonal's range widened by that much.
    """
    diag = h.diagonal
    reach = float(np.max(np.abs(fft.fft(h.coupling_column))))
    lo, hi = float(diag.min()) - reach, float(diag.max()) + reach
    return 0.5 * (hi + lo), 0.5 * (hi - lo)


def _chebyshev_points(r_max: float) -> int:
    """Chebyshev points that resolve exp(-i r x) on [-1, 1] for |r| <= r_max:
    J_k(r) is far below rounding beyond k = r + 12 r^(1/3) + 32."""
    return fft.next_fast_len(int(math.ceil(r_max + 12.0 * r_max ** (1.0 / 3.0) + 32.0)))


def _chebyshev_coefficients(r: np.ndarray, m: int) -> np.ndarray:
    """(K, len(r)) table b_k(r) = eps_k J_k(r), real, with
    exp(-i r x) = sum_k (-i)^k b_k(r) T_k(x) on [-1, 1] (Jacobi-Anger).

    (-i)^k b_k(r) is the cosine series of exp(-i r cos theta): one DCT-II of
    its samples at m Chebyshev points, taken _SAMPLE_BLOCK values of r at a
    time to bound the complex samples' memory.  The table ends at the last
    order that Kapteyn's inequality cannot hold below TRIM_BESSEL for every r.
    """
    cos_theta = np.cos(math.pi * (np.arange(m) + 0.5) / m)
    table = np.empty((_kept_orders(float(np.max(np.abs(r))), m), r.size))
    powers = _I_POWERS[np.arange(table.shape[0]) % 4]
    for start in range(0, r.size, _SAMPLE_BLOCK):
        cols = slice(start, start + _SAMPLE_BLOCK)
        c = fft.dct(np.exp(-1j * np.outer(r[cols], cos_theta)), type=2, axis=-1,
                    overwrite_x=True)[:, :table.shape[0]] / m
        c[:, 0] *= 0.5
        table[:, cols] = (c * powers).real.T
    return table


def _kept_orders(r_max: float, m: int) -> int:
    """Orders 0..K-1 to keep of m: beyond them |eps_k J_k(r)| <= TRIM_BESSEL
    for every |r| <= r_max, by Kapteyn's inequality (DLMF 10.14.8): for
    0 < r <= k,

        |J_k(r)| <= z^k exp(k s) / (1 + s)^k,   z = r/k,  s = sqrt(1 - z^2),

    a bound that grows with r.  The ratio of consecutive bounds, z/(1 + s),
    is below 1 and falls with k, so the dropped tail is a few TRIM_BESSEL.
    """
    k = np.arange(1, m)
    z = np.clip(r_max / k, 1e-300, 1.0)
    s = np.sqrt(1.0 - z * z)
    log_bound = math.log(2.0) + k * (np.log(z) + s - np.log1p(s))
    above = np.flatnonzero(log_bound > math.log(TRIM_BESSEL))
    return int(k[above[-1]]) + 1 if above.size else 1


def _scaled_generators(assemblies, bounds) -> tuple[np.ndarray, np.ndarray]:
    """-2i X = -2i (h_total - centre)/half of each assembly, in two pieces:
    its diagonal, (d, 2N) complex, and the circulant columns of its
    upper-right coupling block and of that block's transpose, (d, 2, 2N)."""
    diag = np.array([(h.diagonal - centre) * (-2j / half)
                     for h, (centre, half) in zip(assemblies, bounds)])
    columns = np.array([np.stack([h.coupling_column, np.roll(h.coupling_column[::-1], 1)])
                        * (-2j / half) for h, (_, half) in zip(assemblies, bounds)])
    return diag, columns


def _recurrence(generator, starts: np.ndarray, kept: np.ndarray, width: int):
    """Yield (first order, u) for each block of ``width`` orders of the
    recurrence u_k = (-i)^k T_k(X_p) starts[p], u of shape (orders, a, 2N)
    for the a rows still running at the block's first order.

    ``generator`` is the pair (diagonal (m, 2N), circulant columns
    (m, 2, 2N)) of each row's own -2i X_p (``_scaled_generators``), and the
    rows of ``starts`` (m, 2N) share one recurrence to max(kept) orders.  They
    come ordered by falling ``kept``, so the rows still running at order k are
    a leading slice that shrinks as rows reach their own order.  The
    recurrence u_{k+1} = -2i X u_k + u_{k-1} applies -2i X as the diagonal
    times u plus the two coupling blocks by FFT, to the whole slice at once.
    Each block is a view of one ring of ``width`` slots, valid until the next
    is asked for; a width of max(kept) or more yields every order at once.
    """
    diag, columns = generator
    m, size = starts.shape
    n = size // 2
    coupling = circulant_product(columns, n)
    order = int(kept[0])
    active = np.count_nonzero(kept[:, None] > np.arange(order), axis=0)
    # orders k of a block sit in slots k mod width, so a block starts from
    # the last two slots of the one before; width >= 3 keeps them unwritten.
    # A slot holds all rows, so the recurrence works on contiguous arrays;
    # the zeros stand in the slots of rows already past their order
    width = max(3, width)
    ring = np.zeros((width, m, size), dtype=complex)
    for start in range(0, order, width):
        stop = min(start + width, order)
        for k in range(start, stop):
            a = active[k]
            new = ring[k % width, :a]
            if k == 0:
                new[...] = starts
                continue
            u = ring[(k - 1) % width, :a]
            np.multiply(u, diag[:a], out=new)
            new.reshape(a, 2, n)[...] += coupling(u.reshape(a, 2, n)[:, ::-1])
            if k == 1:
                new *= 0.5
            else:
                new += ring[(k - 2) % width, :a]
        yield start, ring[:stop - start, :active[start]]


def _chebyshev_series(generator, starts: np.ndarray, kept: np.ndarray, bessel: np.ndarray):
    """Yield (sample columns, rows (m, b, 2N)) of the rows
    sum_k (-i)^k bessel[k, p*C + j] T_k(X_p) starts[p] for the C columns j of
    each row p, k < kept[p], a block of columns at a time; a block is valid
    until the next is asked for.

    The rows share one ``_recurrence`` to kept[0] orders, the Bessel table's
    count, whose entries past a row's own order are zeroed in place.  It holds
    min(K, C) vectors a row: one row with no more orders K than columns keeps
    all K u_k, and each block of _STREAM_BLOCK columns is one real product of
    the table's columns against them.  Otherwise the u_k of a block of
    CHEBYSHEV_BLOCK / m orders are added to every running row's columns,
    _SAMPLE_BLOCK at a time, by one batched real product against the table;
    the table and the recurrence are released, and the summed columns go out
    _SAMPLE_BLOCK at a time.
    """
    m, size = starts.shape
    order = bessel.shape[0]
    per_row = bessel.reshape(order, m, -1)
    count = per_row.shape[2]
    for p in range(m):
        per_row[kept[p]:, p] = 0.0
    if m == 1 and order <= count:
        [(_, u)] = _recurrence(generator, starts, kept, order)
        u = u[:, 0].view(np.float64)        # (K, 4N), real and imaginary interleaved
        table = per_row[:, 0]
        step = _STREAM_BLOCK

        def rows(cols):
            return (table[:, cols].T @ u).view(complex)[None]
    else:
        out = np.zeros((m, count, size), dtype=complex)
        out_real = out.view(np.float64)
        batch = max(1, _SAMPLE_BLOCK // m)
        for start, u in _recurrence(generator, starts, kept, CHEBYSHEV_BLOCK // m):
            a = u.shape[1]
            u = u.view(np.float64).transpose(1, 0, 2)      # (a, orders, 2 size)
            coefficients = per_row[start:start + u.shape[1], :a].transpose(1, 2, 0)
            for first in range(0, count, batch):
                cols = slice(first, first + batch)
                out_real[:a, cols] += np.matmul(coefficients[:, cols], u)
        del u, coefficients
        step = _SAMPLE_BLOCK

        def rows(cols):
            return out[:, cols]
    del generator, starts, bessel, per_row
    for first in range(0, count, step):
        cols = slice(first, first + step)
        yield cols, rows(cols)


def _row_assemblies(h, m: int, size: int) -> tuple[list[HamiltonianAssembly], np.ndarray]:
    """(distinct assemblies, the index of each row's among them) of a block
    of m states of ``size``; h is one assembly for all rows or one per row."""
    rows = [h] * m if isinstance(h, HamiltonianAssembly) else list(h)
    if len(rows) != m:
        raise DomainError(f"{len(rows)} assemblies for a block of {m} states")
    index: dict[int, int] = {}
    of_row = np.array([index.setdefault(id(a), len(index)) for a in rows])
    distinct = list({id(a): a for a in rows}.values())
    if any(2 * a.n != size for a in distinct):
        raise DomainError(f"states of {size} do not fit assemblies of 2N = "
                          f"{sorted({2 * a.n for a in distinct})}")
    return distinct, of_row


def _propagated(starts: np.ndarray, h, times: np.ndarray):
    """Yield (row i, sample indices s, states (b, 2N)) of exp(-i H t/hbar)
    starts[i] at the times times[i, s] >= 0, each state contiguous: every
    state of every row once, a block of samples at a time, each block valid
    until the next is asked for.

    ``starts`` is (m, 2N) and ``times`` (m, T); h is one HamiltonianAssembly
    for every row, or a sequence of m, row i's own, all of the same N
    (spectral bounds come once per distinct assembly).  All rows share one
    Chebyshev recurrence (``_chebyshev_series``), each running to its own
    order under its own Hamiltonian.  A row's expansion variable is
    r = half t/hbar, half its spectrum's half-width.  A block whose largest r
    needs more than MAX_CHEBYSHEV_ORDER orders is cut into equal legs of r,
    and each leg's expansion starts from the states at the end of the one
    before; a row stops after the leg of its latest time.  Each block leaves
    here finished: times its centre phase, back out of the TLS gauge, and its
    norm checked.  Raises PropagationError if a state's norm drifts from its
    start's by more than NORM_DRIFT_TOL.
    """
    if np.any(times < 0.0):
        raise DomainError("evolution times must be >= 0")
    m, size = starts.shape
    assemblies, of_row = _row_assemblies(h, m, size)
    norm0 = np.linalg.norm(starts, axis=1)
    n = size // 2
    bounds = [_spectral_bounds(a) for a in assemblies]
    centre, half = np.array(bounds)[of_row].T
    gauge = np.array([a.gauge_diagonal() for a in assemblies])[of_row]
    r = half[:, None] * times / HBAR_EV_FS
    r_max = float(np.max(r))
    legs = max(1, math.ceil(r_max / MAX_CHEBYSHEV_ORDER))
    while _chebyshev_points(r_max / legs) > MAX_CHEBYSHEV_ORDER:
        legs += 1
    if legs > 1:        # each leg's end states replace the rows of starts
        starts = starts.astype(complex)
    span = r_max / legs
    leg_of = np.searchsorted(span * np.arange(1, legs), r, side="right")
    last_leg = leg_of.max(axis=1)
    for leg in range(legs):
        running = np.flatnonzero(last_leg >= leg)
        picked = [np.flatnonzero(leg_of[i] == leg) for i in running]
        # each row's r in this leg, then the next leg's start if it goes on
        offsets = [np.append(r[i, p] - leg * span, [span] if last_leg[i] > leg else [])
                   for i, p in zip(running, picked)]
        points = _chebyshev_points(max(float(np.max(o)) for o in offsets))
        kept = np.array([_kept_orders(float(np.max(o)), points) for o in offsets])
        by_order = np.argsort(-kept, kind="stable")
        rows = running[by_order]
        # one row of C columns per state, padded with r = 0
        columns = np.zeros((rows.size, max(o.size for o in offsets)))
        for q, p in enumerate(by_order):
            columns[q, :offsets[p].size] = offsets[p]
        own = of_row[rows]
        series = _chebyshev_series(_scaled_generators([assemblies[j] for j in own],
                                                      [bounds[j] for j in own]),
                                   starts[rows] * gauge[rows].conj(), kept[by_order],
                                   _chebyshev_coefficients(columns.reshape(-1), points))
        for cols, block in series:
            for q, p in enumerate(by_order):
                i, ts = rows[q], picked[p]
                if last_leg[i] > leg and cols.start <= ts.size < cols.stop:
                    starts[i] = block[q, ts.size - cols.start] * gauge[i]
                samples = ts[cols]
                if not samples.size:
                    continue
                states = block[q, :samples.size]
                states *= np.exp(-1j * centre[i] * times[i, samples] / HBAR_EV_FS)[:, None]
                if gauge[i, -1] != 1.0:
                    states[:, n:] *= gauge[i, -1]
                flat = states.view(np.float64)
                norms = np.sqrt(np.einsum("ij,ij->i", flat, flat))
                drift = float(np.max(np.abs(norms - norm0[i])))
                if not drift <= NORM_DRIFT_TOL * norm0[i]:
                    raise PropagationError(f"propagated norm drifted by {drift:.2e} "
                                           f"from the initial {norm0[i]:.6g}")
                yield i, samples, states


def evolve_vector(psi0: np.ndarray, h, t) -> np.ndarray:
    """exp(-i H t/hbar) psi0 for one state or a block of states, times >= 0.

    A state psi0 of shape (2N,) takes a scalar t or an array of T times and
    gives (2N,) or (2N, T).  A block psi0 of shape (m, 2N) takes per-row
    times t of shape (m,) or (m, T) and gives (m, 2N) or (m, 2N, T): row i
    at the times t[i].  h is one HamiltonianAssembly for every row, or a
    sequence of m, row i's own, all of the same N.  The states come from
    ``_propagated``, which runs every row in one Chebyshev recurrence, cut
    into legs when a window is long; the result, each state contiguous, is
    the only array of all of them.  Raises PropagationError if a state's norm
    drifts from its start's by more than NORM_DRIFT_TOL.
    """
    psi0 = np.asarray(psi0)
    starts = np.atleast_2d(psi0)
    m, size = starts.shape
    t_arr = np.asarray(t, dtype=float)
    fits = t_arr.ndim <= 1 if psi0.ndim == 1 else \
        psi0.ndim == 2 and t_arr.ndim in (1, 2) and t_arr.shape[0] == m
    if not fits:
        raise DomainError(f"times of shape {t_arr.shape} do not fit states of "
                          f"shape {psi0.shape}")
    times = t_arr.reshape(m, -1)
    out = None
    for i, samples, states in _propagated(starts, h, times):
        if out is None:     # once the first leg has released its working arrays
            out = np.empty(times.shape + (size,), dtype=complex)
        out[i, samples] = states
    out = out.transpose(0, 2, 1)       # (m, 2N, T), each state contiguous
    if t_arr.ndim < psi0.ndim:
        out = out[..., 0]
    return out[0] if psi0.ndim == 1 else out


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

    @property
    def e_total(self) -> np.ndarray:
        return self.e_free + self.e_bound + self.e_int


def run_qew_interaction(packet: Packet, state: TlsState, coupling: DipoleCoupling,
                        times=None, collect_rho_b: bool = False) -> DensityTrajectory:
    """Evolve a packet past the TLS on its grid and sample observables.

    ``times`` are absolute and ascending, the first the start of the joint
    product state; by default 300 samples across the packet's window.

    The states stream from the leg loop (``_propagated``) into the
    observables a block of samples at a time, so the trajectory never holds
    its T states: each leg holds min(K, T_leg) vectors, its K kept orders'
    when they are no more than its T_leg samples, else those samples.
    """
    h = assemble_hamiltonian(packet.grid, coupling)
    times = np.linspace(*packet.window, 300) if times is None else np.asarray(times, float)
    psi0 = initial_joint_vector(packet.grid, packet.spec, state, times[0],
                                coupling.tls.energy_gap)
    blocks = ((samples, states.T) for _, samples, states
              in _propagated(psi0[None], h, (times - times[0])[None]))
    return _trajectory(times, blocks, h, collect_rho_b)


def _trajectory(times: np.ndarray, blocks, h: HamiltonianAssembly,
                collect_rho_b: bool) -> DensityTrajectory:
    """The trajectory of the joint states that ``blocks`` yields at ``times``
    as (sample indices, states (2N, b)).

    One pass per block computes every observable of its columns, so no
    temporary outgrows a block.  With each state contiguous, every sum over a
    state runs in the same order in a block as over a whole array, and each
    output equals its whole-array formula bit for bit.
    """
    n = h.n
    size = times.size
    p1, p2, e_free, e_int = (np.empty(size) for _ in range(4))
    rho_b = np.empty((size, 2, 2), dtype=complex) if collect_rho_b else None
    # <H_IB (x) H_IP> = 2 r21 Re<psi_1| h_ip psi_2>, h_ip Hermitian; h_ip psi_2
    # by FFT on the coupling column, which holds r21 phi h_ip
    r21 = h.h_ib[0, 1]
    h_ip_times = circulant_product(h.coupling_column / (r21 * h.gauge), n)
    for cols, states in blocks:
        blk = states.reshape(2, n, -1)
        a = np.abs(blk)
        a **= 2
        p1[cols] = a[0].sum(axis=0)
        p2[cols] = a[1].sum(axis=0)
        e_free[cols] = np.einsum("n,ins->s", h.h0f, a)
        e_int[cols] = 2.0 * r21 * np.real(np.einsum(
            "sn,sn->s", blk[0].T.conj(), h_ip_times(blk[1].T)))
        if collect_rho_b:
            rho_b[cols] = np.einsum("ins,jns->sij", blk, blk.conj())
    return DensityTrajectory(times=times, p1=p1, p2=p2, e_free=e_free,
                             e_bound=h.h0b[0] * p1 + h.h0b[1] * p2, e_int=e_int,
                             norm=p1 + p2, rho_b=rho_b)


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


# -- electron-train windows ------------------------------------------------------------

def grid_windows(packets, coupling: DipoleCoupling) -> list[TrainWindow]:
    """Each packet's window channel, the packet arriving at t = 0: the lab-frame map
    rho -> sum_ij rho_ij Tr_F |phi_i><phi_j|, phi_i = |i> (x) free at -half evolved
    to +half, put in the rotating frame by e^{-i w21 half} on rho_01 at both ends.
    All starts propagate as one block, each under its grid's assembly (one per grid).
    Raises DomainError for a packet that does not arrive at t = 0."""
    assemblies, starts, rows = {}, [], []
    for spec, grid, (_, half) in packets:
        if spec.t0 != 0.0:
            raise DomainError(f"grid window packets arrive at t = 0, not at t0 = {spec.t0} fs")
        if grid not in assemblies:
            assemblies[grid] = assemble_hamiltonian(grid, coupling)
        starts.append(np.kron(np.eye(2), schrodinger_qew_vector(grid, spec, -half)))
        rows += [assemblies[grid]] * 2
    halves = np.array([packet.window[1] for packet in packets])
    phi = evolve_vector(np.concatenate(starts), rows, np.repeat(2.0 * halves, 2))
    phi = phi.reshape(halves.size, 2, 2, -1)
    w21 = coupling.tls.omega_21
    edge = np.exp(-1j * w21 * halves[:, None, None] * _FLIP)
    channels = np.einsum("sab,sian,sjbn,sij->sabij", edge, phi, phi.conj(), edge)
    return [TrainWindow(k.reshape(4, 4), 2.0 * half, w21) for k, half in zip(channels, halves)]


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
