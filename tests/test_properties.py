"""Property tests: coupling kernel, the circulant block builder, the shared
Toeplitz kernel and its FFT product, blocks whose rows carry their own
Hamiltonian, the joint grid's window channels, phase wrapping and config
parsing."""

import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz

from feberi.cli import _COMMON_SCHEMA, _SWEEP_SCHEMAS, ConfigError, load_config
from feberi.core import HBAR_EV_FS, TWO_PI, DomainError, TlsSpec, kinematics_from_kev, \
    wrap_phase
from feberi.coulomb import DipoleCoupling, m_tilde
from feberi.grid import MomentumGrid, circulant_block, circulant_product, \
    kernel_column
from feberi.qew import GaussianQewSpec
from feberi.solver_density import MAX_CHEBYSHEV_ORDER, _spectral_bounds, assemble_hamiltonian, \
    evolve_vector, grid_windows
from helpers import default_packet

KIN = kinematics_from_kev(200.0)
COUPLINGS = {
    o: DipoleCoupling(TlsSpec.from_lab(2.0, 5.0), 2.4, KIN, o)
    for o in ("parallel", "transverse")
}


def toeplitz_kernel(grid, coupling):
    """Dense Mt(p_m - p_n) in eV*nm: the leading block of the kernel column's circulant."""
    return circulant_block(kernel_column(grid, coupling), grid.n)


orientations = st.sampled_from(sorted(COUPLINGS))
momenta = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(orientation=orientations, p=momenta)
def test_m_tilde_parity(orientation, p):
    cpl = COUPLINGS[orientation]
    plus, minus = m_tilde(p, cpl), m_tilde(-p, cpl)
    if orientation == "transverse":
        assert plus.imag == 0.0 and plus.real >= 0.0
        assert minus == plus
    else:
        assert plus.real == 0.0
        assert minus == -plus


@settings(max_examples=40, deadline=None)
@given(orientation=orientations, half_n=st.integers(32, 160),
       dp=st.floats(min_value=1e-5, max_value=0.5))
def test_toeplitz_kernel_hermitian(orientation, half_n, dp):
    n = 2 * half_n
    grid = MomentumGrid(n=n, p0=KIN.p0, p_cutoff=0.5 * n * dp)
    mt = toeplitz_kernel(grid, COUPLINGS[orientation])
    assert mt.shape == (n, n)
    np.testing.assert_array_equal(mt, mt.conj().T)
    np.testing.assert_array_equal(mt[1:, 1:], mt[:-1, :-1])


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 80), seed=st.integers(0, 2**32 - 1))
def test_circulant_block_equals_toeplitz_and_circulant(n, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    # a length-2n column: the Toeplitz matrix with lags c[k] and c[-k]
    want = toeplitz(c[:n], np.concatenate([c[:1], c[:n:-1]]))
    np.testing.assert_array_equal(circulant_block(c, n), want)
    # a length-n column: the full circulant
    i = np.arange(n)
    np.testing.assert_array_equal(circulant_block(c[:n], n), c[(i[:, None] - i) % n])


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 80), extra=st.integers(0, 80), stacked=st.booleans(),
       lead=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
def test_circulant_product_equals_block(n, extra, stacked, lead, seed):
    # any column length from n (the full circulant) up; a stack of two
    # columns applies each to its own row of x, and to x's one row the first
    rng = np.random.default_rng(seed)
    shape = (2, n + extra) if stacked else (n + extra,)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rows = (lead,) if stacked else ()
    x = rng.standard_normal(rows + (n,)) + 1j * rng.standard_normal(rows + (n,))
    got = circulant_product(c, n)(x)
    want = np.array([circulant_block(col, n) @ row
                     for col, row in zip(c.reshape(-1, n + extra), x.reshape(-1, n))])
    assert got.shape == x.shape
    assert np.max(np.abs(got.reshape(want.shape) - want)) <= 1e-13 * np.max(np.abs(want))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 80), extra=st.integers(0, 80), seed=st.integers(0, 2**32 - 1))
def test_circulant_product_keeps_its_zero_pad(n, extra, seed):
    # one product on 2 rows, then 1, then 3: the padded buffer is reused and
    # then regrown, and each call must read zeros past the rows' n entries
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(n + extra) + 1j * rng.standard_normal(n + extra)
    product = circulant_product(c, n)
    block = circulant_block(c, n)
    for rows in (2, 1, 3):
        x, right = (rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
                    for _ in range(2))
        want = (right * x) @ block.T
        got = product(x, right=right)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_circulant_product_views_follow_its_one_buffer():
    # a stack of columns applied to a shrinking and growing number of rows, as
    # the Chebyshev recurrence applies it: 3 rows, then 1 (the buffer's
    # leading row), then 5 (the buffer grows), then 3 again.  Each product
    # equals the dense block's; results without ``out`` are views of the one
    # current buffer, so the views built before it grew are gone; and a warm
    # call on a shape already seen allocates less than one row of it
    n = 256
    rng = np.random.default_rng(3)
    c = rng.standard_normal((5, 2, 2 * n)) + 1j * rng.standard_normal((5, 2, 2 * n))
    product = circulant_product(c, n)
    results = []
    for rows in (3, 1, 5, 3):
        x = rng.standard_normal((rows, 2, n)) + 1j * rng.standard_normal((rows, 2, n))
        want = np.array([circulant_block(col, n) @ row
                         for col, row in zip(c[:rows].reshape(-1, 2 * n), x.reshape(-1, n))])
        got = product(x)
        assert got.shape == x.shape
        assert np.max(np.abs(got.reshape(want.shape) - want)) <= 1e-13 * np.max(np.abs(want))
        results.append(got)
    assert np.shares_memory(results[2], results[3])
    assert not np.shares_memory(results[0], results[3])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        product(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < x[0, 0].nbytes


@pytest.mark.parametrize("orientation", ["transverse", "parallel"])
@pytest.mark.parametrize("n", [256, 1024])
def test_toeplitz_kernel_equals_scipy_toeplitz(orientation, n):
    grid = MomentumGrid(n=n, p0=KIN.p0, p_cutoff=0.5 * n * 0.01)
    s = m_tilde(grid.dp * np.concatenate([np.arange(n), np.arange(-n, 0)]),
                COUPLINGS[orientation])
    want = toeplitz(s[:n], np.concatenate([s[:1], s[:n:-1]]))
    np.testing.assert_array_equal(toeplitz_kernel(grid, COUPLINGS[orientation]), want)


@settings(max_examples=60, deadline=None)
@given(orientation=orientations, half_n=st.integers(32, 320),
       dp=st.floats(min_value=1e-5, max_value=0.5), rows=st.sampled_from([0, 1, 3]),
       seed=st.integers(0, 2**32 - 1))
def test_toeplitz_product_equals_dense(orientation, half_n, dp, rows, seed):
    # rows = 0: one vector; else a stack of vectors along the last axis.  The
    # product on the kernel column, with diagonal factors on both sides and
    # an output array as the amplitude RK4 calls it, twice with one buffer
    n = 2 * half_n
    grid = MomentumGrid(n=n, p0=KIN.p0, p_cutoff=0.5 * n * dp)
    rng = np.random.default_rng(seed)
    shape = (rows, n) if rows else (n,)
    product = circulant_product(kernel_column(grid, COUPLINGS[orientation]), n)
    mt = toeplitz_kernel(grid, COUPLINGS[orientation])
    for _ in range(2):
        x, left = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                   for _ in range(2))
        right = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
        want = x @ mt.T
        got = product(x)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        want = left * ((right * x) @ mt.T)
        out = np.empty(shape, dtype=complex)
        assert product(x, left=left, right=right, out=out) is out
        assert np.max(np.abs(out - want)) <= 1e-13 * np.max(np.abs(want))


def _assembly(orientation, sigma_p0, n=64):
    """An assembly on the grid that a packet of momentum width sigma_p0 needs."""
    cpl = COUPLINGS[orientation]
    grid = MomentumGrid(n=n, p0=KIN.p0,
                        p_cutoff=max(8.0 * sigma_p0, 6.0 * abs(cpl.recoil_momentum)))
    return assemble_hamiltonian(grid, cpl)


@settings(max_examples=15, deadline=None)
@given(grids=st.lists(st.tuples(orientations, st.floats(0.002, 0.05)), min_size=2, max_size=3),
       rows=st.lists(st.integers(0, 2), min_size=2, max_size=5),
       columns=st.integers(1, 3), legs=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(grids=[("transverse", 0.01), ("parallel", 0.03)], rows=[1, 0, 1], columns=2,
         legs=True, seed=7)
def test_rows_with_their_own_assembly_equal_per_assembly_calls(grids, rows, columns, legs,
                                                               seed):
    # grids of one n sized for different packets, both gauges; each row of a
    # block under its own grid's assembly, at its own (m, T) times, equals the
    # block of that assembly's rows alone; with legs, one row reaches 1.4
    # MAX_CHEBYSHEV_ORDER, so the block and the calls run in legs
    assemblies = [_assembly(o, sigma_p0) for o, sigma_p0 in grids]
    of_row = [assemblies[i % len(assemblies)] for i in rows]
    rng = np.random.default_rng(seed)
    size = 2 * assemblies[0].n
    starts = rng.standard_normal((len(rows), size)) + 1j * rng.standard_normal((len(rows), size))
    starts /= np.linalg.norm(starts, axis=1)[:, None]
    r_end = rng.uniform(10.0, 300.0, len(rows))
    if legs:
        r_end[0] = 1.4 * MAX_CHEBYSHEV_ORDER
    half = np.array([_spectral_bounds(h)[1] for h in of_row])
    times = (r_end * HBAR_EV_FS / half)[:, None] * rng.uniform(0.0, 1.0, (len(rows), columns))
    block = evolve_vector(starts, of_row, times)
    assert block.shape == (len(rows), size, columns)
    for h in assemblies:
        mine = [i for i, a in enumerate(of_row) if a is h]
        if mine:
            np.testing.assert_allclose(block[mine], evolve_vector(starts[mine], h, times[mine]),
                                       rtol=0, atol=1e-13)


def test_rows_and_assemblies_must_match():
    # one assembly per row, all of one n
    small, large = _assembly("transverse", 0.01), _assembly("transverse", 0.01, n=128)
    starts = np.eye(2, 2 * small.n, dtype=complex)
    with pytest.raises(DomainError, match="3 assemblies for a block of 2 states"):
        evolve_vector(starts, [small] * 3, np.ones(2))
    with pytest.raises(DomainError, match="do not fit assemblies"):
        evolve_vector(starts, [small, large], np.ones(2))
    with pytest.raises(DomainError, match="do not fit assemblies"):
        evolve_vector(starts, large, np.ones(2))


@settings(max_examples=15, deadline=None)
@given(orientation=orientations,
       gammas=st.lists(st.floats(0.05, 3.0), min_size=1, max_size=3))
@example(orientation="parallel", gammas=[0.1, 2.0, 0.1])
def test_grid_windows_are_channels_equal_to_one_shape_calls(orientation, gammas):
    # packets of Gamma 0.05 .. 3 need grids of their own below about 0.67 and
    # share the recoil-limited one above: every window of one block is a
    # trace- and Hermiticity-preserving, completely positive map of the TLS
    # state, and equals the window of its shape alone
    cpl = COUPLINGS[orientation]
    packets = [default_packet(GaussianQewSpec.from_duration(KIN, g / cpl.tls.omega_21), cpl, 64)
               for g in gammas]
    windows = grid_windows(packets, cpl)
    assert len(windows) == len(packets)
    for packet, window in zip(packets, windows):
        k = window.channel
        assert k.shape == (4, 4)
        np.testing.assert_allclose(k[0] + k[3], [1.0, 0.0, 0.0, 1.0], rtol=0, atol=1e-12)
        # K_ab,ij = conj(K_ba,ji): rho^dagger maps to the image's dagger
        quad = k.reshape(2, 2, 2, 2)
        np.testing.assert_allclose(quad, quad.transpose(1, 0, 3, 2).conj(), rtol=0, atol=1e-12)
        choi = quad.transpose(2, 0, 3, 1).reshape(4, 4)     # sum_ij |i><j| (x) K(|i><j|)
        assert np.min(np.linalg.eigvalsh(choi)) >= -1e-12
        [alone] = grid_windows([packet], cpl)
        np.testing.assert_allclose(k, alone.channel, rtol=0, atol=1e-13)
        assert (window.length, window.omega_21) == (alone.length, alone.omega_21)


@settings(max_examples=300, deadline=None)
@given(x=st.floats(allow_nan=False, allow_infinity=False))
def test_wrap_phase_range(x):
    w = wrap_phase(x)
    assert 0.0 <= w < TWO_PI


# INI fragments: known and unknown sections and keys, values from the schema's
# vocabulary and arbitrary text (a "%" and inline comments included)
_SECTIONS = ["physics", "numerics", "sweep", "DEFAULT", "extras"]
_KEYS = sorted({k for sec in _COMMON_SCHEMA.values() for k in sec}
               | {k for sec in _SWEEP_SCHEMAS.values() for k in sec} | {"bogus"})
_TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=20)
_INI_CHARS = st.text(alphabet="%()#;=:[]{}$ \t0123456789.,-+eE_nafitrux", max_size=12)
_VALUES = st.one_of(
    st.sampled_from(sorted(_SWEEP_SCHEMAS) + ["nan", "-1", "0", "1e400", "true",
                                               "1, 2 3", "%", "%(x)s", "1 # c", ""]),
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    _INI_CHARS,
    _TEXT)
_ENTRIES = st.tuples(st.sampled_from(_KEYS), st.sampled_from(["=", ":", " = "]),
                     _VALUES).map("".join)
_LINES = st.one_of(_ENTRIES, st.sampled_from(_SECTIONS).map(lambda s: f"[{s}]"))


def _line_key(line: str) -> str:
    """Option or section name of a line: no duplicates, which INI rejects."""
    return line.partition("=")[0].partition(":")[0].strip().lower()


_SCENARIO_LINE = st.sampled_from(sorted(_SWEEP_SCHEMAS)).map("[run]\nscenario = {}".format)
# mostly a valid scenario line, so that most texts get past it to the schema
_HEADERS = st.one_of(_SCENARIO_LINE, _SCENARIO_LINE, _SCENARIO_LINE,
                     st.sampled_from(["", "[run]"]), _TEXT)


@settings(max_examples=300, deadline=None)
@given(header=_HEADERS, lines=st.lists(_LINES, max_size=10, unique_by=_line_key))
@example(header="[run]\nscenario = fig8_single_point", lines=["output_dir = out%1"])
def test_any_ini_text_is_config_or_config_error(header, lines):
    text = "\n".join([header] + lines)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.ini"
        path.write_text(text, encoding="utf-8")
        try:
            cfg = load_config(path)
        except ConfigError:
            return
    assert set(cfg) == {"run", "physics", "numerics", "sweep"}
    for section in cfg.values():
        for value in section.values():
            if isinstance(value, float):
                assert math.isfinite(value)
