"""The cubic-Hermite envelope against exact sums and the envelopes it replaced.

`apply_power` keeps bounds of L^k f and of its slope at the nodes j/N and
interpolates them by cubic Hermite polynomials (see the `cfshrink._transfer`
docstring).  Two oracles stand behind it.  The bin max/min envelope (below)
took, each step, the max and min over the bins a cell's image covers, with
block weights from the first-order midpoint bound (`first_order_cell_sum`);
the oracle reproduces the float.hex pins of its `apply_power`.  The chord
envelope (`chord_envelope.py`) interpolated node bounds by chords; it nests
inside the bin oracle and has the bits of the chord `apply_power`.  The
Hermite envelope must contain exact enumerations, overlap the chord oracle
and be at least 10x narrower at levels 1 and 2.  Its cell weights are
checked bit for bit against a per-cell setup, the cell sums against Hurwitz
zeta, and its two interpolation bounds against mpmath.
"""

import functools
import itertools
import math
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from chord_envelope import (
    _INDEX_FIELDS, _block_chords, _cell_sum, chord_apply_power, chord_apply_powers,
    chord_layout, chord_sup_seed, chords, setup, setup_fields, terms,
)
from cfshrink import _transfer
from cfshrink import rounding as rd
from cfshrink.ivec import _ln_one_sided, dn, iexp, iln, ipow_neg, up
from cfshrink.pressure import _sup_seed

# the level table of the bin envelope: (bins, singleton digits, dyadic blocks)
BIN_LEVELS = [(256, 32, 12), (1024, 64, 14), (4096, 128, 17), (8192, 256, 20)]


def _upto(amax):
    """The digit set {1..amax}, or None (the full alphabet)."""
    return None if amax is None else range(1, amax + 1)


def _bin_layout(monkeypatch, level, amax):
    """The layout the bin method used at `level`."""
    nbins, a0, ndyad = BIN_LEVELS[level]
    monkeypatch.setattr(_transfer, "_LEVELS", [(a0, ndyad)])
    return _transfer.Layout(nbins, _transfer.make_layout(0, _upto(amax)).cells)


# -- the bin envelope (the parent's apply_power) --------------------------------

def _image_bins(A1, A2, r_lo, r_hi, nbins):
    """Conservative bin range [j1, j2] of x = 1/(a+r) over the cell."""
    if A2 == 0:
        im_lo = np.zeros_like(r_lo)
    else:
        im_lo = dn(1.0 / up(A2 + r_hi))
    im_hi = up(1.0 / dn(A1 + r_lo))
    j1 = np.clip(np.floor(im_lo * nbins).astype(np.int64), 0, nbins - 1)
    j2 = np.clip(np.floor(im_hi * nbins).astype(np.int64), 0, nbins - 1)
    return j1, j2


def _sparse_table(values, op):
    """Doubling table for exact range max/min queries."""
    levels = [values]
    k = 1
    while 2 * k <= len(values):
        prev = levels[-1]
        levels.append(op(prev[: len(prev) - k], prev[k:]))
        k *= 2
    return levels


def _range_query(levels, j1, j2, op):
    """op over values[j1..j2] per slot, via two overlapping power-of-two blocks."""
    w = j2 - j1 + 1
    k = (np.frexp(w.astype(np.float64))[1] - 1).astype(np.int64)
    out = np.empty(len(j1), dtype=np.float64)
    for kk in np.unique(k):
        m = k == kk
        step = 1 << int(kk)
        out[m] = op(levels[int(kk)][j1[m]], levels[int(kk)][j2[m] - step + 1])
    return out


def bin_apply_power(n, t, layout, seed=None):
    """(lo, hi) of (L^n f)(0) by bin max/min; seed: bounds of f over each bin."""
    N = layout.nbins
    if seed is None:
        U = np.ones(N)
        L = np.ones(N)
    else:
        L, U = np.asarray(seed[0], float), np.asarray(seed[1], float)
    edges = layout.edges if n > 1 else np.zeros(1)
    e_lo, e_hi = bin_weights(layout, t, edges)  # the cell weights at every edge
    if n > 1:
        r_lo, r_hi = edges[:-1], edges[1:]
        cell_data = []
        for k, (A1, A2) in enumerate(layout.cells):
            j1, j2 = _image_bins(A1, A2, r_lo, r_hi, N)
            cell_data.append((e_lo[k, 1:], e_hi[k, :-1], j1, j2))
        for _ in range(n - 1):
            tU = _sparse_table(U, np.maximum)
            tL = _sparse_table(L, np.minimum)
            Unew = np.zeros(N)
            Lnew = np.zeros(N)
            for w_lo, w_hi, j1, j2 in cell_data:
                mU = _range_query(tU, j1, j2, np.maximum)
                mL = _range_query(tL, j1, j2, np.minimum)
                Unew = up(Unew + up(w_hi * mU))
                Lnew = dn(Lnew + dn(w_lo * mL))
            U, L = Unew, Lnew
    zero = np.zeros(1)
    tot_lo, tot_hi = 0.0, 0.0
    for k, (A1, A2) in enumerate(layout.cells):
        w_lo, w_hi = float(e_lo[k, 0]), float(e_hi[k, 0])
        j1, j2 = _image_bins(A1, A2, zero, zero, N)
        j1, j2 = int(j1[0]), int(j2[0])
        m_hi = float(np.max(U[j1 : j2 + 1]))
        m_lo = float(np.min(L[j1 : j2 + 1]))
        tot_hi = float(up(tot_hi + up(w_hi * m_hi)))
        tot_lo = float(dn(tot_lo + dn(w_lo * m_lo)))
    return max(tot_lo, 0.0), tot_hi


def bin_sup_seed(layout, xe, t):
    """Bounds of (1 + x r)^{-t} over each bin."""
    xlo, xhi = rd.to_f64(xe)
    edges = layout.edges
    return ipow_neg(dn(1.0 + dn(xlo * edges[:-1])), up(1.0 + up(xhi * edges[1:])), t)


# -- cell weights ---------------------------------------------------------------

def _pow_ln(ln, t):
    """Enclosure of y^{-t} from the ln bounds of y; the bits of ipow_neg."""
    return iexp(dn(ln[1] * (-t)), up(ln[0] * (-t)))


def _tails(y_lo, y_hi, ln, t):
    """Enclosures of int_y^inf x^{-t} dx = y^{1-t}/(t-1) (None at t = 1) and
    of the same at t + 1, y^{-t}/t."""
    tm1 = t - 1.0
    plo, phi = _pow_ln(ln, tm1)  # swapped when t < 1: then both divisions flip
    q_lo = dn(np.minimum(plo, phi) / y_hi)  # y^{-t} = y^{1-t} / y
    q_hi = up(np.maximum(plo, phi) / y_lo)
    return (dn(plo / tm1), up(phi / tm1)) if tm1 else None, (dn(q_lo / t), up(q_hi / t))


def first_order_cell_sum(A1, A2, c, t):
    """The cell sums before the third-order bound: the sum of g(a) = (a+c)^{-t}
    lies in [I - C, I] with I the integral of g over [A1-1/2, A2+1/2] and
    C = (|g'| + g'')(A1-1/2)/24."""
    c = np.asarray(c, dtype=np.float64)
    y_lo, y_hi = dn(A1 - 0.5 + c), up(A1 - 0.5 + c)
    ln = _ln_one_sided(y_lo, -1), _ln_one_sided(y_hi, +1)
    i0, i1 = _tails(y_lo, y_hi, ln, t)
    if A2 is not None:
        b_lo, b_hi = dn(A2 + 0.5 + c), up(A2 + 0.5 + c)
        ln_b = _ln_one_sided(b_lo, -1), _ln_one_sided(b_hi, +1)
        j0, j1 = _tails(b_lo, b_hi, ln_b, t)
        if i0 is None:  # t = 1: the integral over [A1-1/2, A2+1/2] is a log ratio
            i0 = dn(ln_b[0] - ln[1]), up(ln_b[1] - ln[0])
        else:
            i0 = dn(i0[0] - j0[1]), up(i0[1] - j0[0])
        i1 = dn(i1[0] - j1[1]), up(i1[1] - j1[0])
    p2 = _pow_ln(ln, t + 2.0)[1]  # y^{-t-2}
    g1 = up(t * _pow_ln(ln, t + 1.0)[1])
    g2 = up(t * (t + 1.0) * p2)
    corr0 = up(up(g1 + g2) / 24.0)
    h2 = up(up((t + 1.0) * (t + 2.0)) * up(p2 / y_lo))
    corr1 = up(up(up((t + 1.0) * p2) + h2) / 24.0)
    return (np.maximum(dn(i0[0] - corr0), 0.0), i0[1]), (np.maximum(dn(i1[0] - corr1), 0.0), i1[1])


def _setup_rows(layout):
    """Row of each cell in the singleton and block arrays of _transfer._setup."""
    single = [A1 == A2 for A1, A2 in layout.cells]
    blocks = [k for k, s in enumerate(single) if not s]
    order = [k for k in blocks if layout.cells[k][1]] + [k for k in blocks if not layout.cells[k][1]]
    return {k: i for i, k in enumerate(k for k, s in enumerate(single) if s)}, {
        k: i for i, k in enumerate(order)}


def _cell_weight(A1, A2, c, t):
    """Weight enclosure of one cell (A1, A2) at the exact points c; A2 = 0 is
    infinite: a singleton by ipow_neg at the exact point a + c, a block by
    the first sum of _cell_sum."""
    if A1 == A2:
        y = float(A1) + c
        return ipow_neg(y, y, t)
    return _cell_sum(A1, A2 if A2 else None, c, t)[0]


def bin_weights(layout, t, r):
    """Weights of every cell at the points r: the singletons by one ipow_neg
    (elementwise, so with the bits of one call per cell), the blocks by
    first_order_cell_sum."""
    cells = np.array(layout.cells, dtype=np.float64)
    single = cells[:, 0] == cells[:, 1]
    lo, hi = np.empty((len(cells), r.size)), np.empty((len(cells), r.size))
    a = cells[single, :1]
    lo[single], hi[single] = ipow_neg(dn(a + r), up(a + r), t)
    for k in np.flatnonzero(~single):
        A1, A2 = layout.cells[k]
        lo[k], hi[k] = first_order_cell_sum(A1, A2 if A2 else None, r, t)[0]
    return lo, hi


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _check_against_oracle(layout, t):
    rows_s, rows_b = _setup_rows(layout)
    for r in (layout.edges, np.zeros(1)):  # every node, and the n = 1 path
        singles, blocks = _transfer._setup(layout, t, r)
        for k, (A1, A2) in enumerate(layout.cells):
            lo, hi = _cell_weight(A1, A2, r, t)
            if A1 == A2:
                got = singles["w_lo"][0, rows_s[k]], singles["w_hi"][0, rows_s[k]]
            else:
                got = blocks["lo_cap"][rows_b[k]], blocks["hi_cap"][0, rows_b[k]]
            assert _same_bits(got[0], lo) and _same_bits(got[1], hi), (A1, A2)


@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("amax", [None, 5, 20, 100])
def test_edge_weights_match_per_cell_oracle(level, amax):
    ts = (1.02, 1.5, 2.2) if level < 2 else (1.5,)
    if amax is not None:
        ts += (0.7,)
    for t in ts:
        _check_against_oracle(_transfer.make_layout(level, _upto(amax)), t)


def test_edge_weights_match_oracle_level3_subset(monkeypatch):
    full = _bin_layout(monkeypatch, 3, None)
    cells = full.cells[:2] + full.cells[254:258] + full.cells[-3:]
    assert len(cells) == 9
    layout = _transfer.Layout(256, cells)  # every block starts above 256
    for t in (1.1, 1.9):
        _check_against_oracle(layout, t)


def test_edge_weights_do_not_depend_on_chunking(monkeypatch):
    layout = _transfer.make_layout(1)
    ref = _transfer._setup(layout, 1.6, layout.edges)
    ref_power = _transfer.apply_power(3, 1.6, layout)
    for chunk in (1, 100, 3000, 10**7):
        monkeypatch.setattr(_transfer, "_CHUNK", chunk)
        _transfer._geometry.cache_clear()  # else the second build reads the first
        got = _transfer._setup(layout, 1.6, layout.edges)
        for part, want in zip(got, ref):
            assert part.keys() == want.keys()
            assert all(np.array_equal(part[f], want[f]) for f in want)
        assert _transfer.apply_power(3, 1.6, layout) == ref_power
    _transfer._geometry.cache_clear()


# -- the geometry cache: per-layout work once, per-t work per probe --------------

def _digits(name):
    """A full, a small and a gappy digit set; the gappy one has blocks at every level."""
    return {"full": None, "upto5": range(1, 6), "gappy": GAPPY}[name]


def _setup_grid(level, name):
    """(layout, t, points) over t < 1, t = 1 and t > 1 (t > 1 alone on the
    full alphabet, where t <= 1 diverges) and both point sets of a solver."""
    layout = _transfer.make_layout(level, _digits(name))
    ts = (1.0000001, 1.5, 2.7) if name == "full" else (0.6, 1.0, 1.5)
    return [(layout, t, r) for t in ts for r in (layout.edges, np.zeros(1))]


def _same_fields(got, want):
    """The same fields and shapes; floats bit for bit, indices by value."""
    assert got.keys() == want.keys()
    for f, v in got.items():
        assert np.shape(v) == np.shape(want[f]), f
        assert (_same_bits(v, want[f]) if np.asarray(v).dtype == np.float64
                else np.array_equal(v, want[f])), f


@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("name", ["full", "upto5", "gappy"])
def test_setup_has_the_bits_of_the_single_pass_setup(level, name):
    """Geometry from the cache plus the per-t work gives every field of the
    setup that built all of it at one t (chord_envelope.setup)."""
    for layout, t, r in _setup_grid(level, name):
        (singles, blocks), (want_s, want_b) = setup_fields(_transfer._setup(layout, t, r)), setup(layout, t, r)
        _same_fields(singles, want_s)
        if want_b["lo_cap"].shape[0]:
            _same_fields(blocks, want_b)
        else:
            assert blocks is None  # no block data is built for a layout without blocks


@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("name", ["full", "upto5", "gappy"])
def test_cached_setup_equals_a_fresh_build(level, name):
    for layout, t, r in _setup_grid(level, name):
        _transfer._setup(layout, t, r)
        hits = _transfer._geometry.cache_info().hits
        cached = _transfer._setup(layout, t, r)
        assert _transfer._geometry.cache_info().hits == hits + 1
        _transfer._geometry.cache_clear()
        for part, want in zip(cached, _transfer._setup(layout, t, r)):
            _same_fields(part, want)


@pytest.mark.parametrize("t", [0.6, 1.0, 1.02, 1.5, 2.7])
def test_block_sums_in_one_pass_match_the_per_call_sums(t):
    """_block_sums over finite blocks and the tail at once has the bits of
    the per-call _end_sums, finite blocks and tail apart."""
    A1 = np.array([[33.0], [65.0], [129.0], [4097.0]])
    A2 = np.array([[64.0], [100.0], [256.0]])  # the last block is the tail
    nf = 3 if t > 1 else 2  # the tail sum diverges for t <= 1
    A1 = A1[:nf + 1] if t > 1 else A1[:nf]
    c = np.array([0.0, 0.25, 0.5, 1.0])
    y = np.concatenate([A1 - 0.5 + c, A2[:nf] + 0.5 + c])
    ends = dn(y), up(y)
    got = _transfer._block_sums(*(np.stack(v) for v in (ends, ipow_neg(*ends, t), iln(*ends))), nf, t)
    want = [_cell_sum(A1[:nf], A2[:nf], c, t)]
    if len(A1) > nf:
        want.append(_cell_sum(A1[nf:], None, c, t))
    for k in range(5):
        for i in (0, 1):
            assert _same_bits(got[i][k], np.concatenate([w[k][i] for w in want])), (k, i)


def test_cached_geometry_is_read_only():
    layout = _transfer.make_layout(0, GAPPY)
    singles, ln, ends, _ = _transfer._geometry(layout, layout.edges.tobytes())
    arrays = [*singles.values(), ln, ends]
    assert len(arrays) == 11
    for v in arrays:
        with pytest.raises(ValueError, match="read-only"):
            v.flat[0] = 0.0
    data = _transfer._setup(layout, 1.5, layout.edges)
    with pytest.raises(ValueError, match="read-only"):
        data[0]["hi"][0, 0, 0, 0] = 1.0


def test_blocks_must_start_above_the_nodes():
    """A block below the node count would map across several node intervals."""
    layout = _transfer.Layout(64, ((1, 1), (33, 64)))
    with pytest.raises(ValueError, match="block"):
        _transfer.apply_power(2, 1.5, layout)


@pytest.mark.parametrize("A1, A2", [(33, 64), (65, 100), (129, 256), (4097, None)])
@pytest.mark.parametrize("t", [0.7, 1.02, 1.5, 2.2])
def test_cell_sum_at_t_plus_one_contains_the_sum(A1, A2, t):
    """The sums at t + k, k = 1..4, built from the powers at t, against mpmath
    and a direct evaluation at t + k."""
    if A2 is None and t < 1:
        return  # the tail sum at t diverges
    c = np.array([0.0, 0.25, 1.0])
    a2 = None if A2 is None else float(A2)
    sums = _cell_sum(float(A1), a2, c, t)
    assert len(sums) == 5
    with mp.workdps(30):
        for k, (lo, hi) in enumerate(sums):
            d_lo, d_hi = _cell_sum(float(A1), a2, c, t + k)[0]
            for i, ci in enumerate(c):
                g = lambda a: (a + mp.mpf(ci)) ** (-mp.mpf(t + k))  # noqa: E731
                exact = mp.zeta(t + k, A1 + mp.mpf(ci)) if A2 is None else mp.fsum(
                    g(a) for a in range(A1, A2 + 1))
                assert mp.mpf(lo[i]) <= exact <= mp.mpf(hi[i]), (k, ci)
                assert max(lo[i], d_lo[i]) <= min(hi[i], d_hi[i])
                assert hi[i] - lo[i] <= 1.01 * (d_hi[i] - d_lo[i]) + 1e-15 * hi[i]


@pytest.mark.parametrize("A1, A2", [(1, 1), (2, 3), (33, 64), (129, 256), (2, None), (129, None)])
@pytest.mark.parametrize("t", [0.7, 1.02, 1.3, 1.6, 2.2, 3.0])
def test_cell_sum_contains_hurwitz_sums(A1, A2, t):
    """Every sum inside 40-digit Hurwitz zeta differences, and the first two
    inside the first-order bound.

    The single digit 1 is only checked for containment: at c = 0 its lower
    end is a = 1/2, where D3 > D1, so the third-order upper end lies above
    the integral, the first-order one.  Layouts make every digit up to 32 a
    singleton.  The block 129..256 at t = 1.6 is about 3.5e-12 wide
    (absolute), against 2.2e-7 for the first-order bound.
    """
    if A2 is None and t < 1:
        return  # the tail sum at t diverges
    c = np.array([0.0, 0.5, 1.0])
    a2 = None if A2 is None else float(A2)
    new = _cell_sum(float(A1), a2, c, t)
    old = first_order_cell_sum(float(A1), a2, c, t)
    with mp.workdps(40):
        for k, (lo, hi) in enumerate(new):
            e = mp.mpf(t) + k
            for i, ci in enumerate(c):
                q = A1 + mp.mpf(ci)
                exact = mp.zeta(e, q) - (0 if A2 is None else mp.zeta(e, A2 + 1 + mp.mpf(ci)))
                assert mp.mpf(lo[i]) <= exact <= mp.mpf(hi[i]), (e, ci)
                if A1 > 1 and k < 2:
                    o_lo, o_hi = old[k]
                    assert o_lo[i] <= lo[i] <= hi[i] <= o_hi[i], (e, ci)
    if (A1, A2, t) == (129, 256, 1.6):
        (lo, hi), (o_lo, o_hi) = new[0], old[0]
        assert np.all(hi - lo <= 1e-11) and np.all(o_hi - o_lo > 2e-7)


# -- the parent envelopes, pinned ------------------------------------------------

# results of the bin method's apply_power with the per-cell setup and
# np.nextafter rounding, as float.hex: (level, amax, n, t, seeded) -> (lo, hi),
# on the layouts of BIN_LEVELS.  The seed is the pressure sup seed at x = 0.3.
PARENT_FLOATS = {
    (0, None, 1, 1.6, False): ("0x1.2493e529de98cp+1", "0x1.249439b3aa5f0p+1"),
    (0, None, 2, 1.3, False): ("0x1.ba62aae7a0bdbp+3", "0x1.bb6c7c8fcdd5fp+3"),
    (1, None, 3, 1.6, False): ("0x1.b1dc211622047p+2", "0x1.b2b6eb4724527p+2"),
    (2, None, 2, 2.2, False): ("0x1.e98178d3f8550p-1", "0x1.e9aafd4d271d2p-1"),
    (1, 5, 3, 1.3, False): ("0x1.b0660151000ddp+1", "0x1.b1125fbe7dbcfp+1"),
    (1, 20, 1, 1.3, False): ("0x1.4ae2d8cdf924bp+1", "0x1.4ae2d8cdf92bbp+1"),
    (2, 20, 2, 1.6, False): ("0x1.4f248c46c0194p+1", "0x1.4f368ca0fd1f4p+1"),
    (0, 5, 3, 2.2, True): ("0x1.66eb62aa0b205p-2", "0x1.6c26cbe6709afp-2"),
    (1, 20, 3, 1.6, True): ("0x1.949bd35b9e844p+1", "0x1.9576705a91bc1p+1"),
    (2, 20, 2, 1.3, True): ("0x1.1edf37aa31497p+2", "0x1.1ef1bc54fce94p+2"),
}

# the cubic-Hermite apply_power on make_layout(level, amax), same keys
HERMITE_FLOATS = {
    (0, None, 1, 1.6, False): ("0x1.2493f821df47cp+1", "0x1.2493f82635f26p+1"),
    (0, None, 2, 1.3, False): ("0x1.bae103119e29dp+3", "0x1.bae1072e63cd1p+3"),
    (1, None, 3, 1.6, False): ("0x1.b23fbb758b72ap+2", "0x1.b23fbbf925933p+2"),
    (2, None, 2, 2.2, False): ("0x1.e991bee64864bp-1", "0x1.e991bee8c2517p-1"),
    (1, 5, 3, 1.3, False): ("0x1.b0b0d98d6136ep+1", "0x1.b0b0d9af38487p+1"),
    (1, 20, 1, 1.3, False): ("0x1.4ae2d8cdf9259p+1", "0x1.4ae2d8cdf9276p+1"),
    (2, 20, 2, 1.6, False): ("0x1.4f2c759803b5ep+1", "0x1.4f2c7598f1daep+1"),
    (0, 5, 3, 2.2, True): ("0x1.69317cae61078p-2", "0x1.69318a0550622p-2"),
    (1, 20, 3, 1.6, True): ("0x1.9500ee31f9d9ap+1", "0x1.9500eeaa3e080p+1"),
    (2, 20, 2, 1.3, True): ("0x1.1ee83dd913cbfp+2", "0x1.1ee83ddafa861p+2"),
}


@pytest.mark.parametrize("key", sorted(PARENT_FLOATS, key=repr))
def test_apply_power_keeps_parent_floats(key, monkeypatch):
    """The bin oracle reproduces its bits and the chord oracle nests inside it;
    the Hermite envelope has its pinned bits and lies inside the bin result."""
    level, amax, n, t, seeded = key
    xe = rd.enclose(0.3)
    layout = _transfer.make_layout(level, _upto(amax))
    h_lo, h_hi = _transfer.apply_powers(
        n, t, layout, [_sup_seed(layout, xe, t) if seeded else None])[0][-1]
    assert (h_lo.hex(), h_hi.hex()) == HERMITE_FLOATS[key]
    layout = _bin_layout(monkeypatch, level, amax)
    lo, hi = bin_apply_power(n, t, layout, seed=bin_sup_seed(layout, xe, t) if seeded else None)
    assert (float(lo).hex(), float(hi).hex()) == PARENT_FLOATS[key]
    c_lo, c_hi = chord_apply_power(n, t, layout, seed=chord_sup_seed(layout, xe, t) if seeded else None)
    assert lo <= c_lo <= c_hi <= hi
    assert lo <= h_lo <= h_hi <= hi


# -- nesting, containment and width ---------------------------------------------

def _memoize(monkeypatch, owner, name):
    memo, fn = {}, getattr(owner, name)

    def cached(layout, t, r):
        key = (layout, t, r.size, sys.modules["chord_envelope"]._cell_sum)
        if key not in memo:
            memo[key] = fn(layout, t, r)
        return memo[key]

    monkeypatch.setattr(owner, name, cached)


@pytest.fixture
def shared_weights(monkeypatch):
    """Memoize the step data of both oracles across one test."""
    _memoize(monkeypatch, sys.modules["chord_envelope"], "chords")
    _memoize(monkeypatch, sys.modules[__name__], "bin_weights")


@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("amax", [None, 5, 20, 100])
def test_chord_nests_inside_bin_envelope(level, amax, shared_weights, monkeypatch):
    """The chord oracle inside the bin oracle, and inside itself on first-order block weights."""
    layout = chord_layout(level, _upto(amax))
    ts = (1.02, 1.5, 2.2) if amax is None else (0.7, 1.02, 1.5, 2.2)
    xe = rd.enclose(0.3)
    for t, seeded in itertools.product(ts, (False, True)):
        seed = chord_sup_seed(layout, xe, t) if seeded else None
        bseed = bin_sup_seed(layout, xe, t) if seeded else None
        with monkeypatch.context() as m:
            m.setattr(sys.modules["chord_envelope"], "_cell_sum", first_order_cell_sum)
            [first_order] = chord_apply_powers(6, t, layout, [seed])
        for n, (f_lo, f_hi) in enumerate(first_order, 1):
            lo, hi = chord_apply_power(n, t, layout, seed=seed)
            b_lo, b_hi = bin_apply_power(n, t, layout, seed=bseed)
            assert b_lo <= lo <= hi <= b_hi, (t, seeded, n, (lo, hi), (b_lo, b_hi))
            if n > 1:
                assert hi - lo < 0.1 * (b_hi - b_lo), (t, seeded, n)
            assert f_lo <= lo <= hi <= f_hi, (t, seeded, n, (lo, hi), (f_lo, f_hi))


@pytest.mark.parametrize("level", [0, 1, 2])
def test_hermite_overlaps_chord_and_is_narrower(level):
    """On the full alphabet the Hermite enclosure meets the chord oracle's, is
    no wider at level 0 and, from n = 2 on, at least 10x narrower at levels 1
    and 2 (at n = 1 both are the cell sums at r = 0)."""
    layout, c_layout = _transfer.make_layout(level), chord_layout(level)
    xe = rd.enclose(0.3)
    for t, seeded in itertools.product((1.02, 1.5, 2.2), (False, True)):
        [got] = _transfer.apply_powers(5, t, layout, [_sup_seed(layout, xe, t) if seeded else None])
        [want] = chord_apply_powers(5, t, c_layout, [chord_sup_seed(c_layout, xe, t) if seeded else None])
        for n, ((lo, hi), (c_lo, c_hi)) in enumerate(zip(got, want), 1):
            assert max(lo, c_lo) <= min(hi, c_hi), (t, seeded, n)
            assert hi - lo <= (c_hi - c_lo) / (10.0 if level and n > 1 else 1.0), (t, seeded, n)


@functools.lru_cache(maxsize=None)
def _exact_sup_sum(digits, n, t, x):
    """sum over digits^n of (q_n + x q_{n-1})^{-t}, at 30 digits.

    Words with the same q_n + x q_{n-1} share one power, times their count.
    """
    q, qp = np.ones(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    for _ in range(n):
        a = np.repeat(np.array(digits, dtype=np.int64), q.size)
        q, qp = a * np.tile(q, len(digits)) + np.tile(qp, len(digits)), np.tile(q, len(digits))
    values, counts = np.unique(x.denominator * q + x.numerator * qp, return_counts=True)
    with mp.workdps(30):
        mt = -mp.mpf(t)
        return mp.fsum(int(c) * (mp.mpf(int(v)) / x.denominator) ** mt
                       for v, c in zip(values, counts))


@pytest.mark.parametrize("level", [0, 1])
def test_contains_exact_sums(level):
    layout = _transfer.make_layout(level, range(1, 6))
    for t, x, n in itertools.product((0.7, 1.5), (Fraction(0), Fraction(3, 10)), (1, 2, 4)):
        xe = rd.enclose(x)
        seed = _sup_seed(layout, xe, t) if x else None
        lo, hi = _transfer.apply_powers(n, t, layout, [seed])[0][-1]
        exact = _exact_sup_sum(tuple(range(1, 6)), n, t, x)
        assert mp.mpf(lo) <= exact <= mp.mpf(hi), (t, x, n)


# a gappy set of singletons, and one whose runs above level 0's 32
# singletons become the blocks 40..78 and 79..90
@pytest.mark.parametrize("digits, depths", [
    ((1, 3, 4, 5), (1, 2, 4)),
    ((1, 3, *range(40, 91), 200), (1, 2)),
])
def test_contains_exact_sums_over_gappy_digits(digits, depths):
    layout = _transfer.make_layout(0, digits)
    for t, x, n in itertools.product((0.7, 1.5), (Fraction(0), Fraction(3, 10)), depths):
        xe = rd.enclose(x)
        seed = _sup_seed(layout, xe, t) if x else None
        lo, hi = _transfer.apply_powers(n, t, layout, [seed])[0][-1]
        exact = _exact_sup_sum(digits, n, t, x)
        assert mp.mpf(lo) <= exact <= mp.mpf(hi), (t, x, n)


@pytest.mark.parametrize("digits", [tuple(range(1, 6)), tuple(range(1, 21)), (1, 2, 3, 5)])
def test_hermite_contains_exact_enumeration(digits):
    """Singleton-only alphabets at every level, n = 2..4, seeded and not."""
    for level, t, x, n in itertools.product((0, 1, 2), (0.8, 1.6, 2.6),
                                            (Fraction(0), Fraction(3, 10)), (2, 3, 4)):
        layout = _transfer.make_layout(level, digits)
        seed = _sup_seed(layout, rd.enclose(x), t) if x else None
        lo, hi = _transfer.apply_powers(n, t, layout, [seed])[0][-1]
        exact = _exact_sup_sum(digits, n, t, x)
        assert mp.mpf(lo) <= exact <= mp.mpf(hi), (level, t, x, n)
        if level == 2 and t == 1.6:
            assert hi - lo < 1e-8 * hi, (x, n)


def test_second_order_width():
    """The chord oracle's widths fall like the square of the node spacing."""
    w = []
    for nbins in (256, 1024):
        layout = _transfer.Layout(nbins, tuple((a, a) for a in range(1, 6)))
        lo, hi = chord_apply_power(4, 1.5, layout)
        w.append((hi - lo) / hi)
    assert w[0] < 2e-5 and w[1] < w[0] / 8


def test_fourth_order_width():
    """The Hermite widths fall like the fourth power of the node spacing."""
    w = []
    for nbins in (32, 64, 128):
        layout = _transfer.Layout(nbins, tuple((a, a) for a in range(1, 6)))
        lo, hi = _transfer.apply_power(4, 1.5, layout)
        w.append((hi - lo) / hi)
    assert w[0] < 5e-7 and w[1] < w[0] / 12 and w[2] < w[1] / 12


def test_full_alphabet_level0_width():
    lo, hi = _transfer.apply_power(5, 1.5, _transfer.make_layout(0))
    assert 0 < (hi - lo) / hi < 2e-6
    c_lo, c_hi = chord_apply_power(5, 1.5, chord_layout(0))
    assert 0 < (c_hi - c_lo) / c_hi < 2e-4


# -- the two interpolation bounds -------------------------------------------------

def _peano(lam, s):
    """The slope Peano kernel k(lam, s) of the module docstring (W = 1)."""
    if s <= lam:
        return s**2 * (1 - lam) * (1 - 3 * lam + 2 * s * lam) / 2
    return lam * (1 - s) ** 2 * (2 * s * (1 - lam) - lam) / 2


def _hermite(f0, f1, d0, d1, lam):
    """H and H' on [0, 1] from values and derivatives at the ends."""
    h = ((1 + 2 * lam) * (1 - lam) ** 2 * f0 + lam**2 * (3 - 2 * lam) * f1
         + lam * (1 - lam) ** 2 * d0 - lam**2 * (1 - lam) * d1)
    dh = -6 * lam * (1 - lam) * (f0 - f1) + (1 - lam) * (1 - 3 * lam) * d0 + lam * (3 * lam - 2) * d1
    return h, dh


def test_peano_kernel_constant_is_sqrt3_over_216():
    """The kernel is the slope error of the Hermite cubic of (x - s)_+^3/6, and
    max over lam of int |k(lam, .)| is sqrt(3)/216, at lam = (3 - sqrt(3))/6."""
    with mp.workdps(30):
        for lam, s in itertools.product((0.1, 0.3, 0.45, 0.6, 0.9), (0.05, 0.35, 0.5, 0.8)):
            lam, s = mp.mpf(lam), mp.mpf(s)
            _, dh = _hermite(0, (1 - s) ** 3 / 6, 0, (1 - s) ** 2 / 2, lam)
            assert abs(max(lam - s, 0) ** 2 / 2 - dh - _peano(lam, s)) < mp.mpf(10) ** -25

        def mass(lam):
            pts = sorted({mp.mpf(0), lam, mp.mpf(1)} | (
                {(3 * lam - 1) / (2 * lam)} if lam > mp.mpf(1) / 3 else set()))
            return mp.quad(lambda s: abs(_peano(lam, s)), pts)

        const = mp.sqrt(3) / 216
        star = (3 - mp.sqrt(3)) / 6
        assert abs(mass(star) - const) < mp.mpf(10) ** -20
        grid = [mp.mpf(i) / 200 for i in range(1, 200)]
        assert max(mass(lam) for lam in grid) <= const
        assert all(mass(lam) <= mp.mpf(1) / 128 for lam in grid if 1 / mp.mpf(3) <= lam <= 0.5)
        assert float(const) <= _transfer._SLOPE_CONST <= float(const) * (1 + 1e-15)


def test_hermite_remainders_on_the_cone():
    """f - H in [0, (t)_4 f(y1) lam^2 (1 - lam)^2 W^4/24] and |f' - H'| <=
    sqrt(3)/216 W^3 (t)_4 f(y1), for sampled sums of g_c(r) = (1 + c r)^{-t}."""
    rng = np.random.default_rng(611)
    with mp.workdps(40):
        for _ in range(60):
            t = mp.mpf(1 + 2 * rng.random()) if rng.random() < 0.9 else mp.mpf(3)
            cs = [mp.mpf(c) for c in rng.random(rng.integers(1, 4))]
            cs[0] = mp.mpf(1) if rng.random() < 0.3 else cs[0]  # the edge of the cone
            ws = [mp.mpf(w) for w in rng.random(len(cs)) + 0.1]
            f = lambda r: mp.fsum(w * (1 + c * r) ** -t for w, c in zip(ws, cs))  # noqa: E731
            df = lambda r: mp.fsum(-t * w * c * (1 + c * r) ** (-t - 1) for w, c in zip(ws, cs))  # noqa: E731
            W = mp.mpf(2) ** -int(rng.integers(0, 6))
            y1 = W * int(rng.integers(0, int(1 / W)))
            k4 = t * (t + 1) * (t + 2) * (t + 3) * f(y1)
            for lam in [mp.mpf(i) / 16 for i in range(17)] + [(3 - mp.sqrt(3)) / 6]:
                h, dh = _hermite(f(y1), f(y1 + W), W * df(y1), W * df(y1 + W), lam)
                x = y1 + lam * W
                err = f(x) - h
                assert -mp.mpf(10) ** -30 <= err <= k4 * lam**2 * (1 - lam) ** 2 * W**4 / 24
                assert abs(df(x) - dh / W) <= mp.sqrt(3) / 216 * W**3 * k4


def test_block_term_needs_its_curvature_allowance():
    """At the edge of the cone, f(r) = (1 + r)^{-t} has f'' = t(t+1) f at r = 0.

    With the block's sums enclosed tightly, the chord oracle's lower term
    must stay below the exact cell sum, and without the K W^2/8 allowance it
    would not.
    """
    t, N = 2.2, 256
    K = up(t * up(t + 1.0))
    ch = _block_chords(np.array([[33.0]]), np.array([[64.0]]), np.zeros(1), t, K, N)
    j1, j2 = int(ch["ju1"][0, 0]), int(ch["ju2"][0, 0])
    with mp.workdps(40):
        s0 = mp.fsum(mp.mpf(a) ** -t for a in range(33, 65))
        s1 = mp.fsum(mp.mpf(a) ** (-t - 1) for a in range(33, 65))
        m = (N * s1 - j1 * s0) / (j2 - j1)
        exact = mp.fsum(mp.mpf(a + 1) ** -t for a in range(33, 65))  # sum of a^-t f(1/a)
        nodes = [(1 + mp.mpf(j) / N) ** -t for j in range(N + 1)]
    tight = {"s_lo": dn(float(s0)), "s_hi": up(float(s0)), "mu": dn(float(m)), "ml": up(float(m))}
    ch = {f: np.array([[tight.get(f, v[0, 0])]]) for f, v in ch.items()}
    ch.update({f: ch[f].astype(np.int32) for f in _INDEX_FIELDS})
    L = np.array([dn(float(v)) for v in nodes])
    U = np.array([up(float(v)) for v in nodes])
    t_lo, t_hi = terms(ch, L, U)
    assert t_lo[0, 0] <= exact <= t_hi[0, 0]
    ch["c"] = np.zeros((1, 1))
    assert terms(ch, L, U)[0][0, 0] > exact


def _edge_nodes(t, N):
    """Tight node bounds of f(r) = (1 + r)^{-t} and of its slope t (1 + r)^{-t-1}."""
    with mp.workdps(40):
        f = [(1 + mp.mpf(j) / N) ** -t for j in range(N + 1)]
        p = [t * (1 + mp.mpf(j) / N) ** (-t - 1) for j in range(N + 1)]
    return (np.array([dn(float(v)) for v in f]), np.array([up(float(v)) for v in f]),
            np.array([dn(float(v)) for v in p]), np.array([up(float(v)) for v in p]))


_BASIS = (lambda x: (1 + 2 * x) * (1 - x) ** 2, lambda x: x**2 * (3 - 2 * x),
          lambda x: x * (1 - x) ** 2, lambda x: x**2 * (1 - x))


def _exact_block_sums(A1, A2, t, N, r):
    """40-digit M_k = sum over a cell of w lam^k, k = 0..5, with w = (a+r)^{-t}
    and lam = N/(a+r), from Hurwitz zeta, and the sums of w h00, w h01, w h10,
    w g11 (value) and of the same times lam (slope) as combinations of them,
    checked against the digit sums themselves on a short finite block."""
    with mp.workdps(40):
        c = mp.mpf(r)
        M = [(mp.zeta(t + k, A1 + c) - (mp.zeta(t + k, A2 + 1 + c) if A2 else 0)) * N**k
             for k in range(6)]
        value = [M[0] - 3 * M[2] + 2 * M[3], 3 * M[2] - 2 * M[3], M[1] - 2 * M[2] + M[3], M[2] - M[3]]
        slope = [M[1] - 3 * M[3] + 2 * M[4], 3 * M[3] - 2 * M[4], M[2] - 2 * M[3] + M[4], M[3] - M[4]]
        if A2 and A2 - A1 <= 100:
            lam = [N / (a + c) for a in range(A1, A2 + 1)]
            w = [(a + c) ** -t for a in range(A1, A2 + 1)]
            direct = ([mp.fsum(wi * h(x) for wi, x in zip(w, lam)) for h in _BASIS]
                      + [mp.fsum(wi * x * h(x) for wi, x in zip(w, lam)) for h in _BASIS])
            assert all(abs(a - b) < mp.mpf(10) ** -30 for a, b in zip(value + slope, direct))
        return M, value, slope


def _tight_moments(A1, A2, t, N, r):
    """M_0..M_4 of one cell at one point, enclosed to a float either side."""
    M = _exact_block_sums(A1, A2, t, N, r)[0]
    return [(np.array([[dn(float(m))]]), np.array([[up(float(m))]])) for m in M[:5]]


def test_block_term_needs_its_remainder():
    """At the edge of the cone, f(r) = (1 + r)^{-t}, with the block's sums
    enclosed tightly, the Hermite block terms bracket the exact cell sums of
    value and slope, and without the fourth-order remainder the value's upper
    term falls below the exact sum (H <= f)."""
    t, N = 2.2, 32
    V = np.concatenate(_edge_nodes(t, N))
    M = _tight_moments(33, 64, t, N, 0.0)
    cv = _transfer._constants(t, N)[0]
    with mp.workdps(40):
        value = mp.fsum(mp.mpf(a + 1) ** -t for a in range(33, 65))  # sum a^-t f(1/a)
        slope = mp.fsum(t * mp.mpf(a + 1) ** (-t - 1) for a in range(33, 65))  # -(d/dr) at r = 0
    hi, lo = _transfer._block_terms(_transfer._block_data(M, t, N, cv), V)
    assert lo[0, 0, 0] <= value <= hi[0, 0, 0]
    assert lo[1, 0, 0] <= slope <= hi[1, 0, 0]
    assert _transfer._block_terms(_transfer._block_data(M, t, N, 0.0), V)[0][0, 0, 0] < value


@pytest.mark.parametrize("loose", ["none", "values", "slopes"])
def test_singleton_terms_bracket_value_and_slope(loose, monkeypatch):
    """At the edge of the cone, f(r) = (1 + r)^{-t} on 4 node intervals, every
    singleton's value w f(x) and slope w x (t f(x) - x p(x)) lie inside its
    terms, with tight node bounds and with loose ones of f or of p (which
    test each term's choice of bound).  With tight ones, dropping either
    remainder puts some exact value or slope outside."""
    t, N = 2.2, 4
    layout = _transfer.Layout(N, tuple((a, a) for a in range(1, 13)))
    r = np.arange(9) / 8.0
    L, U, Pl, Pu = _edge_nodes(t, N)
    if loose == "values":
        L, U = 0.9 * L, 1.1 * U
    elif loose == "slopes":
        Pl, Pu = 0.5 * Pl, 1.5 * Pu
    V = np.concatenate([L, U, Pl, Pu])
    with mp.workdps(30):
        exact = np.empty((2, len(layout.cells), r.size), dtype=object)
        for i, (a, _) in enumerate(layout.cells):
            for k, rk in enumerate(r):
                y = a + mp.mpf(float(rk))
                x = 1 / y
                f, p = (1 + x) ** -t, t * (1 + x) ** (-t - 1)
                exact[:, i, k] = y**-t * f, y**-t * x * (t * f - x * p)

    def inside():
        hi, lo = _transfer._singleton_terms(_transfer._setup(layout, t, r)[0], V, t)
        return [bool(np.all(lo[m] <= exact[m]) and np.all(exact[m] <= hi[m])) for m in (0, 1)]

    assert inside() == [True, True]
    if loose == "none":
        cv, cd = _transfer._constants(t, N)
        monkeypatch.setattr(_transfer, "_constants", lambda t, N: (0.0, cd))
        assert not inside()[0]
        monkeypatch.setattr(_transfer, "_constants", lambda t, N: (cv, 0.0))
        assert not inside()[1]


@pytest.mark.parametrize("amax", [None, 100])
def test_block_chord_data_bracket_the_exact_sums(amax):
    """Per block and tail cell of the chord oracle: s_lo <= S0 <= s_hi, mu <=
    sum_a w_a lam_a <= ml, and every image 1/(a+r) lies in [ju1/N, ju2/N]."""
    layout = chord_layout(0, _upto(amax))
    t = 1.5
    r = layout.edges[::37]
    ch = chords(layout, t, r)
    N = layout.nbins
    with mp.workdps(30):
        for k, (A1, A2) in enumerate(layout.cells):
            if A1 == A2:
                continue
            for i, ri in enumerate(r):
                c = mp.mpf(float(ri))
                s0, s1 = (mp.zeta(e, A1 + c) - (mp.zeta(e, A2 + 1 + c) if A2 else 0)
                          for e in (t, t + 1))
                j1, j2 = int(ch["ju1"][k, i]), int(ch["ju2"][k, i])
                assert (j1, j2) == (int(ch["jl1"][k, i]), int(ch["jl2"][k, i]))
                assert j1 <= N / (A2 + c) if A2 else j1 == 0
                assert N / (A1 + c) <= j2
                m = (N * s1 - j1 * s0) / (j2 - j1)
                assert ch["s_lo"][k, i] <= s0 <= ch["s_hi"][k, i]
                assert ch["mu"][k, i] <= m <= ch["ml"][k, i], (A1, A2, ri)


@pytest.mark.parametrize("amax", [None, 100])
def test_block_hermite_sums_bracket_the_exact_sums(amax):
    """Per block and tail cell, every coefficient of _setup's block terms bounds
    its 40-digit value toward its side, and so do the clamps."""
    layout = _transfer.make_layout(0, _upto(amax))
    t, N = 1.5, layout.nbins
    W, tw = mp.mpf(1) / N, mp.mpf(t) / N
    r = layout.edges[::8]
    _, blocks = _transfer._setup(layout, t, r)
    _, rows = _setup_rows(layout)
    for k, (A1, A2) in enumerate(layout.cells):
        if A1 == A2:
            continue
        for i, ri in enumerate(r):
            M, (b00, b01, b10, g11), (s00, s01, s10, s11) = _exact_block_sums(A1, A2, t, N, float(ri))
            exact = [[b00, b01, W * g11, -W * b10, 0],
                     [tw * s00, tw * s01, tw * W * s11, -tw * W * s10, -W * W * M[2]]]
            for j in range(5):
                for out in (0, 1):
                    lo, hi = blocks["lo"][j, out, rows[k], i], blocks["hi"][j, out, rows[k], i]
                    assert lo <= exact[out][j] <= hi, (A1, A2, ri, j, out)
            assert blocks["lo_cap"][rows[k], i] <= M[0] <= blocks["hi_cap"][0, rows[k], i]
            assert tw * M[1] <= blocks["hi_cap"][1, rows[k], i]


# -- layouts and seeds ------------------------------------------------------------

def test_make_layout_needs_dyadic_bins(monkeypatch):
    monkeypatch.setattr(_transfer, "_LEVELS", [(48, 12)])
    with pytest.raises(ValueError, match="power of 2"):
        _transfer.make_layout(0)


def test_levels_clamp_and_keep_the_estimate_rows():
    """Each level's node count is its singleton count; the float estimate keeps
    its own 1024 bins at every level."""
    assert [_transfer.make_layout(level).nbins for level in range(3)] == [32, 64, 128]
    assert _transfer._ESTIMATE_BINS == 1024
    assert _transfer.make_layout(3) == _transfer.make_layout(_transfer.MAX_LEVEL)
    assert _transfer.make_layout(7, range(1, 10)) == _transfer.make_layout(
        _transfer.MAX_LEVEL, range(1, 10))


def _contiguous_cells(level, amax):
    """Reference cells for {1..amax}, or the full alphabet (None), built
    from the singleton count upward as the level table describes."""
    a0, ndyad = _transfer._LEVELS[min(level, _transfer.MAX_LEVEL)]
    if amax is None:
        cells = [(a, a) for a in range(1, a0 + 1)]
        A = a0
        for _ in range(ndyad):
            cells.append((A + 1, 2 * A))
            A *= 2
        return tuple(cells) + ((A + 1, 0),)
    cells = [(a, a) for a in range(1, min(a0, amax) + 1)]
    A = min(a0, amax)
    while A < amax:
        nxt = min(2 * A, amax)
        cells.append((A + 1, nxt))
        A = nxt
    return tuple(cells)


@pytest.mark.parametrize("level", [0, 1, 2])
def test_make_layout_keeps_the_contiguous_cells(level):
    for amax in (None, 1, 5, 31, 32, 33, 64, 65, 100, 128, 129, 257, 300, 5000, 10**5):
        assert _transfer.make_layout(level, _upto(amax)).cells == _contiguous_cells(level, amax)


def test_make_layout_of_a_gappy_digit_set():
    cells = _transfer.make_layout(0, {5, 1, 3, 40, *range(41, 101), 150, 151}).cells
    assert cells == ((1, 1), (3, 3), (5, 5), (40, 78), (79, 100), (150, 151))


def test_make_layout_rejects_a_digit_below_one():
    # a cell (0, 0) would read as both a singleton and the infinite tail
    with pytest.raises(ValueError, match="positive digits"):
        _transfer.make_layout(0, [0, 1])


GAPPY = (1, 3, 4, 5, 9, 30, *range(33, 50), *range(60, 200), 1000)


@pytest.mark.parametrize("digits", [None, range(1, 21), GAPPY])
def test_apply_powers_has_the_bits_of_apply_power(digits):
    layout = _transfer.make_layout(0, digits)
    xe = rd.enclose(Fraction(3, 10))
    for t in (1.5,) if digits is None else (0.7, 1.5):
        for seed in (None, _sup_seed(layout, xe, t)):
            [got] = _transfer.apply_powers(5, t, layout, [seed])
            want = [_transfer.apply_powers(k, t, layout, [seed])[0][-1] for k in range(1, 6)]
            assert [(lo.hex(), hi.hex()) for lo, hi in got] == [
                (lo.hex(), hi.hex()) for lo, hi in want]


@pytest.mark.parametrize("digits", [None, range(1, 21), GAPPY])
def test_apply_powers_runs_each_seed_as_alone(digits):
    layout = _transfer.make_layout(2, digits)
    xe = rd.enclose(Fraction(3, 10))
    for t in (1.5,) if digits is None else (0.7, 1.5):
        seed = _sup_seed(layout, xe, t)
        got = _transfer.apply_powers(6, t, layout, [seed, None])
        want = [_transfer.apply_powers(6, t, layout, [seed])[0],
                _transfer.apply_powers(6, t, layout, [None])[0]]
        assert [[(lo.hex(), hi.hex()) for lo, hi in run] for run in got] == [
            [(lo.hex(), hi.hex()) for lo, hi in run] for run in want]


@pytest.mark.parametrize("digits", [None, GAPPY])
def test_apply_powers_at_n_one_with_two_seeds(digits):
    """n = 1 sets up at r = 0 alone; it has the bits of node 0 of a full step."""
    layout = _transfer.make_layout(1, digits)
    t, N = 1.5, layout.nbins
    seeds = [_sup_seed(layout, rd.enclose(Fraction(3, 10)), t), None]
    full = _transfer._setup(layout, t, layout.edges)
    want = []
    for seed in seeds:
        if seed is None:
            nodes = np.ones(N + 1), np.ones(N + 1), np.zeros(N + 1), np.zeros(N + 1)
        else:
            nodes = seed[0], seed[1], -seed[3], -seed[2]
        lo, hi = _transfer._step(full, nodes, t)[:2]
        want.append([(max(float(lo[0]), 0.0).hex(), float(hi[0]).hex())])
    got = _transfer.apply_powers(1, t, layout, seeds)
    assert [[(lo.hex(), hi.hex()) for lo, hi in run] for run in got] == want


def test_seed_needs_node_bounds():
    layout = _transfer.make_layout(0, range(1, 6))
    per_bin = np.ones(layout.nbins)
    with pytest.raises(ValueError, match="nodes"):
        _transfer.apply_powers(2, 1.5, layout, [(per_bin, per_bin, -per_bin, per_bin * 0)])
    node = np.ones(layout.nbins + 1)
    with pytest.raises(ValueError, match="nodes"):
        _transfer.apply_powers(2, 1.5, layout, [(node, node)])  # no slope bounds


def test_sup_seed_brackets_the_seed_and_its_slope():
    layout = _transfer.make_layout(1, range(1, 6))
    x, t = Fraction(3, 10), 1.7
    lo, hi, dlo, dhi = _sup_seed(layout, rd.enclose(x), t)
    with mp.workdps(30):
        for j, r in enumerate(layout.edges):
            b = 1 + mp.mpf(x.numerator) / x.denominator * mp.mpf(float(r))
            assert lo[j] <= b**-t <= hi[j]
            assert dlo[j] <= -t * mp.mpf(0.3) * b ** (-t - 1) <= dhi[j] <= 0


def test_chord_step_is_outward_at_a_constant():
    """f = 1 at n = 1: the chord bound equals the bin oracle's plain weight sum,
    and the Hermite bound (point weights) lies inside it."""
    layout = chord_layout(0, range(1, 21))
    lo, hi = chord_apply_power(1, 1.5, layout)
    b_lo, b_hi = bin_apply_power(1, 1.5, layout)
    assert (lo, hi) == (b_lo, b_hi)
    h_lo, h_hi = _transfer.apply_power(1, 1.5, _transfer.make_layout(0, range(1, 21)))
    exact = math.fsum(a**-1.5 for a in range(1, 21))
    assert lo <= h_lo <= exact <= h_hi <= hi
    assert h_hi - h_lo < 1e-14 * h_hi


def test_blocks_at_t_equal_one():
    """At t = 1 the block integral is a log ratio; the bounds stay finite and certified."""
    exact = {1: sum(Fraction(1, a) for a in range(1, 101)),
             2: sum(Fraction(1, a * b + 1) for a in range(1, 101) for b in range(1, 101))}
    for level, n in itertools.product((0, 1), (1, 2)):
        lo, hi = _transfer.apply_power(n, 1.0, _transfer.make_layout(level, range(1, 101)))
        assert Fraction(lo) <= exact[n] <= Fraction(hi), (level, n)
        assert hi - lo < 1e-6 * hi


@pytest.mark.parametrize("t", [0.7, 1.0])
def test_full_alphabet_needs_t_above_one(t):
    with pytest.raises(ValueError, match="diverges"):
        _transfer.apply_power(2, t, _transfer.make_layout(0))


# -- the float estimate -------------------------------------------------------------

def _block_mid_weight_ref(A1, A2, r, t):
    """The estimate's block weight with no t = 1 case, kept as the reference off t = 1."""
    f1 = (A1 - 0.5 + r) ** (1.0 - t)
    if A2 == 0:
        return f1 / (t - 1.0)
    return (f1 - (A2 + 0.5 + r) ** (1.0 - t)) / (t - 1.0)


@pytest.mark.parametrize("level, digits", [(0, None), (1, None), (0, range(1, 101)),
                                           (1, range(1, 301)), (1, (1, 2, 3, 5, 8, 13, 21, 34))])
def test_estimate_keeps_its_floats_off_t_equal_one(level, digits, monkeypatch):
    layout = _transfer.make_layout(level, digits)
    ts = [1.01, 1.26, 1.6, 2.0, 3.3] + ([] if digits is None else [0.55, 0.8, 0.99])
    cases = list(itertools.product((1, 2, 3), ts))
    got = [_transfer.apply_power_estimate(n, t, layout) for n, t in cases]
    monkeypatch.setattr(_transfer, "_block_mid_weight", _block_mid_weight_ref)
    want = [_transfer.apply_power_estimate(n, t, layout) for n, t in cases]
    assert [x.hex() for x in got] == [x.hex() for x in want]


# apply_power_estimate before the Hermite envelope, on 1024 bins over the
# cells of make_layout(level, digits), as float.hex: (level, amax, n, t) -> value.
# Levels 1 and 2 had 1024 bins, so these are the estimates every solver saw.
ESTIMATE_FLOATS = {
    (0, None, 1, 1.1): "0x1.52b40d80cd67ep+3",
    (0, None, 1, 1.6): "0x1.249439b3aa57ep+1",
    (0, None, 1, 2.4): "0x1.6222ce1522058p+0",
    (0, None, 2, 1.1): "0x1.b9013888c71aep+6",
    (0, None, 2, 1.6): "0x1.e268785429aa9p+1",
    (0, None, 2, 2.4): "0x1.60cca5e02d5fep-1",
    (0, None, 3, 1.1): "0x1.1f81200448afep+10",
    (0, None, 3, 1.6): "0x1.b256b1c9d4b2cp+2",
    (0, None, 3, 2.4): "0x1.fa17535f76205p-2",
    (0, 5, 1, 1.1): "0x1.1397f5accf3bdp+1",
    (0, 5, 1, 1.6): "0x1.aff0e08468e35p+0",
    (0, 5, 1, 2.4): "0x1.5166ace52a839p+0",
    (0, 5, 2, 1.1): "0x1.a3ecdf8630d9ap+1",
    (0, 5, 2, 1.6): "0x1.8a16e19fc4b20p+0",
    (0, 5, 2, 2.4): "0x1.165bea176ca73p-1",
    (0, 5, 3, 1.1): "0x1.5fc14f25a8c1bp+2",
    (0, 5, 3, 1.6): "0x1.b3a838865a8d3p+0",
    (0, 5, 3, 2.4): "0x1.5bba5faa7c11ap-2",
    (1, None, 1, 1.1): "0x1.52b3dc7f6bbbfp+3",
    (1, None, 1, 1.6): "0x1.2494032ecb53cp+1",
    (1, None, 1, 2.4): "0x1.6222c320284c1p+0",
    (1, None, 2, 1.1): "0x1.b8ffa47e739f6p+6",
    (1, None, 2, 1.6): "0x1.e25f6e43ff320p+1",
    (1, None, 2, 2.4): "0x1.60c9a5f54b257p-1",
    (1, None, 3, 1.1): "0x1.1f7f3f9138319p+10",
    (1, None, 3, 1.6): "0x1.b245dd728332dp+2",
    (1, None, 3, 2.4): "0x1.fa0c8e1bd7782p-2",
    (1, 5, 1, 1.1): "0x1.1397f5accf3bdp+1",
    (1, 5, 1, 1.6): "0x1.aff0e08468e35p+0",
    (1, 5, 1, 2.4): "0x1.5166ace52a839p+0",
    (1, 5, 2, 1.1): "0x1.a3ecdf8630d9ap+1",
    (1, 5, 2, 1.6): "0x1.8a16e19fc4b20p+0",
    (1, 5, 2, 2.4): "0x1.165bea176ca73p-1",
    (1, 5, 3, 1.1): "0x1.5fc14f25a8c1bp+2",
    (1, 5, 3, 1.6): "0x1.b3a838865a8d3p+0",
    (1, 5, 3, 2.4): "0x1.5bba5faa7c11ap-2",
    (2, None, 1, 1.1): "0x1.52b3d0d95a927p+3",
    (2, None, 1, 1.6): "0x1.2493f9fcd7876p+1",
    (2, None, 1, 2.4): "0x1.6222c20ee5111p+0",
    (2, None, 2, 1.1): "0x1.b8fec027e34f4p+6",
    (2, None, 2, 1.6): "0x1.e25b72558fdabp+1",
    (2, None, 2, 2.4): "0x1.60c8eb36dbfd9p-1",
    (2, None, 3, 1.1): "0x1.1f7e314443b13p+10",
    (2, None, 3, 1.6): "0x1.b23f9b0e1575ep+2",
    (2, None, 3, 2.4): "0x1.fa0a5c60e5c3dp-2",
    (2, 5, 1, 1.1): "0x1.1397f5accf3bdp+1",
    (2, 5, 1, 1.6): "0x1.aff0e08468e35p+0",
    (2, 5, 1, 2.4): "0x1.5166ace52a839p+0",
    (2, 5, 2, 1.1): "0x1.a3ecdf8630d9ap+1",
    (2, 5, 2, 1.6): "0x1.8a16e19fc4b20p+0",
    (2, 5, 2, 2.4): "0x1.165bea176ca73p-1",
    (2, 5, 3, 1.1): "0x1.5fc14f25a8c1bp+2",
    (2, 5, 3, 1.6): "0x1.b3a838865a8d3p+0",
    (2, 5, 3, 2.4): "0x1.5bba5faa7c11ap-2",
}


@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("amax", [None, 5])
def test_estimate_keeps_parent_floats(level, amax):
    layout = _transfer.make_layout(level, _upto(amax))
    for n, t in itertools.product((1, 2, 3), (1.1, 1.6, 2.4)):
        got = _transfer.apply_power_estimate(n, t, layout).hex()
        assert got == ESTIMATE_FLOATS[(level, amax, n, t)], (n, t)


@pytest.mark.parametrize("level", [0, 1])
def test_estimate_at_t_equal_one_is_near_the_certified_sum(level):
    layout = _transfer.make_layout(level, range(1, 101))
    for n in (1, 2, 3):
        est = _transfer.apply_power_estimate(n, 1.0, layout)
        lo, hi = _transfer.apply_power(n, 1.0, layout)
        assert math.isfinite(est) and abs(est - 0.5 * (lo + hi)) < 1e-3 * hi, n


@pytest.mark.parametrize("t", [0.7, 1.0])
def test_full_alphabet_estimate_needs_t_above_one(t):
    with pytest.raises(ValueError, match="diverges"):
        _transfer.apply_power_estimate(2, t, _transfer.make_layout(0))
