"""The chord envelope against the bin max/min envelope it replaced.

`apply_power` keeps bounds of L^k f at the nodes j/N and interpolates them
by chords (see the `cfshrink._transfer` docstring).  The oracle below is
the method it replaced: bounds of L^k f over each bin, every step taking
the max and min over the bins a cell's image covers.  Its block weights
come from the first-order midpoint bound the cell sums used before
(`first_order_cell_sum`), and the third-order sums of `_transfer._cell_sum`
lie inside them, so on one layout every chord enclosure must lie inside the
oracle's.  The cell weights are checked bit for bit against a per-cell
setup, the cell sums against Hurwitz zeta, and the oracle against the
float.hex pins of the parent's `apply_power`.
"""

import itertools
import math
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from cfshrink import _transfer
from cfshrink import rounding as rd
from cfshrink.ivec import _ln_one_sided, dn, iexp, ipow_neg, up
from cfshrink.pressure import _sup_seed

# the level table before the chord envelope: (bins, singleton digits, dyadic blocks)
BIN_LEVELS = [(256, 32, 12), (1024, 64, 14), (4096, 128, 17), (8192, 256, 20)]


def _upto(amax):
    """The digit set {1..amax}, or None (the full alphabet)."""
    return None if amax is None else range(1, amax + 1)


def _bin_layout(monkeypatch, level, amax):
    """The layout the bin method used at `level`."""
    monkeypatch.setattr(_transfer, "_LEVELS", [BIN_LEVELS[level]])
    return _transfer.make_layout(0, _upto(amax))


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


def _cell_weight(A1, A2, c, t):
    """Weight enclosure of one cell (A1, A2) at the exact points c; A2 = 0 is infinite."""
    if A1 == A2:
        a = float(A1)
        return ipow_neg(dn(a + c), up(a + c), t)
    return _transfer._cell_sum(A1, A2 if A2 else None, c, t)[0]


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
    for r in (layout.edges, np.zeros(1)):  # every node, and the n = 1 path
        ch = _transfer._chords(layout, t, r)
        for k, (A1, A2) in enumerate(layout.cells):
            lo, hi = _cell_weight(A1, A2, r, t)
            assert _same_bits(ch["s_lo"][k], lo) and _same_bits(ch["s_hi"][k], hi), (A1, A2)


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
    layout = _transfer.Layout(full.nbins, cells)
    for t in (1.1, 1.9):
        _check_against_oracle(layout, t)


def test_edge_weights_do_not_depend_on_chunking(monkeypatch):
    layout = _transfer.make_layout(0)
    ref = _transfer._chords(layout, 1.6, layout.edges)
    ref_power = _transfer.apply_power(3, 1.6, layout)
    for chunk in (1, 100, 3000, 10**7):
        monkeypatch.setattr(_transfer, "_CHUNK", chunk)
        got = _transfer._chords(layout, 1.6, layout.edges)
        assert got.keys() == ref.keys()
        assert all(np.array_equal(got[f], ref[f]) for f in ref)
        assert _transfer.apply_power(3, 1.6, layout) == ref_power


@pytest.mark.parametrize("A1, A2", [(33, 64), (65, 100), (129, 256), (4097, None)])
@pytest.mark.parametrize("t", [0.7, 1.02, 1.5, 2.2])
def test_cell_sum_at_t_plus_one_contains_the_sum(A1, A2, t):
    """The sum at t + 1, built from the powers at t, against mpmath and a direct evaluation."""
    if A2 is None and t < 1:
        return  # the tail sum at t diverges
    c = np.array([0.0, 0.25, 1.0])
    (lo, hi), (lo1, hi1) = _transfer._cell_sum(float(A1), None if A2 is None else float(A2), c, t)
    d_lo, d_hi = _transfer._cell_sum(float(A1), None if A2 is None else float(A2), c, t + 1.0)[0]
    with mp.workdps(30):
        for k, ck in enumerate(c):
            for e, (l, h) in ((t, (lo, hi)), (t + 1.0, (lo1, hi1))):
                g = lambda a: (a + mp.mpf(ck)) ** (-mp.mpf(e))
                exact = mp.zeta(e, A1 + mp.mpf(ck)) if A2 is None else mp.fsum(
                    g(a) for a in range(A1, A2 + 1))
                assert mp.mpf(l[k]) <= exact <= mp.mpf(h[k]), (e, ck)
            assert max(lo1[k], d_lo[k]) <= min(hi1[k], d_hi[k])
            assert hi1[k] - lo1[k] <= 1.01 * (d_hi[k] - d_lo[k]) + 1e-15 * hi1[k]


@pytest.mark.parametrize("A1, A2", [(1, 1), (2, 3), (33, 64), (129, 256), (2, None), (129, None)])
@pytest.mark.parametrize("t", [0.7, 1.02, 1.3, 1.6, 2.2, 3.0])
def test_cell_sum_contains_hurwitz_sums(A1, A2, t):
    """Both sums inside 40-digit Hurwitz zeta differences, and inside the first-order bound.

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
    new = _transfer._cell_sum(float(A1), a2, c, t)
    old = first_order_cell_sum(float(A1), a2, c, t)
    with mp.workdps(40):
        for (lo, hi), (o_lo, o_hi), e in zip(new, old, (mp.mpf(t), mp.mpf(t) + 1)):
            for k, ck in enumerate(c):
                q = A1 + mp.mpf(ck)
                exact = mp.zeta(e, q) - (0 if A2 is None else mp.zeta(e, A2 + 1 + mp.mpf(ck)))
                assert mp.mpf(lo[k]) <= exact <= mp.mpf(hi[k]), (e, ck)
                if A1 > 1:
                    assert o_lo[k] <= lo[k] <= hi[k] <= o_hi[k], (e, ck)
    if (A1, A2, t) == (129, 256, 1.6):
        (lo, hi), (o_lo, o_hi) = new[0], old[0]
        assert np.all(hi - lo <= 1e-11) and np.all(o_hi - o_lo > 2e-7)


# -- the parent's apply_power, pinned -------------------------------------------

# results of the parent's apply_power (the bin method) with the per-cell
# setup and np.nextafter rounding, as float.hex: (level, amax, n, t, seeded)
# -> (lo, hi), on the layouts of BIN_LEVELS.  The seed is the pressure sup
# seed at x = 0.3.
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


@pytest.mark.parametrize("key", sorted(PARENT_FLOATS, key=repr))
def test_apply_power_keeps_parent_floats(key, monkeypatch):
    """The oracle reproduces the parent's bits; the chord envelope nests inside."""
    level, amax, n, t, seeded = key
    layout = _bin_layout(monkeypatch, level, amax)
    xe = rd.enclose(0.3)
    seed = bin_sup_seed(layout, xe, t) if seeded else None
    lo, hi = bin_apply_power(n, t, layout, seed=seed)
    assert (float(lo).hex(), float(hi).hex()) == PARENT_FLOATS[key]
    c_lo, c_hi = _transfer.apply_power(
        n, t, layout, seed=_sup_seed(layout, xe, t) if seeded else None)
    assert lo <= c_lo <= c_hi <= hi


# -- nesting, containment and width ---------------------------------------------

def _memoize(monkeypatch, owner, name):
    memo, fn = {}, getattr(owner, name)

    def cached(layout, t, r):
        key = (layout, t, r.size, _transfer._cell_sum)
        if key not in memo:
            memo[key] = fn(layout, t, r)
        return memo[key]

    monkeypatch.setattr(owner, name, cached)


@pytest.fixture
def shared_weights(monkeypatch):
    """Memoize the step data of both envelopes across one test."""
    _memoize(monkeypatch, _transfer, "_chords")
    _memoize(monkeypatch, sys.modules[__name__], "bin_weights")


@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("amax", [None, 5, 20, 100])
def test_chord_nests_inside_bin_envelope(level, amax, shared_weights, monkeypatch):
    """Inside the bin oracle, and inside the chord envelope on first-order block weights."""
    layout = _transfer.make_layout(level, _upto(amax))
    ts = (1.02, 1.5, 2.2) if amax is None else (0.7, 1.02, 1.5, 2.2)
    xe = rd.enclose(0.3)
    for t, seeded in itertools.product(ts, (False, True)):
        seed = _sup_seed(layout, xe, t) if seeded else None
        bseed = bin_sup_seed(layout, xe, t) if seeded else None
        with monkeypatch.context() as m:
            m.setattr(_transfer, "_cell_sum", first_order_cell_sum)
            [first_order] = _transfer.apply_powers(6, t, layout, [seed])
        for n, (f_lo, f_hi) in enumerate(first_order, 1):
            lo, hi = _transfer.apply_power(n, t, layout, seed=seed)
            b_lo, b_hi = bin_apply_power(n, t, layout, seed=bseed)
            assert b_lo <= lo <= hi <= b_hi, (t, seeded, n, (lo, hi), (b_lo, b_hi))
            if n > 1:
                assert hi - lo < 0.1 * (b_hi - b_lo), (t, seeded, n)
            assert f_lo <= lo <= hi <= f_hi, (t, seeded, n, (lo, hi), (f_lo, f_hi))


def _exact_sup_sum(digits, n, t, x):
    """sum over digits^n of (q_n + x q_{n-1})^{-t}, at 60 digits."""
    with mp.workdps(60):
        tot = mp.mpf(0)
        for w in itertools.product(digits, repeat=n):
            q, qp = 1, 0
            for a in w:
                q, qp = a * q + qp, q
            tot += (q + mp.mpf(x.numerator) / x.denominator * qp) ** (-mp.mpf(t))
        return tot


@pytest.mark.parametrize("level", [0, 1])
def test_contains_exact_sums(level):
    layout = _transfer.make_layout(level, range(1, 6))
    for t, x, n in itertools.product((0.7, 1.5), (Fraction(0), Fraction(3, 10)), (1, 2, 4)):
        xe = rd.enclose(x)
        seed = _sup_seed(layout, xe, t) if x else None
        lo, hi = _transfer.apply_power(n, t, layout, seed=seed)
        exact = _exact_sup_sum(range(1, 6), n, t, x)
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
        lo, hi = _transfer.apply_power(n, t, layout, seed=seed)
        exact = _exact_sup_sum(digits, n, t, x)
        assert mp.mpf(lo) <= exact <= mp.mpf(hi), (t, x, n)


def test_second_order_width():
    """Widths fall like the square of the node spacing, not like the spacing."""
    w = []
    for nbins in (256, 1024):
        layout = _transfer.Layout(nbins, tuple((a, a) for a in range(1, 6)))
        lo, hi = _transfer.apply_power(4, 1.5, layout)
        w.append((hi - lo) / hi)
    assert w[0] < 2e-5 and w[1] < w[0] / 8


def test_full_alphabet_level0_width():
    lo, hi = _transfer.apply_power(5, 1.5, _transfer.make_layout(0))
    assert 0 < (hi - lo) / hi < 2e-4


# -- layouts and seeds ------------------------------------------------------------

def test_make_layout_needs_dyadic_bins(monkeypatch):
    monkeypatch.setattr(_transfer, "_LEVELS", [(1000, 32, 12)])
    with pytest.raises(ValueError, match="power of 2"):
        _transfer.make_layout(0)


def test_levels_clamp_and_keep_the_estimate_rows():
    assert _transfer._LEVELS[:2] == BIN_LEVELS[:2]  # the float estimates read them
    assert _transfer.make_layout(3) == _transfer.make_layout(_transfer.MAX_LEVEL)
    assert _transfer.make_layout(7, range(1, 10)) == _transfer.make_layout(
        _transfer.MAX_LEVEL, range(1, 10))


def _contiguous_cells(level, amax):
    """Reference cells for {1..amax}, or the full alphabet (None), built
    from the singleton count upward as the level table describes."""
    _, a0, ndyad = _transfer._LEVELS[min(level, _transfer.MAX_LEVEL)]
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
            want = [_transfer.apply_power(k, t, layout, seed=seed) for k in range(1, 6)]
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
    t = 1.5
    seeds = [_sup_seed(layout, rd.enclose(Fraction(3, 10)), t), None]
    full = _transfer._chords(layout, t, layout.edges)
    want = []
    for seed in seeds:
        L, U = (np.ones(layout.nbins + 1),) * 2 if seed is None else seed
        lo, hi = _transfer._step(full, L, U)
        want.append([(max(float(lo[0]), 0.0).hex(), float(hi[0]).hex())])
    got = _transfer.apply_powers(1, t, layout, seeds)
    assert [[(lo.hex(), hi.hex()) for lo, hi in run] for run in got] == want


def test_seed_needs_node_bounds():
    layout = _transfer.make_layout(0, range(1, 6))
    per_bin = np.ones(layout.nbins)
    with pytest.raises(ValueError, match="nodes"):
        _transfer.apply_power(2, 1.5, layout, seed=(per_bin, per_bin))


def test_chord_step_is_outward_at_a_constant():
    """f = 1 at n = 1: the bound equals the plain weight sum, so nothing is lost."""
    layout = _transfer.make_layout(0, range(1, 21))
    lo, hi = _transfer.apply_power(1, 1.5, layout)
    b_lo, b_hi = bin_apply_power(1, 1.5, layout)
    assert (lo, hi) == (b_lo, b_hi)
    exact = math.fsum(a**-1.5 for a in range(1, 21))
    assert lo <= exact <= hi


def test_blocks_at_t_equal_one():
    """At t = 1 the block integral is a log ratio; the bounds stay finite and certified."""
    exact = {1: sum(Fraction(1, a) for a in range(1, 101)),
             2: sum(Fraction(1, a * b + 1) for a in range(1, 101) for b in range(1, 101))}
    for level, n in itertools.product((0, 1), (1, 2)):
        lo, hi = _transfer.apply_power(n, 1.0, _transfer.make_layout(level, range(1, 101)))
        assert Fraction(lo) <= exact[n] <= Fraction(hi), (level, n)
        assert hi - lo < 1e-3 * hi


@pytest.mark.parametrize("t", [0.7, 1.0])
def test_full_alphabet_needs_t_above_one(t):
    with pytest.raises(ValueError, match="diverges"):
        _transfer.apply_power(2, t, _transfer.make_layout(0))


def test_block_term_needs_its_curvature_allowance():
    """At the edge of the cone, f(r) = (1 + r)^{-t} has f'' = t(t+1) f at r = 0.

    With the block's sums enclosed tightly, its lower term must stay below
    the exact cell sum, and without the K W^2/8 allowance it would not.
    """
    t, N = 2.2, 256
    K = up(t * up(t + 1.0))
    ch = _transfer._block_chords(np.array([[33.0]]), np.array([[64.0]]), np.zeros(1), t, K, N)
    j1, j2 = int(ch["ju1"][0, 0]), int(ch["ju2"][0, 0])
    with mp.workdps(40):
        s0 = mp.fsum(mp.mpf(a) ** -t for a in range(33, 65))
        s1 = mp.fsum(mp.mpf(a) ** (-t - 1) for a in range(33, 65))
        m = (N * s1 - j1 * s0) / (j2 - j1)
        exact = mp.fsum(mp.mpf(a + 1) ** -t for a in range(33, 65))  # sum of a^-t f(1/a)
        nodes = [(1 + mp.mpf(j) / N) ** -t for j in range(N + 1)]
    tight = {"s_lo": dn(float(s0)), "s_hi": up(float(s0)), "mu": dn(float(m)), "ml": up(float(m))}
    ch = {f: np.array([[tight.get(f, v[0, 0])]]) for f, v in ch.items()}
    ch.update({f: ch[f].astype(np.int32) for f in _transfer._INDEX_FIELDS})
    L = np.array([dn(float(v)) for v in nodes])
    U = np.array([up(float(v)) for v in nodes])
    t_lo, t_hi = _transfer._terms(ch, L, U)
    assert t_lo[0, 0] <= exact <= t_hi[0, 0]
    ch["c"] = np.zeros((1, 1))
    assert _transfer._terms(ch, L, U)[0][0, 0] > exact


@pytest.mark.parametrize("amax", [None, 100])
def test_block_chord_data_bracket_the_exact_sums(amax):
    """Per block and tail cell: s_lo <= S0 <= s_hi, mu <= sum_a w_a lam_a <= ml, and
    every image 1/(a+r) lies in the node interval [ju1/N, ju2/N]."""
    layout = _transfer.make_layout(0, _upto(amax))
    t = 1.5
    r = layout.edges[::37]
    ch = _transfer._chords(layout, t, r)
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
