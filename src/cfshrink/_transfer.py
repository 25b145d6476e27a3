"""Certified evaluation of continuant power sums by a chord envelope.

The identity q_n(a_1..a_n) = prod_k (a_k + r_{k-1}), with r_k the value of
the reversed prefix [0; a_k, ..., a_1], turns

    S_n(t) = sum over words of q_n^{-t}

into (L^n f)(0) for the weighted shift (Lf)(r) = sum_a (a+r)^{-t} f(1/(a+r))
and f = 1.  Seeded variants take other f, which the pressure sums need.
The digits a run over all of N or over any finite digit set; the argument
below holds for either.

The cone.  Let C be the positive combinations of g_c(r) = (1 + c r)^{-t}
with 0 <= c <= 1.  L maps C into itself, because

    (a+r)^{-t} g_c(1/(a+r)) = (a+r+c)^{-t} = (a+c)^{-t} g_{1/(a+c)}(r)

and 1/(a+c) lies in (0, 1].  f = 1 is g_0 and the pressure seed is g_x with
x = x_min(A) in (0, 1), so every iterate f_k = L^k f is in C.  On r >= 0
each g_c has g_c' <= 0 and 0 <= g_c'' = t(t+1) c^2 (1+cr)^{-2} g_c <= K g_c
with K = t(t+1); sums keep all three facts.  So every f_k is nonnegative,
decreasing and convex on [0, 1], with f_k'' <= K f_k.

The envelope.  Upper and lower bounds U_j >= f(j/N) >= L_j are kept at the
N+1 nodes j/N.  Because f decreases, U is replaced by its running minimum
from the left and L by its running maximum from the right.  For a node
interval [y1, y2] of width W and x in it, write x = y1 + lam W.  Convexity
puts f below its chord there, f(x) <= U(y1) - lam (U(y1) - U(y2)).  The
interpolation remainder, f(x) - chord = f''(xi)/2 (x - y1)(x - y2), and
f'' <= K f(y1) <= K U(y1) give f(x) >= L(y1) - lam (L(y1) - L(y2)) -
lam (1 - lam) W^2/2 K U(y1), and lam (1 - lam) <= 1/4.  One step of L at a
node r adds one term per digit cell:

- singleton a, with x = 1/(a+r) enclosed in [xd, xu]: f(x) <= f(xd), the
  chord of U at xd on its node interval; f(x) >= f(xu), the lowered chord
  of L at xu on its node interval (W = h = 1/N).  Both are times the
  weight (a+r)^{-t};
- block or tail cell A1..A2: every image x_a = 1/(a+r) lies in one node
  interval [y1, y2] covering [1/(A2+r), 1/(A1+r)] (y1 = 0 for the tail).
  With the weights w_a = (a+r)^{-t}, sum_a w_a lam_a = (N S1 - j1 S0)/(j2 - j1)
  for S0 = sum_a (a+r)^{-t}, S1 = sum_a (a+r)^{-t-1} and y1 = j1/N,
  y2 = j2/N.  So the cell lies between S0 U(y1) - (U(y1) - U(y2)) M and
  (L(y1) - K U(y1) W^2/8) S0 - (L(y1) - L(y2)) M, with M = sum_a w_a lam_a
  enclosed from the two Euler-Maclaurin sums of _cell_sum.

Each upper term is also capped by the zeroth-order bound S0 U(y1), each
lower term floored by S0 L(y2), and the cells are added in layout order,
so every bound lies inside the one the bin max/min envelope of the same
layout gives.  The error is second order in the node spacing.  Every
operation is outward-rounded float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ivec import dir_const, dn, iln, ipow_neg, up

# layouts: (nodes - 1, singleton digits, dyadic blocks).  apply_power_estimate
# reads the same rows, and the root solvers localize with rows 0 and 1.
_LEVELS = [
    (256, 32, 12),
    (1024, 64, 14),
    (1024, 128, 17),
]
MAX_LEVEL = len(_LEVELS) - 1


@dataclass(frozen=True)
class Layout:
    """Node grid j/nbins on [0,1] plus the digit cells of the alphabet."""

    nbins: int
    cells: tuple[tuple[int, int], ...]  # (A1, A2); A2 = 0 means infinite

    @property
    def edges(self) -> np.ndarray:
        """The nbins + 1 nodes j/nbins, exact because nbins is a power of 2."""
        return np.arange(self.nbins + 1) / self.nbins


def make_layout(level: int = 1, digits=None) -> Layout:
    """Layout of the given level for a finite digit set, or all of N (None).

    Each digit up to the level's singleton count is its own cell; each run
    of consecutive digits above it is split into dyadic blocks, and only
    the full alphabet gets the infinite tail.  Levels above MAX_LEVEL use
    MAX_LEVEL.  An empty digit set, or a digit below 1, raises ValueError:
    a cell (0, 0) would read as the tail.
    """
    nbins, a0, ndyad = _LEVELS[min(level, MAX_LEVEL)]
    if nbins < 1 or nbins & (nbins - 1):
        raise ValueError(f"bin count {nbins} is not a power of 2, so j/nbins is inexact")
    if digits is None:
        cells = [(a, a) for a in range(1, a0 + 1)]
        A = a0
        for _ in range(ndyad):
            cells.append((A + 1, 2 * A))
            A *= 2
        cells.append((A + 1, 0))
        return Layout(nbins, tuple(cells))
    digits = sorted({int(a) for a in digits})
    if not digits or digits[0] < 1:
        raise ValueError("digit set must be a nonempty set of positive digits")
    cells = []
    for a in digits:
        A1, A2 = cells[-1] if cells else (0, 0)
        if a0 < A1 and a == A2 + 1 and a <= 2 * (A1 - 1):
            cells[-1] = (A1, a)  # extend the block A1..2(A1 - 1)
        else:
            cells.append((a, a))
    return Layout(nbins, tuple(cells))


def _sub(x, y):
    """Enclosure of x - y from enclosures (lo, hi) of x and y."""
    return dn(x[0] - y[1]), up(x[1] - y[0])


def _end_powers(y, t):
    """Enclosures of y^{1-t}, y^{-t}, ..., y^{-t-4} at a cell end y > 0:
    y^{-t} from ipow_neg, each other one from its neighbour by one product
    or division by the bounds of y."""
    y_lo, y_hi = dn(y), up(y)
    p = ipow_neg(y_lo, y_hi, t)
    powers = [(dn(p[0] * y_lo), up(p[1] * y_hi)), p]
    for _ in range(4):
        p = dn(p[0] / y_hi), up(p[1] / y_lo)
        powers.append(p)
    return powers


def _cell_sum(A1, A2, c, t):
    """Enclosures of sum_{a=A1..A2} (a+c)^{-t} and of the same sum at t + 1.

    c >= 0 is exact and A2 = None is infinite.  g(x) = (x+c)^{-t} is
    completely monotone, so with a = A1 - 1/2 and b = A2 + 1/2 the sum lies
    in [I - D1, I - D1 + D3]: I is the integral of g over [a, b],
    D1 = (g'(b) - g'(a))/24 and D3 = (7/5760)(g'''(b) - g'''(a)), the b
    terms 0 for the tail.  This is midpoint Euler-Maclaurin to third order;
    the proof is the one in sums.lemma_sum_batch, with a boundary term at
    both ends.  Both sums read the powers of _end_powers, and every
    coefficient is rounded outward from Fraction(t).  A1, A2 and c
    broadcast against each other; every element is computed as it would be
    alone.
    """
    c = np.asarray(c, dtype=np.float64)
    ya, yb = A1 - 0.5 + c, None if A2 is None else A2 + 0.5 + c
    pa = _end_powers(ya, t)
    pb = [(0.0, 0.0)] * 6 if yb is None else _end_powers(yb, t)
    out = []
    for k in (0, 1):  # exponent e = t + k: y^{1-e}, y^{-e-1}, y^{-e-3} are powers k, k+2, k+4
        e = Fraction(t) + k
        if e == 1:  # a block at t = 1: the integral is a log ratio
            i = _sub(iln(dn(yb), up(yb)), iln(dn(ya), up(ya)))
        else:  # (y_a^{1-e} - y_b^{1-e})/(e - 1), as a product of two positive factors
            d = _sub(pa[k], pb[k]) if e > 1 else _sub(pb[k], pa[k])
            w = dir_const(1 / abs(e - 1))
            i = dn(d[0] * w[0]), up(d[1] * w[1])
        d1, d3 = dir_const(e / 24), dir_const(7 * e * (e + 1) * (e + 2) / 5760)
        g1 = _sub(pa[k + 2], pb[k + 2])  # D1 = d1 g1 and D3 = d3 g3, both >= 0
        g3 = _sub(pa[k + 4], pb[k + 4])[1]
        lo = np.maximum(dn(i[0] - up(d1[1] * g1[1])), 0.0)
        out.append((lo, up(up(i[1] - dn(d1[0] * g1[0])) + up(d3[1] * g3))))
    return out[0], out[1]


# elements per batched kernel call: bounds the temporaries of setup and steps
_CHUNK = 8192

_FLOAT_FIELDS = ("s_lo", "s_hi", "mu", "ml", "c")
_INDEX_FIELDS = ("ju1", "ju2", "jl1", "jl2")


def _node_of(x, N):
    """Node interval j = floor(x N), clipped to N - 1, and lam = x N - j.

    x N is exact (N is a power of 2) and so is the subtraction (Sterbenz,
    or j = 0), so lam is the exact position of x in [j/N, (j+1)/N].
    """
    xs = x * N
    j = np.minimum(np.floor(xs), N - 1)
    return j, xs - j


def _singleton_chords(A1, A2, r, t, K, N):
    """Chord data of singleton cells a = A1 at the points r; A2 is not read."""
    s_lo, s_hi = ipow_neg(dn(A1 + r), up(A1 + r), t)
    ju, lam_u = _node_of(dn(1.0 / up(A1 + r)), N)  # x = 1/(a+r) in [xd, xu]
    jl, lam_l = _node_of(np.minimum(up(1.0 / dn(A1 + r)), 1.0), N)
    return {
        "s_lo": s_lo, "s_hi": s_hi,
        "ju1": ju, "ju2": ju + 1, "mu": np.maximum(dn(s_hi * lam_u), 0.0),
        "jl1": jl, "jl2": jl + 1, "ml": up(s_hi * lam_l),
        "c": up(up(lam_l * up(1.0 - lam_l)) * up(K * (0.5 / N**2))),
    }


def _block_chords(A1, A2, r, t, K, N):
    """Chord data of block cells A1..A2 at the points r; A2 = None is the tail."""
    (s_lo, s_hi), (s1_lo, s1_hi) = _cell_sum(A1, A2, r, t)
    x_lo = 0.0 if A2 is None else dn(1.0 / up(A2 + r))
    j1 = np.minimum(np.floor(x_lo * N), N - 1)
    j2 = np.minimum(np.maximum(np.ceil(up(1.0 / dn(A1 + r)) * N), j1 + 1.0), N)
    span = j2 - j1
    return {
        "s_lo": s_lo, "s_hi": s_hi,
        "ju1": j1, "ju2": j2, "jl1": j1, "jl2": j2,
        "mu": np.maximum(dn(dn(N * s1_lo - up(j1 * s_hi)) / span), 0.0),
        "ml": np.minimum(up(up(N * s1_hi - dn(j1 * s_lo)) / span), s_hi),
        "c": up(K * (span * span / (8.0 * N * N))),
    }


def _chords(layout, t, r):
    """Data of one envelope step at the exact points r, arrays of shape (cells, r).

    Upper term of a cell: min(s_hi U[ju1] - D mu, s_hi U[ju1]) with
    D = U[ju1] - U[ju2].  Lower term: max((L[jl1] - c U[jl1]) s - E ml,
    s_lo L[jl2]) with E = L[jl1] - L[jl2] and s the weight sum [s_lo, s_hi].
    mu bounds sum_a w_a lam_a from below, ml from above, and c is the
    curvature allowance; see the module docstring.  Cells of one kind are
    set up together, in row chunks of about _CHUNK elements; every element
    is computed as it would be alone, so nothing depends on the chunking.
    """
    N = layout.nbins
    K = up(t * up(t + 1.0))
    cells = np.array(layout.cells, dtype=np.float64)
    A1, A2 = cells[:, :1], cells[:, 1:]
    single = cells[:, 0] == cells[:, 1]
    tail = cells[:, 1] == 0
    shape = (len(cells), r.size)
    ch = {f: np.empty(shape) for f in _FLOAT_FIELDS}
    ch.update({f: np.empty(shape, dtype=np.int32) for f in _INDEX_FIELDS})
    step = max(1, round(_CHUNK / r.size))
    groups = ((single, _singleton_chords, False), (~single & ~tail, _block_chords, False),
              (tail, _block_chords, True))
    for mask, setup, infinite in groups:
        rows = np.flatnonzero(mask)
        for k in range(0, rows.size, step):
            sel = rows[k : k + step]
            a2 = None if infinite else A2[sel]
            for f, v in setup(A1[sel], a2, r, t, K, N).items():
                ch[f][sel] = v  # index fields take whole-number floats
    return ch


def _terms(ch, L, U):
    """Upper and lower terms of each cell at each point (see _chords)."""
    U1, L1 = U[ch["ju1"]], L[ch["jl1"]]
    D = np.maximum(dn(U1 - U[ch["ju2"]]), 0.0)
    flat = up(U1 * ch["s_hi"])
    t_hi = np.minimum(up(flat - dn(D * ch["mu"])), flat)
    L2 = L[ch["jl2"]]
    a = dn(L1 - up(ch["c"] * U[ch["jl1"]]))
    t_lo = dn(dn(a * np.where(a >= 0.0, ch["s_lo"], ch["s_hi"])) - up(up(L1 - L2) * ch["ml"]))
    return np.maximum(t_lo, dn(L2 * ch["s_lo"])), t_hi


def _step(ch, L, U):
    """Bounds (L, U) of Lf at the points of ch from node bounds of f."""
    U = np.minimum.accumulate(U)
    L = np.maximum.accumulate(np.maximum(L, 0.0)[::-1])[::-1]
    ncells, npts = ch["s_lo"].shape
    lo, hi = np.zeros(npts), np.zeros(npts)
    rows = max(1, round(_CHUNK / npts))
    for k in range(0, ncells, rows):
        t_lo, t_hi = _terms({f: v[k : k + rows] for f, v in ch.items()}, L, U)
        for row_lo, row_hi in zip(t_lo, t_hi):  # cells in layout order
            lo = dn(lo + row_lo)
            hi = up(hi + row_hi)
    return lo, hi


def apply_power(n, t, layout, seed=None):
    """Certified (lo, hi) of (L^n f)(0); f = 1 unless a seed is given.

    seed: optional (lo_arr, hi_arr) of bounds of f at the nbins + 1 nodes.
    f must lie in the cone of the module docstring, as (1 + x r)^{-t} for
    0 <= x <= 1 does.
    """
    return apply_powers(n, t, layout, [seed])[0][-1]


def apply_powers(n, t, layout, seeds):
    """[apply_power(k, t, layout, seed) for k = 1..n] for each seed in turn
    (None for f = 1), from one setup at t: the one envelope loop.

    Steps 1..n-1 run at every node and L^k f is read at node 0; step n runs
    at node 0 alone, r = 0 (n = 1 sets up there only).  Every point is
    computed as it would be alone, so node 0 of a full step has the bits
    of the r = 0 step.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if layout.cells and layout.cells[-1][1] == 0 and not t > 1:
        raise ValueError(f"the full-alphabet sum diverges for t <= 1; got t = {t}")
    N = layout.nbins
    starts = [(np.ones(N + 1), np.ones(N + 1)) if seed is None
              else [np.asarray(v, dtype=np.float64) for v in seed] for seed in seeds]
    if any(v.shape != (N + 1,) for start in starts for v in start):
        raise ValueError(f"a seed holds bounds at the {N + 1} nodes")
    ch = _chords(layout, t, layout.edges if n > 1 else np.zeros(1))
    last = {f: v[:, :1] for f, v in ch.items()}  # node 0: r = 0
    out = []
    for L, U in starts:
        sums = []
        for k in range(1, n + 1):
            L, U = _step(ch if k < n else last, L, U)
            sums.append((max(float(L[0]), 0.0), float(U[0])))
        out.append(sums)
    return out


def _block_mid_weight(A1, A2, r, t):
    f1 = (A1 - 0.5 + r) ** (1.0 - t)
    if A2 == 0:
        return f1 / (t - 1.0)
    return (f1 - (A2 + 0.5 + r) ** (1.0 - t)) / (t - 1.0)


def apply_power_estimate(n, t, layout):
    """Fast midpoint estimate of (L^n f)(0).  NOT certified; used only to
    localize roots before the enclosure machinery confirms them."""
    if n < 1:
        raise ValueError("need n >= 1")
    N = layout.nbins
    r = (np.arange(N) + 0.5) / N
    U = np.ones(N)

    def step(rv, vals):
        acc = np.zeros_like(rv)
        for A1, A2 in layout.cells:
            if A1 == A2:
                w = (A1 + rv) ** -t
                rep = float(A1)
            else:
                w = _block_mid_weight(A1, A2, rv, t)
                rep = 2.0 * A1 if A2 == 0 else 0.5 * (A1 + A2)
            idx = np.minimum((N / (rep + rv)).astype(np.int64), N - 1)
            acc += w * vals[idx]
        return acc

    for _ in range(n - 1):
        U = step(r, U)
    return float(step(np.zeros(1), U)[0])
