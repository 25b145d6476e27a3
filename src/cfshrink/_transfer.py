"""Certified evaluation of continuant power sums by a cubic-Hermite envelope.

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
x = x_min(A) in (0, 1), so every iterate f_k = L^k f is in C.  On r >= 0,
(-1)^k g_c^(k)(r) = (t)_k c^k (1 + c r)^{-t-k} lies in [0, (t)_k g_c(r)],
with (t)_k = t (t+1) ... (t+k-1); sums keep this.  So every f in C is
completely monotone on [0, 1], and with p = -f' (the slope):

    f decreasing, p >= 0, p decreasing (f'' >= 0), p <= t f,
    0 <= f'''' <= (t)_4 f.

The envelope.  Bounds L_j <= f(y_j) <= U_j and Pl_j <= p(y_j) <= Pu_j are
kept at the N+1 nodes y_j = j/N, N a power of 2.  Before each step the
cone tightens them: U and Pu take their running minima from the left, L and
Pl their running maxima from the right, L, Pl >= 0 and Pu <= t U.  On a
node interval [y1, y2] of width W, write x = y1 + lam W and let H be the
cubic with H = f and H' = f' at both ends:

    H(x) = f(y1) h00 + f(y2) h01 - W p(y1) h10 + W p(y2) g11,
    h00 = (1 + 2 lam)(1 - lam)^2,  h01 = lam^2 (3 - 2 lam),
    h10 = lam (1 - lam)^2,         g11 = lam^2 (1 - lam).

All four weights are >= 0, so corners of the node bounds bound H.

(a) Value.  f(x) - H(x) = f''''(xi)/24 lam^2 (1 - lam)^2 W^4 for some xi in
[y1, y2] (Hermite's remainder), and 0 <= f''''(xi) <= (t)_4 f(xi) <=
(t)_4 U(y1).  So H <= f <= H + (t)_4 U(y1) lam^2 (1 - lam)^2 W^4/24: H
itself is the lower bound.

(b) Slope.  -H'(x) = 6 lam (1 - lam)(f(y1) - f(y2))/W + p(y1)(1 - lam)(1 - 3 lam)
+ p(y2) lam (3 lam - 2).  The error e = f - H vanishes on cubics, so by
Peano's theorem e'(x) = W^3 int_0^1 k(lam, s) f''''(y1 + s W) ds, with

    2 k(lam, s) = s^2 (1 - lam)(1 - 3 lam + 2 s lam)    for s <= lam,
    2 k(lam, s) = lam (1 - s)^2 (2 s (1 - lam) - lam)   for s >= lam,

and k(1 - lam, 1 - s) = -k(lam, s), so take lam <= 1/2.  For lam <= 1/3
both pieces are >= 0 (on s >= lam, 2 s (1 - lam) - lam >= lam (1 - 2 lam)),
so int |k| = int k = lam (1 - lam)(1 - 2 lam)/12, the slope error of
x^4/24; its maximum is sqrt(3)/216, at lam = (3 - sqrt(3))/6.  For
1/3 < lam <= 1/2, k < 0 exactly on s < s0 = (3 lam - 1)/(2 lam), and
int |k| = int k - 2 int_0^s0 k = lam (1 - lam)(1 - 2 lam)/12 +
(1 - lam)(3 lam - 1)^4/(96 lam^3).  With u = 1 - 2 lam in [0, 1/3) this is
u (1 - u^2)/48 + (1 + u)(1 - 3u)^4/(384 (1 - u)^3) <= u/48 + (1 - 2u)/384
<= 1/128 < sqrt(3)/216, because (1 - 3u)^3 <= (1 - u)^3 and
(1 + u)(1 - 3u) <= 1 - 2u.  So |p(x) + H'(x)| <= sqrt(3)/216 W^3 (t)_4 U(y1).

One step.  (Lf)(r) = sum_a w_a f(x_a) and p_Lf(r) = sum_a w_a x_a (t f(x_a)
- x_a p(x_a)), with w_a = (a+r)^{-t} and x_a = 1/(a+r); the bracket lies in
[t f (1 - x), t f].  Steps run at the nodes r = j/N, and per digit cell:

- singleton a: a + r is an exact float, so w_a is enclosed at a point, and
  x_a lies in [xd, xu].  f and p decrease, so f(x_a) <= (a) at xd,
  f(x_a) >= H at xu, p(x_a) <= (b) at xd and p(x_a) >= (b) at xu; each
  end reads its own node interval, so a node between xd and xu is no
  trouble.  Each bound is also clamped by the node bounds of its
  interval, which hold by monotonicity;
- block or tail A1..A2 with A1 >= N: every x_a lies in [0, 1/N], the first
  node interval, at lam_a = N/(a+r).  The sums M_k = sum_a w_a lam_a^k =
  N^k sum_a (a+r)^{-t-k}, k = 0..4, come from _block_sums, and every weight
  sum (a) needs is a combination of them: sum w h00 = M0 - 3 M2 + 2 M3,
  sum w h01 = 3 M2 - 2 M3, sum w h10 = M1 - 2 M2 + M3, sum w g11 = M2 - M3
  and sum w lam^2 (1 - lam)^2 = M2 - 2 M3 + M4; with one more factor lam
  (the t f part of the slope, sum_a w_a x_a f(x_a) = W sum w lam f) every
  index moves up by one, and the remainder keeps the bound without it
  (lam <= 1).  The x p part is sum_a w_a x_a^2 p(x_a) = W^2 sum w lam^2 p
  with p between its node bounds at 1/N and 0.  That is first order, but
  M2 is of size N^{1-t}, so its error is about t N^{-2-t} f, and it
  reaches the values only through the W p terms of H: below the W^4
  remainder for t >= 1.

Both bounds of each cell are clamped by the zeroth-order ones (f between
f(y2) and f(y1) on a node interval).  Every operation is outward-rounded
float64; the cells are summed pairwise, each point on its own.

Setup.  A root solver probes one layout at one t after another, so the
step data splits in two: what depends on the layout and the points alone
(their bounds and one-sided logs, and the singletons' nodes, basis weights
and indices) is built once, kept read-only in a one-entry cache keyed on
the layout and the bytes of the points, and shared by every probe; each
probe builds only what depends on t (see _setup).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ivec import dir_const, dn, iexp, iln, up

# layouts: (singleton digits = node intervals N, dyadic blocks); the root
# solvers localize with rows 0 and 1
_LEVELS = [
    (32, 12),
    (64, 14),
    (128, 17),
]
MAX_LEVEL = len(_LEVELS) - 1

# midpoint bins of apply_power_estimate, the same at every level
_ESTIMATE_BINS = 1024

# an upper bound of sqrt(3)/216, the slope constant of the module docstring
_SLOPE_CONST = float(up(up(math.sqrt(3.0)) / 216.0))


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

    Each digit up to the level's singleton count N is its own cell, and N
    is also the node count; each run of consecutive digits above it is
    split into dyadic blocks, and only the full alphabet gets the infinite
    tail.  Levels above MAX_LEVEL use MAX_LEVEL.  An empty digit set, or a
    digit below 1, raises ValueError: a cell (0, 0) would read as the tail.
    """
    a0, ndyad = _LEVELS[min(level, MAX_LEVEL)]
    if a0 < 1 or a0 & (a0 - 1):
        raise ValueError(f"bin count {a0} is not a power of 2, so j/nbins is inexact")
    if digits is None:
        cells = [(a, a) for a in range(1, a0 + 1)]
        A = a0
        for _ in range(ndyad):
            cells.append((A + 1, 2 * A))
            A *= 2
        cells.append((A + 1, 0))
        return Layout(a0, tuple(cells))
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
    return Layout(a0, tuple(cells))


def _sub(x, y):
    """Enclosure of x - y from enclosures (lo, hi) of x and y."""
    return dn(x[0] - y[1]), up(x[1] - y[0])


def _mul(x, y):
    """Enclosure of x y from enclosures (lo, hi) of x, y >= 0."""
    return dn(x[0] * y[0]), up(x[1] * y[1])


def _scale(p, c):
    """Enclosure of p c for p = (lo, hi) >= 0 and c = (lo, hi) of either sign."""
    return (dn(np.where(c[0] >= 0.0, p[0], p[1]) * c[0]),
            up(np.where(c[1] >= 0.0, p[1], p[0]) * c[1]))


# elements per kernel call, per chunk of singleton setup and per chunk of a
# singleton step: bounds their temporaries
_CHUNK = 2048


def _block_sums(y, p, ln, nf, t):
    """Enclosures [lo, hi], of shape (2, 5, blocks, points), of sum_{a=A1..A2}
    (a+c)^{-e} for e = t, t+1, ..., t+4: every block in one pass.

    y, p and ln are [lo, hi] enclosures of the cell ends, of their powers
    y^{-t} and of their logs, in rows: ya = A1 - 1/2 + c of every block, then yb = A2 + 1/2 + c of
    the first nf, the finite ones; c >= 0 is exact.  g(x) = (x+c)^{-e} is
    completely monotone, so with a = A1 - 1/2 and b = A2 + 1/2 the sum
    lies in [I - D1, I - D1 + D3]: I is the integral of g over [a, b],
    D1 = (g'(b) - g'(a))/24 and D3 = (7/5760)(g'''(b) - g'''(a)), the b
    terms 0 for the tail.  This is midpoint Euler-Maclaurin to third order;
    the proof is the one in sums.lemma_sum_batch, with a boundary term at
    both ends.  The powers y^{1-t}, y^{-t}, ..., y^{-t-7} are one stack,
    each from its neighbour by one product or division by the bounds of
    y, and every coefficient is rounded outward from Fraction(t).  Every
    element is computed as it would be alone.
    """
    nb, m = y.shape[1] - nf, y.shape[1]
    P = np.zeros((2, 9, 2 * nb) + y.shape[2:])  # (lo or hi, power, end, point); the tail's b ends stay 0
    P[:, 0, :m], P[:, 1, :m] = (dn(p[0] * y[0]), up(p[1] * y[1])), p
    for k in range(2, 9):
        P[:, k, :m] = dn(P[0, k - 1, :m] / y[1]), up(P[1, k - 1, :m] / y[0])
    a, b = P[:, :, :nb], P[:, :, nb:]
    # exponent e = t + k: y^{1-e}, y^{-e-1}, y^{-e-3} are powers k, k+2, k+4
    e = [Fraction(t) + k for k in range(5)]
    w, d1, d3 = (np.array(c).T[:, :, None, None] for c in (  # (lo or hi, k, 1, 1); w unread at e = 1
        [dir_const(1 / abs(x - 1)) if x != 1 else (1.0, 1.0) for x in e],
        [dir_const(x / 24) for x in e], [dir_const(7 * x * (x + 1) * (x + 2) / 5760) for x in e]))
    # (y_a^{1-e} - y_b^{1-e})/(e - 1), as a product of two positive factors
    d = _sub(a[:, :5], b[:, :5])
    if e[0] < 1:
        d[0][0], d[1][0] = _sub(b[:, 0], a[:, 0])
    i = dn(d[0] * w[0]), up(d[1] * w[1])
    if e[0] == 1:  # a block at t = 1: the integral is a log ratio
        i[0][0], i[1][0] = _sub(ln[:, nb:], ln[:, :nb])
    g1, g3 = _sub(a[:, 2:7], b[:, 2:7]), up(a[1, 4:9] - b[0, 4:9])  # D1 = d1 g1, D3 = d3 g3, both >= 0
    return np.stack([np.maximum(dn(i[0] - up(d1[1] * g1[1])), 0.0),
                     up(up(i[1] - dn(d1[0] * g1[0])) + up(d3[1] * g3))])


def _node_of(x, N):
    """Node interval j = floor(x N), clipped to N - 1, and lam = x N - j.

    x N is exact (N is a power of 2) and so is the subtraction (Sterbenz,
    or j = 0), so lam is the exact position of x in [j/N, (j+1)/N].
    """
    xs = x * N
    j = np.minimum(np.floor(xs), N - 1)
    return j.astype(np.int32), xs - j


def _basis(lam):
    """Enclosures of h00, h01, h10, g11, q = lam^2 (1 - lam)^2 and of the
    slope weights d = 6 lam (1 - lam), c10 = (1 - lam)(1 - 3 lam) and
    c11 = lam (3 lam - 2), at exact lam in [0, 1] (2 lam is exact)."""
    m = np.maximum(dn(1.0 - lam), 0.0), up(1.0 - lam)
    el = lam, lam
    m2, l2, lm = _mul(m, m), _mul(el, el), _mul(el, m)
    h00 = _mul((dn(1.0 + 2.0 * lam), up(1.0 + 2.0 * lam)), m2)
    h01 = _mul(l2, (dn(3.0 - 2.0 * lam), up(3.0 - 2.0 * lam)))
    h10, g11, q = _mul(lm, m), _mul(l2, m), _mul(lm, lm)
    d = dn(6.0 * lm[0]), up(6.0 * lm[1])
    c10 = _scale(m, (dn(1.0 - up(3.0 * lam)), up(1.0 - dn(3.0 * lam))))
    c11 = _scale(el, (dn(dn(3.0 * lam) - 2.0), up(up(3.0 * lam) - 2.0)))
    return h00, h01, h10, g11, q, d, c10, c11


def _comb(M, coefs):
    """Enclosure of sum_k c_k M_k for the (k, c_k) in coefs, known to be >= 0."""
    lo = hi = 0.0
    for k, c in coefs:
        a, b = (M[k][0], M[k][1]) if c > 0 else (M[k][1], M[k][0])
        lo, hi = dn(lo + dn(c * a)), up(hi + up(c * b))
    return np.maximum(lo, 0.0), hi


# the block weight sums of h00, h01, h10, g11 and lam^2 (1 - lam)^2 as
# combinations of the M_k (module docstring); with the factor lam every
# index moves up by one
_BLOCK_SUMS = (
    ((0, 1), (2, -3), (3, 2)),
    ((2, 3), (3, -2)),
    ((1, 1), (2, -2), (3, 1)),
    ((2, 1), (3, -1)),
    ((2, 1), (3, -2), (4, 1)),
)


def _constants(t, N):
    """Upper bounds of the value and slope remainders' factors, (t)_4 W^4/24
    and sqrt(3)/216 (t)_4 W^3, with W = 1/N."""
    k4 = t
    for i in (1.0, 2.0, 3.0):
        k4 = up(k4 * up(t + i))
    return up(up(k4 / 24.0) / float(N) ** 4), up(up(k4 * _SLOPE_CONST) / float(N) ** 3)


def _sum_terms(x, rnd):
    """Sums over the first axis, pairwise, each addition rounded by rnd."""
    while x.shape[0] > 1:
        head = rnd(x[0 : x.shape[0] - 1 : 2] + x[1::2])
        x = np.concatenate([head, x[-1:]]) if x.shape[0] & 1 else head
    return x[0]


def _points(a, y, N):
    """Bounds of the singleton points y = a + r: y itself while a N < 2^52,
    where a N + j is an exact integer and so y is exact."""
    return (y, y) if a.size == 0 or a.max() * N < 2.0**52 else (dn(y), up(y))


def _singleton_rows(a, r, N):
    """The step data of the singleton cells a (a column) at the points r
    that does not depend on t.  Term 0 of "hi" holds h00 and 6 lam (1 - lam) N
    without their remainders, which _setup adds as "hi_t"; term 4 of the
    slope's "lo" is -cd, which it puts in "lo_t"."""
    W, n1 = 1.0 / N, N + 1
    iL, iU, iPl, iPu = 0, n1, 2 * n1, 3 * n1
    ix = np.min_scalar_type(4 * n1 - 1)  # the least index type of V
    y_lo, y_hi = _points(a, a + r, N)
    xd, xu = dn(1.0 / y_hi), np.minimum(up(1.0 / y_lo), 1.0)
    j, lam = _node_of(xd, N)  # the upper bounds, at xd
    h00, h01, h10, g11, q, d, c10, c11 = _basis(lam)
    dN = d[1] * N
    hi = np.stack([
        [h00[1], h01[1], g11[1] * W, -(h10[0] * W)],  # f: U1, U2, Pu2, Pl1
        [dN, -dN, c10[1], c11[1]],  # p: U1, L2, P1, P2
    ], axis=1)
    hi_idx = np.stack([
        [iU + j, iU + j + 1, iPu + j + 1, iPl + j],
        [iU + j, iL + j + 1, np.where(c10[1] >= 0.0, iPu, iPl) + j,
         np.where(c11[1] >= 0.0, iPu, iPl) + j + 1],
    ], axis=1).astype(ix)
    hi_cap = np.stack([iU + j, iPu + j]).astype(ix)
    j, lam = _node_of(xu, N)  # the lower bounds, at xu
    h00, h01, h10, g11, _, d, c10, c11 = _basis(lam)
    dN, zero = d[0] * N, np.zeros_like(lam)
    lo = np.stack([
        [h00[0], h01[0], g11[0] * W, -(h10[1] * W), zero],  # f: L1, L2, Pl2, Pu1
        [dN, -dN, c10[0], c11[0], zero],  # p: L1, U2, P1, P2, U1
    ], axis=1)
    lo_idx = np.stack([
        [iL + j, iL + j + 1, iPl + j + 1, iPu + j, iL + j],
        [iL + j, iU + j + 1, np.where(c10[0] >= 0.0, iPl, iPu) + j,
         np.where(c11[0] >= 0.0, iPl, iPu) + j + 1, iU + j],
    ], axis=1).astype(ix)
    lo_cap = np.stack([iL + j + 1, iPl + j + 1]).astype(ix)
    return {"hi": hi, "hi_idx": hi_idx, "hi_cap": hi_cap, "lo": lo, "lo_idx": lo_idx,
            "lo_cap": lo_cap, "q": q[1], "x": np.stack([xd, xu]), "omx": np.maximum(dn(1.0 - xu), 0.0)}


# one entry, the layout and points a solver is probing (at most 4.1 MB, level
# 2 over all of N at its 129 nodes): a second would keep a level-1 entry
# alive through a level-2 escalation and add its 1 MB to the peak memory
@functools.lru_cache(maxsize=1)
def _geometry(layout, points):
    """The step data at the exact points (bytes of a float64 vector) that
    does not depend on t, read-only: the singleton rows of _singleton_rows,
    built in row chunks of about _CHUNK elements, the one-sided logs
    (lower of the lower bound, upper of the upper bound) of the singleton
    points and then of the block ends, and the bounds of the block ends
    (the rows of _block_sums) with the count of finite blocks."""
    r, N = np.frombuffer(points), layout.nbins
    cells = np.array(layout.cells, dtype=np.float64).reshape(-1, 2)
    single = cells[:, 0] == cells[:, 1]
    a, blocks = cells[single, :1], cells[~single]
    if blocks.size and blocks[:, 0].min() < N:
        raise ValueError(f"a block cell must start at or above the {N} node intervals")
    blocks = np.concatenate([blocks[blocks[:, 1] > 0], blocks[blocks[:, 1] == 0]])  # the tail last
    nf = int(np.count_nonzero(blocks[:, 1]))
    ends = np.concatenate([blocks[:, :1] - 0.5 + r, blocks[:nf, 1:] + 0.5 + r])
    ends = np.stack([dn(ends), up(ends)])
    x = np.concatenate([np.reshape(_points(a, a + r, N), (2, -1)), ends.reshape(2, -1)], axis=1)
    ln = np.empty_like(x)
    for k in range(0, x.shape[1], _CHUNK):
        ln[:, k : k + _CHUNK] = iln(*x[:, k : k + _CHUNK])
    rows, out = max(1, _CHUNK // r.size), None
    for k in range(0, max(a.shape[0], 1), rows):
        part = _singleton_rows(a[k : k + rows], r, N)
        if out is None:
            out = {f: np.empty(v.shape[:-2] + (a.shape[0], r.size), v.dtype) for f, v in part.items()}
        for f, v in part.items():
            out[f][..., k : k + rows, :] = v
    for v in (*out.values(), ln, ends):
        v.setflags(write=False)
    return out, ln, ends, nf


def _block_data(M, t, N, cv):
    """Step data of block and tail cells from enclosures M[k] = (lo, hi) of
    their sums M_k, k = 0..4 (module docstring)."""
    W, n1 = 1.0 / N, N + 1
    iL, iU, iPl, iPu = 0, n1, 2 * n1, 3 * n1
    b00, b01, b10, g11, q = (_comb(M, c) for c in _BLOCK_SUMS)
    s00, s01, s10, s11 = (_comb(M, [(k + 1, ck) for k, ck in c]) for c in _BLOCK_SUMS[:4])
    tw, zero = t * W, np.zeros_like(M[0][0])  # t W is exact
    rem = up(cv * q[1])
    return {
        "hi": np.stack([  # (value, slope): U0, U1, Pu1, Pl0, Pl1
            [up(b00[1] + rem), b01[1], g11[1] * W, -(b10[0] * W), zero],
            [up(tw * up(s00[1] + rem)), up(tw * s01[1]), up(tw * s11[1]) * W,
             -(dn(tw * s10[0]) * W), -(M[2][0] * (W * W))],
        ], axis=1),
        "lo": np.stack([  # (value, slope): L0, L1, Pl1, Pu0, Pu0
            [b00[0], b01[0], g11[0] * W, -(b10[1] * W), zero],
            [dn(tw * s00[0]), dn(tw * s01[0]), dn(tw * s11[0]) * W,
             -(up(tw * s10[1]) * W), -(M[2][1] * (W * W))],
        ], axis=1),
        "hi_idx": np.array([iU, iU + 1, iPu + 1, iPl, iPl + 1]),
        "lo_idx": np.array([iL, iL + 1, iPl + 1, iPu, iPu]),
        "hi_cap": np.stack([M[0][1], up(tw * M[1][1])]),  # times U0
        "lo_cap": M[0][0],  # times L1
    }


def _setup(layout, t, r):
    """Data of one envelope step at the exact points r (module docstring).

    The node bounds enter a step as one vector V = [L, U, Pl, Pu], and
    every bound a step builds is a sum of terms coefficient * V[index],
    each product and sum rounded toward the bound's side.  An upper bound
    rounds its positive coefficients up and the magnitudes of its negative
    ones down, a lower bound the other way, so each term bounds its exact
    counterpart.  Singletons: "hi" holds the terms of the upper bounds of
    f and p at xd, "lo" those of the lower bounds at xu, as arrays
    (term, f or p, cell, point); "hi_cap" and "lo_cap" index the node
    bounds that clamp them.  Blocks: the terms of the cell's upper and
    lower (value, slope); their nodes are 0 and 1.  Every element is
    computed as it would be alone.

    _geometry holds the part that does not depend on t, cached on
    (layout, r.tobytes()) and read-only, so every probe of a layout shares
    one copy.  Per t this builds only the rest, without copying the cached
    tables: the remainder constants, the weights from one iexp of the
    cached logs times -t (the bits of ipow_neg), the singletons' t terms
    "hi_t" (term 0 of "hi") and "lo_t" (term 4 of the slope's "lo"), and
    the block data, {} for a layout without blocks.
    """
    N = layout.nbins
    cv, cd = _constants(t, N)
    single, ln, ends, nf = _geometry(layout, np.asarray(r, dtype=np.float64).tobytes())
    p = np.empty_like(ln)
    for k in range(0, ln.shape[1], _CHUNK):
        p[:, k : k + _CHUNK] = iexp(dn(ln[1, k : k + _CHUNK] * (-t)), up(ln[0, k : k + _CHUNK] * (-t)))
    m, blocks = single["q"].size, {}
    if ends.size:
        M = _block_sums(ends, p[:, m:].reshape(ends.shape), ln[:, m:].reshape(ends.shape), nf, t)
        blocks = _block_data((M * float(N) ** np.arange(5.0)[:, None, None]).swapaxes(0, 1), t, N, cv)
    w = p[:, :m].reshape((2,) + single["q"].shape)
    xd, xu = single["x"]
    return {**single, "hi_t": np.stack([up(single["hi"][0, 0] + up(cv * single["q"])),
                                        up(single["hi"][0, 1] + cd)]),
            "lo_t": np.broadcast_to(-cd, w[0].shape), "w_hi": np.stack([w[1], up(w[1] * xu)]),
            "w_lo": np.stack([w[0], dn(w[0] * xd)])}, blocks


def _at_zero(data):
    """The step data at the first point alone."""
    return [{k: v if k.endswith("_idx") and v.ndim == 1 else v[..., :1] for k, v in part.items()}
            for part in data]


def _clamp(L, U, Pl, Pu, t):
    """Node bounds tightened by the cone (module docstring), as one vector."""
    U = np.minimum.accumulate(U)
    L = np.maximum.accumulate(np.maximum(L, 0.0)[::-1])[::-1]
    Pu = np.minimum.accumulate(np.minimum(Pu, up(t * U)))
    Pl = np.maximum.accumulate(np.maximum(Pl, 0.0)[::-1])[::-1]
    return np.concatenate([L, U, Pl, Pu])


def _singleton_terms(s, V, t):
    """Upper and lower (value, slope) of every singleton cell at every point."""
    v = V.take(s["hi_idx"])
    hi = s["hi"] * v
    hi[0] = s["hi_t"] * v[0]
    v = V.take(s["lo_idx"])
    lo = s["lo"] * v
    lo[4, 1] = s["lo_t"] * v[4, 1]
    f_hi, p_hi = _sum_terms(up(hi), up)
    f_lo, p_lo = _sum_terms(dn(lo), dn)
    U1, Pu1 = V.take(s["hi_cap"])
    L2, Pl2 = V.take(s["lo_cap"])
    f_hi, f_lo = np.minimum(f_hi, U1), np.maximum(f_lo, L2)
    p_hi = np.minimum(np.minimum(p_hi, Pu1), up(t * f_hi))
    p_lo = np.maximum(p_lo, Pl2)
    xd, xu = s["x"]
    g_hi = up(up(t * f_hi) - dn(xd * p_lo))  # t f - x p, in [t f (1 - x), t f]
    tf = dn(t * f_lo)
    g_lo = np.maximum(np.maximum(dn(tf - up(xu * p_hi)), dn(tf * s["omx"])), 0.0)
    return up(s["w_hi"] * np.stack([f_hi, g_hi])), dn(s["w_lo"] * np.stack([f_lo, g_lo]))


def _block_terms(b, V):
    """Upper and lower (value, slope) of every block and tail cell at every point."""
    hi = _sum_terms(up(b["hi"] * V[b["hi_idx"]][:, None, None, None]), up)
    lo = _sum_terms(dn(b["lo"] * V[b["lo_idx"]][:, None, None, None]), dn)
    n1 = V.size // 4
    hi = np.minimum(hi, up(b["hi_cap"] * V[n1]))
    lo = np.stack([np.maximum(lo[0], dn(b["lo_cap"] * V[1])), np.maximum(lo[1], 0.0)])
    return hi, lo


def _step(data, nodes, t):
    """Bounds (L, U, Pl, Pu) of Lf and its slope at the points of data from
    node bounds of f and its slope.  Singletons run in row chunks of about
    _CHUNK elements, which bounds the temporaries; every element is computed
    as it would be alone."""
    V = _clamp(*nodes, t)
    singles, blocks = data
    ns, npts = singles["omx"].shape
    nb = blocks["lo_cap"].shape[0] if blocks else 0
    hi, lo = np.empty((2, ns + nb, npts)), np.empty((2, ns + nb, npts))
    rows = max(1, _CHUNK // npts)
    for k in range(0, ns, rows):
        cut = slice(k, min(k + rows, ns))
        hi[:, cut], lo[:, cut] = _singleton_terms({f: v[..., cut, :] for f, v in singles.items()}, V, t)
    if nb:
        hi[:, ns:], lo[:, ns:] = _block_terms(blocks, V)
    (v_hi, s_hi), (v_lo, s_lo) = _sum_terms(hi.swapaxes(0, 1), up), _sum_terms(lo.swapaxes(0, 1), dn)
    return v_lo, v_hi, s_lo, s_hi


def apply_power(n, t, layout):
    """Certified (lo, hi) of (L^n 1)(0)."""
    return apply_powers(n, t, layout, [None])[0][-1]


def _check_power(n, t, layout):
    """Reject n < 1, and t <= 1 on the full alphabet, where the sum diverges."""
    if n < 1:
        raise ValueError("need n >= 1")
    if layout.cells and layout.cells[-1][1] == 0 and not t > 1:
        raise ValueError(f"the full-alphabet sum diverges for t <= 1; got t = {t}")


def apply_powers(n, t, layout, seeds):
    """[(lo, hi) of (L^k f)(0) for k = 1..n] for each seed in turn, from one
    setup at t: the one envelope loop.  A seed is None (f = 1) or arrays
    (lo, hi, dlo, dhi) of bounds of f and f' at the nbins + 1 nodes, for an
    f in the module docstring's cone, as (1 + x r)^{-t} with x in [0, 1].

    Steps 1..n-1 run at every node and L^k f is read at node 0; step n runs
    at node 0 alone, r = 0 (n = 1 sets up there only).  Every point is
    computed as it would be alone, so node 0 of a full step has the bits
    of the r = 0 step.
    """
    _check_power(n, t, layout)
    N = layout.nbins
    starts = []
    for seed in seeds:
        if seed is None:
            starts.append((np.ones(N + 1), np.ones(N + 1), np.zeros(N + 1), np.zeros(N + 1)))
            continue
        seed = [np.asarray(v, dtype=np.float64) for v in seed]
        if len(seed) != 4 or any(v.shape != (N + 1,) for v in seed):
            raise ValueError(f"a seed holds bounds of f and f' at the {N + 1} nodes")
        lo, hi, dlo, dhi = seed
        starts.append((lo, hi, -dhi, -dlo))
    data = _setup(layout, t, layout.edges if n > 1 else np.zeros(1))
    last = _at_zero(data)  # node 0: r = 0
    out = []
    for nodes in starts:
        sums = []
        for k in range(1, n + 1):
            nodes = _step(data if k < n else last, nodes, t)
            sums.append((max(float(nodes[0][0]), 0.0), float(nodes[1][0])))
        out.append(sums)
    return out


def _block_mid_weight(A1, A2, r, t):
    if t == 1.0:  # a finite block at t = 1: the integral is a log ratio
        return np.log((A2 + 0.5 + r) / (A1 - 0.5 + r))
    f1 = (A1 - 0.5 + r) ** (1.0 - t)
    if A2 == 0:
        return f1 / (t - 1.0)
    return (f1 - (A2 + 0.5 + r) ** (1.0 - t)) / (t - 1.0)


def apply_power_estimate(n, t, layout):
    """Fast midpoint estimate of (L^n f)(0) on _ESTIMATE_BINS bins, whatever
    the layout's node count.  NOT certified: pressure's ratio root and the
    float twin that steers its halvings read it, never a certificate."""
    _check_power(n, t, layout)
    N = _ESTIMATE_BINS

    def weights(rv):
        """(weight, bin index) of every cell at the points rv, once per call."""
        out = []
        for A1, A2 in layout.cells:
            if A1 == A2:
                w = (A1 + rv) ** -t
                rep = float(A1)
            else:
                w = _block_mid_weight(A1, A2, rv, t)
                rep = 2.0 * A1 if A2 == 0 else 0.5 * (A1 + A2)
            out.append((w, np.minimum((N / (rep + rv)).astype(np.int64), N - 1)))
        return out

    def step(cells, vals, size):
        acc = np.zeros(size)
        for w, idx in cells:
            acc += w * vals[idx]
        return acc

    U = np.ones(N)
    if n > 1:
        cells = weights((np.arange(N) + 0.5) / N)
        for _ in range(n - 1):
            U = step(cells, U, N)
    return float(step(weights(np.zeros(1)), U, 1)[0])
