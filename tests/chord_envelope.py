"""The chord envelope that `cfshrink._transfer` used before the cubic-Hermite
envelope, kept as an oracle.

It keeps bounds of L^k f at the nodes j/N and interpolates them by chords:
convexity puts f below its chord, and f'' <= K f with K = t(t+1) puts it at
most lam (1 - lam) W^2/2 K U(y1) below.  One step adds one term per digit
cell:

- singleton a, with x = 1/(a+r) enclosed in [xd, xu]: f(x) <= f(xd), the
  chord of U at xd; f(x) >= f(xu), the lowered chord of L at xu.  Both are
  times the weight (a+r)^{-t}, enclosed from dn/up(a+r);
- block or tail A1..A2: every image lies in one node interval [y1, y2]
  covering [1/(A2+r), 1/(A1+r)].  With S0 = sum (a+r)^{-t},
  S1 = sum (a+r)^{-t-1} (the first two sums of `_cell_sum`) and
  M = (N S1 - j1 S0)/(j2 - j1), the cell lies between S0 U(y1) -
  (U(y1) - U(y2)) M and (L(y1) - K U(y1) W^2/8) S0 - (L(y1) - L(y2)) M.

Each upper term is capped by S0 U(y1), each lower term floored by S0 L(y2).
The error is second order in the node spacing, so levels 0, 1 and 2 took
256, 1024 and 1024 nodes (CHORD_NODES) over the cells of `make_layout`.
Every operation is outward-rounded float64, and the results have the bits
of the chord envelope as it was in `src/`.
"""

import numpy as np

from cfshrink import _transfer
from cfshrink import rounding as rd
from cfshrink.ivec import dn, ipow_neg, up

CHORD_NODES = (256, 1024, 1024)

_FLOAT_FIELDS = ("s_lo", "s_hi", "mu", "ml", "c")
_INDEX_FIELDS = ("ju1", "ju2", "jl1", "jl2")


def chord_layout(level, digits=None):
    """The chord envelope's layout: the cells of make_layout on CHORD_NODES nodes."""
    level = min(level, _transfer.MAX_LEVEL)
    return _transfer.Layout(CHORD_NODES[level], _transfer.make_layout(level, digits).cells)


def chord_sup_seed(layout, xe, t):
    """Bounds of (1 + x r)^{-t} at the layout's nodes, for x in the enclosure xe."""
    xlo, xhi = rd.to_f64(xe)
    r = layout.edges
    return ipow_neg(dn(1.0 + dn(xlo * r)), up(1.0 + up(xhi * r)), t)


def _cell_sum(A1, A2, c, t):
    """Enclosures of sum_{a=A1..A2} (a+c)^{-e} for e = t, t+1, ..., t+4:
    `_transfer._end_sums` at the ends of the cells A1..A2 shifted by the
    exact c >= 0; A2 = None is infinite.  A1, A2 and c broadcast against
    each other; every element is computed as it would be alone.
    """
    c = np.asarray(c, dtype=np.float64)
    ya, yb = A1 - 0.5 + c, None if A2 is None else A2 + 0.5 + c
    ends = [y for y in (ya, yb) if y is not None]
    return _transfer._end_sums(ya, yb, _transfer._pow_neg([(dn(y), up(y)) for y in ends], t), t)


def _node_of(x, N):
    xs = x * N
    j = np.minimum(np.floor(xs), N - 1)
    return j, xs - j


def _singleton_chords(A1, A2, r, t, K, N):
    """Chord data of singleton cells a = A1 at the points r; A2 is not read."""
    s_lo, s_hi = ipow_neg(dn(A1 + r), up(A1 + r), t)
    ju, lam_u = _node_of(dn(1.0 / up(A1 + r)), N)
    jl, lam_l = _node_of(np.minimum(up(1.0 / dn(A1 + r)), 1.0), N)
    return {
        "s_lo": s_lo, "s_hi": s_hi,
        "ju1": ju, "ju2": ju + 1, "mu": np.maximum(dn(s_hi * lam_u), 0.0),
        "jl1": jl, "jl2": jl + 1, "ml": up(s_hi * lam_l),
        "c": up(up(lam_l * up(1.0 - lam_l)) * up(K * (0.5 / N**2))),
    }


def _block_chords(A1, A2, r, t, K, N):
    """Chord data of block cells A1..A2 at the points r; A2 = None is the tail."""
    (s_lo, s_hi), (s1_lo, s1_hi) = _cell_sum(A1, A2, r, t)[:2]
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


def chords(layout, t, r):
    """Data of one chord step at the exact points r, arrays of shape (cells, r)."""
    N = layout.nbins
    K = up(t * up(t + 1.0))
    cells = np.array(layout.cells, dtype=np.float64)
    A1, A2 = cells[:, :1], cells[:, 1:]
    single = cells[:, 0] == cells[:, 1]
    tail = cells[:, 1] == 0
    shape = (len(cells), r.size)
    ch = {f: np.empty(shape) for f in _FLOAT_FIELDS}
    ch.update({f: np.empty(shape, dtype=np.int32) for f in _INDEX_FIELDS})
    for mask, setup, infinite in ((single, _singleton_chords, False),
                                  (~single & ~tail, _block_chords, False),
                                  (tail, _block_chords, True)):
        sel = np.flatnonzero(mask)
        if sel.size:
            for f, v in setup(A1[sel], None if infinite else A2[sel], r, t, K, N).items():
                ch[f][sel] = v
    return ch


def terms(ch, L, U):
    """Upper and lower terms of each cell at each point."""
    U1, L1 = U[ch["ju1"]], L[ch["jl1"]]
    D = np.maximum(dn(U1 - U[ch["ju2"]]), 0.0)
    flat = up(U1 * ch["s_hi"])
    t_hi = np.minimum(up(flat - dn(D * ch["mu"])), flat)
    L2 = L[ch["jl2"]]
    a = dn(L1 - up(ch["c"] * U[ch["jl1"]]))
    t_lo = dn(dn(a * np.where(a >= 0.0, ch["s_lo"], ch["s_hi"])) - up(up(L1 - L2) * ch["ml"]))
    return np.maximum(t_lo, dn(L2 * ch["s_lo"])), t_hi


def step(ch, L, U):
    """Bounds (L, U) of Lf at the points of ch from node bounds of f."""
    U = np.minimum.accumulate(U)
    L = np.maximum.accumulate(np.maximum(L, 0.0)[::-1])[::-1]
    t_lo, t_hi = terms(ch, L, U)
    lo, hi = np.zeros(t_lo.shape[1]), np.zeros(t_lo.shape[1])
    for row_lo, row_hi in zip(t_lo, t_hi):  # cells in layout order
        lo = dn(lo + row_lo)
        hi = up(hi + row_hi)
    return lo, hi


def chord_apply_powers(n, t, layout, seeds):
    """[chord_apply_power(k, ...) for k = 1..n] per seed, from one setup."""
    N = layout.nbins
    starts = [(np.ones(N + 1), np.ones(N + 1)) if seed is None
              else [np.asarray(v, dtype=np.float64) for v in seed] for seed in seeds]
    ch = chords(layout, t, layout.edges if n > 1 else np.zeros(1))
    last = {f: v[:, :1] for f, v in ch.items()}
    out = []
    for L, U in starts:
        sums = []
        for k in range(1, n + 1):
            L, U = step(ch if k < n else last, L, U)
            sums.append((max(float(L[0]), 0.0), float(U[0])))
        out.append(sums)
    return out


def chord_apply_power(n, t, layout, seed=None):
    """Certified (lo, hi) of (L^n f)(0) by the chord envelope; seed: bounds of f at the nodes."""
    return chord_apply_powers(n, t, layout, [seed])[0][-1]
