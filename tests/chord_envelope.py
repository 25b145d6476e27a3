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

The module also keeps the Hermite envelope's setup as it was before
`_transfer` split it into per-layout geometry and per-t work: `_pow_neg`,
the per-call `_end_sums` (one call for the finite blocks, one for the
tail) and `_singleton_data`, which builds every singleton field at one t.
`_transfer._setup` must reproduce their bits.
"""

from fractions import Fraction

import numpy as np

from cfshrink import _transfer
from cfshrink import rounding as rd
from cfshrink._transfer import _CHUNK, _basis, _node_of, _points, _sub
from cfshrink.ivec import dir_const, dn, iln, ipow_neg, up

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


def _pow_neg(bounds, t):
    """[ipow_neg(lo, hi, t) for (lo, hi) in bounds], from kernel calls on
    about _CHUNK elements each; every element is computed as it would be
    alone, so one pass serves all the points of a setup."""
    lo = np.concatenate([np.ravel(b[0]) for b in bounds])
    hi = np.concatenate([np.ravel(b[1]) for b in bounds])
    p_lo, p_hi = np.empty_like(lo), np.empty_like(hi)
    for k in range(0, lo.size, _CHUNK):
        p_lo[k : k + _CHUNK], p_hi[k : k + _CHUNK] = ipow_neg(lo[k : k + _CHUNK], hi[k : k + _CHUNK], t)
    out, k = [], 0
    for b in bounds:
        n, shape = np.size(b[0]), np.shape(b[0])
        out.append((p_lo[k : k + n].reshape(shape), p_hi[k : k + n].reshape(shape)))
        k += n
    return out


def _end_powers(y, p):
    """Enclosures of y^{1-t}, y^{-t}, ..., y^{-t-7} at a cell end y > 0 from
    the enclosure p of y^{-t}: each from its neighbour by one product or
    division by the bounds of y."""
    y_lo, y_hi = dn(y), up(y)
    powers = [(dn(p[0] * y_lo), up(p[1] * y_hi)), p]
    for _ in range(7):
        p = dn(p[0] / y_hi), up(p[1] / y_lo)
        powers.append(p)
    return powers


def _end_sums(ya, yb, p, t):
    """Enclosures of sum_{a=A1..A2} (a+c)^{-e} for e = t, t+1, ..., t+4,
    from the cell ends ya = A1 - 1/2 + c and yb = A2 + 1/2 + c and the
    enclosures p of their powers y^{-t}; yb = None means A2 is infinite.
    The bound is `_transfer._block_sums`'s, one k and one kind of cell at
    a time."""
    pa = _end_powers(ya, p[0])
    pb = [(0.0, 0.0)] * 9 if yb is None else _end_powers(yb, p[1])
    out = []
    for k in range(5):  # exponent e = t + k: y^{1-e}, y^{-e-1}, y^{-e-3} are powers k, k+2, k+4
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
    return out


def _singleton_data(a, r, w, N, cv, cd):
    """Step data of the singleton cells a (a column) at the points r, with
    weights w, set up in row chunks of about _CHUNK elements."""
    rows, out = max(1, _CHUNK // r.size), None
    for k in range(0, max(a.shape[0], 1), rows):
        part = _singleton_rows(a[k : k + rows], r, (w[0][k : k + rows], w[1][k : k + rows]), N, cv, cd)
        if out is None:
            out = {f: np.empty(v.shape[:-2] + (a.shape[0], r.size), v.dtype) for f, v in part.items()}
        for f, v in part.items():
            out[f][..., k : k + rows, :] = v
    return out


def _singleton_rows(a, r, w, N, cv, cd):
    """Step data of the singleton cells a (a column) at the points r, with
    their weights w = (a+r)^{-t} enclosed, every field at one t."""
    W, n1 = 1.0 / N, N + 1
    iL, iU, iPl, iPu = 0, n1, 2 * n1, 3 * n1
    y_lo, y_hi = _points(a, a + r, N)
    xd, xu = dn(1.0 / y_hi), np.minimum(up(1.0 / y_lo), 1.0)
    j, lam = _node_of(xd, N)  # the upper bounds, at xd
    h00, h01, h10, g11, q, d, c10, c11 = _basis(lam)
    dN = d[1] * N
    hi = np.stack([
        [up(h00[1] + up(cv * q[1])), h01[1], g11[1] * W, -(h10[0] * W)],  # f: U1, U2, Pu2, Pl1
        [up(dN + cd), -dN, c10[1], c11[1]],  # p: U1, L2, P1, P2
    ], axis=1)
    hi_idx = np.stack([
        [iU + j, iU + j + 1, iPu + j + 1, iPl + j],
        [iU + j, iL + j + 1, np.where(c10[1] >= 0.0, iPu, iPl) + j,
         np.where(c11[1] >= 0.0, iPu, iPl) + j + 1],
    ], axis=1).astype(np.int32)
    hi_cap = np.stack([iU + j, iPu + j])
    j, lam = _node_of(xu, N)  # the lower bounds, at xu
    h00, h01, h10, g11, _, d, c10, c11 = _basis(lam)
    dN, zero = d[0] * N, np.zeros_like(lam)
    lo = np.stack([
        [h00[0], h01[0], g11[0] * W, -(h10[1] * W), zero],  # f: L1, L2, Pl2, Pu1
        [dN, -dN, c10[0], c11[0], np.full_like(lam, -cd)],  # p: L1, U2, P1, P2, U1
    ], axis=1)
    lo_idx = np.stack([
        [iL + j, iL + j + 1, iPl + j + 1, iPu + j, iL + j],
        [iL + j, iU + j + 1, np.where(c10[0] >= 0.0, iPl, iPu) + j,
         np.where(c11[0] >= 0.0, iPl, iPu) + j + 1, iU + j],
    ], axis=1).astype(np.int32)
    lo_cap = np.stack([iL + j + 1, iPl + j + 1])
    return {"hi": hi, "hi_idx": hi_idx, "hi_cap": hi_cap, "lo": lo, "lo_idx": lo_idx,
            "lo_cap": lo_cap, "w_hi": np.stack([w[1], up(w[1] * xu)]),
            "w_lo": np.stack([w[0], dn(w[0] * xd)]), "x": np.stack([xd, xu]),
            "omx": np.maximum(dn(1.0 - xu), 0.0)}


def setup(layout, t, r):
    """`_transfer._setup` as it was before the split: every field at one t,
    "hi" and "lo" with their t terms in place, and the block sums from
    `_end_sums`, once for the finite blocks and once for the tail."""
    N = layout.nbins
    cv, cd = _transfer._constants(t, N)
    cells = np.array(layout.cells, dtype=np.float64).reshape(-1, 2)
    single = cells[:, 0] == cells[:, 1]
    a, blocks = cells[single, :1], cells[~single]
    blocks = np.concatenate([blocks[blocks[:, 1] > 0], blocks[blocks[:, 1] == 0]])  # the tail last
    nf = int(np.count_nonzero(blocks[:, 1]))
    y, ya, yb = a + r, blocks[:, :1] - 0.5 + r, blocks[:nf, 1:] + 0.5 + r
    w, pa, pb = _pow_neg([_points(a, y, N), (dn(ya), up(ya)), (dn(yb), up(yb))], t)
    parts = [_end_sums(ya[:nf], yb, ((pa[0][:nf], pa[1][:nf]), pb), t)] if nf else []
    if nf < len(blocks):
        parts.append(_end_sums(ya[nf:], None, ((pa[0][nf:], pa[1][nf:]),), t))
    M = [tuple(np.concatenate([p[k][i] for p in parts]) * float(N) ** k  # exact scaling
               if parts else np.zeros((0, r.size)) for i in (0, 1)) for k in range(5)]
    return _singleton_data(a, r, w, N, cv, cd), _transfer._block_data(M, t, N, cv)


def setup_fields(data):
    """`_transfer._setup`'s step data in the fields of `setup`: the t terms
    written into copies of "hi" and "lo", "q" dropped, {} blocks as None."""
    singles, blocks = data
    singles = dict(singles)
    hi, lo = np.array(singles.pop("hi")), np.array(singles.pop("lo"))
    hi[0], lo[4, 1] = singles.pop("hi_t"), singles.pop("lo_t")
    del singles["q"]
    return {**singles, "hi": hi, "lo": lo}, blocks or None


def _cell_sum(A1, A2, c, t):
    """Enclosures of sum_{a=A1..A2} (a+c)^{-e} for e = t, t+1, ..., t+4:
    `_end_sums` at the ends of the cells A1..A2 shifted by the exact
    c >= 0; A2 = None is infinite.  A1, A2 and c broadcast against each
    other; every element is computed as it would be alone.
    """
    c = np.asarray(c, dtype=np.float64)
    ya, yb = A1 - 0.5 + c, None if A2 is None else A2 + 0.5 + c
    ends = [y for y in (ya, yb) if y is not None]
    return _end_sums(ya, yb, _pow_neg([(dn(y), up(y)) for y in ends], t), t)


def _chord_node_of(x, N):
    xs = x * N
    j = np.minimum(np.floor(xs), N - 1)
    return j, xs - j


def _singleton_chords(A1, A2, r, t, K, N):
    """Chord data of singleton cells a = A1 at the points r; A2 is not read."""
    s_lo, s_hi = ipow_neg(dn(A1 + r), up(A1 + r), t)
    ju, lam_u = _chord_node_of(dn(1.0 / up(A1 + r)), N)
    jl, lam_l = _chord_node_of(np.minimum(up(1.0 / dn(A1 + r)), 1.0), N)
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
