"""Certified evaluation of continuant power sums by envelope iteration.

The identity q_n(a_1..a_n) = prod_k (a_k + r_{k-1}), with r_k the value of
the reversed prefix [0; a_k, ..., a_1], turns

    S_n(t) = sum over words of q_n^{-t}

into (L^n f)(0) for the weighted shift (Lf)(r) = sum_a (a+r)^{-t} f(1/(a+r))
and f = 1.  This module iterates rigorous upper/lower envelopes of L^k f
over a uniform binning of r in [0,1], with digits grouped into cells
(singletons, dyadic blocks, one analytic tail cell), every step in
outward-rounded float64.  The result is a certified two-sided bound whose
width shrinks as the layout is refined.

Seeded variants evaluate (L^n f)(0) for other nonnegative f, which is what
the pressure estimates need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ivec import dn, ipow_neg, up

# escalation table: (bins, singleton digits, dyadic blocks)
_LEVELS = [
    (256, 32, 12),
    (1024, 64, 14),
    (4096, 128, 17),
    (8192, 256, 20),
]
MAX_LEVEL = len(_LEVELS) - 1


@dataclass(frozen=True)
class Layout:
    """Bin grid on [0,1] plus the digit cells of the alphabet."""

    nbins: int
    cells: tuple[tuple[int, int], ...]  # (A1, A2); A2 = 0 means infinite
    amax: int | None

    @property
    def edges(self) -> np.ndarray:
        """The nbins + 1 bin edges j/nbins, exact because nbins is a power of 2."""
        return np.arange(self.nbins + 1) / self.nbins

    @property
    def r_lo(self) -> np.ndarray:
        return self.edges[:-1]

    @property
    def r_hi(self) -> np.ndarray:
        return self.edges[1:]


def make_layout(level: int = 1, amax: int | None = None) -> Layout:
    nbins, a0, ndyad = _LEVELS[min(level, MAX_LEVEL)]
    if nbins < 1 or nbins & (nbins - 1):
        raise ValueError(f"bin count {nbins} is not a power of 2, so j/nbins is inexact")
    cells: list[tuple[int, int]] = []
    if amax is None:
        cells += [(a, a) for a in range(1, a0 + 1)]
        A = a0
        for _ in range(ndyad):
            cells.append((A + 1, 2 * A))
            A *= 2
        cells.append((A + 1, 0))
    else:
        cells += [(a, a) for a in range(1, min(a0, amax) + 1)]
        A = min(a0, amax)
        while A < amax:
            nxt = min(2 * A, amax)
            cells.append((A + 1, nxt))
            A = nxt
    return Layout(nbins, tuple(cells), amax)


def _integral_tail(x, clo, chi, t):
    """Enclosure of int_x^inf (y+c)^{-t} dy = (x+c)^{1-t}/(t-1)."""
    tm1 = t - 1.0
    blo, bhi = dn(x + clo), up(x + chi)
    plo, phi = ipow_neg(blo, bhi, tm1)
    return dn(plo / tm1), up(phi / tm1)


def _cell_sum(A1, A2, c, t):
    """Enclosure of sum_{a=A1..A2} (a+c)^{-t} at exact c >= 0; A2=None -> inf.

    Midpoint rule: the sum lies in [I - C, I] with I the integral over
    [A1-1/2, A2+1/2] and C = (|g'| + g'')(A1-1/2)/24, g(x) = (x+c)^{-t}.
    A1, A2 and c broadcast against each other; every element is computed
    as it would be alone.
    """
    c = np.asarray(c, dtype=np.float64)
    a_lo = A1 - 0.5
    i_lo, i_hi = _integral_tail(a_lo, c, c, t)
    if A2 is not None:
        j_lo, j_hi = _integral_tail(A2 + 0.5, c, c, t)
        i_lo, i_hi = dn(i_lo - j_hi), up(i_hi - j_lo)
    blo, bhi = dn(a_lo + c), up(a_lo + c)
    g1 = up(t * ipow_neg(blo, bhi, t + 1.0)[1])
    g2 = up(t * (t + 1.0) * ipow_neg(blo, bhi, t + 2.0)[1])
    corr = up(up(g1 + g2) / 24.0)
    return np.maximum(dn(i_lo - corr), 0.0), i_hi


def _singleton_weight(A1, A2, c, t):
    """Enclosure of (A1 + c)^{-t}; A2 = A1 is not read."""
    return ipow_neg(dn(A1 + c), up(A1 + c), t)


def _tail_weight(A1, A2, c, t):
    """Enclosure of sum_{a >= A1} (a + c)^{-t}; A2 = 0 is not read."""
    return _cell_sum(A1, None, c, t)


# elements per batched kernel call: bounds the kernels' temporaries
_CHUNK = 8192


def _cell_weights(layout, t, r):
    """Weight enclosures (lo, hi) of every cell at every exact r, shape (cells, r).

    Singleton cells, finite dyadic blocks and the infinite tail cell are
    each evaluated by one kernel over (cells x r), in row chunks of about
    _CHUNK elements.  Every element is computed exactly as it would be on
    its own, so the bounds do not depend on the batching.
    """
    cells = np.array(layout.cells, dtype=np.float64)
    A1, A2 = cells[:, :1], cells[:, 1:]
    single = cells[:, 0] == cells[:, 1]
    tail = cells[:, 1] == 0
    groups = (
        (np.flatnonzero(single), _singleton_weight),
        (np.flatnonzero(~single & ~tail), _cell_sum),
        (np.flatnonzero(tail), _tail_weight),
    )
    lo = np.empty((len(cells), r.size))
    hi = np.empty_like(lo)
    step = max(1, round(_CHUNK / r.size))
    for rows, weight in groups:
        for k in range(0, rows.size, step):
            sel = rows[k : k + step]
            lo[sel], hi[sel] = weight(A1[sel], A2[sel], r, t)
    return lo, hi


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


def apply_power(n, t, layout, seed=None):
    """Certified (lo, hi) of (L^n f)(0); f = 1 unless a seed envelope is given.

    seed: optional (lo_arr, hi_arr) with per-bin bounds of f over each bin.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    N = layout.nbins
    if seed is None:
        U = np.ones(N)
        L = np.ones(N)
    else:
        L, U = np.asarray(seed[0], float), np.asarray(seed[1], float)

    # weights at the bin edges; each cell's weight is decreasing in r, so
    # bin i gets lo from its right edge and hi from its left edge
    edges = layout.edges if n > 1 else np.zeros(1)
    e_lo, e_hi = _cell_weights(layout, t, edges)

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

    # final application at r = 0 exactly: edge column 0
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


def _block_mid_weight(A1, A2, r, t):
    f1 = (A1 - 0.5 + r) ** (1.0 - t)
    if A2 == 0:
        return f1 / (t - 1.0)
    return (f1 - (A2 + 0.5 + r) ** (1.0 - t)) / (t - 1.0)


def apply_power_estimate(n, t, layout, seed_mid=None):
    """Fast midpoint estimate of (L^n f)(0).  NOT certified; used only to
    localize roots before the enclosure machinery confirms them."""
    if n < 1:
        raise ValueError("need n >= 1")
    N = layout.nbins
    r = (np.arange(N) + 0.5) / N
    U = np.ones(N) if seed_mid is None else np.asarray(seed_mid, float)

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
