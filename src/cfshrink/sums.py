"""Certified series evaluation: lemma sums and continuant sums.

Everything here returns an Enclosure that is guaranteed to contain the
mathematically exact value.  Heads are finite sums evaluated with directed
rounding.  The lemma-sum tail is midpoint Euler-Maclaurin to third order
(proof in lemma_sum_batch), so its head stops at 256 terms.  The
continuant power sums, n = 1 on the full alphabet (zeta(2s)) included, come
from one evaluator, the envelope iteration of `_transfer`, fronted by
lambda_enclosure.  It reads a bounded, thread-safe functools.lru_cache
table of 4096 certified bounds keyed on (n, float(s), alphabet_max, level
clamped to MAX_LEVEL), which the level-root solver's probes share.  Two
threads that miss on one key may both compute it; the values are
deterministic, so either may stay.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from . import _transfer
from . import rounding as rd
from .errors import ExponentTooSmall
from .ivec import EXP_MIN, dir_const, dn, ipow_neg, tree_sum, up
from .rounding import Enclosure

MAX_LEVEL = _transfer.MAX_LEVEL


def lemma_sum(a: int, t: float, cutoff: int | None = None) -> Enclosure:
    """Enclosure of sum_{b != a} a^t / (b^t |a - b|^t), t > 1/2; see lemma_sum_batch."""
    return lemma_sum_batch([a], t, cutoff)[0]


def lemma_sum_batch(a_values, t: float, cutoff: int | None = None) -> list[Enclosure]:
    """lemma_sum over many a: one table of b^(-t), one vectorized tail.

    The head b <= K (cutoff, by default max(4 max(a), 256); K >= 4a is
    required) is read from the table.  Tail: with c = a/2, x = b - c and
    a0 = K + 1/2 - c, b > K runs over x = a0 + k + 1/2, and on x > c
    g(x) = (b(b-a))^(-t) = (x^2 - c^2)^(-t) = sum_j C_j c^(2j) x^(-p_j),
    p_j = 2t + 2j, C_j = binom(t + j - 1, j) > 0, so g^(k) has sign (-1)^k.
    Midpoint Euler-Maclaurin (Olver, Asymptotics and Special Functions,
    8.1): a cell's midpoint error is int k g'', k = d^2/2 with d the
    distance to the nearer cell end.  Two integrations by parts of k - 1/24
    give sum g = I - D1 - int Q g'''' with I = int_a0^oo g, D1 = -g'(a0)/24
    and the cell-periodic Q = x^4/24 - x^2/48 (x in [0, 1/2], mirrored),
    Q <= 0: the sum is >= I - D1.  Q has mean -7/5760, and two more steps
    for |Q| - 7/5760 (second primitive <= 0, g^(6) >= 0) bound -int Q g''''
    by D3 = -(7/5760) g'''(a0).  Termwise, with u = a0^-2 and y = c^2 u,
    term j is a0^(1-2t) C_j y^j (1/(p-1) - p u/24 + 7 p(p+1)(p+2) u^2/5760).
    The lower bound keeps j < J, each bracket clipped at 0.  The upper adds
    C_j y^j/(p-1) for j >= J (the midpoints of a convex g lie below its
    integral), a series of ratio <= r = max(1, (t+J)/(J+1)) y; K >= 4a gives
    y < 1/49 and J gives r < 1/2, so it is <= C_J y^J/((p_J - 1)(1 - r)).
    Every step rounds outward (dir_const coefficients, dn/up float
    intervals); the subtracted p u/24 takes the other end of u.
    """
    tf = float(t)
    if not math.isfinite(tf):
        raise ValueError(f"t must be finite; got t = {tf}")
    if tf <= 0.5:
        raise ExponentTooSmall(f"sum diverges for t <= 1/2; got t = {tf}")
    a_values = [int(a) for a in a_values]
    if not a_values or min(a_values) < 1:
        raise ValueError("a_values must be a nonempty collection of positive integers")
    K = max(4 * max(a_values), 256) if cutoff is None else int(cutoff)
    if K < 4 * max(a_values):
        raise ValueError("cutoff must be at least 4a")
    # exp(-t ln b) for the head and exp(-(2t - 1) ln a0) for the tail must
    # stay above EXP_MIN; the margin covers the rounding of the exponent
    e_max = -EXP_MIN * (1 - 2**-40)
    t_max = min(e_max / math.log(K), (e_max / math.log(K + 0.5 - min(a_values) / 2) + 1) / 2)
    if tf > t_max:
        raise ValueError(f"t = {tf} is too large for the head K = {K}: "
                         f"the powers stay in range only for t <= {t_max:.6g}")

    b = np.arange(1, K + 1, dtype=np.float64)
    p_lo, p_hi = ipow_neg(b, b, tf)
    head_lo, head_hi = np.empty(len(a_values)), np.empty(len(a_values))
    for i, a in enumerate(a_values):
        # b <= K split at a; the distances |a - b| reuse the same table
        lo = [p_lo[: a - 1] * p_lo[: a - 1][::-1], p_lo[a:] * p_lo[: K - a]]
        hi = [p_hi[: a - 1] * p_hi[: a - 1][::-1], p_hi[a:] * p_hi[: K - a]]
        head_lo[i], head_hi[i] = tree_sum(dn(np.concatenate(lo)), up(np.concatenate(hi)))

    tq, rows, c_j, j = Fraction(tf), [], Fraction(1), 0
    while True:
        p, rho = 2 * tq + 2 * j, max(Fraction(1), (tq + j) / (j + 1))
        if rho < Fraction(49, 2) and 2**61 * c_j * (2 * tq - 1) < 49**j * (p - 1):
            break  # J: r < 1/2 and the rest is below 2^-60 of the first term
        rows.append([dir_const(c_j * v) for v in (
            1 / (p - 1), p / 24, 7 * p * (p + 1) * (p + 2) / 5760)])
        c_j, j = c_j * (tq + j) / (j + 1), j + 1
    a = np.array(a_values, dtype=np.float64)
    a0 = (K + 0.5) - a / 2
    u_lo, u_hi = dn(1 / up(a0 * a0)), up(1 / dn(a0 * a0))
    y_lo, y_hi = dn(dn(a * a / 4) * u_lo), up(up(a * a / 4) * u_hi)
    s_lo, s_hi, yj_lo, yj_hi = 0.0, 0.0, 1.0, 1.0
    for (al, ah), (bl, bh), (_, gh) in rows:
        s_lo = dn(s_lo + dn(yj_lo * np.maximum(dn(al - up(bh * u_hi)), 0.0)))
        s_hi = up(s_hi + up(yj_hi * up(up(ah - dn(bl * u_lo)) + up(gh * up(u_hi * u_hi)))))
        yj_lo, yj_hi = dn(yj_lo * y_lo), up(yj_hi * y_hi)
    rest = up(yj_hi * dir_const(c_j / (p - 1))[1])
    s_hi = up(s_hi + up(rest / dn(1 - up(dir_const(rho)[1] * y_hi))))
    w_lo, w_hi = ipow_neg(a0, a0, 2 * tf - 1)  # a0^(1 - 2t)
    idx = np.array(a_values) - 1  # a^t = 1/a^(-t) from the same table
    lo = dn(dn(1 / p_hi[idx]) * dn(head_lo + dn(w_lo * s_lo)))
    hi = up(up(1 / p_lo[idx]) * up(head_hi + up(w_hi * s_hi)))
    return [rd.from_f64(x, y) for x, y in zip(lo.tolist(), hi.tolist())]


# ---------------------------------------------------------------------------
# continuant power sums (envelope iteration)


def _layout(level: int, alphabet_max: int | None) -> _transfer.Layout:
    return _transfer.make_layout(
        level, None if alphabet_max is None else range(1, alphabet_max + 1))


def _convergent_s(s, alphabet_max) -> float:
    """float(s), or ExponentTooSmall where the full-alphabet sum diverges."""
    sf = float(s)
    if sf <= 0.5 and alphabet_max is None:
        raise ExponentTooSmall(f"full-alphabet sum diverges for s <= 1/2; got {sf}")
    return sf


def lambda_enclosure(
    n: int, s: float, *, alphabet_max: int | None = None, level: int = 1
) -> Enclosure:
    """Certified enclosure of sum_w q_n(w)^(-2s), w over {1..alphabet_max}^n
    (the full alphabet when alphabet_max is None).  The width shrinks as
    level grows (0..MAX_LEVEL); higher levels use MAX_LEVEL.
    """
    sf = _convergent_s(s, alphabet_max)
    return rd.from_f64(*_lambda_bounds(n, sf, alphabet_max, min(level, MAX_LEVEL)))


# one entry is two floats; a full-roots pass stores about a hundred
@functools.lru_cache(maxsize=4096)
def _lambda_bounds(n: int, s: float, alphabet_max: int | None, level: int) -> tuple:
    return _transfer.apply_power(n, 2.0 * s, _layout(level, alphabet_max))

