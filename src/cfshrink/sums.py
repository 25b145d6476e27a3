"""Certified series evaluation: digit weights, zeta heads, continuant sums.

Everything here returns an Enclosure that is guaranteed to contain the
mathematically exact value.  Heads are finite sums evaluated with directed
rounding; tails are closed-form integral comparisons, also directed.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _transfer
from . import rounding as rd
from .errors import BudgetExceeded, CutoffTooSmall, ExponentTooSmall
from .ivec import dn, ipow_neg, tree_sum, up
from .rounding import Enclosure, enclose

PRE1 = "PRE1"
PRE2 = "PRE2"
PRE3 = "PRE3"

MAX_LEVEL = _transfer.MAX_LEVEL

# words enumerated exactly; M**n capped to keep memory sane
_HEAD_BUDGET = 40_000_000


@dataclass(frozen=True)
class WeightSpec:
    """Digit-independent term weight for the three pre-dimensional sums.

    PRE1: B^(-n s^2);  PRE2: a1z^(1-s) B^(-n s);  PRE3: a1z^(-s) B^(-n s/2).
    a1z is the first digit of the shrunk target, possibly +inf (in which
    case the weight is conventional and must never reach weight_enclosure).
    """

    kind: str
    B: int | Fraction
    n: int
    s: float | Fraction
    a1z: int | float | None = None

    def __post_init__(self):
        if self.kind not in (PRE1, PRE2, PRE3):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if Fraction(self.B) < 1:
            raise ValueError("growth base must be >= 1")
        if self.n < 1:
            raise ValueError("level must be >= 1")
        if self.kind != PRE1:
            if self.a1z is None:
                raise ValueError(f"{self.kind} needs a1z")
            if self.a1z != math.inf and int(self.a1z) < 1:
                raise ValueError("a1z must be a positive digit or +inf")


def weight_enclosure(w: WeightSpec, prec: int = rd.PREC) -> Enclosure:
    s = Fraction(w.s)
    base = enclose(Fraction(w.B), prec)
    if w.kind == PRE1:
        return rd.powr(base, enclose(-w.n * s * s, prec), prec)
    if w.a1z == math.inf:
        raise ValueError("a1z = +inf weights are conventional and never summed")
    a1 = enclose(int(w.a1z), prec)
    if w.kind == PRE2:
        return rd.mul(
            rd.powr(a1, enclose(1 - s, prec), prec),
            rd.powr(base, enclose(-w.n * s, prec), prec),
            prec,
        )
    return rd.mul(
        rd.powr(a1, enclose(-s, prec), prec),
        rd.powr(base, enclose(Fraction(-w.n, 2) * s, prec), prec),
        prec,
    )


def _power_tail(K: int, two_s: Fraction) -> Enclosure:
    """Enclosure of sum_{b > K} b^(-2s) by the midpoint rule.

    The tail lies in [I - C, I] with I = (K + 1/2)^(1-2s)/(2s - 1) and
    C = (|g'| + g'')(K + 1/2)/24 for g(x) = x^(-2s); in particular it
    sits inside the crude [0, K^(1-2s)/(2s-1)].
    """
    x0 = enclose(Fraction(2 * K + 1, 2))
    denom = enclose(two_s - 1)
    big_i = rd.div(rd.powr(x0, enclose(1 - two_s)), denom)
    g1 = rd.mul(enclose(two_s), rd.powr(x0, enclose(-two_s - 1)))
    g2 = rd.mul(rd.mul(enclose(two_s), enclose(two_s + 1)), rd.powr(x0, enclose(-two_s - 2)))
    corr = rd.div(rd.add(g1, g2), enclose(24))
    lo = rd.sub(big_i, corr).lo
    zero = enclose(0).lo
    if lo < zero:
        lo = zero
    return Enclosure(lo, big_i.hi)


def zeta_enclosure(s: float, K: int) -> Enclosure:
    """Enclosure of zeta(2s), exact head to K plus certified tail."""
    sf = float(s)
    if sf <= 0.5:
        raise ExponentTooSmall(f"zeta(2s) diverges for s <= 1/2; got s = {sf}")
    if K < 2:
        raise ValueError("head length K must be >= 2")
    b = np.arange(1, K + 1, dtype=np.float64)
    lo, hi = ipow_neg(b, b, 2.0 * sf)
    head = rd.from_f64(*tree_sum(lo, hi))
    return rd.add(head, _power_tail(K, 2 * Fraction(sf)))


def _zeta_head(s: float, M: int) -> Enclosure:
    b = np.arange(1, M + 1, dtype=np.float64)
    lo, hi = ipow_neg(b, b, 2.0 * float(s))
    return rd.from_f64(*tree_sum(lo, hi))


def lemma_sum(a: int, t: float, cutoff: int = 100_000) -> Enclosure:
    """Enclosure of sum_{b != a} a^t / (b^t |a - b|^t); needs t > 1/2."""
    return lemma_sum_batch([a], t, cutoff)[0]


def lemma_sum_batch(a_values, t: float, cutoff: int = 100_000) -> list[Enclosure]:
    """lemma_sum over many a with one shared digit-power table."""
    tf = float(t)
    if tf <= 0.5:
        raise ExponentTooSmall(f"sum diverges for t <= 1/2; got t = {tf}")
    a_values = [int(a) for a in a_values]
    if min(a_values) < 1:
        raise ValueError("a must be a positive integer")
    K = int(cutoff)
    if K < 4 * max(a_values):
        raise ValueError("cutoff must be at least 4a")

    b = np.arange(1, K + 1, dtype=np.float64)
    p_lo, p_hi = ipow_neg(b, b, tf)
    t_frac = Fraction(tf)
    e_tail = enclose(1 - 2 * t_frac)
    denom = enclose(2 * t_frac - 1)

    out = []
    for a in a_values:
        # head: b <= K, split at a; distances reuse the same power table
        lo_left = np.multiply(p_lo[: a - 1], p_lo[: a - 1][::-1])
        hi_left = np.multiply(p_hi[: a - 1], p_hi[: a - 1][::-1])
        lo_right = np.multiply(p_lo[a:], p_lo[: K - a])
        hi_right = np.multiply(p_hi[a:], p_hi[: K - a])
        head_lo = dn(np.concatenate([lo_left, lo_right]))
        head_hi = up(np.concatenate([hi_left, hi_right]))
        head = rd.from_f64(*tree_sum(head_lo, head_hi))

        # tail over b > K: x(x-a) = (x - a/2)^2 - (a/2)^2 gives the two-sided
        # comparison with h(x) = (x - a/2)^(-2t)
        half_a = Fraction(a, 2)
        t_lo = rd.div(rd.powr(enclose(K + 1 - half_a), e_tail), denom)
        u = half_a**2 / Fraction(K - half_a) ** 2
        c_k = rd.powr(enclose(1 - u), enclose(-t_frac))
        t_hi = rd.mul(c_k, rd.div(rd.powr(enclose(K - half_a), e_tail), denom))
        tail = Enclosure(t_lo.lo, t_hi.hi)

        a_pow = rd.powr(enclose(a), enclose(t_frac))
        out.append(rd.mul(a_pow, rd.add(head, tail)))
    return out


# ---------------------------------------------------------------------------
# exact-head continuant sums

_DP_SLOT: dict = {}
_HEAD_CACHE: dict = {}


def _q_arrays(k: int, M: int):
    """Continuant pairs (q_k, q_{k-1}) over all words in {1..M}^k.

    Enumeration order is fixed (last digit major at every extension), so
    downstream reductions are reproducible.
    """
    key = (k, M)
    if _DP_SLOT.get("key") == key:
        return _DP_SLOT["val"]
    Q = np.ones(1, dtype=np.int64)
    P = np.zeros(1, dtype=np.int64)
    for _ in range(k):
        digs = np.repeat(np.arange(1, M + 1, dtype=np.int64), Q.size)
        Qt = np.tile(Q, M)
        Q, P = digs * Qt + np.tile(P, M), Qt
    _DP_SLOT["key"] = key
    _DP_SLOT["val"] = (Q, P)
    return Q, P


def _head_chunk(args):
    q, t = args
    lo, hi = ipow_neg(q, q, t)
    return tree_sum(lo, hi)


def _lambda_head(n: int, s: float, M: int, threads: int = 1) -> Enclosure:
    """Certified sum of q_n(w)^(-2s) over words w in {1..M}^n.

    Continuants are exact int64 (and below 2^53, so the float64 image is
    exact too); only the powers and the reduction carry rounding.  The
    chunking is by final digit, never by thread count, so results are
    bit-identical however many workers run.
    """
    key = (n, float(s), M)
    if key in _HEAD_CACHE:
        return _HEAD_CACHE[key]
    if (M + 1) ** n >= 2**53:
        raise BudgetExceeded("continuants would exceed exact float64 range")
    if M**n > _HEAD_BUDGET:
        raise BudgetExceeded(f"head enumeration {M}^{n} exceeds budget")
    Q, P = _q_arrays(n - 1, M)
    t = 2.0 * float(s)
    jobs = [((a * Q + P).astype(np.float64), t) for a in range(1, M + 1)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            parts = list(ex.map(_head_chunk, jobs))
    else:
        parts = [_head_chunk(j) for j in jobs]
    total = rd.from_f64(*parts[0])
    for p in parts[1:]:
        total = rd.add(total, rd.from_f64(*p))
    _HEAD_CACHE[key] = total
    return total


def continuant_sum_enclosure(
    n: int,
    s: float,
    w: WeightSpec | None = None,
    M: int = 64,
    *,
    margin: float = 0.01,
    rel_width_cap: float | None = None,
    threads: int = 1,
    zeta_head: int = 4096,
) -> Enclosure:
    """Enclosure of sum over all words in N^n of weight * q_n(w)^(-2s).

    Exact head over {1..M}^n; the remainder (some digit > M) is bounded
    above by zeta(2s)^n - zeta_M(2s)^n via q_n >= prod a_i, below by 0.
    w = None means weight 1.
    """
    sf = float(s)
    if sf <= 0.5 + margin:
        raise ExponentTooSmall(
            f"s = {sf} is within margin {margin} of the divergence point 1/2"
        )
    if n < 1 or M < 1:
        raise ValueError("need n >= 1 and M >= 1")
    if w is not None and w.n != n:
        raise ValueError("WeightSpec level disagrees with n")

    head = _lambda_head(n, sf, M, threads=threads)
    z = zeta_enclosure(sf, max(zeta_head, M + 1))
    z_m = _zeta_head(sf, M)
    diff = rd.sub(rd.pow_int(z, n), rd.pow_int(z_m, n))
    zero = enclose(0)
    tail_hi = diff.hi if diff.hi > zero.hi else zero.hi
    tail = Enclosure(zero.lo, tail_hi)

    if rel_width_cap is not None and tail.hi_float > rel_width_cap * head.lo_float:
        raise CutoffTooSmall(
            f"tail bound {tail.hi_float:.3g} exceeds {rel_width_cap} of the head"
        )
    lam = rd.add(head, tail)
    if w is None:
        return lam
    return rd.mul(weight_enclosure(w), lam)


# ---------------------------------------------------------------------------
# sharp evaluator (envelope iteration) for the same sums

_LAMBDA_CACHE: dict = {}


def lambda_enclosure(
    n: int, s: float, *, alphabet_max: int | None = None, level: int = 1
) -> Enclosure:
    """Certified enclosure of sum_w q_n(w)^(-2s), w over {1..alphabet_max}^n
    (the full alphabet when alphabet_max is None).  Much tighter than the
    zeta-tail route for small s; width shrinks as level grows (0..MAX_LEVEL).
    """
    sf = float(s)
    if sf <= 0.5 and alphabet_max is None:
        raise ExponentTooSmall(f"full-alphabet sum diverges for s <= 1/2; got {sf}")
    key = (n, sf, alphabet_max, level)
    if key not in _LAMBDA_CACHE:
        layout = _transfer.make_layout(level, amax=alphabet_max)
        _LAMBDA_CACHE[key] = _transfer.apply_power(n, 2.0 * sf, layout)
    return rd.from_f64(*_LAMBDA_CACHE[key])


def lambda_estimate(
    n: int, s: float, *, alphabet_max: int | None = None, level: int = 1
) -> float:
    """Fast point estimate of the continuant power sum (not certified)."""
    key = ("est", n, float(s), alphabet_max, level)
    if key not in _LAMBDA_CACHE:
        layout = _transfer.make_layout(level, amax=alphabet_max)
        _LAMBDA_CACHE[key] = _transfer.apply_power_estimate(n, 2.0 * float(s), layout)
    return _LAMBDA_CACHE[key]


def continuant_sum_tight(
    n: int,
    s: float,
    w: WeightSpec | None = None,
    *,
    alphabet_max: int | None = None,
    level: int = 1,
) -> Enclosure:
    """Weighted continuant sum via the envelope evaluator."""
    if w is not None and w.n != n:
        raise ValueError("WeightSpec level disagrees with n")
    lam = lambda_enclosure(n, s, alphabet_max=alphabet_max, level=level)
    if w is None:
        return lam
    return rd.mul(weight_enclosure(w), lam)
