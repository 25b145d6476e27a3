"""Certified series evaluation: zeta heads, lemma sums, continuant sums.

Everything here returns an Enclosure that is guaranteed to contain the
mathematically exact value.  Heads are finite sums evaluated with directed
rounding; tails are closed-form integral comparisons, also directed.  The
continuant power sums come from one evaluator, the envelope iteration of
`_transfer`, fronted by lambda_enclosure and lambda_estimate.  At n = 1 on
the full alphabet that sum is zeta(2s), and zeta_enclosure (head plus tail)
is far sharper than the envelope (width about 3e-11 against 3e-7 at level 2
near s = 0.79); the level roots use it there.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from fractions import Fraction

import numpy as np

from . import _transfer
from . import rounding as rd
from .errors import ExponentTooSmall
from .ivec import dn, ipow_neg, tree_sum, up
from .rounding import Enclosure, enclose

MAX_LEVEL = _transfer.MAX_LEVEL


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
    return rd.add(_zeta_head(sf, K), _power_tail(K, 2 * Fraction(sf)))


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
# continuant power sums (envelope iteration)


class BoundedCache:
    """Least-recently-used map of at most maxsize entries, shared across threads.

    A lock guards every lookup and insertion.  get_or_compute runs compute
    outside the lock, so two threads that miss on one key may both compute
    it; the cached values are deterministic, so either result may stay.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._data

    def get_or_compute(self, key, compute):
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                return self._data[key]
        value = compute()
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
        return value


# one entry is two floats; a full-roots pass stores about a hundred
_LAMBDA_CACHE = BoundedCache(4096)


def _layout(level: int, alphabet_max: int | None) -> _transfer.Layout:
    return _transfer.make_layout(
        level, None if alphabet_max is None else range(1, alphabet_max + 1))


def lambda_enclosure(
    n: int, s: float, *, alphabet_max: int | None = None, level: int = 1
) -> Enclosure:
    """Certified enclosure of sum_w q_n(w)^(-2s), w over {1..alphabet_max}^n
    (the full alphabet when alphabet_max is None).  The width shrinks as
    level grows (0..MAX_LEVEL); higher levels use MAX_LEVEL.
    """
    sf = float(s)
    if sf <= 0.5 and alphabet_max is None:
        raise ExponentTooSmall(f"full-alphabet sum diverges for s <= 1/2; got {sf}")
    level = min(level, MAX_LEVEL)
    return rd.from_f64(*_LAMBDA_CACHE.get_or_compute(
        (n, sf, alphabet_max, level),
        lambda: _transfer.apply_power(n, 2.0 * sf, _layout(level, alphabet_max)),
    ))


def lambda_estimate(
    n: int, s: float, *, alphabet_max: int | None = None, level: int = 1
) -> float:
    """Fast point estimate of the continuant power sum (not certified)."""
    sf = float(s)
    level = min(level, MAX_LEVEL)
    return _LAMBDA_CACHE.get_or_compute(
        ("est", n, sf, alphabet_max, level),
        lambda: _transfer.apply_power_estimate(n, 2.0 * sf, _layout(level, alphabet_max)),
    )
