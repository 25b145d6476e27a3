"""The J-interval bounds of F_n inside one (n+1)-cylinder, kept as an oracle.

`j_interval_bounds` tags each (n+1)-cylinder by |a1(z_n) - a_{n+1}| (EQUAL
for 0, ADJACENT for 1, FAR above), bounds the length of the hit set inside
it from both sides, and covers it by exact tail intervals (J-balls around
Tz_n, clipped to [0, 1] by `_clip_ball`).  The tests check
`shrink.extremal_interval` against these bounds and covers, and the
witness's fundamental intervals against the covers.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from cfshrink.cf_core import Word, continuants, cylinder
from cfshrink.errors import Inapplicable
from cfshrink.shrink import _b_pow_half, _check_base, _map_piece, _sign
from cfshrink.targets import TargetSpec, first_digit, z_value

FAR = "FAR"
ADJACENT = "ADJACENT"
EQUAL = "EQUAL"


@dataclass(frozen=True)
class JIntervalBound:
    """Length bounds and tail-space cover of F_n inside one (n+1)-cylinder.

    upper_len bounds each emitted piece from above; lower_len bounds the
    guaranteed contained interval (0 in the two-piece adjacent case, where
    none is derived).  cover_ts are exact tail intervals whose Moebius
    images cover F_n within the cylinder.
    """

    prefix: Word
    next_digit: int
    case: str
    n: int
    B: object
    a1z: int
    upper_len: object
    lower_len: object
    pieces: int
    cover_ts: tuple
    degenerate: bool = False

    def cover_intervals(self) -> tuple:
        """Exact x-space cover pieces, each as an ordered (lo, hi) pair."""
        word = self.prefix + (self.next_digit,)
        return tuple(_map_piece(word, t0, t1) for (t0, t1) in self.cover_ts)


def _clip_ball(center, radius) -> tuple:
    """[center - radius, center + radius] clipped to [0, 1], or None.

    An end at or past 0 or 1 becomes the exact Fraction(0) or Fraction(1),
    never a zero-valued Quad."""
    lo = center - radius
    hi = center + radius
    if _sign(lo) <= 0:
        lo = Fraction(0)
    if _sign(hi - 1) >= 0:
        hi = Fraction(1)
    if _sign(hi - lo) <= 0:
        return None
    return (lo, hi)


def j_interval_bounds(prefix: Word, a_next: int, spec: TargetSpec, B, n: int) -> JIntervalBound:
    """Case tag, length bounds and tail cover for F_n cap I_{n+1}(prefix, a_next)."""
    prefix = tuple(prefix)
    if len(prefix) != n or n < 1:
        raise ValueError("prefix length must equal the level n >= 1")
    _check_base(B)
    if a_next < 1:
        raise ValueError("next digit must be a positive integer")
    a1z = first_digit(spec, n)
    if a1z == math.inf:
        raise Inapplicable("z_n = 0: the cover runs through the first branch, "
                           "no J-interval normal form exists")
    _, _, tz = z_value(spec, n)
    c = continuants(prefix)
    qn = c.q(n)
    q2 = qn * qn
    Bn = Fraction(B) ** n
    delta = abs(a1z - a_next)

    if delta == 0:
        half = _b_pow_half(B, n)
        upper = 2 * half / (q2 * a1z)
        lower = half / (4 * q2 * a1z)
        ball = _clip_ball(tz, 2 * a1z * half)
        return JIntervalBound(prefix, a_next, EQUAL, n, B, a1z, upper, lower,
                              1, (ball,) if ball else ())

    if delta == 1:
        radius = Fraction(8 * a1z * a_next) / Bn
        if 2 * radius >= 1:
            cyl = cylinder(prefix + (a_next,)).length
            return JIntervalBound(prefix, a_next, ADJACENT, n, B, a1z, cyl, cyl,
                                  1, ((Fraction(0), Fraction(1)),), degenerate=True)
        upper = Fraction(16 * a1z, q2 * a_next) / Bn
        ts = []
        ball = _clip_ball(tz, radius)
        if ball:
            ts.append(ball)
        left_end = tz - 1 + radius
        if left_end > 0:
            ts.append((Fraction(0), left_end))
        right_end = tz + 1 - radius
        if right_end < 1:
            ts.append((right_end, Fraction(1)))
        return JIntervalBound(prefix, a_next, ADJACENT, n, B, a1z, upper,
                              Fraction(0), len(ts), tuple(sorted(ts)))

    upper = Fraction(16 * a1z, q2 * a_next * delta) / Bn
    lower = Fraction(a1z, 16 * q2 * a_next * delta) / Bn
    radius = Fraction(8 * a1z * a_next, delta) / Bn
    ball = _clip_ball(tz, radius)
    return JIntervalBound(prefix, a_next, FAR, n, B, a1z, upper, lower,
                          1, (ball,) if ball else ())
