"""Directed-rounding scalar enclosures.

An :class:`Enclosure` is a pair lo <= hi of binary floats (arbitrary
precision) such that the exact real value of the computation it tracks is
guaranteed to lie in [lo, hi].  Every operation rounds lo toward -inf and
hi toward +inf.

Field operations come from mpmath's low-level mpf layer, which computes
exactly and then rounds, so a single call is correctly rounded.  exp and
log are only accurate to ~1 ulp there, hence the extra outward nudge.
All functions are pure; precision is passed explicitly (no global state),
so results are deterministic and thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import make_mpf, mpf
from mpmath.libmp import (
    from_float,
    from_int,
    from_man_exp,
    from_rational,
    fone,
    fzero,
    mpf_add,
    mpf_cmp,
    mpf_div,
    mpf_exp,
    mpf_log,
    mpf_mul,
    mpf_neg,
    mpf_sqrt,
    mpf_sub,
    to_float,
)

PREC = 128  # default mantissa bits
_DOWN = "f"  # toward -inf
_UP = "c"  # toward +inf

# ulps of outward slack applied to transcendental results; mpmath's exp/log
# are computed with guard bits and are well within 1 ulp of correct rounding
_TRANS_SLACK = 2


def _ulp(t, prec):
    """One ulp of t at the given precision, as a positive raw mpf."""
    sign, man, exp, bc = t
    if man == 0:
        # zero has no scale; fall back to a far-subnormal step
        return from_man_exp(1, -4 * prec)
    return from_man_exp(1, exp + bc - prec)


def _nudge_down(t, prec, k):
    return mpf_sub(t, from_man_exp(k, _ulp(t, prec)[2]), prec, _DOWN)


def _nudge_up(t, prec, k):
    return mpf_add(t, from_man_exp(k, _ulp(t, prec)[2]), prec, _UP)


def _cmp_frac(t, fr):
    """Exact comparison of a raw mpf with a Fraction: -1, 0 or 1."""
    sign, man, exp, bc = t
    if man == 0 and exp == 0:
        num = 0
    else:
        num = -man if sign else man
    p, q = fr.numerator, fr.denominator
    # compare num*2^exp with p/q  <=>  num*2^exp*q with p
    if exp >= 0:
        lhs, rhs = num * (1 << exp) * q, p
    else:
        lhs, rhs = num * q, p * (1 << -exp)
    return (lhs > rhs) - (lhs < rhs)


def raw_fraction(t) -> Fraction:
    """Exact rational value of a finite raw mpf."""
    sign, man, exp, bc = t
    fr = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return -fr if sign else fr


@dataclass(frozen=True)
class Enclosure:
    """Certified interval [lo, hi] containing an exact real value."""

    lo: mpf
    hi: mpf

    def __post_init__(self):
        if mpf_cmp(self.lo._mpf_, self.hi._mpf_) > 0:
            raise ValueError(f"enclosure bounds out of order: {self.lo} > {self.hi}")

    # -- views ---------------------------------------------------------

    @property
    def lo_float(self) -> float:
        return to_float(self.lo._mpf_, rnd=_DOWN)

    @property
    def hi_float(self) -> float:
        return to_float(self.hi._mpf_, rnd=_UP)

    @property
    def width_float(self) -> float:
        return to_float(mpf_sub(self.hi._mpf_, self.lo._mpf_, 64, _UP), rnd=_UP)

    @property
    def mid_float(self) -> float:
        return (self.lo_float + self.hi_float) / 2.0

    def __repr__(self):
        return f"Enclosure[{self.lo_float!r}, {self.hi_float!r}]"

    # -- exact queries ---------------------------------------------------

    def certified_le(self, x) -> bool:
        """True only if the enclosed value is certainly <= x."""
        return _cmp_frac(self.hi._mpf_, Fraction(x)) <= 0

    def certified_ge(self, x) -> bool:
        return _cmp_frac(self.lo._mpf_, Fraction(x)) >= 0

    def certified_lt(self, x) -> bool:
        return _cmp_frac(self.hi._mpf_, Fraction(x)) < 0

    def certified_gt(self, x) -> bool:
        return _cmp_frac(self.lo._mpf_, Fraction(x)) > 0


def _mk(lot, hit) -> Enclosure:
    return Enclosure(make_mpf(lot), make_mpf(hit))


def enclose(x, prec: int = PREC) -> Enclosure:
    """Tightest enclosure of an int, float, Fraction or mpf at prec.

    Exact (zero-width) whenever x is a dyadic rational.
    """
    if isinstance(x, Enclosure):
        return x
    if isinstance(x, mpf):
        return Enclosure(x, x)
    if isinstance(x, int):
        t = from_int(x)  # exact, unnormalized precision
        return _mk(t, t)
    if isinstance(x, float):
        t = from_float(x)
        return _mk(t, t)
    if isinstance(x, Fraction):
        q = x.denominator
        if q & (q - 1) == 0:  # dyadic: exactly representable
            t = from_man_exp(x.numerator, -(q.bit_length() - 1))
            return _mk(t, t)
        return _mk(
            from_rational(x.numerator, q, prec, _DOWN),
            from_rational(x.numerator, q, prec, _UP),
        )
    raise TypeError(f"cannot enclose {type(x).__name__}")


def from_f64(lo: float, hi: float) -> Enclosure:
    """Exact lift of a float64 interval."""
    return _mk(from_float(lo), from_float(hi))


def to_f64(e: Enclosure) -> tuple[float, float]:
    """Directed demotion to a float64 interval."""
    return e.lo_float, e.hi_float


def neg(a: Enclosure) -> Enclosure:
    return _mk(mpf_neg(a.hi._mpf_), mpf_neg(a.lo._mpf_))


def add(a: Enclosure, b: Enclosure, prec: int = PREC) -> Enclosure:
    return _mk(
        mpf_add(a.lo._mpf_, b.lo._mpf_, prec, _DOWN),
        mpf_add(a.hi._mpf_, b.hi._mpf_, prec, _UP),
    )


def sub(a: Enclosure, b: Enclosure, prec: int = PREC) -> Enclosure:
    return _mk(
        mpf_sub(a.lo._mpf_, b.hi._mpf_, prec, _DOWN),
        mpf_sub(a.hi._mpf_, b.lo._mpf_, prec, _UP),
    )


def _corner_hull(op, a: Enclosure, b: Enclosure, prec: int) -> Enclosure:
    """Outward hull of op over the four endpoint pairs of a and b."""
    pairs = (
        (a.lo._mpf_, b.lo._mpf_),
        (a.lo._mpf_, b.hi._mpf_),
        (a.hi._mpf_, b.lo._mpf_),
        (a.hi._mpf_, b.hi._mpf_),
    )
    los = [op(x, y, prec, _DOWN) for x, y in pairs]
    his = [op(x, y, prec, _UP) for x, y in pairs]
    lo = los[0]
    for t in los[1:]:
        if mpf_cmp(t, lo) < 0:
            lo = t
    hi = his[0]
    for t in his[1:]:
        if mpf_cmp(t, hi) > 0:
            hi = t
    return _mk(lo, hi)


def mul(a: Enclosure, b: Enclosure, prec: int = PREC) -> Enclosure:
    return _corner_hull(mpf_mul, a, b, prec)


def div(a: Enclosure, b: Enclosure, prec: int = PREC) -> Enclosure:
    if b.lo <= 0 <= b.hi:
        raise ZeroDivisionError("divisor enclosure contains zero")
    return _corner_hull(mpf_div, a, b, prec)


def sqrt_(a: Enclosure, prec: int = PREC) -> Enclosure:
    if a.lo < 0:
        raise ValueError("sqrt of an enclosure reaching below zero")
    lo = mpf_sqrt(a.lo._mpf_, prec, _DOWN)
    hi = mpf_sqrt(a.hi._mpf_, prec, _UP)
    # mpf_sqrt is correctly rounded, but one ulp of slack is cheap insurance
    if lo != fzero:
        lo = _nudge_down(lo, prec, 1)
        if mpf_cmp(lo, fzero) < 0:
            lo = fzero
    hi = _nudge_up(hi, prec, 1)
    return _mk(lo, hi)


def exp_(a: Enclosure, prec: int = PREC) -> Enclosure:
    if a.lo._mpf_ == fzero:
        lo = fone
    else:
        lo = _nudge_down(mpf_exp(a.lo._mpf_, prec, _DOWN), prec, _TRANS_SLACK)
    if a.hi._mpf_ == fzero:
        hi = fone
    else:
        hi = _nudge_up(mpf_exp(a.hi._mpf_, prec, _UP), prec, _TRANS_SLACK)
    return _mk(lo, hi)


def log_(a: Enclosure, prec: int = PREC) -> Enclosure:
    if a.lo <= 0:
        raise ValueError("log of an enclosure reaching below zero")
    if a.lo._mpf_ == fone:
        lo = fzero
    else:
        lo = _nudge_down(mpf_log(a.lo._mpf_, prec, _DOWN), prec, _TRANS_SLACK)
    if a.hi._mpf_ == fone:
        hi = fzero
    else:
        hi = _nudge_up(mpf_log(a.hi._mpf_, prec, _UP), prec, _TRANS_SLACK)
    return _mk(lo, hi)


def pow_int(a: Enclosure, k: int, prec: int = PREC) -> Enclosure:
    """a**k by interval squaring; k any integer."""
    if k == 0:
        return enclose(1)
    if k < 0:
        return div(enclose(1), pow_int(a, -k, prec), prec)
    result = None
    base = a
    while k:
        if k & 1:
            result = base if result is None else mul(result, base, prec)
        k >>= 1
        if k:
            base = mul(base, base, prec)
    return result


def powr(a: Enclosure, t, prec: int = PREC) -> Enclosure:
    """a**t for a > 0 and real t (Enclosure, Fraction, int or float)."""
    t = enclose(t)
    if t.lo == t.hi:
        k = int(t.lo)
        if make_mpf(from_int(k)) == t.lo:
            return pow_int(a, k, prec)
    if a.lo <= 0:
        raise ValueError("powr needs a strictly positive base enclosure")
    return exp_(mul(t, log_(a, prec), prec), prec)


def sum_enclosures(items, prec: int = PREC) -> Enclosure:
    """Sequential certified sum; order fixed by the iterable."""
    total = enclose(0)
    for e in items:
        total = add(total, e, prec)
    return total


def imax(a: Enclosure, b: Enclosure) -> Enclosure:
    """Enclosure of max(x, y) for x in a, y in b."""
    lo = a.lo._mpf_ if mpf_cmp(a.lo._mpf_, b.lo._mpf_) >= 0 else b.lo._mpf_
    hi = a.hi._mpf_ if mpf_cmp(a.hi._mpf_, b.hi._mpf_) >= 0 else b.hi._mpf_
    return _mk(lo, hi)
