"""Exact arithmetic in a real quadratic field Q(sqrt(D)).

Values a + b*sqrt(D) with rational a, b and a fixed nonsquare D > 0.
Signs and comparisons are decided exactly by casework and squaring, so
periodic continued fractions and quadratic boundary equations can be
handled without any rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from . import rounding
from .rounding import Enclosure


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


@dataclass(frozen=True)
class Quad:
    """a + b*sqrt(D); D a positive nonsquare integer."""

    a: Fraction
    b: Fraction
    D: int

    def __post_init__(self):
        if self.D <= 0 or _is_square(self.D):
            raise ValueError(f"D must be a positive nonsquare, got {self.D}")

    # -- exact sign and comparisons ---------------------------------------

    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with b^2 D
        lhs, rhs = a * a, b * b * self.D
        if lhs == rhs:
            return 0
        if a > 0:  # b < 0
            return 1 if lhs > rhs else -1
        return -1 if lhs > rhs else 1

    def __eq__(self, other):
        return (self - other).sign() == 0

    def __hash__(self):  # a rational Quad equals, so hashes as, its Fraction
        return hash(self.a) if self.b == 0 else hash((self.a, self.b, self.D))

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    # -- field operations --------------------------------------------------

    def _coerce(self, other) -> "Quad":
        if isinstance(other, Quad):
            if other.D != self.D:
                raise ValueError(f"field mismatch: sqrt({self.D}) vs sqrt({other.D})")
            return other
        return Quad(Fraction(other), Fraction(0), self.D)

    def __add__(self, other):
        o = self._coerce(other)
        return Quad(self.a + o.a, self.b + o.b, self.D)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return Quad(self.a - o.a, self.b - o.b, self.D)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return Quad(-self.a, -self.b, self.D)

    def __mul__(self, other):
        o = self._coerce(other)
        return Quad(
            self.a * o.a + self.b * o.b * self.D,
            self.a * o.b + self.b * o.a,
            self.D,
        )

    __rmul__ = __mul__

    def inverse(self) -> "Quad":
        norm = self.a * self.a - self.b * self.b * self.D
        if norm == 0:
            raise ZeroDivisionError("division by zero surd")
        return Quad(self.a / norm, -self.b / norm, self.D)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __floor__(self) -> int:
        """Exact floor: float guess, surd-certified."""
        k = int(self.enclosure(96).mid_float)
        while (self - k).sign() < 0:
            k -= 1
        while (self - (k + 1)).sign() >= 0:
            k += 1
        return k

    # -- numeric views -------------------------------------------------------

    def enclosure(self, prec: int = rounding.PREC) -> Enclosure:
        root = rounding.sqrt_(rounding.enclose(self.D, prec), prec)
        return rounding.add(
            rounding.enclose(self.a, prec),
            rounding.mul(rounding.enclose(self.b, prec), root, prec),
            prec,
        )

    def __float__(self):
        return self.enclosure(64).mid_float

    def __repr__(self):
        return f"Quad({self.a} + {self.b}*sqrt({self.D}))"


def sqrt_value(x):
    """sqrt of a nonnegative rational, exact: Fraction when square, else Quad.

    sqrt(p/q) = sqrt(p*q)/q.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("sqrt of a negative rational")
    p, q = x.numerator, x.denominator
    m = p * q
    r = isqrt(m)
    if r * r == m:
        return Fraction(r, q)
    # strip the largest easily found square factor to keep D small
    d = m
    c = 1
    f = 2
    while f * f <= d:
        while d % (f * f) == 0:
            d //= f * f
            c *= f
        f += 1 if f == 2 else 2
        if f > 10_000:
            break
    if _is_square(d):  # a huge square factor survived the trial division
        return Fraction(c * isqrt(d), q)
    return Quad(Fraction(0), Fraction(c, q), d)


def quad_to_enclosure(x, prec: int = rounding.PREC) -> Enclosure:
    """Enclosure of a Fraction or Quad."""
    if isinstance(x, Quad):
        return x.enclosure(prec)
    return rounding.enclose(Fraction(x), prec)
