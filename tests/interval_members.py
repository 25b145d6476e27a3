"""Exact membership of a point in an Enclosure or a cylinder interval.

The package itself never asks it: its callers certify sides of a bound
(`Enclosure.certified_le` and kin) instead.
"""

from fractions import Fraction


def in_enclosure(e, x) -> bool:
    """lo <= x <= hi, decided exactly."""
    return not (e.certified_lt(x) or e.certified_gt(x))


def in_cylinder(c, x) -> bool:
    """x lies in the cylinder interval c, closed at the ends its parity closes."""
    x = Fraction(x)
    above_left = c.left <= x if c.closed_left else c.left < x
    return above_left and (x <= c.right if c.closed_right else x < c.right)
