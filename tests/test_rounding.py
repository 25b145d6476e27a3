import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_float, from_man_exp, fzero

from cfshrink import rounding as rd
from cfshrink.rounding import Enclosure, enclose
from interval_members import in_enclosure

rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=10**6
)
positive_rationals = st.fractions(
    min_value=Fraction(1, 10**6), max_value=Fraction(1000), max_denominator=10**6
)


def test_enclose_exact_cases():
    assert enclose(7).width_float == 0.0
    assert enclose(Fraction(3, 8)).width_float == 0.0  # dyadic
    e = enclose(Fraction(1, 3))
    assert in_enclosure(e, Fraction(1, 3))
    assert e.width_float < 1e-36


@pytest.mark.parametrize("t, want", [
    (fzero, Fraction(0)),
    (from_man_exp(3, 70), Fraction(3 * 2**70)),
    (from_man_exp(-3, 70), Fraction(-3 * 2**70)),
    (from_man_exp(5, -9), Fraction(5, 512)),
    (from_man_exp(-5, -9), Fraction(-5, 512)),
    (from_float(-0.1), Fraction(-0.1)),
])
def test_raw_fraction_is_exact(t, want):
    assert rd.raw_fraction(t) == want


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_raw_fraction_of_floats(x):
    assert rd.raw_fraction(from_float(x)) == Fraction(x)


def test_enclosure_order_enforced():
    one, two = enclose(1), enclose(2)
    with pytest.raises(ValueError):
        Enclosure(two.lo, one.hi)


def test_directed_float_projection():
    e = enclose(Fraction(1, 3))
    assert e.lo_float <= 1 / 3 <= e.hi_float


@given(rationals, rationals)
@settings(max_examples=100, deadline=None)
def test_field_ops_contain_exact(a, b):
    ea, eb = enclose(a), enclose(b)
    assert in_enclosure(rd.add(ea, eb), a + b)
    assert in_enclosure(rd.sub(ea, eb), a - b)
    assert in_enclosure(rd.mul(ea, eb), a * b)
    if b != 0:
        assert in_enclosure(rd.div(ea, eb), Fraction(a) / Fraction(b))


def test_div_by_interval_through_zero():
    with pytest.raises(ZeroDivisionError):
        rd.div(enclose(1), rd.sub(enclose(1), enclose(1)))


@given(positive_rationals)
@settings(max_examples=60, deadline=None)
def test_sqrt_contains(x):
    e = rd.sqrt_(enclose(x))
    sq = rd.mul(e, e)
    assert sq.lo_float <= float(x) <= sq.hi_float * (1 + 1e-15)


def test_exp_log_special_points():
    assert in_enclosure(rd.exp_(enclose(0)), Fraction(1))
    assert rd.exp_(enclose(0)).width_float == 0.0
    assert in_enclosure(rd.log_(enclose(1)), Fraction(0))
    assert rd.log_(enclose(1)).width_float == 0.0


@given(st.fractions(min_value=Fraction(-20), max_value=Fraction(20), max_denominator=9999))
@settings(max_examples=60, deadline=None)
def test_log_exp_roundtrip(x):
    back = rd.log_(rd.exp_(enclose(x)))
    assert in_enclosure(back, x)
    assert back.width_float < 1e-30


def test_exp_known_value():
    e = rd.exp_(enclose(1))
    assert e.lo_float <= math.e <= e.hi_float


def test_pow_int():
    assert in_enclosure(rd.pow_int(enclose(-2), 3), Fraction(-8))
    straddle = Enclosure(enclose(-2).lo, enclose(3).hi)
    sq = rd.pow_int(straddle, 2)
    assert in_enclosure(sq, Fraction(0)) and in_enclosure(sq, Fraction(9))
    assert in_enclosure(rd.pow_int(enclose(Fraction(1, 2)), -2), Fraction(4))


def test_powr_integer_fast_path():
    e = rd.powr(enclose(3), enclose(2))
    assert in_enclosure(e, Fraction(9)) and e.width_float == 0.0


def test_powr_fractional():
    e = rd.powr(enclose(2), enclose(Fraction(1, 2)))
    assert e.lo_float <= math.sqrt(2) <= e.hi_float
    assert e.width_float < 1e-30


@given(positive_rationals, st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=64))
@settings(max_examples=60, deadline=None)
def test_powr_vs_float_pow(x, t):
    e = rd.powr(enclose(x), enclose(t))
    ref = float(x) ** float(t)
    assert e.lo_float <= ref * (1 + 1e-13) and ref * (1 - 1e-13) <= e.hi_float


def test_certified_comparisons():
    e = enclose(Fraction(1, 3))
    assert e.certified_lt(Fraction(1, 2))
    assert e.certified_gt(Fraction(1, 4))
    assert not e.certified_lt(Fraction(1, 3))


def test_sum_enclosures():
    xs = [enclose(Fraction(1, k)) for k in range(1, 20)]
    tot = rd.sum_enclosures(xs)
    assert in_enclosure(tot, sum(Fraction(1, k) for k in range(1, 20)))
