import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfshrink.surd import Quad, quad_to_enclosure, sqrt_value

small_fracs = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=1000
)


def test_sqrt_value_perfect_square():
    assert sqrt_value(Fraction(4)) == Fraction(2)
    assert sqrt_value(Fraction(9, 16)) == Fraction(3, 4)


def test_sqrt_value_strips_square_factors():
    v = sqrt_value(Fraction(8))
    assert isinstance(v, Quad)
    assert v == Quad(Fraction(0), Fraction(2), 2)  # 2*sqrt(2)


def test_rational_quad_hashes_like_its_fraction():
    half = Quad(Fraction(1, 2), Fraction(0), 5)
    assert half == Fraction(1, 2)
    assert len({half, Fraction(1, 2)}) == 1
    assert len({Quad(Fraction(3), Fraction(0), 2), 3}) == 1
    assert len({Quad(Fraction(1, 2), Fraction(1), 5), Fraction(1, 2)}) == 2


def test_golden_ratio_root():
    # x = (sqrt5 - 1)/2 solves x^2 + x - 1 = 0 exactly
    x = Quad(Fraction(-1, 2), Fraction(1, 2), 5)
    assert (x * x + x - Quad(Fraction(1), 0, 5)).sign() == 0
    assert 0.6180339 < float(x) < 0.6180340


def test_ordering():
    r2 = Quad(Fraction(0), Fraction(1), 2)
    assert Quad(Fraction(1), 0, 2) < r2 < Quad(Fraction(3, 2), 0, 2)
    assert r2 > Quad(Fraction(7, 5), 0, 2)
    assert r2 < Quad(Fraction(3, 2), 0, 2)


def test_inverse():
    x = Quad(Fraction(3), Fraction(1), 7)  # 3 + sqrt7
    assert x * x.inverse() == Quad(Fraction(1), 0, 7)


def test_inverse_of_pure_surd():
    x = Quad(Fraction(0), Fraction(1), 5)
    assert x * x.inverse() == Quad(Fraction(1), 0, 5)


def test_enclosure_contains_float():
    x = Quad(Fraction(2), Fraction(3), 3)  # 2 + 3*sqrt3
    e = quad_to_enclosure(x)
    assert e.lo_float <= 2 + 3 * math.sqrt(3) <= e.hi_float
    assert e.width_float < 1e-30


@given(small_fracs, small_fracs, small_fracs, small_fracs)
@settings(max_examples=60, deadline=None)
def test_field_arithmetic_matches_float(a, b, c, d):
    x = Quad(a, b, 7)
    y = Quad(c, d, 7)
    fx = float(a) + float(b) * math.sqrt(7)
    fy = float(c) + float(d) * math.sqrt(7)
    assert math.isclose(float(x + y), fx + fy, rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(float(x * y), fx * fy, rel_tol=1e-9, abs_tol=1e-9)
    if not (c == 0 and d == 0):
        if (y.sign() != 0):
            assert math.isclose(float(x / y), fx / fy, rel_tol=1e-7, abs_tol=1e-7)


@given(small_fracs, small_fracs)
@settings(max_examples=60, deadline=None)
def test_sign_matches_float(a, b):
    x = Quad(a, b, 13)
    fx = float(a) + float(b) * math.sqrt(13)
    if abs(fx) > 1e-9:
        assert x.sign() == (1 if fx > 0 else -1)


def test_nonsquare_d_required():
    with pytest.raises(ValueError):
        Quad(Fraction(1), Fraction(1), 9)


def test_floor_next_to_an_integer():
    tiny = sqrt_value(Fraction(2)) - 1
    for _ in range(6):
        tiny = tiny * tiny  # (sqrt 2 - 1)^64, about 4e-25: the float guess is off by one
    assert 0 < tiny < Fraction(1, 10**24)
    assert math.floor(3 - tiny) == 2
    assert math.floor(3 + tiny) == 3
    assert math.floor(-3 + tiny) == -3
    assert math.floor(-3 - tiny) == -4
    assert math.floor(1 - sqrt_value(Fraction(2))) == -1
    assert math.floor(Quad(Fraction(3), Fraction(0), 2)) == 3
