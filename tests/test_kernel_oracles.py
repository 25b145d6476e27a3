"""The interval kernels against 256-bit mpmath and exact rationals, edges included.

Every certified bound in the package comes from `ivec` (float64) and
`rounding` (mpmath at a chosen precision).  These tests check that each
kernel's enclosure contains the value mpmath computes at 256 bits, at the
edges of its domain as well as inside it.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfshrink import ivec
from cfshrink import rounding as rd

MAX = np.finfo(np.float64).max
TINY = np.finfo(np.float64).tiny  # smallest normal
SUB = 5e-324  # smallest subnormal


def _contains_256(lo, hi, ref, xs):
    with mp.workprec(256):
        for x, l, h in zip(xs, lo, hi):
            truth = ref(mp.mpf(float(x)))
            assert mp.mpf(float(l)) <= truth <= mp.mpf(float(h)), (x, l, h)


def _ulps_around_one(k):
    up_ = [1.0]
    dn_ = [1.0]
    for _ in range(k):
        up_.append(math.nextafter(up_[-1], 2.0))
        dn_.append(math.nextafter(dn_[-1], 0.0))
    return np.array(sorted(set(up_ + dn_)))


# -- iln -------------------------------------------------------------------------

def test_iln_near_one():
    xs = _ulps_around_one(64)
    lo, hi = ivec.iln(xs, xs)
    _contains_256(lo, hi, mp.log, xs)
    assert lo[xs == 1.0][0] <= 0.0 <= hi[xs == 1.0][0]


def test_iln_subnormals_and_extremes():
    xs = np.array([SUB, 2 * SUB, 3 * SUB, 2.0**-1060, 2.0**-1040, TINY - SUB, TINY,
                   math.nextafter(TINY, 1.0), 0.5, 2.0, 2.0**1023, math.nextafter(MAX, 0.0), MAX])
    lo, hi = ivec.iln(xs, xs)
    _contains_256(lo, hi, mp.log, xs)


@pytest.mark.parametrize("bad", [-MAX, -1.0, -SUB, 0.0])
def test_iln_rejects_nonpositive(bad):
    with pytest.raises(ValueError, match="positive"):
        ivec.iln(np.array([1.0, bad]), np.array([1.0, 1.0]))


@given(st.floats(min_value=SUB, max_value=MAX, allow_nan=False, allow_infinity=False))
@settings(max_examples=300, deadline=None)
def test_iln_whole_domain(x):
    xs = np.array([x])
    lo, hi = ivec.iln(xs, xs)
    _contains_256(lo, hi, mp.log, xs)


# -- iexp ------------------------------------------------------------------------

def test_iexp_at_the_domain_ends():
    lo_end, hi_end = ivec.EXP_MIN, ivec.EXP_MAX
    xs = np.array([lo_end, math.nextafter(lo_end, 0.0), lo_end + 0.5, -0.35, -1e-300, 0.0,
                   SUB, 0.35, hi_end - 0.5, math.nextafter(hi_end, 0.0), hi_end])
    lo, hi = ivec.iexp(xs, xs)
    _contains_256(lo, hi, mp.exp, xs)
    assert np.all(np.isfinite(hi)) and np.all(lo > 0)


@pytest.mark.parametrize("x", [math.nextafter(ivec.EXP_MIN, -1e9), math.nextafter(ivec.EXP_MAX, 1e9)])
def test_iexp_rejects_just_outside(x):
    with pytest.raises(ValueError, match="outside"):
        ivec.iexp(np.array([x]), np.array([x]))


@given(st.floats(min_value=ivec.EXP_MIN, max_value=ivec.EXP_MAX))
@settings(max_examples=300, deadline=None)
def test_iexp_whole_domain(x):
    xs = np.array([x])
    lo, hi = ivec.iexp(xs, xs)
    _contains_256(lo, hi, mp.exp, xs)


# -- tree_sum --------------------------------------------------------------------

_magnitudes = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(_magnitudes, _magnitudes), min_size=1, max_size=63).filter(
    lambda v: len(v) % 2 == 1))
@settings(max_examples=200, deadline=None)
def test_tree_sum_wide_mixed_intervals(pairs):
    lo = np.array([min(a, b) for a, b in pairs])
    hi = np.array([max(a, b) for a, b in pairs])
    s_lo, s_hi = ivec.tree_sum(lo, hi)
    assert Fraction(s_lo) <= sum(map(Fraction, lo.tolist()))
    assert sum(map(Fraction, hi.tolist())) <= Fraction(s_hi)


def test_tree_sum_cancellation_and_tiny_terms():
    lo = np.array([1e300, -1e300, SUB, 1.0, -1.0, 2.0**-1074, 3e-308])
    hi = lo + np.array([0.0, 0.0, SUB, 2.0**-52, 0.0, 0.0, 1e-308])
    s_lo, s_hi = ivec.tree_sum(lo, hi)
    assert Fraction(s_lo) <= sum(map(Fraction, lo.tolist()))
    assert sum(map(Fraction, hi.tolist())) <= Fraction(s_hi)


# -- rounding.exp_, log_, powr ---------------------------------------------------

_fractions = st.fractions(min_value=Fraction(-700), max_value=Fraction(700), max_denominator=10**12)
_positive = st.fractions(min_value=Fraction(1, 10**15), max_value=Fraction(10**15),
                         max_denominator=10**15)


def _fr_mpf(fr):
    return mp.mpf(fr.numerator) / fr.denominator


def _inside(e, truth):
    return mp.mpf(e.lo) <= truth <= mp.mpf(e.hi)


@given(_fractions, st.sampled_from([53, 96, 128]))
@settings(max_examples=200, deadline=None)
def test_rounding_exp(x, prec):
    e = rd.exp_(rd.enclose(x, prec), prec)
    with mp.workprec(256):
        assert _inside(e, mp.exp(_fr_mpf(x)))


@given(_positive, st.sampled_from([53, 96, 128]))
@settings(max_examples=200, deadline=None)
def test_rounding_log(x, prec):
    e = rd.log_(rd.enclose(x, prec), prec)
    with mp.workprec(256):
        assert _inside(e, mp.log(_fr_mpf(x)))


@given(_positive, st.fractions(min_value=Fraction(-20), max_value=Fraction(20),
                               max_denominator=10**6), st.sampled_from([53, 96, 128]))
@settings(max_examples=200, deadline=None)
def test_rounding_powr(x, t, prec):
    e = rd.powr(rd.enclose(x, prec), t, prec)
    with mp.workprec(256):
        assert _inside(e, _fr_mpf(x) ** _fr_mpf(t))


def test_rounding_near_one_and_zero():
    with mp.workprec(256):
        for k in (1, 2, 40, 100, 200):
            one_plus = Fraction(1) + Fraction(1, 2**k)
            assert _inside(rd.log_(rd.enclose(one_plus)), mp.log(_fr_mpf(one_plus)))
            tiny = Fraction(1, 2**k)
            assert _inside(rd.exp_(rd.enclose(tiny)), mp.exp(_fr_mpf(tiny)))
            assert _inside(rd.exp_(rd.enclose(-tiny)), mp.exp(-_fr_mpf(tiny)))
        assert rd.log_(rd.enclose(1)) == rd.enclose(0)
        assert rd.exp_(rd.enclose(0)) == rd.enclose(1)
        big = Fraction(10**30) + Fraction(1, 3)
        assert _inside(rd.powr(rd.enclose(big), Fraction(-5, 2)), _fr_mpf(big) ** mp.mpf(-2.5))
