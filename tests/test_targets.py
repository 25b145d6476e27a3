"""Target sequence descriptions: exact values, digit shifts, growth rates."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfshrink.errors import PrecisionExhausted, UndefinedForZeroTarget
from cfshrink.surd import Quad
from cfshrink.targets import TargetSpec, first_digit, growth_rate, z_value

GOLDEN = 0.6180339887498949  # [0; 1, 1, 1, ...]

digits = st.integers(min_value=1, max_value=6)
words = st.lists(digits, min_size=0, max_size=4).map(tuple)


class TestConstant:
    def test_golden_ratio(self):
        z, a1, tz = z_value(TargetSpec.constant((), (1,)), 7)
        assert a1 == 1
        assert z == tz  # shifting a period of length 1 is the identity
        assert abs(float(z) - GOLDEN) < 1e-15

    def test_sqrt2_minus_1(self):
        z, a1, tz = z_value(TargetSpec.constant((), (2,)), 1)
        assert a1 == 2
        assert isinstance(z, Quad)
        assert abs(float(z) - (math.sqrt(2) - 1)) < 1e-15

    def test_period_two(self):
        # [0; 1, 2, 1, 2, ...] = sqrt(3) - 1
        z, a1, tz = z_value(TargetSpec.constant((), (1, 2)), 1)
        assert a1 == 1
        assert abs(float(z) - (math.sqrt(3) - 1)) < 1e-15
        # shift rotates the period: [0; 2, 1, 2, 1, ...]
        assert abs(float(tz) - (1 / float(z) - 1)) < 1e-13

    def test_preperiod_then_period(self):
        z, a1, tz = z_value(TargetSpec.constant((3,), (1,)), 4)
        assert a1 == 3
        assert abs(float(z) - 1 / (3 + GOLDEN)) < 1e-15
        assert abs(float(tz) - GOLDEN) < 1e-15

    def test_terminating(self):
        z, a1, tz = z_value(TargetSpec.constant((2, 3)), 5)
        assert z == Fraction(3, 7)
        assert a1 == 2
        assert tz == Fraction(1, 3)

    def test_single_digit_shift_hits_zero(self):
        z, a1, tz = z_value(TargetSpec.constant((4,)), 1)
        assert z == Fraction(1, 4) and a1 == 4 and tz == 0

    def test_value_independent_of_n(self):
        spec = TargetSpec.constant((2,), (3, 1))
        assert z_value(spec, 1) == z_value(spec, 9)


class TestZero:
    def test_value(self):
        z, a1, tz = z_value(TargetSpec.zero(), 3)
        assert z == 0 and tz == 0
        assert a1 == math.inf

    def test_growth_rate_undefined(self):
        with pytest.raises(UndefinedForZeroTarget):
            growth_rate(TargetSpec.zero())


class TestPeriodicInN:
    def test_cycles_through_descriptions(self):
        spec = TargetSpec.periodic_in_n([((2, 3), ()), ((), (1,))])
        z1, a1, _ = z_value(spec, 1)
        z2, a2, _ = z_value(spec, 2)
        assert z1 == Fraction(3, 7) and a1 == 2
        assert abs(float(z2) - GOLDEN) < 1e-15 and a2 == 1
        assert z_value(spec, 3) == z_value(spec, 1)
        assert z_value(spec, 4) == z_value(spec, 2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TargetSpec.periodic_in_n([])
        with pytest.raises(ValueError):
            TargetSpec.periodic_in_n([((), ())])


class TestExpFirstDigit:
    def test_log2_tail_one(self):
        # e^(3 log 2) = 8, so the described word is (8, 1) and z = 1/9.
        spec = TargetSpec.exp_first_digit(math.log(2), tail=(1,))
        z, a1, tz = z_value(spec, 3)
        assert a1 == 8
        assert z == Fraction(1, 9)
        assert tz == 1  # formal shift of (8, 1) is (1,), whose value is 1

    def test_digit_floor_at_one(self):
        spec = TargetSpec.exp_first_digit(-1.0, tail=(2,))
        assert first_digit(spec, 1) == 1
        assert first_digit(spec, 10) == 1

    def test_half_log_matches_integer_sqrt(self):
        spec = TargetSpec.exp_half_log(2)
        for n in range(1, 20):
            assert first_digit(spec, n) == max(1, round(2 ** (n / 2)))

    def test_half_log_even_powers_exact(self):
        spec = TargetSpec.exp_half_log(16)
        for n in range(1, 8):
            assert first_digit(spec, n) == 4**n

    def test_half_log_large_n_stays_exact(self):
        # 10^(99/2): float rounding would be hopeless here
        spec = TargetSpec.exp_half_log(10)
        a1 = first_digit(spec, 99)
        assert (a1 - 1) ** 2 < 10**99 < (a1 + 1) ** 2
        assert abs(a1 * a1 - 10**99) <= a1  # nearest integer to the root

    def test_float_gamma_matches_mpmath(self):
        import mpmath

        for gamma in (0.3, math.log(2), 1.1):
            spec = TargetSpec.exp_first_digit(gamma)
            with mpmath.workdps(50):
                g = mpmath.mpf(Fraction(gamma).numerator) / Fraction(gamma).denominator
                for n in range(1, 16):
                    want = max(1, int(mpmath.nint(mpmath.e**(g * n))))
                    assert first_digit(spec, n) == want, (gamma, n)

    @pytest.mark.parametrize("gamma", [36, 37, 60, 88, 100, 150])
    def test_past_float_precision_matches_mpmath(self, gamma):
        # e^gamma above 2^53: the digit is rounded from the exact midpoint of
        # the enclosure, not from a 53-bit float
        import mpmath

        with mpmath.workprec(400):
            want = int(mpmath.nint(mpmath.e**gamma))
        assert first_digit(TargetSpec.exp_first_digit(gamma), 1) == want

    def test_fraction_gamma(self):
        spec = TargetSpec.exp_first_digit(Fraction(1, 2))
        assert first_digit(spec, 2) == round(math.e)
        assert first_digit(spec, 4) == round(math.e**2)

    def test_precision_exhausted_at_tiny_prec(self):
        spec = TargetSpec.exp_first_digit(math.log(2), prec=8)
        with pytest.raises(PrecisionExhausted):
            first_digit(spec, 60)

    @pytest.mark.parametrize("gamma, n", [(709, 1), (710, 1), (800, 1), (160, 5), (10**6, 3)])
    def test_past_float_range_is_a_typed_error(self, gamma, n):
        # e^(gamma n) at or past the float range: no 256-bit verdict, and no
        # bare OverflowError from rounding an infinite midpoint
        spec = TargetSpec.exp_first_digit(gamma)
        with pytest.raises(PrecisionExhausted, match="at 256 bits"):
            first_digit(spec, n)


class TestValidation:
    def test_zero_digit_rejected(self):
        with pytest.raises(ValueError):
            TargetSpec.constant((0,))
        with pytest.raises(ValueError):
            TargetSpec.exp_first_digit(1.0, tail=(3, 0))

    def test_empty_constant_rejected(self):
        with pytest.raises(ValueError):
            TargetSpec.constant(())

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            z_value(TargetSpec.zero(), 0)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            z_value(TargetSpec("BOGUS"), 1)

    def test_periodic_value_range_is_checked(self, monkeypatch):
        # a raised check, not an assert, so it also holds under python -O
        from cfshrink import targets

        real_sqrt = targets.sqrt_value
        monkeypatch.setattr(targets, "sqrt_value", lambda x: -real_sqrt(x))
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            z_value(TargetSpec.constant((), (1,)), 1)


@given(pre=words, period=words, n=st.integers(min_value=1, max_value=5))
@settings(max_examples=150, deadline=None)
def test_shift_identity(pre, period, n):
    """z = 1/(a1 + Tz) exactly, in whichever field z lives in."""
    if not pre and not period:
        return
    spec = TargetSpec.constant(pre, period)
    z, a1, tz = z_value(spec, n)
    assert (tz + a1) * z == 1
    assert 0 < z <= 1
    assert 0 <= tz <= 1


@given(
    gamma=st.floats(min_value=0.05, max_value=1.5),
    tail=st.lists(digits, min_size=0, max_size=3).map(tuple),
    n=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=80, deadline=None)
def test_exp_shift_identity(gamma, tail, n):
    spec = TargetSpec.exp_first_digit(gamma, tail=tail)
    z, a1, tz = z_value(spec, n)
    assert first_digit(spec, n) == a1
    assert (tz + a1) * z == 1


@given(n=st.integers(min_value=1, max_value=30))
@settings(max_examples=40, deadline=None)
def test_first_digit_agrees_with_z_value(n):
    for spec in (
        TargetSpec.constant((2,), (5,)),
        TargetSpec.periodic_in_n([((7,), ()), ((), (1, 3))]),
        TargetSpec.exp_half_log(4),
    ):
        assert first_digit(spec, n) == z_value(spec, n)[1]


class TestGrowthRates:
    def test_exp_rate_is_exact(self):
        g = math.log(2)
        assert growth_rate(TargetSpec.exp_first_digit(g)) == g

    def test_half_log_rate(self):
        rate = growth_rate(TargetSpec.exp_half_log(9))
        assert rate == pytest.approx(0.5 * math.log(9), abs=1e-15)

    def test_bounded_digits_rate_zero(self):
        assert growth_rate(TargetSpec.constant((), (3,))) == 0.0
        spec = TargetSpec.periodic_in_n([((2,), ()), ((9,), ())])
        assert growth_rate(spec) == 0.0
