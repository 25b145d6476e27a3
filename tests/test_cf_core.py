import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfshrink.cf_core import Word, continuants, cylinder, eval_word, gauss_step
from cfshrink.surd import Quad, sqrt_value
from interval_members import in_cylinder

words = st.lists(st.integers(1, 50), min_size=1, max_size=12).map(tuple)


def expand(x: Fraction, max_digits: int = 64) -> Word:
    """Digits of x by the floor algorithm, stopping at 0 or max_digits.

    Terminating expansions are canonical: the last digit is whatever the
    floor algorithm produces, never a trailing-1 rewrite.
    """
    x = Fraction(x)
    if not 0 < x < 1:
        raise ValueError(f"expand needs x in (0,1), got {x}")
    digits = []
    while x != 0 and len(digits) < max_digits:
        inv = 1 / x
        a = inv.numerator // inv.denominator
        digits.append(a)
        x = inv - a
    return tuple(digits)


def test_gauss_step():
    assert gauss_step(Fraction(2, 5)) == Fraction(1, 2)
    assert gauss_step(Fraction(1, 2)) == Fraction(0)
    assert gauss_step(Fraction(0)) == Fraction(0)


def test_gauss_step_fixes_the_quadratic_fixed_points():
    golden = (sqrt_value(Fraction(5)) - 1) / 2  # [0; 1, 1, ...]
    silver = sqrt_value(Fraction(2)) - 1  # [0; 2, 2, ...]
    for x in (golden, silver):
        assert isinstance(x, Quad)
        assert gauss_step(x) == x
    with pytest.raises(ValueError):
        gauss_step(silver + 1)


@given(words, st.integers(1, 30), st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13]))
@settings(max_examples=60, deadline=None)
def test_eval_word_on_a_quad_tail(w, a, d):
    y = 1 / (a + sqrt_value(Fraction(d)))  # a surd in (0, 1)
    c, n = continuants(w), len(w)
    want = (c.p(n) + y * c.p(n - 1)) / (c.q(n) + y * c.q(n - 1))
    got = eval_word(w, y)
    assert isinstance(got, Quad)
    assert got == want
    assert (got.a, got.b, got.D) == (want.a, want.b, want.D)


def test_expand_examples():
    assert expand(Fraction(2, 5)) == (2, 2)
    assert expand(Fraction(1, 2)) == (2,)
    assert expand(Fraction(5, 7)) == (1, 2, 2)


def test_expand_never_emits_trailing_one():
    # floor algorithm output; [a_1..a_n] never rewritten as [a_1..a_{n-1},1]
    for den in range(2, 200):
        for num in range(1, den):
            if Fraction(num, den) == 1:
                continue
            w = expand(Fraction(num, den))
            assert w[-1] >= 2


def test_continuants_examples():
    c = continuants((2, 2))
    assert (c.p(2), c.q(2)) == (2, 5)
    f = continuants((1, 1, 1))
    assert (f.p(3), f.q(3)) == (2, 3)


def test_cylinder_examples():
    c1 = cylinder((1,))
    assert (c1.left, c1.right) == (Fraction(1, 2), Fraction(1))
    assert not c1.closed_left and c1.closed_right
    assert c1.length == Fraction(1, 2)

    c22 = cylinder((2, 2))
    assert (c22.left, c22.right) == (Fraction(2, 5), Fraction(3, 7))
    assert c22.closed_left and not c22.closed_right
    assert c22.length == Fraction(1, 35)

    c2 = cylinder((2,))
    assert (c2.left, c2.right) == (Fraction(1, 3), Fraction(1, 2))
    assert c2.length == Fraction(1, 6)


def test_eval_word_examples():
    assert eval_word((2, 2), Fraction(0)) == Fraction(2, 5)
    assert eval_word((1,), Fraction(1, 2)) == Fraction(2, 3)
    assert in_cylinder(cylinder((2, 2)), eval_word((2, 2), Fraction(1, 3)))


@given(words)
@settings(max_examples=80, deadline=None)
def test_determinant_identity(w):
    c = continuants(w)
    for k in range(0, len(w) + 1):
        assert c.p(k) * c.q(k - 1) - c.p(k - 1) * c.q(k) == (-1) ** (k - 1)


@given(words)
@settings(max_examples=80, deadline=None)
def test_continuant_growth_bounds(w):
    c = continuants(w)
    n = len(w)
    prod = 1
    for a in w:
        prod *= a
    prod_plus = 1
    for a in w:
        prod_plus *= a + 1
    q = c.q(n)
    assert prod <= q <= prod_plus
    assert q * q >= 2 ** (n - 1)  # q_n >= 2^((n-1)/2)
    assert q <= (w[-1] + 1) * c.q(n - 1)


@given(words, words)
@settings(max_examples=60, deadline=None)
def test_concatenation_quasi_multiplicative(w, v):
    qa = continuants(w).q(len(w))
    qb = continuants(v).q(len(v))
    qc = continuants(w + v).q(len(w) + len(v))
    assert qa * qb <= qc <= 2 * qa * qb


@given(words)
@settings(max_examples=60, deadline=None)
def test_cylinder_length_formula(w):
    c = continuants(w)
    n = len(w)
    iv = cylinder(w)
    assert iv.length == Fraction(1, c.q(n) * (c.q(n) + c.q(n - 1)))
    assert Fraction(1, 2 * c.q(n) ** 2) <= iv.length <= Fraction(1, c.q(n) ** 2)


@given(words, st.integers(2, 30), st.integers(1, 29))
@settings(max_examples=60, deadline=None)
def test_point_in_own_cylinder(w, den, num):
    if num >= den:
        num = den - 1
    tail = Fraction(num, den)
    x = eval_word(w, tail)
    assert in_cylinder(cylinder(w), x)


@given(st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(999, 1000)))
@settings(max_examples=80, deadline=None)
def test_expand_roundtrip(x):
    w = expand(x)
    assert eval_word(w, Fraction(0)) == x
    for n in range(1, len(w) + 1):
        assert in_cylinder(cylinder(w[:n]), x)


def test_digit_removal_bound():
    # (a_k+1)/2 <= q_n(w) / q_{n-1}(w without position k) <= a_k+1
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 10)
        w = tuple(rng.randint(1, 50) for _ in range(n))
        k = rng.randrange(n)
        q_full = continuants(w).q(n)
        w_cut = w[:k] + w[k + 1 :]
        q_cut = continuants(w_cut).q(n - 1)
        ratio = Fraction(q_full, q_cut)
        assert Fraction(w[k] + 1, 2) <= ratio <= w[k] + 1
