import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfshrink import ivec


def test_dir_const():
    lo, hi = ivec.dir_const(Fraction(1, 3))
    assert lo <= hi and hi - lo <= 2 * np.spacing(1 / 3)
    assert lo <= 1 / 3 <= hi
    lo, hi = ivec.dir_const(Fraction(1, 2))
    assert lo == hi == 0.5


def _check_contains(fn_lo, fn_hi, ref, xs):
    with mp.workdps(40):
        for x, lo, hi in zip(xs, fn_lo, fn_hi):
            truth = ref(mp.mpf(x))
            assert mp.mpf(lo) <= truth <= mp.mpf(hi), (x, lo, hi)


def test_iexp_containment_grid():
    xs = np.array([-700.0, -3.2, -1.0, -0.3, 0.0, 1e-17, 0.4, 2.0, 5.7, 700.0])
    lo, hi = ivec.iexp(xs, xs)
    _check_contains(lo, hi, mp.exp, xs)


def test_iexp_containment_domain_edges():
    xs = np.concatenate([np.linspace(-708.0, -700.0, 17), np.linspace(700.0, 709.0, 19)])
    lo, hi = ivec.iexp(xs, xs)
    _check_contains(lo, hi, mp.exp, xs)


@pytest.mark.parametrize("x", [-720.0, -745.0, -800.0, 710.0])
def test_iexp_rejects_arguments_outside_normal_range(x):
    # there ldexp would round to nearest (subnormal) or overflow
    with pytest.raises(ValueError, match="outside"):
        ivec.iexp(np.array([-1.0, x]), np.array([1.0, x]))


def test_ipow_neg_rejects_underflowing_power():
    with pytest.raises(ValueError, match="outside"):
        ivec.ipow_neg(1e300, 1e300, 3.0)


def test_iln_containment_grid():
    xs = np.array([1e-300, 0.1, 0.5, 1.0, 1.0000001, 3.7, 1e10, 1e300])
    lo, hi = ivec.iln(xs, xs)
    _check_contains(lo, hi, mp.log, xs)


def test_ipow_neg_containment_grid():
    xs = np.array([1.0, 2.0, 3.5, 100.0, 12345.0])
    for t in (0.51, 1.0, 1.26, 2.52, 7.0):
        lo, hi = ivec.ipow_neg(xs, xs, t)
        _check_contains(lo, hi, lambda v: v ** (-mp.mpf(t)), xs)


@given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=40), st.floats(0.51, 4.0))
@settings(max_examples=40, deadline=None)
def test_ipow_neg_containment_random(vals, t):
    xs = np.array(vals)
    lo, hi = ivec.ipow_neg(xs, xs, t)
    _check_contains(lo, hi, lambda v: v ** (-mp.mpf(t)), xs)


def test_interval_widening():
    # interval inputs: lower evaluated at hi end for decreasing maps
    xlo = np.array([2.0]); xhi = np.array([3.0])
    lo, hi = ivec.ipow_neg(xlo, xhi, 1.5)
    assert lo[0] <= 3.0**-1.5 and hi[0] >= 2.0**-1.5


def test_tree_sum_exact_fraction_oracle():
    rng = np.random.default_rng(42)
    x = rng.uniform(0.0, 1.0, size=10_001)
    lo, hi = ivec.tree_sum(x, x)
    exact = sum(Fraction(v) for v in x)
    assert Fraction(lo) <= exact <= Fraction(hi)
    assert hi - lo < 1e-9


def test_tree_sum_directed_pair():
    x = np.array([0.1] * 7)
    lo, hi = ivec.tree_sum(ivec.dn(x), ivec.up(x))
    assert Fraction(lo) <= 7 * Fraction(0.1) <= Fraction(hi)


def test_tree_sum_order_fixed():
    x = np.arange(1, 1000, dtype=np.float64) ** -1.5
    a = ivec.tree_sum(x, x)
    b = ivec.tree_sum(x.copy(), x.copy())
    assert a == b


# ---------------------------------------------------------------------------
# the rounding step: 1-2 ulp outward, exactly one ulp outside [2^-1022, 2^-1020]

_MAX = np.finfo(np.float64).max


def _succ(x):
    return np.nextafter(x, np.inf)


def _pred(x):
    return np.nextafter(x, -np.inf)


def _check_step(x):
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):  # the step from +-max overflows to +-inf
        u, d = ivec.up(x), ivec.dn(x)
        su, sd = _succ(x), _pred(x)
        assert np.all(su <= u) and np.all(u <= _succ(su)), x[~(su <= u)]
        assert np.all(_pred(sd) <= d) and np.all(d <= sd), x[~(d <= sd)]
    exact = (np.abs(x) < 2.0**-1022) | (np.abs(x) > 2.0**-1020)
    assert np.array_equal(u[exact], su[exact])
    assert np.array_equal(d[exact], sd[exact])


def _bits_to_floats(bits):
    x = np.asarray(bits, dtype=np.uint64).view(np.float64)
    return x[np.isfinite(x)]


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
@settings(max_examples=300, deadline=None)
def test_step_random_bit_patterns(bits):
    _check_step(_bits_to_floats(bits))


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=500, deadline=None)
def test_step_random_floats(x):
    _check_step([x])


def test_step_million_bit_patterns():
    rng = np.random.default_rng(7)
    _check_step(_bits_to_floats(rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64)))


def test_step_edges():
    k = np.arange(-1074, 1024)
    p2 = np.ldexp(1.0, k)
    tiny = np.arange(0, 5000) * 2.0**-1074  # zero and the smallest subnormals
    band = 2.0**-1022 + np.arange(0, 5000) * 2.0**-1074
    xs = np.concatenate([p2, _pred(p2), _succ(p2), tiny, band, [2.0**-1022 - 2.0**-1074, _MAX]])
    _check_step(np.concatenate([xs, -xs, [0.0, -0.0]]))


def test_step_signed_zero_and_max():
    for z in (0.0, -0.0):
        assert ivec.up(np.float64(z)) == 2.0**-1074
        assert ivec.dn(np.float64(z)) == -(2.0**-1074)
    with np.errstate(over="ignore"):
        assert ivec.up(np.float64(_MAX)) == np.inf
        assert ivec.dn(np.float64(-_MAX)) == -np.inf
    assert ivec.dn(np.float64(_MAX)) == _pred(_MAX)


# ---------------------------------------------------------------------------
# ipow_neg at the envelope's level-3 edge points a + j/8192, against mpmath

_N3 = 8192  # level-3 bins; singletons to 256, the tail cell starts at 2^28 + 1


def _check_pow_256(x, t):
    lo, hi = ivec.ipow_neg(ivec.dn(x), ivec.up(x), t)
    lo0, hi0 = ivec.ipow_neg(x, x, t)
    assert np.all(lo <= lo0) and np.all(hi0 <= hi)
    with mp.workprec(256):
        for xv, l, h in zip(x, lo0, hi0):
            truth = mp.mpf(float(xv)) ** (-mp.mpf(float(t)))
            assert mp.mpf(float(l)) <= truth <= mp.mpf(float(h)), (xv, t, l, h)
            # not vacuous: a few dozen ulp, growing with the exponent t*ln(x)
            assert h - l <= 1e-13 * (1.0 + t * abs(math.log(xv))) * h


@given(
    st.lists(st.tuples(st.integers(1, 2**28), st.integers(0, _N3)), min_size=1, max_size=32),
    st.floats(0.5, 4.5),
)
@settings(max_examples=60, deadline=None)
def test_ipow_neg_level3_edges_random(pairs, t):
    x = np.array([a + j / _N3 for a, j in pairs])
    _check_pow_256(x, t)


def test_ipow_neg_level3_edges_grid():
    j = np.array([0, 1, 2, _N3 // 2, _N3 - 1, _N3])
    for a in (1, 2, 3, 128, 255, 256, 2**28 + 1):
        for t in (1.0, 1.26, 1.5, 2.0, 2.52, 3.0, 4.0):
            _check_pow_256(a + j / _N3, t)
            _check_pow_256(a - 0.5 + j / _N3, t)  # block cells start at A1 - 1/2


# ---------------------------------------------------------------------------
# checks that must hold under python -O

@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_kernels_reject_non_finite(bad):
    x = np.array([1.0, bad])
    with pytest.raises(ValueError, match="finite"):
        ivec.iexp(x, x)
    with pytest.raises(ValueError, match="finite"):
        ivec.iln(x, x)
    with pytest.raises(ValueError, match="finite"):
        ivec.ipow_neg(x, x, 1.5)
    with pytest.raises(ValueError, match="finite"), np.errstate(invalid="ignore"):
        ivec.ipow_neg(np.array([2.0]), np.array([2.0]), bad)


def test_ln2_split_checks():
    ivec._check_ln2_split(ivec.LN2_HI, ivec.LN2_ERR)
    with pytest.raises(RuntimeError, match="43"):
        ivec._check_ln2_split(np.float64(0.6931471805599453), ivec.LN2_ERR)
    with pytest.raises(RuntimeError, match="residual"):
        ivec._check_ln2_split(ivec.LN2_HI, 1e-20)
