"""The interval kernels against 256-bit mpmath and exact rationals, edges included.

Every certified bound in the package comes from `ivec` (float64) and
`rounding` (mpmath at a chosen precision).  These tests check that each
kernel's enclosure contains the value mpmath computes at 256 bits, at the
edges of its domain as well as inside it.  The one-sided exp and ln
kernels are also held bit for bit to reference versions that build both
sides in full (four corner products per exp Horner step, both atanh
chains and the remainder for ln).
"""

import itertools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chord_envelope import _FLOAT_FIELDS, _INDEX_FIELDS, chord_layout, chords
from cfshrink import _transfer, ivec
from cfshrink import rounding as rd
from cfshrink.ivec import (
    _EXP_REM, _FACT_DN, _FACT_UP, _J_LN, _LN2_APPROX, _N_EXP, _RECIP_DN, _RECIP_UP, EXP_MAX,
    EXP_MIN, LN2_ERR, LN2_HI, LN2_LO, _upow, dn, up,
)

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


# -- reference one-sided kernels -------------------------------------------------
# Both build the two sides in full and return one: every step is the same
# float operation as in ivec, so ivec must give the same bits.

def _exp_one_sided_ref(x, side):
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("exp needs finite inputs")
    if np.any(x < EXP_MIN) or np.any(x > EXP_MAX):
        raise ValueError(f"exp argument outside [{EXP_MIN:g}, {EXP_MAX:g}]")
    k = np.round(x / _LN2_APPROX)
    # u = x - k*ln2, built from the exact HI product; |u| stays <= 0.35
    t1 = x - k * LN2_HI  # exact: Sterbenz subtraction of an exact product
    klo = k * LN2_LO
    t2lo, t2hi = dn(t1 - up(klo)), up(t1 - dn(klo))
    resid = up(np.abs(k) * LN2_ERR)
    ulo, uhi = dn(t2lo - resid), up(t2hi + resid)
    umax = np.maximum(np.abs(ulo), np.abs(uhi))
    if np.any(umax > 0.35):
        raise ValueError("exp reduced argument exceeds 0.35")
    R = up(_upow(umax, _N_EXP + 1) * _EXP_REM)
    slo = np.full_like(x, _FACT_DN[_N_EXP])
    shi = np.full_like(x, _FACT_UP[_N_EXP])
    for j in range(_N_EXP - 1, -1, -1):
        p1, p2, p3, p4 = slo * ulo, slo * uhi, shi * ulo, shi * uhi
        plo = dn(np.minimum(np.minimum(p1, p2), np.minimum(p3, p4)))
        phi = up(np.maximum(np.maximum(p1, p2), np.maximum(p3, p4)))
        slo = dn(plo + _FACT_DN[j])
        shi = up(phi + _FACT_UP[j])
    slo = dn(slo - R)
    shi = up(shi + R)
    ki = k.astype(np.int64)
    return np.ldexp(slo, ki) if side < 0 else np.ldexp(shi, ki)


def _ln_one_sided_ref(x, side):
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("ln needs finite inputs")
    if np.any(x <= 0):
        raise ValueError("ln needs positive inputs")
    m, e = np.frexp(x)
    m = m * 2.0  # in [1, 2), exact
    e = (e - 1).astype(np.float64)
    num = m - 1.0  # exact (Sterbenz)
    dlo, dhi = dn(m + 1.0), up(m + 1.0)
    ulo, uhi = dn(num / dhi), up(num / dlo)  # u in [0, 1/3)
    u2lo, u2hi = dn(ulo * ulo), up(uhi * uhi)
    slo = np.full_like(x, _RECIP_DN[_J_LN])
    shi = np.full_like(x, _RECIP_UP[_J_LN])
    for j in range(_J_LN - 2, 0, -2):
        slo = dn(dn(slo * u2lo) + _RECIP_DN[j])
        shi = up(up(shi * u2hi) + _RECIP_UP[j])
    plo = dn(slo * ulo)
    phi = up(shi * uhi)
    # tail of the atanh series after u^J/J
    R = up(_upow(uhi, _J_LN + 2) / dn((_J_LN + 2) * dn(1.0 - up(uhi * uhi))))
    lnm_lo = dn(2.0 * plo)
    lnm_hi = up(2.0 * up(phi + R))
    resid = up(np.abs(e) * LN2_ERR)
    tlo = dn(dn(dn(e * LN2_HI) + dn(e * LN2_LO)) - resid)
    thi = up(up(up(e * LN2_HI) + up(e * LN2_LO)) + resid)
    return dn(tlo + lnm_lo) if side < 0 else up(thi + lnm_hi)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _both_sides_match(kernel, ref, xs):
    for side in (-1, +1):
        assert _same_bits(kernel(xs, side), ref(xs, side)), side


# x = fl(k ln 2): the reduced argument is within rounding of 0, so its
# enclosure [ulo, uhi] straddles 0 and both signs of u meet in one Horner step
_EXP_EDGES = np.concatenate([
    [EXP_MIN, math.nextafter(EXP_MIN, 0.0), EXP_MAX, math.nextafter(EXP_MAX, 0.0),
     0.0, -0.0, SUB, -SUB, TINY, -TINY, 1e-300, -1e-300, 0.35, -0.35, 0.3465, -0.3465],
    np.arange(-1021, 1023) * _LN2_APPROX,
    np.arange(-1021, 1023) * _LN2_APPROX + 1e-9,
    (np.arange(-1021, 1023) + 0.5) * _LN2_APPROX,
])
_EXP_EDGES = _EXP_EDGES[(_EXP_EDGES >= EXP_MIN) & (_EXP_EDGES <= EXP_MAX)]
_LN_EDGES = np.concatenate([
    [SUB, 2 * SUB, 3 * SUB, 2.0**-1060, TINY - SUB, TINY, math.nextafter(TINY, 1.0),
     math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0), math.nextafter(2.0, 0.0), 2.0,
     2.0**1023, math.nextafter(MAX, 0.0), MAX],
    (np.arange(1, 65)[:, None] + np.arange(1025)[None, :] / 1024).ravel(),  # node grid a + j/N
])


def test_one_sided_kernels_match_reference_at_the_edges():
    _both_sides_match(ivec._exp_one_sided, _exp_one_sided_ref, _EXP_EDGES)
    _both_sides_match(ivec._ln_one_sided, _ln_one_sided_ref, _LN_EDGES)


@pytest.mark.parametrize("shape", [(), (1,), (3, 4), (2, 3, 5)])
def test_one_sided_kernels_match_reference_in_any_shape(shape):
    rng = np.random.default_rng(len(shape))
    x = rng.uniform(-40.0, 40.0, shape)
    _both_sides_match(ivec._exp_one_sided, _exp_one_sided_ref, x)
    _both_sides_match(ivec._ln_one_sided, _ln_one_sided_ref, np.exp(x))


_exp_args = st.lists(st.floats(min_value=EXP_MIN, max_value=EXP_MAX), min_size=1, max_size=64)
_ln_args = st.lists(st.floats(min_value=SUB, max_value=MAX), min_size=1, max_size=64)


@given(_exp_args, st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=64))
@settings(max_examples=200, deadline=None)
def test_exp_one_sided_matches_reference(xs, small):
    _both_sides_match(ivec._exp_one_sided, _exp_one_sided_ref, np.array(xs + small))


@given(_ln_args, st.lists(st.floats(min_value=0.5, max_value=4.0), min_size=1, max_size=64))
@settings(max_examples=200, deadline=None)
def test_ln_one_sided_matches_reference(xs, near_one):
    _both_sides_match(ivec._ln_one_sided, _ln_one_sided_ref, np.array(xs + near_one))


@pytest.fixture
def reference_kernels(monkeypatch):
    """Switch ivec (and so ipow_neg, iexp, iln) to the reference kernels.
    The envelope's geometry cache is cleared at the switch and at the end,
    so no build reads logs of the other kernels."""
    def use():
        monkeypatch.setattr(ivec, "_exp_one_sided", _exp_one_sided_ref)
        monkeypatch.setattr(ivec, "_ln_one_sided", _ln_one_sided_ref)
        _transfer._geometry.cache_clear()
    yield use
    _transfer._geometry.cache_clear()


@pytest.mark.parametrize("t", [0.51, 1.26, 2.52, 7.0])
def test_ipow_neg_matches_reference_on_the_node_grids(t, reference_kernels):
    grids = []
    for level in range(_transfer.MAX_LEVEL + 1):
        layout = _transfer.make_layout(level)
        a = np.array([A1 for A1, _ in layout.cells], dtype=np.float64)[:, None]
        grids += [a + layout.edges, a - 0.5 + layout.edges]  # singleton points and block ends
    x = np.unique(np.concatenate([g.ravel() for g in grids]))
    got = ivec.ipow_neg(dn(x), up(x), t)
    reference_kernels()
    want = ivec.ipow_neg(dn(x), up(x), t)
    assert all(_same_bits(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("level", [0, 1, 2])
def test_chords_match_reference(level, reference_kernels):
    """The chord oracle's step data, and the Hermite envelope's, have the
    bits of the reference kernels."""
    alphabets = itertools.product((None, range(1, 41)), (1.26, 1.7))
    cases, c_cases = zip(*(((_transfer.make_layout(level, d), t), (chord_layout(level, d), t))
                           for d, t in alphabets))
    got = [chords(layout, t, layout.edges) for layout, t in c_cases]
    got_h = [_transfer._setup(layout, t, layout.edges) for layout, t in cases]
    reference_kernels()
    for (layout, t), ch in zip(c_cases, got):
        want = chords(layout, t, layout.edges)
        assert ch.keys() == want.keys()
        assert all(_same_bits(ch[f], want[f]) for f in _FLOAT_FIELDS)
        assert all(np.array_equal(ch[f], want[f]) for f in _INDEX_FIELDS)
    for (layout, t), data in zip(cases, got_h):
        for part, want in zip(data, _transfer._setup(layout, t, layout.edges)):
            assert part.keys() == want.keys()
            assert all(_same_bits(v, want[f]) if v.dtype == np.float64
                       else np.array_equal(v, want[f]) for f, v in part.items())


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
