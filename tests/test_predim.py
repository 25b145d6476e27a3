"""Level-n dimension equation roots, branch selection, threshold verdicts."""

import itertools
import math
from fractions import Fraction

import mpmath as mp
import pytest

from cfshrink import _transfer, sums
from cfshrink import rounding as rd
from cfshrink.errors import AmbiguousBranch, NoRoot, NoRootInUnitInterval, PrecisionExhausted
from cfshrink.predim import (
    CASE_MAX_S2_S3,
    CASE_S1,
    FAIL,
    LEFT_EDGE,
    PASS,
    PredimResult,
    _f_enclosure,
    _weight_enclosure,
    predim_result,
    select_sn,
    solve_predim,
    sstar_estimate,
    threshold_check,
)
from cfshrink.rounding import enclose
from cfshrink.targets import TargetSpec, first_digit
from interval_members import in_enclosure
from test_sums import zeta_enclosure

# independent high-precision bisection on zeta(2s) = B^(s^2), frozen
ZETA_ROOTS = {
    2: 0.9254787365250165,
    4: 0.7869640227730460,
    16: 0.6723737190373779,
}


def _f_oracle(n, B, kind, a1z, M, s):
    """The defining sum at s; at n = 1 on the full alphabet from the zeta(2s)
    oracle, so the check does not read the solver's own evaluator there."""
    if n == 1 and M is None:
        return rd.mul(_weight_enclosure(n, B, kind, a1z, s), zeta_enclosure(s, 4096))
    return _f_enclosure(n, B, kind, a1z, M, s, 2)


def assert_straddles(n, B, kind, a1z, M, e):
    """Defining sum must be >= 1 somewhere and <= 1 somewhere inside e."""
    f_lo = _f_oracle(n, B, kind, a1z, M, e.lo_float)
    f_hi = _f_oracle(n, B, kind, a1z, M, e.hi_float)
    assert f_lo.hi_float >= 1.0
    assert f_hi.lo_float <= 1.0


class TestKindOneLevelOne:
    @pytest.mark.parametrize("B", [2, 4, 16])
    def test_matches_zeta_oracle(self, B):
        e = solve_predim(1, B, 1, tol=1e-6)
        assert in_enclosure(e, Fraction(ZETA_ROOTS[B]).limit_denominator(10**15))
        assert e.lo_float <= ZETA_ROOTS[B] <= e.hi_float
        assert e.width_float <= 1e-6
        assert e.certified_gt(Fraction(1, 2))
        assert_straddles(1, B, 1, None, None, e)

    def test_monotone_in_B(self):
        e2 = solve_predim(1, 2, 1, tol=1e-5)
        e4 = solve_predim(1, 4, 1, tol=1e-5)
        e16 = solve_predim(1, 16, 1, tol=1e-5)
        assert e16.hi < e4.lo < e4.hi < e2.lo


class TestConventions:
    def test_kind2_infinite_digit(self):
        assert solve_predim(3, 4, 2, math.inf) == enclose(1)

    def test_kind3_infinite_digit(self):
        assert solve_predim(3, 4, 3, math.inf) == enclose(0)


class TestNoRootCases:
    def test_sum_above_one_at_right_edge(self):
        # base 2, level 1, third kind, unit digit: sum at s=1 is
        # zeta(2)/sqrt(2) = 1.163... > 1, so no root in (1/2, 1]
        with pytest.raises(NoRootInUnitInterval):
            solve_predim(1, 2, 3, 1)

    def test_truncated_alphabet_root_below_domain(self):
        with pytest.raises(NoRoot):
            solve_predim(3, 4, 1, M=1)


# float.hex of full-alphabet n = 1 brackets by (B, kind, a1z, tol); None
# marks the root clipped to 1 (the kind-3 sum at s = 1 is zeta(2)/sqrt(2)
# > 1).  The envelope both places and certifies them; every kind-1
# bracket contains its ZETA_ROOTS value
LEVEL_ONE_BRACKETS = {
    (2, 1, None, 1e-3): ("0x1.d99d5806afc79p-1", "0x1.d9dc45100a528p-1"),
    (2, 2, 1, 1e-3): ("0x1.ce84ce4282e39p-1", "0x1.cef8e69acbdb7p-1"),
    (2, 2, 3, 1e-3): ("0x1.df07c92b61666p-1", "0x1.df5fa70fd91dbp-1"),
    (2, 3, 1, 1e-3): None,
    (2, 3, 3, 1e-3): ("0x1.7248633a577ccp-1", "0x1.72b173668d87fp-1"),
    (4, 1, None, 1e-3): ("0x1.92b1f3ce4762fp-1", "0x1.93014179838cdp-1"),
    (4, 2, 1, 1e-3): ("0x1.76e9dad091de3p-1", "0x1.77444df625adbp-1"),
    (4, 2, 3, 1e-3): ("0x1.92dcaf53ed7eap-1", "0x1.9355d77746623p-1"),
    (4, 3, 1, 1e-3): ("0x1.ce84ce4282e39p-1", "0x1.cef8e69acbdb7p-1"),
    (4, 3, 3, 1e-3): ("0x1.5be6a37865625p-1", "0x1.5c5d5ecf9cb2fp-1"),
    (2, 1, None, 1e-6): ("0x1.d9d84a3a85e7fp-1", "0x1.d9d8686d84639p-1"),
    (4, 1, None, 1e-6): ("0x1.92ece29409f0ap-1", "0x1.92ed01e284dbep-1"),
    (2, 3, 3, 1e-7): ("0x1.72764e8b0e618p-1", "0x1.72765190547efp-1"),
    (4, 2, 1, 1e-7): ("0x1.7709395a39630p-1", "0x1.77093c5f6b434p-1"),
    (2, 2, 1, 1e-8): ("0x1.cebdeca58a25fp-1", "0x1.cebdece237694p-1"),
    (4, 1, None, 1e-8): ("0x1.92ecf2a2653cdp-1", "0x1.92ecf2efb4699p-1"),
    (4, 3, 3, 1e-8): ("0x1.5c219f0e71c1cp-1", "0x1.5c219f5da590fp-1"),
    (2, 1, None, 1e-10): ("0x1.d9d85955003fap-1", "0x1.d9d8595563346p-1"),
    (4, 2, 3, 1e-10): ("0x1.9317ab09524e0p-1", "0x1.9317ab0a1f32ap-1"),
}


class TestLevelOneBrackets:
    @pytest.mark.parametrize("key", list(LEVEL_ONE_BRACKETS))
    def test_pinned_bracket(self, key):
        B, kind, a1z, tol = key
        if LEVEL_ONE_BRACKETS[key] is None:
            with pytest.raises(NoRootInUnitInterval, match=r"sum at s=1 lies in \[1\.1631"):
                solve_predim(1, B, kind, a1z, tol=tol)
            return
        e = solve_predim(1, B, kind, a1z, tol=tol)
        assert (e.lo_float.hex(), e.hi_float.hex()) == LEVEL_ONE_BRACKETS[key]


class TestFailFast:
    @pytest.fixture
    def evals(self, monkeypatch):
        """Counts envelope evaluations, none of them served from the cache."""
        sums._lambda_bounds.cache_clear()
        count = [0]
        apply_power = _transfer.apply_power

        def counted(*args, **kwargs):
            count[0] += 1
            return apply_power(*args, **kwargs)

        monkeypatch.setattr(_transfer, "apply_power", counted)
        return count

    @pytest.mark.parametrize("n,tol", [(3, 1e-7), (2, 1e-8), (5, 1e-6)])
    def test_former_shift_failures_certify(self, evals, n, tol):
        # tol below the 1e-5 accuracy of a float model of the sum: only
        # probes placed by the envelope itself reach it
        e = solve_predim(n, 4, 1, tol=tol)
        assert 0 < e.width_float <= tol
        assert _f_enclosure(n, 4, 1, None, None, e.lo_float, 2).certified_ge(1)
        assert _f_enclosure(n, 4, 1, None, None, e.hi_float, 2).certified_le(1)
        assert evals[0] <= 12

    def test_former_level_two_straddle_now_certifies(self, evals):
        # the chord envelope straddled 1 at levels 0, 1 and 2 on a point of
        # an earlier walk; the Hermite envelope decides every probe at level 0
        e = solve_predim(3, 4, 1, tol=1.5e-6)
        assert (e.lo_float.hex(), e.hi_float.hex()) == (
            "0x1.830d23f7e2295p-1", "0x1.830d529495d10p-1")
        assert evals[0] == 7
        # it meets the tol-1e-6 bracket of test_tight_bracket_keeps_its_bits
        assert e.lo_float <= float.fromhex("0x1.830d4b07d9997p-1")

    def test_level_zero_decides_the_former_level_two_end(self, evals):
        # the chord envelope certified an end of this bracket only at level 2
        e = solve_predim(5, 4, 1, tol=1e-5)
        assert (e.lo_float.hex(), e.hi_float.hex()) == (
            "0x1.8126e9eaf3003p-1", "0x1.81281906d9bfcp-1")
        assert evals[0] == 7

    def test_tight_level_one_decides_at_level_zero(self, evals):
        # eight probes, each decided by one level-0 setup
        e = solve_predim(1, 4, 1, tol=1e-8)
        assert (e.lo_float.hex(), e.hi_float.hex()) == (
            "0x1.92ecf2a2653cdp-1", "0x1.92ecf2efb4699p-1")
        assert evals[0] <= 8

    def test_level_one_certifies_at_tol_1e_12(self, evals):
        e = solve_predim(1, 4, 1, tol=1e-12)
        assert (e.lo_float.hex(), e.hi_float.hex()) == (
            "0x1.92ecf2c9dfa12p-1", "0x1.92ecf2c9e19bcp-1")
        assert e.lo_float <= ZETA_ROOTS[4] <= e.hi_float
        assert evals[0] == 24

    def test_straddle_at_the_sharpest_evaluator(self, evals):
        # the envelope resolves the n = 1 root to about 1e-12 at level 2, so
        # a probe and a neighbour 0.45e-13 from it both straddle 1
        with pytest.raises(PrecisionExhausted, match="straddles 1 at the sharpest level"):
            solve_predim(1, 4, 1, tol=1e-13)
        assert evals[0] == 28

    def test_tight_bracket_keeps_its_bits(self, evals):
        e = solve_predim(3, 4, 1, tol=1e-6)
        assert (e.lo_float.hex(), e.hi_float.hex()) == (
            "0x1.830d2b84d2e94p-1", "0x1.830d4b07d9997p-1")
        assert evals[0] <= 14

    def test_cold_levels_share_the_edge_sums(self, evals):
        # three kinds at one (n, M): the sums at s = 1 and LEFT_EDGE are set
        # up once, and each root takes a handful of level-0 probes
        predim_result(2, 4, 1, M=None, tol=1e-3)
        assert evals[0] <= 16


class TestReach:
    def test_tol_1e_8_certifies_across_the_grid(self):
        for n, kind, B, M in itertools.product((1, 2, 6), (1, 2, 3), (2, 4), (None, 20)):
            e = solve_predim(n, B, kind, 3, M=M, tol=1e-8)
            key = (n, kind, B, M)
            assert 0 < e.width_float <= 1e-8, key
            assert _f_enclosure(n, B, kind, 3, M, e.lo_float, 2).certified_ge(1), key
            assert _f_enclosure(n, B, kind, 3, M, e.hi_float, 2).certified_le(1), key


class TestCertifiedRoots:
    @pytest.mark.parametrize(
        "n,B,kind,a1z",
        [
            (2, 4, 1, None),
            (3, 2, 1, None),
            (2, 4, 2, 1),
            (2, 4, 3, 1),
            (2, 16, 2, 16),
            (3, 16, 3, 64),
            (5, 2, 2, 6),
        ],
    )
    def test_bracket_straddles_and_is_tight(self, n, B, kind, a1z):
        e = solve_predim(n, B, kind, a1z, tol=1e-3)
        assert e.width_float <= 1e-3
        assert e.lo_float > 0.5
        assert_straddles(n, B, kind, a1z, None, e)

    def test_restricted_alphabet_root_below_full(self):
        full = solve_predim(2, 4, 1, tol=1e-4)
        m20 = solve_predim(2, 4, 1, M=20, tol=1e-4)
        m5 = solve_predim(2, 4, 1, M=5, tol=1e-4)
        assert m5.hi < m20.lo
        assert m20.hi < full.lo
        assert_straddles(2, 4, 1, None, 20, m20)

    def test_tightening_tol_stays_inside(self):
        coarse = solve_predim(2, 4, 1, tol=1e-3)
        fine = solve_predim(2, 4, 1, tol=1e-4)
        assert coarse.lo_float <= fine.lo_float
        assert fine.hi_float <= coarse.hi_float


    def test_tight_full_alphabet_root_certifies(self):
        # the bin envelope spent about a minute on this call and then
        # raised PrecisionExhausted; the chord envelope certifies it
        e = solve_predim(3, 4, 1, tol=2e-5)
        assert 0 < e.width_float <= 2e-5
        assert_straddles(3, 4, 1, None, None, e)
        assert _f_enclosure(3, 4, 1, None, None, e.lo_float, 2).certified_ge(1)
        assert _f_enclosure(3, 4, 1, None, None, e.hi_float, 2).certified_le(1)


class TestValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            solve_predim(1, 4, 4)

    def test_missing_digit(self):
        with pytest.raises(ValueError):
            solve_predim(1, 4, 2)

    def test_base_not_above_one(self):
        with pytest.raises(ValueError):
            solve_predim(1, 1, 1)

    def test_zero_digit(self):
        with pytest.raises(ValueError):
            solve_predim(1, 4, 2, 0)

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            solve_predim(1, 4, 1, tol=0.0)


class TestSelectSn:
    def test_first_branch(self):
        s1, s2, s3 = (rd.from_f64(x, x) for x in (0.60, 0.70, 0.55))
        sn, branch = select_sn(s1, s2, s3)
        assert branch == CASE_S1 and sn == s1

    def test_second_branch_takes_interval_max(self):
        s1, s2, s3 = (rd.from_f64(x, x) for x in (0.80, 0.60, 0.70))
        sn, branch = select_sn(s1, s2, s3)
        assert branch == CASE_MAX_S2_S3
        assert sn.lo_float == pytest.approx(0.70)

    def test_tie_goes_to_first_branch(self):
        s = rd.from_f64(0.66, 0.66)
        sn, branch = select_sn(s, s, rd.from_f64(0.5, 0.5))
        assert branch == CASE_S1

    def test_overlap_raises_without_refine(self):
        s1 = rd.from_f64(0.60, 0.70)
        s2 = rd.from_f64(0.65, 0.75)
        with pytest.raises(AmbiguousBranch):
            select_sn(s1, s2, rd.from_f64(0.5, 0.5))

    def test_overlap_resolved_by_refine(self):
        s1 = rd.from_f64(0.60, 0.70)
        s2 = rd.from_f64(0.65, 0.75)
        s3 = rd.from_f64(0.50, 0.50)

        def refine():
            return rd.from_f64(0.62, 0.63), rd.from_f64(0.69, 0.70), s3

        sn, branch = select_sn(s1, s2, s3, refine=refine)
        assert branch == CASE_S1
        assert sn.hi_float == pytest.approx(0.63)


def _make_result(n, B, a1z, s1, s2, s3):
    sn, branch = select_sn(s1, s2, s3)
    return PredimResult(
        n=n, B=B, a1z=a1z, s1=s1, s2=s2, s3=s3, sn=sn, branch=branch, thresholds=()
    )


class TestThresholds:
    def test_zero_target_all_pass(self):
        s1 = solve_predim(2, 4, 1, tol=1e-3)
        res = _make_result(2, 4, math.inf, s1, enclose(1), enclose(0))
        assert threshold_check(res) == (PASS, PASS, PASS, PASS)

    def test_constructed_large_digit_first_item(self):
        s1 = solve_predim(2, 4, 1, tol=1e-3)
        a1z = math.ceil(4 ** (2 * s1.hi_float)) + 1
        res = _make_result(
            2, 4, a1z, s1, rd.from_f64(0.99, 0.99), rd.from_f64(0.6, 0.6)
        )
        assert res.branch == CASE_S1
        assert threshold_check(res)[0] == PASS

    def test_violating_digit_fails_first_item(self):
        # synthetic data violating the implication: branch one, tiny digit
        s1 = rd.from_f64(0.8, 0.8)
        res = _make_result(3, 4, 1, s1, rd.from_f64(0.9, 0.9), rd.from_f64(0.6, 0.6))
        verdicts = threshold_check(res)
        assert verdicts[0] == FAIL

    def test_computed_families_never_fail(self):
        for B in (2, 4):
            for a1z in (1, 7):
                res = predim_result(2, B, a1z, tol=1e-3)
                assert FAIL not in res.thresholds, (B, a1z, res.thresholds)


class TestPredimResult:
    def test_ones_target_second_branch(self):
        res = predim_result(2, 4, 1, tol=1e-3)
        assert res.branch == CASE_MAX_S2_S3
        assert res.s1.lo > res.s2.hi
        # the selected root is the interval max of s2 and s3
        assert res.sn.lo >= res.s3.lo and res.sn.hi >= res.s3.hi
        assert res.flags == ()
        assert FAIL not in res.thresholds

    def test_clipped_root_is_flagged(self):
        res = predim_result(1, 2, 1, tol=1e-3)
        assert "s3_no_root_in_unit_interval" in res.flags
        assert res.s3 == enclose(1)
        assert res.branch == CASE_MAX_S2_S3
        assert res.sn.hi_float == 1.0

    @pytest.mark.parametrize("M, floor", [(20, 0.0), (None, 0.5)])
    def test_root_below_left_edge_is_enclosed(self, M, floor):
        # a1z ~ e^40 at n = 1: the kind-3 sum is already below 1 at LEFT_EDGE
        a1z = first_digit(TargetSpec.exp_first_digit(40), 1)
        res = predim_result(1, 4, a1z, M=M, tol=1e-3)
        assert res.flags == ("s3_root_below_left_edge",)
        assert (res.s3.lo_float, res.s3.hi_float) == (floor, LEFT_EDGE)
        assert res.branch == CASE_S1

        with mp.workdps(40):
            def log_f(s):  # log of a1z^(-s) 4^(-s/2) sum_k k^(-2s)
                lam = mp.zeta(2 * s) if M is None else mp.fsum(
                    mp.mpf(k) ** (-2 * s) for k in range(1, M + 1))
                return mp.log(lam) - s * mp.log(a1z) - s * mp.log(2)

            a, b = mp.mpf(floor) + mp.mpf(10) ** -30, mp.mpf(LEFT_EDGE)
            assert log_f(a) > 0 > log_f(b)
            for _ in range(120):
                mid = (a + b) / 2
                a, b = (mid, b) if log_f(mid) > 0 else (a, mid)
            assert res.s3.lo <= a and b <= res.s3.hi

    def test_zero_target_selects_first_branch(self):
        res = predim_result(2, 4, math.inf, tol=1e-3)
        assert res.branch == CASE_S1
        assert res.s2 == enclose(1)
        assert res.s3 == enclose(0)
        assert res.sn == res.s1


class TestSstarEstimate:
    def test_zero_target_tracks_s1(self):
        est = sstar_estimate(TargetSpec.zero(), 4, range(1, 4), tol=1e-3)
        assert est.window == (1, 3)
        assert est.skipped == ()
        assert [r.branch for r in est.results] == [CASE_S1] * 3
        for r in est.results:
            assert r.sn == r.s1
        assert list(est.running_lo) == sorted(est.running_lo)
        assert list(est.running_hi) == sorted(est.running_hi)

    def test_ones_target_flags_but_does_not_skip(self):
        est = sstar_estimate(TargetSpec.constant((), (1,)), 2, [1, 2], tol=1e-3)
        assert est.skipped == ()
        assert "s3_no_root_in_unit_interval" in est.results[0].flags
        assert est.results[1].flags == ()

    def test_monotone_in_B(self):
        lo = sstar_estimate(TargetSpec.zero(), 4, [2], tol=1e-3).results[0]
        hi = sstar_estimate(TargetSpec.zero(), 16, [2], tol=1e-3).results[0]
        assert hi.sn.hi < lo.sn.lo

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            sstar_estimate(TargetSpec.zero(), 4, [])
