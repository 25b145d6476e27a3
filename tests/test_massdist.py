"""Witness families: enumeration, measure, gaps, mass and ball bounds.

Roots of the finite-alphabet defining sums were frozen from a 40-digit
mpmath findroot run against the same sums written out by hand.
"""

import hashlib
import itertools
import math
import re
import sys
from bisect import bisect_left
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfshrink import massdist as md
from cfshrink import rounding as rd
from cfshrink.cf_core import cylinder
from cfshrink.errors import BudgetExceeded, NoRoot, PrecisionExhausted
from cfshrink import (
    CASE_I,
    CASE_II,
    CASE_III,
    TargetSpec,
    WitnessParams,
    build_witness,
    content_lower_bound,
    dump_witness,
    enumerate_fundamental,
    gap_check,
    holder_check,
    holder_limit,
    holder_samples,
    mass_bounds_check,
    membership_spotcheck,
    predim_result,
    solve_finite_s,
)
from j_bounds import j_interval_bounds
from interval_members import in_cylinder

# frozen 40-digit roots of the hand-written defining sums
S_I_2_3_B4 = 0.5220791998322338
S_I_1_2_B4 = 0.5312411358984854
S_II_2_2_B4 = 0.4017446643281577  # rate 1/2
S_III_2_2_B4 = 0.3368181137694207  # rate log(3)/4


def params_main():
    # first family, strict regime: eps just over s - t keeps ell = 2 legal
    return WitnessParams(
        CASE_I, 1, (1,), 2, 3, 5, 4, TargetSpec.zero(), Fraction(3, 200), Fraction(101, 200)
    )


def params_tiny_gap():
    # small enough to check every pair; regime floors relaxed on purpose
    return WitnessParams(
        CASE_I, 0, (), 1, 2, 2, 4, TargetSpec.zero(), Fraction(1, 2), Fraction(1, 50), relax=True
    )


def params_case_ii():
    # rational target e^{n/2} ~ a1 = 7 at n = 4, rate pinned to 1/2
    return WitnessParams(
        CASE_II, 0, (), 2, 2, 4, 4,
        TargetSpec.exp_first_digit(Fraction(1, 2), tail=()),
        Fraction(1, 25), Fraction(1, 10), rate=Fraction(1, 2),
    )


def params_case_iii():
    return WitnessParams(
        CASE_III, 0, (), 2, 2, 4, 4, TargetSpec.constant((3,)),
        Fraction(1, 25), Fraction(1, 10),
    )


def params_case_iii_padded():
    # n - k = 5 with ell = 2 forces one padding digit, u~ = (1,)
    return WitnessParams(
        CASE_III, 0, (), 2, 2, 5, 4, TargetSpec.constant((3,)),
        Fraction(1, 25), Fraction(1, 4), relax=True,
    )


# -- references: the interval walk and the all-sample prec-bit loop ----------


def _ball_mass_walk(w, x, r):
    lo, hi = x - r, x + r
    i = bisect_left(w.his, lo)
    mass = Fraction(0)
    while i < len(w.los) and w.los[i] < hi:
        a = w.los[i] if w.los[i] > lo else lo
        b = w.his[i] if w.his[i] < hi else hi
        if b > a:
            mass += w.masses[i] * (b - a) / (w.his[i] - w.los[i])
        i += 1
    return mass


def _holder_every_sample(witness, samples, prec=md.RATIO_PREC):
    p = witness.params
    t = p.t
    L0 = witness.root_length
    limit = md.holder_limit(p)
    fine_at = witness.min_gap() / 2
    max_ratio, argmax = 0.0, None
    big_n = fine_n = 0
    big_max = fine_max = 0.0
    fine_ok = True
    failures = []
    for x, r in samples:
        x, r = Fraction(x), Fraction(r)
        mass = _ball_mass_walk(witness, x, r)
        if mass == 0:
            hi = 0.0
        else:
            ratio = rd.mul(rd.enclose(mass), rd.powr(rd.enclose(L0 / r), t, prec), prec)
            hi = ratio.hi_float
            if not ratio.certified_le(limit):
                failures.append((x, r, hi))
        if hi > max_ratio:
            max_ratio, argmax = hi, (x, r)
        if r >= L0:
            big_n += 1
            big_max = max(big_max, hi)
        if r <= fine_at:
            fine_n += 1
            fine_max = max(fine_max, hi)
            if hi > md._FINE_LIMIT:
                fine_ok = False
    return md.HolderReport(
        len(samples), limit, max_ratio, argmax, big_n, big_max, fine_n, fine_max,
        tuple(failures), "PASS" if not failures else "FAIL", "PASS" if fine_ok else "FAIL",
    )


@pytest.fixture(scope="module")
def w_main():
    return build_witness(params_main())


@pytest.fixture(scope="module")
def w_gap():
    return build_witness(params_tiny_gap())


@pytest.fixture(scope="module")
def w_ii():
    return build_witness(params_case_ii())


@pytest.fixture(scope="module")
def w_iii():
    return build_witness(params_case_iii())


@pytest.fixture(scope="module")
def all_witnesses(w_main, w_gap, w_ii, w_iii):
    return (w_main, w_gap, w_ii, w_iii)


class TestSolver:
    def test_case_i_oracle(self):
        assert solve_finite_s(CASE_I, 2, 3, 4) == pytest.approx(S_I_2_3_B4, abs=5e-13)
        assert solve_finite_s(CASE_I, 1, 2, 4) == pytest.approx(S_I_1_2_B4, abs=5e-13)

    def test_case_ii_oracle(self):
        s = solve_finite_s(CASE_II, 2, 2, 4, rate=Fraction(1, 2))
        assert s == pytest.approx(S_II_2_2_B4, abs=5e-13)

    def test_case_iii_oracle(self):
        s = solve_finite_s(CASE_III, 2, 2, 4, rate=Fraction(math.log(3)) / 4)
        assert s == pytest.approx(S_III_2_2_B4, abs=1e-12)

    def test_no_root_for_single_letter(self):
        # {1}^1 gives sum B^{-s^2} < 1 everywhere
        with pytest.raises(NoRoot):
            solve_finite_s(CASE_I, 1, 1, 4)

    def test_root_grows_with_alphabet(self):
        roots = [solve_finite_s(CASE_I, 2, M, 4) for M in (2, 3, 5, 8)]
        assert all(a < b for a, b in zip(roots, roots[1:]))

    def test_matches_level_one_prediction(self):
        # at ell = 1 the defining sum is the level-1 kind-1 equation
        s = solve_finite_s(CASE_I, 1, 20, 4)
        res = predim_result(1, 4, math.inf, M=20)
        assert abs(s - res.s1.mid_float) < 1e-4

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            solve_finite_s("IV", 2, 3, 4)
        with pytest.raises(ValueError):
            solve_finite_s(CASE_II, 2, 3, 4)  # missing rate
        with pytest.raises(ValueError):
            solve_finite_s(CASE_I, 2, 3, 4, rate=Fraction(1, 2))
        with pytest.raises(BudgetExceeded):
            solve_finite_s(CASE_I, 9, 30, 4)

    @pytest.mark.parametrize("tol", [0, -1, math.nan, math.inf, Fraction(0)])
    def test_bad_tol_is_rejected_before_any_work(self, tol, monkeypatch):
        monkeypatch.setattr(md, "_block_words", lambda *a: pytest.fail("words enumerated"))
        with pytest.raises(ValueError, match="tol"):
            solve_finite_s(CASE_I, 2, 3, 4, tol=tol)

    def test_float_tol(self):
        s = solve_finite_s(CASE_I, 2, 3, 4, tol=1e-9)
        assert s == pytest.approx(S_I_2_3_B4, abs=1e-9)

    def test_tol_below_the_float_grid_is_rejected(self):
        # probes are floats: a tol under their spacing could never be met
        with pytest.raises(ValueError, match="2\\^-52"):
            solve_finite_s(CASE_I, 2, 3, 4, tol=1e-17)


def _bisection_oracle(case, ell, M, B, rate, tol=Fraction(1, 10**13)):
    """s(ell, M) by plain certified bisection: halve [2^-20, 1] in Fractions,
    each sign of sum - 1 certified at 128, 256 or 512 bits (46 sums a root)."""
    qcounts = tuple(Counter(md._q_of(a) for a in md._block_words(ell, M)).items())

    def sign(s):
        for prec in (128, 256, 512):
            diff = rd.sub(md._sum_at(case, ell, M, B, rate, s, qcounts, prec), rd.enclose(1), prec)
            if diff.certified_gt(0):
                return 1
            if diff.certified_lt(0):
                return -1
        raise PrecisionExhausted(f"defining sum straddles 1 at s={float(s):.17g}")

    lo, hi = Fraction(1, 2**20), Fraction(1)
    if sign(lo) < 0:
        raise NoRoot(
            f"defining sum never reaches 1 on (0, 1] for case {case}, "
            f"ell={ell}, M={M}; enlarge the alphabet"
        )
    if sign(hi) > 0:
        raise NoRoot(f"defining sum still exceeds 1 at s=1 (case {case}, ell={ell}, M={M})")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if sign(mid) > 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


@pytest.fixture
def sums_at(monkeypatch):
    """Counts the certified defining sums _solve_bracket evaluates."""
    count = [0]
    sum_at = md._sum_at

    def counted(*args):
        count[0] += 1
        return sum_at(*args)

    monkeypatch.setattr(md, "_sum_at", counted)
    return count


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_benchmark_finite_s_check(seed, monkeypatch):
    """The benchmark's finite_s_sign_change check, on its own seeded inputs."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    monkeypatch.delitem(sys.modules, "checks", raising=False)
    import checks
    import workloads

    spec = workloads.make_spec("witness-checks", seed)
    out = {f"finite_s/{case}": solve_finite_s(case, ell, M, B, None if rate is None else Fraction(rate))
           for case, ell, M, B, rate in spec["finite_s"]}
    assert len(out) == 3
    assert checks.check_finite_s(spec, out) == []
    assert checks.check_finite_s(spec, checks.corrupt_finite_s(out))


class TestRootLoopAgainstBisection:
    # cases I-III, ell = 1 and ell >= 2, rates 1/16 .. 1/2
    @pytest.mark.parametrize("case, ell, M, B, rate", [
        (CASE_I, 1, 2, 5, None), (CASE_I, 2, 3, 4, None), (CASE_I, 3, 2, 2, None),
        (CASE_II, 1, 4, 3, Fraction(1, 16)), (CASE_II, 2, 2, 4, Fraction(1, 2)),
        (CASE_II, 3, 3, 5, Fraction(5, 16)), (CASE_III, 1, 5, 2, Fraction(5, 16)),
        (CASE_III, 2, 4, 3, Fraction(1, 2)), (CASE_III, 3, 2, 4, Fraction(1, 16)),
    ])
    def test_meets_the_bisection_bracket(self, sums_at, case, ell, M, B, rate):
        lo_ref, hi_ref = _bisection_oracle(case, ell, M, B, rate)
        sums_at[0] = 0
        lo, hi = md._solve_bracket(case, ell, M, B, rate)
        assert lo <= hi_ref and lo_ref <= hi
        assert 0 < hi - lo <= Fraction(1, 10**13)
        assert 3 <= sums_at[0] <= 12

    @pytest.mark.parametrize("case, ell, M, B, rate", [
        (CASE_I, 1, 1, 4, None), (CASE_III, 2, 1, 2, Fraction(1, 2)),
    ])
    def test_no_root_alphabet_raises_as_the_bisection(self, case, ell, M, B, rate):
        with pytest.raises(NoRoot) as ref:
            _bisection_oracle(case, ell, M, B, rate)
        with pytest.raises(NoRoot, match=re.escape(str(ref.value))):
            md._solve_bracket(case, ell, M, B, rate)

    def test_straddle_near_the_root_exhausts_precision(self, monkeypatch):
        # every sum within 1e-9 of the root straddles 1 at each precision, so
        # a probe there and its neighbours 4.5e-14 away all straddle
        sum_at = md._sum_at
        root = Fraction(S_I_2_3_B4)

        def blurred(case, ell, M, B, rate, s, qcounts, prec):
            if abs(s - root) < Fraction(1, 10**9):
                return rd.from_f64(0.5, 2.0)
            return sum_at(case, ell, M, B, rate, s, qcounts, prec)

        monkeypatch.setattr(md, "_sum_at", blurred)
        with pytest.raises(PrecisionExhausted, match="defining sum straddles 1 at s="):
            md._solve_bracket(CASE_I, 2, 3, 4, None)


def _block_factor_oracle(case, ell, B, rate, s):
    """The per-block factors as products of powers, in mpmath."""
    s, Bm = mp.mpf(s.numerator) / s.denominator, mp.mpf(B)
    if case == CASE_I:
        return Bm ** (-ell * s * s)
    g = ell * mp.mpf(rate.numerator) / rate.denominator
    if case == CASE_II:
        return mp.exp(g * (1 - s)) * Bm ** (-ell * s)
    return mp.exp(-g * s) * Bm ** (-ell * s / 2)


class TestBlockFactor:
    @pytest.mark.parametrize("prec", [128, 256, 512])
    @pytest.mark.parametrize("case", [CASE_I, CASE_II, CASE_III])
    def test_contains_mpmath(self, case, prec):
        rates = (None,) if case == CASE_I else (Fraction(1, 5), Fraction(math.log(3)) / 4)
        for ell, B, s, rate in itertools.product(
                (1, 3), (2, 4), (Fraction(5, 8), Fraction(1, 3), Fraction(1)), rates):
            e = md._block_factor(case, ell, B, rate, s, prec)
            with mp.workprec(prec + 64):
                ref = _block_factor_oracle(case, ell, B, rate, s)
                # B^(-ell) at s = 1 is dyadic: allow the oracle its own rounding
                slack = ref * mp.mpf(2) ** -(prec + 32)
                assert e.lo <= ref + slack and ref - slack <= e.hi, (case, ell, B, s, rate)


class TestParams:
    def test_derived_shape(self):
        p = params_main()
        assert (p.m, p.ell0, p.u_tilde) == (2, 0, (1,))
        assert p.s_lo < Fraction(p.s) < p.s_hi or p.s_lo <= Fraction(p.s) <= p.s_hi
        assert p.s_hi - p.s_lo <= Fraction(1, 10**13)
        assert p.s == pytest.approx(S_I_2_3_B4, abs=5e-13)

    def test_padding_digits(self):
        p = params_case_iii_padded()
        assert (p.m, p.ell0, p.u_tilde) == (2, 1, (1,))

    def test_auto_rate_from_target(self):
        p = params_case_iii()
        assert p.rate == Fraction(math.log(3)) / 4

    def test_shape_validation(self):
        zero = TargetSpec.zero()
        with pytest.raises(ValueError):  # k does not match u
            WitnessParams(CASE_I, 2, (1,), 2, 3, 5, 4, zero, Fraction(1, 100), Fraction(1, 2))
        with pytest.raises(ValueError):  # no room for a block
            WitnessParams(CASE_I, 1, (1,), 2, 3, 2, 4, zero, Fraction(1, 100), Fraction(1, 2))
        with pytest.raises(ValueError):  # t out of range
            WitnessParams(CASE_I, 1, (1,), 2, 3, 5, 4, zero, Fraction(3, 2), Fraction(1, 2))
        with pytest.raises(ValueError):  # case I takes no rate
            WitnessParams(CASE_I, 1, (1,), 2, 3, 5, 4, zero, Fraction(1, 100), Fraction(1, 2),
                          rate=Fraction(1, 2))
        with pytest.raises(ValueError):  # zero target has no finite first digit
            WitnessParams(CASE_II, 1, (1,), 2, 3, 5, 4, zero, Fraction(1, 100), Fraction(1, 2))

    def test_regime_floor_on_ell(self):
        zero = TargetSpec.zero()
        with pytest.raises(ValueError, match="2t/eps"):
            WitnessParams(CASE_I, 0, (), 1, 2, 2, 4, zero, Fraction(1, 2), Fraction(1, 50))
        # the same shape is allowed for exploration
        p = WitnessParams(CASE_I, 0, (), 1, 2, 2, 4, zero, Fraction(1, 2), Fraction(1, 50),
                          relax=True)
        assert p.m == 2

    def test_growth_window_enforced(self):
        # a1(z_4) = 3 sits far below e^{4(2 - 1/10)}
        with pytest.raises(ValueError, match="window"):
            WitnessParams(CASE_III, 0, (), 2, 2, 4, 4, TargetSpec.constant((3,)),
                          Fraction(1, 25), Fraction(1, 10), rate=2)


class TestEnumerate:
    def test_family_size_and_order(self, w_main):
        assert len(w_main.intervals) == 81  # (3^2)^2 block choices, one closing digit
        assert sorted(w_main.last_weights) == [2]
        los = [F.lo for F in w_main.intervals]
        assert los == sorted(los)
        assert all(a.hi < b.lo for a, b in zip(w_main.intervals, w_main.intervals[1:]))

    def test_case_iii_counts(self, w_iii):
        assert len(w_iii.intervals) == 16  # no freedom in the closing digit
        assert sorted(w_iii.last_weights) == [3]

    def test_rational_target_gives_exact_endpoints(self, w_main):
        assert all(F.exact_endpoints for F in w_main.intervals)

    def test_shaved_endpoints_flagged(self, w_iii):
        assert not any(F.exact_endpoints for F in w_iii.intervals)

    def test_words_carry_full_address(self, w_main):
        F = w_main.intervals[0]
        flat = sum(F.blocks, ())
        assert F.word == w_main.params.u_tilde + flat + (F.last,)
        assert F.address == F.blocks + (F.last,)
        assert in_cylinder(cylinder(F.word), F.lo + F.length / 2)

    def test_membership_inside_every_interval(self, all_witnesses):
        for w in all_witnesses:
            rep = membership_spotcheck(w.intervals, w.params, points=5)
            assert rep.verdict == "PASS", rep.failures[:3]
            assert rep.checked == 5 * len(w.intervals)

    def test_guaranteed_core_sits_inside_the_j_interval_cover(self):
        # a surd target's fundamental intervals lie in the J-bound cover
        for case, spec in [
            (CASE_I, TargetSpec.constant((), (1,))),  # a1 = 1 next to the closing digit 2
            (CASE_III, TargetSpec.constant((1,), (2,))),
            (CASE_III, TargetSpec.constant((), (3,))),
        ]:
            p = WitnessParams(case, 1, (1,), 2, 3, 5, 4, spec, Fraction(3, 200),
                              Fraction(101, 200), relax=True)
            intervals = enumerate_fundamental(p)
            assert len(intervals) == 81
            for F in intervals:
                prefix = F.word[:-1]
                cover = j_interval_bounds(prefix, F.last, p.spec, p.B, p.n).cover_intervals()
                assert any(a <= F.lo < F.hi <= b for a, b in cover), (F.word, F.lo, F.hi, cover)

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            enumerate_fundamental(params_main(), budget=10)


class TestMeasure:
    def test_total_mass_exactly_one(self, all_witnesses):
        for w in all_witnesses:
            assert w.total_mass == Fraction(1)
            assert sum(w.block_weights.values()) == Fraction(1)
            assert w.block_sum_residual < 1e-10

    def test_interval_mass_is_product(self, w_main):
        F = w_main.intervals[0]
        expect = (
            w_main.block_weights[F.blocks[0]]
            * w_main.block_weights[F.blocks[1]]
            * w_main.last_weights[F.last]
        )
        assert w_main.interval_mass(F) == expect

    def test_address_prefix_mass(self, w_main):
        # one-block address sums the masses of its continuations
        blk = (1, 2)
        total = sum(
            w_main.interval_mass(F) for F in w_main.intervals if F.blocks[0] == blk
        )
        assert w_main.weight((blk,)) == total

    def test_ball_mass_exact_half(self, w_main):
        F = w_main.intervals[0]
        got = md._ball_mass(w_main, F.lo, F.length / 2)
        assert got == w_main.interval_mass(F) / 2

    def test_ball_covering_support(self, w_main):
        assert md._ball_mass(w_main, Fraction(1, 2), Fraction(2)) == Fraction(1)

    def test_ball_in_gap_has_no_mass(self, w_main):
        a, b = w_main.intervals[0], w_main.intervals[1]
        mid = (a.hi + b.lo) / 2
        r = (b.lo - a.hi) / 4
        assert md._ball_mass(w_main, mid, r) == 0

    def test_last_entry_normalization_recorded(self, w_main, w_iii):
        # uniform 1/count is used; the unnormalized convention is reported
        assert w_main.last_weights[2] == Fraction(1)
        assert w_main.nominal_last_total == pytest.approx(2 * 4 ** -0.075, rel=1e-12)
        assert w_iii.nominal_last_total == 1.0

    @given(st.integers(0, 80), st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_ball_mass_monotone_in_radius(self, w_main, idx, steps):
        x = w_main.intervals[idx].lo
        r1 = Fraction(steps, 600)
        r2 = r1 + Fraction(1, 600)
        assert md._ball_mass(w_main, x, r1) <= md._ball_mass(w_main, x, r2)


class TestGapLemma:
    def test_exhaustive_small_family(self, w_gap):
        rep = gap_check(w_gap.intervals, w_gap.params)
        assert rep.verdict == "PASS"
        assert rep.pairs == 66  # all 12 choose 2
        assert rep.block_pairs + rep.last_pairs == rep.pairs
        assert rep.min_margin > 1

    def test_main_instance(self, w_main):
        rep = gap_check(w_main.intervals, w_main.params)
        assert rep.verdict == "PASS"
        assert rep.pairs == 81 * 40
        assert rep.last_pairs == 0  # single closing digit
        assert rep.min_margin > 1
        assert rep.worst is not None

    def test_second_and_third_families(self, w_ii, w_iii):
        for w in (w_ii, w_iii):
            rep = gap_check(w.intervals, w.params)
            assert rep.verdict == "PASS", rep.failures[:3]


class TestMassLemma:
    def test_prefix_masses_within_continuant_bound(self, all_witnesses):
        for w in all_witnesses:
            rep = mass_bounds_check(w)
            assert rep.verdict == "PASS", rep.failures[:3]
            assert rep.max_cylinder_ratio <= 1 + 1e-9

    def test_cylinder_count(self, w_main):
        rep = mass_bounds_check(w_main)
        assert rep.cylinders == 1 + 9 + 81
        assert rep.fundamentals == 81

    def test_fundamental_constant_first_family(self, w_main, w_gap):
        for w in (w_main, w_gap):
            rep = mass_bounds_check(w)
            assert rep.fundamental_limit == 64
            assert rep.max_fundamental_ratio <= 64

    def test_fundamental_ratio_reported_otherwise(self, w_ii, w_iii):
        for w in (w_ii, w_iii):
            rep = mass_bounds_check(w)
            assert rep.fundamental_limit is None
            assert 0 < rep.max_fundamental_ratio < 64  # finite and tame here


class TestHolder:
    def test_main_instance_bulk(self, w_main):
        samples = holder_samples(w_main, 10_000, seed=20260814)
        rep = holder_check(w_main, samples)
        assert rep.verdict == "PASS"
        assert rep.samples == 10_000
        assert rep.limit == holder_limit(w_main.params) == 2_560_000
        assert rep.max_ratio <= rep.limit
        assert rep.big_samples > 100 and rep.big_max <= 1 + 1e-9
        assert rep.fine_samples > 100 and rep.fine_verdict == "PASS"
        assert rep.fine_max <= 128

    def test_other_families(self, w_gap, w_ii, w_iii):
        for w in (w_gap, w_ii, w_iii):
            rep = holder_check(w, holder_samples(w, 1500, seed=5))
            assert rep.verdict == "PASS", rep.failures[:3]
            assert rep.fine_verdict == "PASS"

    def test_samples_deterministic(self, w_main):
        a = holder_samples(w_main, 64, seed=3)
        b = holder_samples(w_main, 64, seed=3)
        c = holder_samples(w_main, 64, seed=4)
        assert a == b
        assert a != c

    @pytest.mark.parametrize("name, digest", [
        ("w_main", "00c6999a463d3c579a3fa9bf34ce7da52e208af7434ee55eccf477bb0860b60f"),
        ("w_iii", "49c649a9c775dfe049244b545a40aaf0a80df690d77ca829f92ade00c4ad47ce"),
    ], ids=["w_main", "w_iii"])
    def test_sample_stream_is_pinned(self, request, name, digest):
        # a reordered draw is still deterministic, but it moves this digest
        samples = holder_samples(request.getfixturevalue(name), 256, seed=3)
        assert hashlib.sha256(repr(samples).encode()).hexdigest() == digest

    def test_radii_are_rational_and_positive(self, w_main):
        for x, r in holder_samples(w_main, 200, seed=9):
            assert isinstance(x, Fraction) and isinstance(r, Fraction)
            assert 0 <= x <= 1 and r > 0


def _ball_grid(w):
    """Balls hitting no interval, one, several or all, ending exactly on
    endpoints, and centred outside [0, 1]."""
    ivs = w.intervals
    out = [(Fraction(1, 2), Fraction(2)), (Fraction(-1, 2), Fraction(1, 4)),
           (Fraction(3, 2), Fraction(1, 4)), (Fraction(-1, 2), 1 - ivs[0].lo / 2),
           (Fraction(3, 2), Fraction(3, 2) - (ivs[-1].lo + ivs[-1].hi) / 2),
           ((ivs[0].lo + ivs[-1].hi) / 2, (ivs[-1].hi - ivs[0].lo) / 2)]
    for F, G in zip(ivs, ivs[1:]):
        gap = G.lo - F.hi
        for x in (F.lo, F.hi, (F.lo + F.hi) / 2, F.hi + gap / 2, F.lo + F.length / 3):
            for r in (gap / 4, F.length / 7, F.length / 2, F.length, G.hi - x, G.lo - x,
                      x - F.lo, 3 * F.length):
                if r > 0:
                    out.append((x, r))
    return out


class TestBallMassOracle:
    def test_grid_matches_interval_walk(self, all_witnesses):
        for w in all_witnesses:
            for x, r in _ball_grid(w):
                assert md._ball_mass(w, x, r) == _ball_mass_walk(w, x, r), (x, r)

    def test_grid_covers_every_shape(self, w_main):
        F, G = w_main.intervals[0], w_main.intervals[1]
        gap = G.lo - F.hi
        assert md._ball_mass(w_main, F.hi + gap / 2, gap / 2) == 0  # ends on both endpoints
        assert md._ball_mass(w_main, F.hi + gap / 2, gap / 4) == 0  # inside a gap
        assert md._ball_mass(w_main, F.lo + F.length / 2, F.length / 2) == w_main.masses[0]
        assert md._ball_mass(w_main, Fraction(-1, 2), Fraction(1, 4)) == 0
        assert md._ball_mass(w_main, Fraction(3, 2), Fraction(2)) == 1
        mid = F.lo + F.length / 2
        for r in (Fraction(0), -F.length / 4, Fraction(-3)):  # empty or reversed
            assert md._ball_mass(w_main, mid, r) == _ball_mass_walk(w_main, mid, r) == 0

    @given(st.integers(0, 80), st.integers(-300, 400), st.integers(1, 10**6),
           st.sampled_from([1, 7, 64, 4096, 2**40]))
    @settings(max_examples=300, deadline=None)
    def test_random_balls_match_interval_walk(self, w_main, idx, xs, rs, scale):
        F = w_main.intervals[idx]
        x = F.lo + F.length * Fraction(xs, 100)
        r = F.length * Fraction(rs, scale)
        assert md._ball_mass(w_main, x, r) == _ball_mass_walk(w_main, x, r)

    @given(st.integers(0, 80), st.booleans(), st.booleans(), st.integers(1, 10**6),
           st.sampled_from([1, 3, 64, 2**20, 2**48 + 2]))
    @settings(max_examples=300, deadline=None)
    def test_balls_ending_on_endpoints_match_interval_walk(self, w_main, idx, at_hi, left,
                                                           rs, scale):
        F = w_main.intervals[idx]
        end = F.hi if at_hi else F.lo
        r = F.length * Fraction(rs, scale)
        x = end - r if left else end + r  # x + r or x - r is exactly the endpoint
        assert md._ball_mass(w_main, x, r) == _ball_mass_walk(w_main, x, r)

    @given(st.integers(0, 80), st.booleans(), st.integers(1, 2**48), st.integers(1, 2**48),
           st.sampled_from([Fraction(1, 10**6), Fraction(1, 100), 1, 50]))
    @settings(max_examples=300, deadline=None)
    def test_unit_grid_balls_match_interval_walk(self, w_main, idx, inside, u, v, scale):
        # x and r on holder_samples' grid a + (b - a) u / (2^48 + 2)
        F = w_main.intervals[idx]
        unit = Fraction(u, 2**48 + 2)
        x = F.lo + F.length * unit if inside else unit
        r = F.length * scale * Fraction(v, 2**48 + 2)
        assert md._ball_mass(w_main, x, r) == _ball_mass_walk(w_main, x, r)

    def test_integer_centres_and_radii(self, all_witnesses):
        balls = [(0, 1), (1, 1), (0, 2), (2, 1), (-1, 1), (1, 3), (0, Fraction(1, 3)),
                 (Fraction(1, 2), 1), (0, 0), (1, -1)]
        for w in all_witnesses:
            for x, r in balls:
                assert md._ball_mass(w, x, r) == _ball_mass_walk(w, x, r), (x, r)
            kept = [(x, r) for x, r in balls if r > 0]
            assert holder_check(w, kept) == _holder_every_sample(w, kept)

    def test_prefix_sums_are_exact(self, all_witnesses):
        for w in all_witnesses:
            assert w.cum[0] == 0 and w.cum[-1] == w.total_mass == 1
            assert [b - a for a, b in zip(w.cum, w.cum[1:])] == list(w.masses)


def _prebound(w, masses, quotients):
    m = np.array([md._float_or_inf(*v.as_integer_ratio()) for v in masses])
    q = np.array([md._float_or_inf(*v.as_integer_ratio()) for v in quotients])
    return md._ratio_prebound(m, q, np.array([v != 0 for v in masses]), w.params.t)


def _t_near_one(w):
    # same intervals and weights, t so close to 1 that t ln(L0/r) can leave
    # [ivec.EXP_MIN, ivec.EXP_MAX] while L0/r is still a normal float
    params = replace(w.params, t=Fraction(9999, 10000), relax=True)
    return md.WitnessMeasure(params, w.intervals, w.block_weights, w.last_weights,
                             w.block_sum_residual, w.nominal_last_total)


def _nearest_float(fr):
    try:
        return float(fr)
    except OverflowError:
        return math.inf


class TestFloatPass:
    def test_floats_are_those_of_the_exact_rationals(self, all_witnesses):
        for w in all_witnesses:
            L0, fine_at = w.root_length, w.min_gap() / 2
            F = w.intervals[len(w.intervals) // 2]
            odd = [
                (F.lo + F.length / 2, L0 / 2**1100),  # L0/r overflows to inf
                (F.hi - F.length / 2**1050, F.length / 2**1050),  # subnormal mass
                (F.hi - F.length / 2**1200, F.length / 2**1200),  # mass rounds to 0.0
                (0, 1), (1, Fraction(1, 3)),
            ]
            samples = holder_samples(w, 300, seed=13) + _ball_grid(w)[:300] + odd
            m, q, nonzero, big, fine = md._sample_floats(w, samples, md._mass_tables(w))
            for k, (x, r) in enumerate(samples):
                mass = _ball_mass_walk(w, x, r)
                assert m[k].hex() == _nearest_float(mass).hex(), (x, r)
                assert q[k].hex() == (_nearest_float(L0 / r) if mass else 0.0).hex(), (x, r)
                assert (nonzero[k], big[k], fine[k]) == (mass != 0, r >= L0, r <= fine_at)
            assert q[-5] == math.inf and 0 < m[-4] < np.finfo(float).tiny
            assert m[-3] == 0.0 and nonzero[-3]


class TestHolderOracle:
    @pytest.mark.parametrize("seed", [1, 77, 2026])
    def test_report_equals_every_sample_loop(self, all_witnesses, seed):
        for w in all_witnesses:
            samples = holder_samples(w, 700, seed=seed)
            assert holder_check(w, samples) == _holder_every_sample(w, samples)

    def test_ties_keep_the_first_argmax(self, w_main):
        # equal balls inside one interval have equal ratios at different x;
        # smaller balls there have smaller ratios (mass ~ r, ratio ~ r^(1-t))
        F = w_main.intervals[40]
        tied = [(F.lo + F.length * Fraction(k, 10), F.length / 20) for k in range(2, 9)]
        small = [(F.lo + F.length * Fraction(k, 10), F.length / 40) for k in range(2, 9)]
        for samples in (small + tied, tied[::-1] + small):
            rep = holder_check(w_main, samples)
            assert rep == _holder_every_sample(w_main, samples)
            assert rep.argmax == next(s for s in samples if s in tied)

    def test_limit_either_side_of_max(self, w_main, monkeypatch):
        samples = holder_samples(w_main, 600, seed=7)
        top = _holder_every_sample(w_main, samples).max_ratio
        verdicts = set()
        for limit in (math.nextafter(top, 0), top, math.nextafter(top, math.inf),
                      top / 3, int(top)):
            monkeypatch.setattr(md, "holder_limit", lambda p, v=limit: v)
            rep = holder_check(w_main, samples)
            assert rep == _holder_every_sample(w_main, samples), limit
            assert rep.limit == limit
            verdicts.add(rep.verdict)
        assert verdicts == {"PASS", "FAIL"}

    def test_fine_limit_either_side_of_max(self, w_main, monkeypatch):
        samples = holder_samples(w_main, 600, seed=8)
        top = _holder_every_sample(w_main, samples).fine_max
        verdicts = set()
        for limit in (math.nextafter(top, 0), top, math.nextafter(top, math.inf), top / 2):
            monkeypatch.setattr(md, "_FINE_LIMIT", limit)
            rep = holder_check(w_main, samples)
            assert rep == _holder_every_sample(w_main, samples), limit
            verdicts.add(rep.fine_verdict)
        assert verdicts == {"PASS", "FAIL"}

    def test_unformable_prebounds_fall_back(self, w_iii):
        L0 = w_iii.root_length
        F, G = w_iii.intervals[3], w_iii.intervals[4]
        gap = G.lo - F.hi

        def grazing(eps):  # a ball reaching eps * |F| into F from its right end
            return F.hi - F.length * eps + gap / 4, gap / 4

        odd = [
            (F.lo + F.length / 2, L0 / 2**1100),  # L0/r beyond float64
            grazing(Fraction(1, 2**1050)),  # subnormal float mass
            grazing(Fraction(1, 2**1200)),  # mass rounds to float zero
            # normal float mass, ratio below the normal range
            (w_iii.intervals[0].lo - L0 * 2**200 + w_iii.intervals[0].length / 2**1014,
             L0 * 2**200),
        ]
        w_t = _t_near_one(w_iii)
        odd_t = [
            (F.lo + F.length / 2, L0 / Fraction(math.exp(709.5))),  # t ln(L0/r) > EXP_MAX
            (Fraction(1, 2), L0 * 2**1022),  # t ln(L0/r) < EXP_MIN
        ]
        for w, special in ((w_iii, odd), (w_t, odd_t)):
            L0 = w.root_length
            masses = [md._ball_mass(w, x, r) for x, r in special]
            assert all(m > 0 for m in masses)
            lo, hi = _prebound(w, masses, [L0 / r for _, r in special])
            assert list(lo) == [0.0] * len(special) and list(hi) == [math.inf] * len(special)
            samples = holder_samples(w, 300, seed=4)
            mixed = samples[:100] + special + samples[100:]
            assert holder_check(w, mixed) == _holder_every_sample(w, mixed)

    def test_report_does_not_depend_on_chunking(self, w_iii, monkeypatch):
        samples = holder_samples(w_iii, 500, seed=9)
        ref = _holder_every_sample(w_iii, samples)
        for chunk in (1, 7, 10**6):
            monkeypatch.setattr(md, "_PREBOUND_CHUNK", chunk)
            assert holder_check(w_iii, samples) == ref
        with pytest.raises(ValueError, match="at least one sample"):
            holder_check(w_iii, [])
        F = w_iii.intervals[5]
        for r in (0, -F.length / 4):
            with pytest.raises(ValueError, match="ball radius must be positive"):
                holder_check(w_iii, samples[:50] + [(F.lo + F.length / 2, r)])

    def test_low_precision_checks_every_sample(self, w_ii):
        samples = holder_samples(w_ii, 300, seed=6)
        for prec in (53, 63, 64):
            assert holder_check(w_ii, samples, prec=prec) == _holder_every_sample(
                w_ii, samples, prec=prec
            )

    def test_prebound_contains_the_prec_bit_ratio(self, all_witnesses):
        for w in all_witnesses:
            samples = holder_samples(w, 300, seed=21)
            masses = [md._ball_mass(w, x, r) for x, r in samples]
            quotients = [w.root_length / r for _, r in samples]
            lo, hi = _prebound(w, masses, quotients)
            top = md.ivec.up(hi * md._PREBOUND_SLACK)
            for k, (mass, q) in enumerate(zip(masses, quotients)):
                if mass == 0:
                    assert lo[k] == hi[k] == 0
                    continue
                ratio = rd.mul(rd.enclose(mass), rd.powr(rd.enclose(q), w.params.t, 256), 256)
                assert ratio.lo_float <= hi[k] and lo[k] <= ratio.hi_float
                fast = rd.mul(rd.enclose(mass), rd.powr(rd.enclose(q), w.params.t, 96), 96)
                assert fast.hi_float <= top[k]

    def test_rule_keeps_the_documented_gap(self):
        # at 96 bits hi_float <= hi (1 + 2^-51): a pre-bound two floats under
        # a floor or the limit can still reach it there
        def below(f):
            h = np.nextafter(np.nextafter(f, 0), 0)
            assert Fraction(float(h)) * (1 + Fraction(1, 2**51)) >= f
            return h

        no = np.zeros(2, dtype=bool)
        lo = np.array([1.0, 3.0])
        hi = np.array([below(3.0), 3.5])
        assert list(md._needs_exact(lo, hi, no, no, 1000)) == [True, True]
        lo, hi = np.array([0.5]), np.array([below(1000.0)])
        assert list(md._needs_exact(lo, hi, no[:1], no[:1], 1000)) == [True]

    def test_rule_covers_each_group(self):
        #            all-max  big     big    fine    fine   zero   trivial
        lo = np.array([100.0, 0.5, 0.1, 50.0, 10.0, 0.0, 0.0])
        hi = np.array([101.0, 0.6, 0.2, 51.0, 11.0, 0.0, np.inf])
        big = np.array([False, True, True, False, False, False, False])
        fine = np.array([False, False, False, True, True, True, False])
        got = md._needs_exact(lo, hi, big, fine, 1000)
        assert list(got) == [True, True, False, True, False, False, True]

    def test_most_samples_skip_the_prec_bit_path(self, w_main):
        samples = holder_samples(w_main, 2000, seed=3)
        masses = [md._ball_mass(w_main, x, r) for x, r in samples]
        lo, hi = _prebound(w_main, masses, [w_main.root_length / r for _, r in samples])
        L0, fine_at = w_main.root_length, w_main.min_gap() / 2
        big = np.array([r >= L0 for _, r in samples])
        fine = np.array([r <= fine_at for _, r in samples])
        exact = md._needs_exact(lo, hi, big, fine, holder_limit(w_main.params))
        assert 0 < exact.sum() <= 20


class TestContent:
    def test_main_instance_beats_closed_form(self, w_main):
        rep = content_lower_bound(w_main)
        assert rep.verdict == "PASS"
        assert rep.constant == 2_560_000
        assert rep.total_mass == Fraction(1)
        # 2^(ell+8) (M+2)^4 (M+1)^(2 ell) = 1024 * 625 * 256 under |I_1(1)| = 1/2
        assert rep.reference_floor == Fraction(1, 2) / 163_840_000
        assert rep.bound.lo_float > float(rep.reference_floor)

    def test_all_instances(self, all_witnesses):
        for w in all_witnesses:
            assert content_lower_bound(w).verdict == "PASS"

    def test_smaller_t_gives_larger_bound(self, w_main):
        lo = content_lower_bound(w_main, t=Fraction(1, 100))
        hi = content_lower_bound(w_main, t=Fraction(3, 200))
        assert lo.bound.lo_float > hi.bound.lo_float


class TestDump:
    def test_dump_is_exact_and_complete(self, w_main):
        text = dump_witness(w_main)
        lines = text.splitlines()
        assert lines[0].startswith("case=I k=1")
        n_blocks = len(w_main.block_weights)
        n_lasts = len(w_main.last_weights)
        assert len(lines) == 2 + n_blocks + n_lasts + len(w_main.intervals)
        # weights round-trip as exact fractions
        first = next(l for l in lines if l.startswith("block "))
        frac = Fraction(first.rsplit("=", 1)[1])
        assert frac == w_main.block_weights[(1, 1)]
