"""Pressure sums over restricted digit sets: exact laws, routes, roots."""

import functools
import itertools
import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfshrink import _transfer, predim
from cfshrink import pressure as pr
from cfshrink import rounding as rd
from cfshrink.errors import DepthTooLarge, NoRoot
from cfshrink.surd import Quad

GOLDEN = (math.sqrt(5) - 1) / 2


class TestXmin:
    @pytest.mark.parametrize("A", [{1}, {2}, {1, 2}, {3, 7}, {2, 5, 9}])
    def test_defining_equation_exact(self, A):
        x = pr.x_min_value(A)
        amin, amax = min(A), max(A)
        residual = amax * x * x + amax * amin * x - amin
        assert residual.sign() == 0
        assert 0 < x < 1

    def test_known_values(self):
        assert float(pr.x_min_value({1})) == pytest.approx(GOLDEN, abs=1e-15)
        assert float(pr.x_min_value({2})) == pytest.approx(math.sqrt(2) - 1, abs=1e-15)
        assert float(pr.x_min_value({1, 2})) == pytest.approx(
            (math.sqrt(3) - 1) / 2, abs=1e-15
        )

    def test_smallest_attractor_point_is_quad(self):
        assert isinstance(pr.x_min_value({1, 2, 3}), Quad)


@pytest.mark.parametrize("kind, name, value", [
    (pr.PHI2, "alpha", math.nan), (pr.PHI2, "alpha", math.inf),
    (pr.PHI3, "beta", math.inf), (pr.PHI3, "beta", -math.inf),
])
def test_potential_rejects_a_nonfinite_rate(kind, name, value):
    with pytest.raises(ValueError, match=f"growth rate {name} must be finite"):
        pr.PotentialSpec(kind, 0.8, 4, rate=value)


class TestFibonacciClosedForm:
    # over {1} the sup sum collapses: q_n + g q_{n-1} = phi^n exactly,
    # so (1/n) log Sigma_n = -2 s log phi - s^2 log B at every depth
    def test_every_depth(self):
        s, B = 0.7, 4
        est = pr.pressure_estimate(pr.PotentialSpec(pr.PHI1, s, B), {1}, 6)
        target = -2 * s * math.log((1 + math.sqrt(5)) / 2) - s * s * math.log(B)
        for v in est.sup_values:
            assert v.lo_float <= target <= v.hi_float
            assert v.hi_float - v.lo_float < 1e-9

    def test_single_digit_pressure_always_negative(self):
        for s in (0.1, 0.5, 1.0, 1.4):
            est = pr.pressure_estimate(pr.PotentialSpec(pr.PHI1, s, 2), {1}, 5)
            assert est.sup_values[-1].hi_float < 0


class TestConstantShift:
    def test_phi2_alpha_zero_vs_phi1(self):
        # same s: the two potentials differ by the constant (s^2 - s) log B
        s, B, depth = 0.8, 4, 4
        p1 = pr.pressure_estimate(pr.PotentialSpec(pr.PHI1, s, B), {1, 2, 3}, depth)
        p2 = pr.pressure_estimate(
            pr.PotentialSpec(pr.PHI2, s, B, rate=0), {1, 2, 3}, depth
        )
        shift = (Fraction(4, 5) ** 2 - Fraction(4, 5)) * math.log(B)
        for a, b in zip(p1.sup_values, p2.sup_values):
            assert b.mid_float - a.mid_float == pytest.approx(float(shift), abs=1e-10)

    def test_phi3_beta_zero_vs_phi1(self):
        # c3 - c1 = (s^2 - s/2) log B, independent of depth
        s, B, depth = 0.75, 2, 3
        p1 = pr.pressure_estimate(pr.PotentialSpec(pr.PHI1, s, B), {1, 2}, depth)
        p3 = pr.pressure_estimate(
            pr.PotentialSpec(pr.PHI3, s, B, rate=0), {1, 2}, depth
        )
        shift = (s * s - 0.5 * s) * math.log(B)
        for a, b in zip(p1.x0_values, p3.x0_values):
            assert b.mid_float - a.mid_float == pytest.approx(shift, abs=1e-10)


class TestRoutes:
    def test_exact_and_dp_overlap(self):
        phi = pr.PotentialSpec(pr.PHI1, 0.8, 2)
        ex = pr.pressure_estimate(phi, {1, 2, 3}, 5, method="exact")
        dp = pr.pressure_estimate(phi, {1, 2, 3}, 5, method="dp")
        for a, b in zip(ex.sup_values + ex.x0_values, dp.sup_values + dp.x0_values):
            assert a.lo_float <= b.hi_float and b.lo_float <= a.hi_float

    def test_dp_contains_exact_on_gappy_alphabet(self):
        phi = pr.PotentialSpec(pr.PHI1, 0.8, 2)
        ex = pr.pressure_estimate(phi, (1, 3, 4, 5), 5, method="exact")
        dp = pr.pressure_estimate(phi, (1, 3, 4, 5), 5, method="dp")
        for a, b in zip(ex.sup_values + ex.x0_values, dp.sup_values + dp.x0_values):
            assert b.lo_float <= a.lo_float <= a.hi_float <= b.hi_float

    def test_gappy_alphabet_past_the_exact_limit_takes_the_envelope(self):
        # 2^30 words: the envelope route, for a digit set that is not {1..M}
        phi = pr.PotentialSpec(pr.PHI1, 0.8, 2)
        est = pr.pressure_estimate(phi, {1, 3}, 30)
        assert len(est.sup_values) == len(est.x0_values) == 30
        for v in est.sup_values + est.x0_values:
            assert math.isfinite(v.lo_float) and math.isfinite(v.hi_float)
            assert v.lo_float <= v.hi_float < 0

    def test_exact_route_enumerates_once(self, monkeypatch):
        # every depth reads the levels of the one depth-7 enumeration
        pr._enumerate_levels.cache_clear()
        phi = pr.PotentialSpec(pr.PHI1, 0.8, 2)
        pr.pressure_estimate(phi, (1, 2, 3, 5), 7, method="exact")
        assert pr._enumerate_levels.cache_info().currsize == 1

    def test_exact_overflow_guard(self):
        phi = pr.PotentialSpec(pr.PHI1, 0.8, 2)
        with pytest.raises(DepthTooLarge):
            pr.pressure_estimate(phi, {999_999, 1_000_000}, 9, method="exact")

    def test_monotone_in_alphabet(self):
        phi = pr.PotentialSpec(pr.PHI1, 0.8, 2)
        vals = []
        for A in ({1, 2}, {1, 2, 3}, {1, 2, 3, 4, 5}):
            est = pr.pressure_estimate(phi, A, 4, method="exact")
            vals.append(est.x0_values[-1])
        assert vals[0].hi_float < vals[1].lo_float < vals[1].hi_float < vals[2].lo_float


class TestSupVersusX0:
    @settings(max_examples=40, deadline=None)
    @given(
        amax=st.integers(min_value=1, max_value=6),
        depth=st.integers(min_value=1, max_value=4),
        s=st.floats(min_value=0.55, max_value=1.2),
    )
    def test_ordering_and_gap(self, amax, depth, s):
        # terms satisfy q^{-2s} >= (q + x q')^{-2s} >= 4^{-s} q^{-2s}
        A = set(range(1, amax + 1))
        est = pr.pressure_estimate(pr.PotentialSpec(pr.PHI1, s, 4), A, depth,
                                   method="exact")
        for n, (sup, x0) in enumerate(zip(est.sup_values, est.x0_values), 1):
            assert x0.mid_float >= sup.mid_float - 1e-12
            gap = x0.mid_float - sup.mid_float
            assert n * gap <= s * math.log(4) + 1e-9


class TestRoot:
    def test_against_truncated_predim_roots(self):
        # the pressure root should sit near the truncated-alphabet exponents
        res = pr.pressure_root(pr.PHI1, 4, None, range(1, 21), depth=8)
        assert 0.5 < res.root < 1.0
        for n in (4, 5, 6):
            e = predim.solve_predim(n, 4, 1, M=20, tol=1e-3)
            mid = 0.5 * (e.lo_float + e.hi_float)
            assert abs(res.root - mid) < 0.02
        br = res.certified_bracket
        assert 0.5 < br.lo_float < br.hi_float < 1.0
        assert br.hi_float - br.lo_float < 0.05

    def test_root_decreases_with_base(self):
        r2 = pr.pressure_root(pr.PHI1, 2, None, range(1, 6), depth=6)
        r16 = pr.pressure_root(pr.PHI1, 16, None, range(1, 6), depth=6)
        assert r16.root < r2.root

    def test_no_root_when_pressure_stays_positive(self):
        with pytest.raises(NoRoot):
            pr.pressure_root(pr.PHI3, 2, -5.0, range(1, 4), depth=4)

    def test_single_digit_degenerates_to_probing_floor(self):
        res = pr.pressure_root(pr.PHI1, 4, None, {1}, depth=6)
        assert res.root <= 0.05
        assert res.certified_bracket.hi_float <= 0.05

    def test_gappy_alphabet_takes_the_envelope(self):
        # 4^10 words: the envelope route.  The pins come from exact
        # enumeration of all 4^10 words: the envelope keeps the point value
        # and moves each bracket end by less than 1e-6
        res = pr.pressure_root(pr.PHI1, 4, 0.0, (1, 3, 4, 5), depth=10)
        assert res.root == 0.4955249023437501
        br = res.certified_bracket
        assert br.lo_float == pytest.approx(0.48015882851525715, abs=1e-6)
        assert br.hi_float == pytest.approx(0.5009036250412464, abs=1e-6)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            pr.pressure_root(pr.PHI1, 4, None, {1, 2}, depth=1)


def _sandwich_tests(kind, B, ab, A, depth):
    """The certified ends' tests: upper(s) when (1/d) log Sigma_d <= 0 and
    lower(s) when (1/d)(log Sigma_d - s log 4) >= 0, at d = depth."""
    k = {pr.PHI1: 1, pr.PHI2: 2, pr.PHI3: 3}[kind]
    route = pr._route(pr._norm_alphabet(A), depth, "auto")

    def value(s):
        log_sig = rd.add(rd.log_(pr._x0_sum(route, depth, s)),
                         rd.mul(rd.enclose(depth), pr.log_weight(k, 1, s, B, ab)))
        return rd.div(log_sig, rd.enclose(depth))

    def upper(s):
        return value(s).certified_le(0)

    def lower(s):
        slack = rd.div(rd.mul(rd.enclose(Fraction(s)), rd.log_(rd.enclose(4))),
                       rd.enclose(depth))
        return rd.sub(value(s), slack).certified_ge(0)

    return upper, lower


@functools.cache
def _all_certified_root(kind, B, ab, A, depth, tol=1e-3):
    """(root, lo_end, hi_end) by the all-certified method pressure_root had
    before it steered by the float twin: the ratio bisection for the point
    value, then two 26-step bisections with every step certified."""
    k = {pr.PHI1: 1, pr.PHI2: 2, pr.PHI3: 3}[kind]
    route = pr._route(pr._norm_alphabet(A), depth, "auto")

    def ratio(s):
        return (math.log(pr._x0_estimate(route, depth, s))
                - math.log(pr._x0_estimate(route, depth - 1, s))
                + pr.log_weight_float(k, 1, s, B, ab))

    a, b = pr._S_LO, pr._S_HI
    if ratio(a) <= 0.0:
        root = a
    else:
        while b - a > tol:
            mid = 0.5 * (a + b)
            if ratio(mid) > 0.0:
                a = mid
            else:
                b = mid
        root = 0.5 * (a + b)
    upper, lower = _sandwich_tests(kind, B, ab, A, depth)
    assert upper(pr._S_HI)
    a, b = pr._S_LO, pr._S_HI
    for _ in range(26):
        mid = 0.5 * (a + b)
        if upper(mid):
            b = mid
        else:
            a = mid
    hi_end, lo_end = b, 0.0
    if lower(pr._S_LO):
        a, b = pr._S_LO, hi_end
        for _ in range(26):
            mid = 0.5 * (a + b)
            if lower(mid):
                a = mid
            else:
                b = mid
        lo_end = a
    return root, lo_end, hi_end


# (kind, B, rate, alphabet, depth): three potentials on each route, the
# single digit whose lower end is 0, and a gappy alphabet on the envelope
ROOT_CASES = [
    (pr.PHI1, 4, None, (1, 2, 3), 6),
    (pr.PHI2, 4, 0.3, (1, 2, 3), 6),
    (pr.PHI3, 4, 0.2, (1, 2, 3), 6),
    (pr.PHI1, 4, None, (1,), 6),
    (pr.PHI1, 4, None, (1, 2, 3, 4, 5), 8),
    (pr.PHI2, 4, 0.3, (1, 2), 18),
    (pr.PHI3, 4, 0.2, (1, 2, 3, 4, 5, 6), 7),
    (pr.PHI1, 4, 0.0, (1, 3, 4, 5), 10),
]


def _on_envelope(A, depth):
    return isinstance(pr._route(pr._norm_alphabet(A), depth, "auto"), _transfer.Layout)


def _counting_x0_sum(monkeypatch):
    """Record the exponent of every certified sum pressure_root evaluates."""
    seen = []
    inner = pr._x0_sum

    def counted(route, n, s):
        seen.append(s)
        return inner(route, n, s)

    monkeypatch.setattr(pr, "_x0_sum", counted)
    return seen


def _ends(res):
    return res.certified_bracket.lo_float, res.certified_bracket.hi_float


class TestSteeredBisection:
    @pytest.mark.parametrize("case", ROOT_CASES, ids=lambda c: f"{c[0]}-{len(c[3])}-d{c[4]}")
    def test_matches_the_all_certified_bisections(self, case, monkeypatch):
        want = _all_certified_root(*case)
        seen = _counting_x0_sum(monkeypatch)
        res = pr.pressure_root(*case[:4], depth=case[4])
        assert (res.root, *_ends(res)) == want
        assert len(seen) <= (30 if _on_envelope(*case[3:]) else 8)

    def test_the_cases_cover_both_routes_and_a_zero_lower_end(self):
        assert _all_certified_root(*ROOT_CASES[3])[1] == 0.0
        assert _on_envelope(*ROOT_CASES[7][3:]) and _on_envelope(*ROOT_CASES[4][3:])
        assert not _on_envelope(*ROOT_CASES[0][3:])

    @pytest.mark.parametrize("case", [ROOT_CASES[0], ROOT_CASES[4]], ids=["exact", "envelope"])
    def test_each_float_estimate_runs_once_per_call(self, case, monkeypatch):
        # the ratio bisection, the twin and the certified value at a probe
        # share their estimates
        calls, inner = [], pr._x0_estimate
        monkeypatch.setattr(pr, "_x0_estimate", lambda r, n, s: calls.append((n, s)) or inner(r, n, s))
        pr.pressure_root(*case[:4], depth=case[4])
        assert calls and len(calls) == len(set(calls))

    @pytest.mark.parametrize("case", [ROOT_CASES[0], ROOT_CASES[4]], ids=["exact", "envelope"])
    def test_a_biased_twin_keeps_the_bracket(self, case, monkeypatch):
        # an s-dependent error widens the margin; every end is still certified
        # in the call and the bracket is the all-certified one
        want = _all_certified_root(*case)[1:]
        twin = pr._x0_estimate
        monkeypatch.setattr(pr, "_x0_estimate", lambda r, n, s: twin(r, n, s) * (1 + 1e-2 * s))
        seen = _counting_x0_sum(monkeypatch)
        res = pr.pressure_root(*case[:4], depth=case[4])
        lo, hi = _ends(res)
        assert (lo, hi) == want
        assert hi in seen and lo in seen

    @pytest.mark.parametrize("case", [ROOT_CASES[0], ROOT_CASES[4]], ids=["exact", "envelope"])
    def test_a_wrong_ok_falls_back_to_all_certified(self, case, monkeypatch):
        # just below the root the twin claims P <= 0 by far: the upper end
        # lands below the root, fails its check, and is bisected again
        _, lo_want, hi_want = _all_certified_root(*case)
        twin = pr._x0_estimate

        def wrong(r, n, s):
            return twin(r, n, s) * (math.exp(-n) if hi_want - 0.05 < s < hi_want else 1.0)

        monkeypatch.setattr(pr, "_x0_estimate", wrong)
        seen = _counting_x0_sum(monkeypatch)
        res = pr.pressure_root(*case[:4], depth=case[4])
        assert _ends(res) == (lo_want, hi_want)
        assert len(seen) >= 2 + 1 + 26  # the two checks, the failed end, the rerun

    @pytest.mark.parametrize("case", [ROOT_CASES[0], ROOT_CASES[4]], ids=["exact", "envelope"])
    def test_a_wrong_not_ok_still_certifies_each_end(self, case, monkeypatch):
        # just above the root the twin claims P > 0 by far: the upper end
        # lands higher than the all-certified one, with its own certificate
        _, lo_want, hi_want = _all_certified_root(*case)
        twin = pr._x0_estimate

        def wrong(r, n, s):
            return twin(r, n, s) * (math.exp(n) if hi_want <= s < hi_want + 0.05 else 1.0)

        monkeypatch.setattr(pr, "_x0_estimate", wrong)
        seen = _counting_x0_sum(monkeypatch)
        lo, hi = _ends(pr.pressure_root(*case[:4], depth=case[4]))
        assert hi > hi_want
        upper, lower = _sandwich_tests(*case)
        assert hi in seen and upper(hi)
        assert lo in seen and lower(lo)


class TestTolerance:
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_a_bad_tol_before_any_work(self, tol, monkeypatch):
        monkeypatch.setattr(pr, "_route", None)  # reaching it would raise TypeError
        with pytest.raises(ValueError, match="tol"):
            pr.pressure_root(pr.PHI1, 4, None, (1, 2, 3), depth=4, tol=tol)

    def test_a_tiny_tol_stops_when_the_midpoint_stops_moving(self):
        res = pr.pressure_root(pr.PHI1, 4, None, (1, 2, 3), depth=4, tol=1e-300)
        coarse = pr.pressure_root(pr.PHI1, 4, None, (1, 2, 3), depth=4, tol=1e-12)
        assert res.root == pytest.approx(coarse.root, abs=1e-12)
        assert _ends(res) == _ends(coarse)


class TestEmDimension:
    def test_order_and_range(self):
        # the quadratic-exponent potential (PHI1) and the linear one at zero growth (PHI2)
        d2 = pr.pressure_root(pr.PHI1, 4, None, range(1, 11), depth=6).certified_bracket
        d1 = pr.pressure_root(pr.PHI2, 4, 0.0, range(1, 11), depth=6).certified_bracket
        assert 0.5 < d1.lo_float and d1.hi_float < 1.0
        assert 0.5 < d2.lo_float and d2.hi_float < 1.0
        assert d1.hi_float < d2.hi_float


class TestValidation:
    def test_spec_errors(self):
        with pytest.raises(ValueError):
            pr.PotentialSpec("PHI9", 0.7, 4)
        with pytest.raises(ValueError):
            pr.PotentialSpec(pr.PHI1, 0.0, 4)
        with pytest.raises(ValueError):
            pr.PotentialSpec(pr.PHI1, 0.7, 1)
        with pytest.raises(ValueError):
            pr.PotentialSpec(pr.PHI2, 0.7, 4)
        with pytest.raises(ValueError):
            pr.PotentialSpec(pr.PHI3, 0.7, 4)

    def test_estimate_errors(self):
        phi = pr.PotentialSpec(pr.PHI1, 0.7, 4)
        with pytest.raises(ValueError):
            pr.pressure_estimate(phi, set(), 3)
        with pytest.raises(ValueError):
            pr.pressure_estimate(phi, {0, 1}, 3)
        with pytest.raises(ValueError):
            pr.pressure_estimate(phi, {1, 2}, 0)
        with pytest.raises(ValueError):
            pr.pressure_estimate(phi, {1, 2}, 3, method="magic")

    def test_root_validates_the_potential(self):
        with pytest.raises(ValueError):
            pr.pressure_root("PHI9", 4, 0.0, {1, 2}, depth=3)
        with pytest.raises(ValueError):
            pr.pressure_root(pr.PHI2, 4, None, {1, 2}, depth=3)

    def test_beta_warning(self):
        with pytest.warns(UserWarning):
            pr.PotentialSpec(pr.PHI3, 0.7, 4, rate=1.0)



def _log_weight_oracle(kind, n, s, B, G):
    """The kind's level-n log-weight in mpmath, at the caller's precision."""
    s, logB = mp.mpf(s), mp.log(B)
    if kind == 1:
        return -n * s * s * logB
    if kind == 2:
        return (1 - s) * G - n * s * logB
    return -s * G - n * s * logB / 2


# the parent's bits of pressure's constants: (kind, s, B, alpha or beta) ->
# (lo, hi) as raw mpf tuples at 128 bits, and the float constant as hex
PARENT_CONSTANTS = [
    ((pr.PHI1, 0.7, 4, None),
     (1, 57787111990250749731615485472207219711, -126, 126),
     (1, 115574223980501499463230970944414439419, -127, 127), "-0x1.5bcb24bcc4303p-1"),
    ((pr.PHI1, 1.0, 2, None),
     (1, 117932881612756647068972071382077242201, -127, 127),
     (1, 235865763225513294137944142764154484397, -128, 128), "-0x1.62e42fefa39efp-1"),
    ((pr.PHI2, 0.55, 3, 0.3),
     (1, 79836497459850423724824752953938955501, -127, 126),
     (1, 39918248729925211862412376476969477749, -126, 125), "-0x1.e07f99d3f2fa8p-2"),
    ((pr.PHI2, 1.25, 10, Fraction(1, 5)),
     (1, 124553187524643844584980229218862202869, -125, 127),
     (1, 124553187524643844584980229218862202865, -125, 127), "-0x1.76d04910910c2p+1"),
    ((pr.PHI3, 0.8, 2, 0.2),
     (1, 297582967995110966182437426885797014293, -129, 128),
     (1, 18598935499694435386402339180362313393, -125, 124), "-0x1.bfc0ca3059efdp-2"),
    ((pr.PHI3, 0.3, 7, Fraction(3, 5)),
     (1, 321149325492343288674297081682810328915, -129, 128),
     (1, 321149325492343288674297081682810328909, -129, 128), "-0x1.e3363873cee86p-2"),
]


class TestLogWeight:
    @pytest.mark.parametrize("prec", [128, 256, 512])
    @pytest.mark.parametrize("kind", [1, 2, 3])
    def test_contains_mpmath(self, kind, prec):
        log3 = rd.log_(rd.enclose(3, prec), prec)
        growths = [(log3, lambda: mp.log(3)), (Fraction(7, 5), lambda: mp.mpf(7) / 5),
                   (0, lambda: mp.mpf(0))]
        for n, s, B, (g, g_ref) in itertools.product(
                (1, 2, 7), (0.3, 0.5, 0.77, 1.0, 1.3), (2, 3, 4, 10), growths):
            e = pr.log_weight(kind, n, s, B, g, prec)
            w = rd.exp_(e, prec)
            with mp.workprec(max(200, prec + 64)):  # at least 60 digits
                ref = _log_weight_oracle(kind, n, s, B, g_ref())
                assert e.lo <= ref <= e.hi, (kind, n, s, B, g, prec)
                assert w.lo <= mp.exp(ref) <= w.hi, (kind, n, s, B, g, prec)
            f = pr.log_weight_float(kind, n, s, B, float(g_ref()))
            assert abs(f - e.mid_float) <= 1e-12 * max(1.0, abs(f))

    @pytest.mark.parametrize("case", PARENT_CONSTANTS,
                             ids=lambda c: "-".join(map(str, c[0])))
    def test_keeps_the_parent_pressure_constants(self, case):
        (kind, s, B, ab), lo, hi, fhex = case
        k = {pr.PHI1: 1, pr.PHI2: 2, pr.PHI3: 3}[kind]
        e = pr.log_weight(k, 1, s, B, ab)
        assert (e.lo._mpf_, e.hi._mpf_) == (lo, hi)
        assert pr.log_weight_float(k, 1, s, B, ab).hex() == fhex

    def test_rejects_an_unknown_kind(self):
        with pytest.raises(ValueError):
            pr.log_weight(4, 1, 0.7, 4, 0.1)
