from fractions import Fraction as F

import pytest

from cfshrink import rounding as rd
from cfshrink import shrink as sh
from cfshrink.cf_core import continuants, cylinder, eval_word
from cfshrink.errors import ExponentTooSmall, Inapplicable, PrecisionExhausted
from cfshrink.surd import Quad, quad_to_enclosure, sqrt_value
from cfshrink.targets import TargetSpec, z_value
from j_bounds import ADJACENT, EQUAL, FAR, j_interval_bounds

ZERO = TargetSpec.zero()
C23 = TargetSpec.constant((2, 3))      # z = 3/7, Tz = 1/3, a1(z) = 2
GOLD = TargetSpec.constant((), (1,))   # z = (sqrt(5)-1)/2, a fixed point of T
S23 = TargetSpec.constant((2,), (3,))  # z = [0; 2, 3, 3, ...], Tz = [0; 3, 3, ...]


def _sgn(v):
    if isinstance(v, Quad):
        return v.sign()
    return (v > 0) - (v < 0)


class TestMembership:
    def test_strict_at_exact_boundary(self):
        # x = [0; 2, 1, 3]: T x = 3/4, T^2 x = 1/3, product exactly 1/4
        x = eval_word((2, 1, 3))
        assert sh.membership(x, ZERO, 4, 1) is False
        assert sh.membership(x, ZERO, 3, 1) is True
        assert sh.membership(x, ZERO, 5, 1) is False

    def test_word_input_matches_value_input(self):
        w = (1, 2, 5, 9, 1)
        for n in (1, 2, 3):
            assert sh.membership(w, ZERO, 4, n) == sh.membership(
                eval_word(w), ZERO, 4, n)

    def test_surd_target_decides_exactly(self):
        # T(1/2) = 0, so both distances equal z = g; g^2 = (3 - sqrt 5)/2
        assert sh.membership(F(1, 2), GOLD, 2, 1) is True   # g^2 < 1/2
        assert sh.membership(F(1, 2), GOLD, 3, 1) is False  # g^2 > 1/3

    def test_golden_point_hits_any_base(self):
        g = (sqrt_value(F(5)) - 1) / 2
        for B in (2, 4, 1000):
            assert sh.membership(g, GOLD, B, 3) is True

    def test_validation(self):
        with pytest.raises(ValueError):
            sh.membership(F(1, 2), ZERO, 4, 0)
        with pytest.raises(ValueError):
            sh.membership(F(3, 2), ZERO, 4, 1)


class TestHitTimes:
    def test_fixed_point_hits_every_level(self):
        g = (sqrt_value(F(5)) - 1) / 2
        rep = sh.hit_times(g, GOLD, 4, 8)
        assert rep.hits == tuple(range(1, 9))
        assert rep.inconclusive == ()

    def test_zero_target_against_tail_arithmetic(self):
        w = (2, 4, 8, 16, 32, 64)
        B, N = 2, 4

        def prod(n):
            tn = eval_word(w[n:]) if n < len(w) else F(0)
            tn1 = eval_word(w[n + 1:]) if n + 1 < len(w) else F(0)
            return tn * tn1

        expected = tuple(n for n in range(1, N + 1) if prod(n) < F(1, B ** n))
        assert expected  # the doubling digits force hits
        assert sh.hit_times(w, ZERO, B, N).hits == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            sh.hit_times(F(1, 3), ZERO, 4, 0)


@pytest.mark.parametrize("B", [1, 0, -3, F(1, 2)])
def test_base_must_exceed_one(B):
    # B = 0 used to divide by zero and B = -3 to report hits
    calls = (
        lambda: sh.membership(F(1, 3), GOLD, B, 2),
        lambda: sh.hit_times(F(1, 3), GOLD, B, 10),
        lambda: j_interval_bounds((1, 2), 1, GOLD, B, 2),
        lambda: sh.extremal_interval((1, 2), 1, GOLD, B, 2),
    )
    for call in calls:
        with pytest.raises(ValueError, match="base B must exceed 1"):
            call()


class TestJBounds:
    def test_equal_worked_example(self):
        j = j_interval_bounds((1, 1), 2, C23, 4, 2)
        assert j.case == EQUAL
        assert j.upper_len == F(1, 16)
        assert j.lower_len == F(1, 128)
        assert j.pieces == 1
        assert j.cover_ts == ((F(0), F(1)),)  # radius 2*a1z*B^{-n/2} = 1

    def test_far_formulas_and_ratio(self):
        j = j_interval_bounds((1, 1), 9, C23, 4, 2)
        assert j.case == FAR
        assert j.upper_len == F(1, 126)
        assert j.lower_len == F(1, 32256)
        assert j.upper_len / j.lower_len == 256
        for a in (5, 12, 40):
            jb = j_interval_bounds((1, 2), a, C23, 4, 2)
            assert jb.upper_len / jb.lower_len == 256

    def test_adjacent_degenerate_is_whole_cylinder(self):
        j = j_interval_bounds((1,), 3, C23, 4, 1)
        assert j.case == ADJACENT and j.degenerate
        assert j.pieces == 1
        assert j.cover_ts == ((F(0), F(1)),)
        assert j.upper_len == j.lower_len == cylinder((1, 3)).length == F(1, 20)

    def test_adjacent_single_piece(self):
        j = j_interval_bounds((1, 1, 1), 1, C23, 4, 3)
        assert j.case == ADJACENT and not j.degenerate
        assert j.pieces == 1
        assert j.cover_ts == ((F(1, 12), F(7, 12)),)
        assert j.upper_len == F(1, 18)
        assert j.lower_len == 0

    def test_adjacent_two_pieces_near_one(self):
        # z = [0;1,1,5]: Tz = 5/6 sits near 1, so the wrap piece appears
        spec = TargetSpec.constant((1, 1, 5))
        j = j_interval_bounds((2,), 2, spec, 64, 1)
        assert j.case == ADJACENT and not j.degenerate
        assert j.pieces == 2
        assert j.cover_ts == ((F(0), F(1, 12)), (F(7, 12), F(1)))

    def test_zero_target_has_no_normal_form(self):
        with pytest.raises(Inapplicable):
            j_interval_bounds((1, 1), 3, ZERO, 4, 2)

    def test_cover_maps_into_cylinder(self):
        for a in (1, 2, 9):
            j = j_interval_bounds((2, 1), a, C23, 4, 2)
            cyl = cylinder((2, 1, a))
            for lo, hi in j.cover_intervals():
                assert _sgn(hi - lo) > 0
                assert cyl.left <= lo and hi <= cyl.right

    def test_validation(self):
        with pytest.raises(ValueError):
            j_interval_bounds((1,), 2, C23, 4, 2)
        with pytest.raises(ValueError):
            j_interval_bounds((1, 1), 0, C23, 4, 2)


def _piece_lengths(pieces):
    return [rd.sub(quad_to_enclosure(p.x_hi, 128), quad_to_enclosure(p.x_lo, 128), 128)
            for p in pieces]


class TestExtremal:
    def test_far_sandwich(self):
        for a in (5, 7, 12):
            jb = j_interval_bounds((1, 1), a, C23, 4, 2)
            pieces = sh.extremal_interval((1, 1), a, C23, 4, 2)
            assert pieces
            encs = _piece_lengths(pieces)
            for e in encs:
                assert e.certified_le(jb.upper_len)
            total = encs[0]
            for e in encs[1:]:
                total = rd.add(total, e)
            assert total.certified_ge(jb.lower_len)

    def test_equal_sandwich(self):
        jb = j_interval_bounds((1, 1), 2, C23, 4, 2)
        pieces = sh.extremal_interval((1, 1), 2, C23, 4, 2)
        assert pieces
        total = _piece_lengths(pieces)[0]
        for e in _piece_lengths(pieces)[1:]:
            total = rd.add(total, e)
        assert total.certified_ge(jb.lower_len)
        assert total.certified_le(jb.upper_len * len(pieces))

    def test_adjacent_upper(self):
        jb = j_interval_bounds((1, 1, 1), 1, C23, 4, 3)
        for e in _piece_lengths(sh.extremal_interval((1, 1, 1), 1, C23, 4, 3)):
            assert e.certified_le(jb.upper_len)

    def test_pieces_live_inside_the_cover_bounds(self):
        cases = [((1, 1), 9, 2), ((1, 1), 2, 2), ((1, 1, 1), 1, 3), ((2,), 1, 1)]
        for prefix, a, n in cases:
            jb = j_interval_bounds(prefix, a, C23, 4, n)
            for p in sh.extremal_interval(prefix, a, C23, 4, n):
                assert any(
                    _sgn(p.t_lo - lo) >= 0 and _sgn(hi - p.t_hi) >= 0
                    for lo, hi in jb.cover_ts
                ), (prefix, a, n, p.t_lo, p.t_hi, jb.cover_ts)

    def test_zero_target_linear_case_exact(self):
        pieces = sh.extremal_interval((3,), 2, ZERO, 4, 1)
        assert len(pieces) == 1
        p = pieces[0]
        assert (p.t_lo, p.t_hi) == (F(0), F(2, 3))  # t <= c a/(1-c)
        assert (p.x_lo, p.x_hi) == (F(2, 7), F(8, 27))

    def test_probe_agreement_with_membership(self):
        # surd targets (GOLD, S23) get root ends shaved inward, so a probe
        # inside a piece is a member; only a probe within 2^-192 of a root
        # could be a member outside every piece
        cases = [
            (C23, (1, 1), 9, 4, 2),
            (C23, (1, 1), 2, 4, 2),
            (C23, (2,), 1, 4, 1),
            (ZERO, (2,), 3, 5, 1),
            (GOLD, (1, 1), 1, 4, 2),
            (GOLD, (1, 1), 2, 4, 2),
            (GOLD, (1, 1, 1), 6, 2, 3),
            (GOLD, (2,), 1, 3, 1),
            (GOLD, (1, 1, 1, 1), 2, 4, 4),  # one piece, joined across the knot Tz
            (S23, (1, 1), 2, 4, 2),
            (S23, (1, 1), 9, 4, 2),
            (S23, (1, 1, 1), 3, 4, 3),
            (S23, (2,), 1, 4, 1),
        ]
        for spec, prefix, a, B, n in cases:
            pieces = sh.extremal_interval(prefix, a, spec, B, n)
            assert pieces, (spec, prefix, a)
            for p in pieces:
                # a surd target's knots Tz and 1/z - a lie inside the hit set,
                # so its pieces end at 0, 1 or a shaved root
                whole = (p.t_lo, p.t_hi) == (0, 1)
                assert p.exact == (spec in (C23, ZERO) or whole), (spec, prefix, a)
            word = prefix + (a,)
            c = continuants(word)
            m = len(word)
            p1, q1, p0, q0 = c.p(m), c.q(m), c.p(m - 1), c.q(m - 1)
            z, _, tz = z_value(spec, n)
            bound = F(B) ** (-n)
            for k in range(1, 37):
                t = F(k, 37)
                x = (p1 + t * p0) / (q1 + t * q0)
                member = sh.membership(x, spec, B, n)
                inpiece = any(
                    _sgn(t - p.t_lo) >= 0 and _sgn(p.t_hi - t) >= 0 for p in pieces)
                if member:
                    assert inpiece
                elif inpiece:
                    # closed pieces admit the boundary; membership is strict
                    prod = abs(1 / (a + t) - z) * abs(t - tz)
                    assert prod == bound

    def test_shaved_root_off_the_solution_side_raises(self, monkeypatch):
        # move each shaved root 2^-100 outward: the exact sign test must catch it
        shaved = sh._shaved_roots
        monkeypatch.setattr(sh, "_shaved_roots", lambda *args: tuple(
            r + d for r, d in zip(shaved(*args), (-F(1, 2**100), F(1, 2**100)))))
        with pytest.raises(PrecisionExhausted, match="cannot prove a piece"):
            sh.extremal_interval((1, 1), 2, GOLD, 4, 2)

    def test_prefix_validation(self):
        with pytest.raises(ValueError):
            sh.extremal_interval((1,), 2, C23, 4, 2)


class TestCover:
    def test_zero_report_shape(self):
        r = sh.cover_svolume(2, 4, ZERO, 0.76, 10)
        assert r.branch == sh.BRANCH_S1
        assert sorted(r.parts) == ["far", "truncation"]
        assert r.total.lo_float > 0
        got = r.parts["truncation"].mid_float + r.parts["far"].mid_float
        assert got == pytest.approx(r.total.mid_float, rel=1e-9)

    def test_ones_report_shape(self):
        ones = TargetSpec.constant((), (1,))
        r = sh.cover_svolume(2, 4, ones, 0.80, 10)
        assert r.branch == sh.BRANCH_MAX
        assert sorted(r.parts) == ["equal", "far"]
        assert r.total.lo_float > 0

    def test_small_exponent_rejected(self):
        with pytest.raises(ExponentTooSmall):
            sh.cover_svolume(2, 4, ZERO, 0.5, 10)

    def test_decay_directions(self):
        above = sh.cover_decay(ZERO, 4, range(2, 5), M=10, side="above")
        below = sh.cover_decay(ZERO, 4, range(2, 5), M=10, side="below")
        assert above.slope < 0 < below.slope
        assert below.monotone_nondecreasing
        assert len(above.reports) == 3

    def test_decay_validation(self):
        with pytest.raises(ValueError):
            sh.cover_decay(ZERO, 4, [2, 3], side="sideways")
        with pytest.raises(ValueError):
            sh.cover_decay(ZERO, 4, [])
