"""End-to-end acceptance suite: one test per shipping requirement.

The root grid (three bases, three targets, five levels, full alphabet)
is solved once per module and shared; expect a few minutes of wall time
for this file.  Frozen constants carry their own provenance notes.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from cfshrink import sums
from cfshrink.cf_core import continuants, cylinder
from cfshrink.cli import main
from cfshrink.massdist import (
    CASE_I,
    WitnessParams,
    build_witness,
    content_lower_bound,
    gap_check,
    holder_check,
    holder_samples,
    mass_bounds_check,
    membership_spotcheck,
)
from cfshrink.predim import _f_enclosure, predim_result, solve_predim
from cfshrink.pressure import PHI1, pressure_root
from cfshrink.rounding import enclose
from cfshrink.shrink import cover_decay
from cfshrink.sums import lemma_sum, lemma_sum_batch
from cfshrink.targets import TargetSpec, first_digit

GRID_BASES = (2, 4, 16)
GRID_LEVELS = (1, 2, 3, 4, 5)
GRID_TOL = 1e-3

# independent 40-digit mpmath.findroot solutions of zeta(2 s) = B^(s^2)
ZETA_ROOTS = {
    2: 0.9254787365250165,
    4: 0.7869640227730460,
    16: 0.6723737190373779,
}

# Roots clipped to an endpoint by the infimum convention, keyed
# (B, target, n, kind).  The zero target has a1(z_n) = +inf, which fixes
# s2 = 1 and s3 = 0 at every level.  A finite first digit is clipped only
# where the kind-3 sum already exceeds 1 at s = 1: at B = 2, n = 1, a1z = 1
# that sum is zeta(2) / sqrt(2) = pi^2 / (6 sqrt 2) ~ 1.163 > 1, so s3 is
# reported as 1.  At B = 4 the same sum is zeta(2) / 2 ~ 0.822 < 1.
CONVENTIONAL_ROOTS = frozenset(
    {(B, "zero", n, kind) for B in GRID_BASES for n in GRID_LEVELS for kind in (2, 3)}
    | {(2, "ones", 1, 3), (2, "exp_half", 1, 3)}
)

CLIP_FLAGS = {f"s{kind}_no_root_in_unit_interval": kind for kind in (1, 2, 3)}

# measured over a = 1..1000 (see test body); margins leave ~0.3% headroom
RATIO_WINDOWS = {
    0.6: (5.0, 10.7),
    0.75: (2.0, 10.9),
    1.0: (0.999, 22.5),
}


def _grid_targets(B):
    return (
        ("zero", TargetSpec.zero()),
        ("ones", TargetSpec.constant((), (1,))),
        ("exp_half", TargetSpec.exp_half_log(B, tail=(1,))),
    )


@pytest.fixture(scope="module")
def root_grid():
    # 45 solves at the full alphabet, the slow part of this file
    grid = {}
    for B in GRID_BASES:
        for name, spec in _grid_targets(B):
            for n in GRID_LEVELS:
                a1z = first_digit(spec, n)
                grid[(B, name, n)] = (a1z, predim_result(n, B, a1z, tol=GRID_TOL))
    return grid


def _is_conventional(e):
    # roots clipped to an endpoint by convention come back zero-width
    return e.lo_float == e.hi_float and e.lo_float in (0.0, 1.0)


def _certified_ends(n, B, kind, a1z, e):
    """Whether the defining sum is certified >= 1 at e.lo and <= 1 at e.hi.

    The sum decreases in s, so a root then lies in e.  Levels are tried
    from the coarsest, as the solver does, for every n, n = 1 included.
    """
    for level in (0, 1, 2):
        f_lo = _f_enclosure(n, B, kind, a1z, None, e.lo_float, level)
        f_hi = _f_enclosure(n, B, kind, a1z, None, e.hi_float, level)
        if f_lo.certified_ge(1) and f_hi.certified_le(1):
            return True
    return False


def test_word_invariant_suite():
    rng = random.Random(977)
    t0 = time.time()
    for _ in range(10_000):
        w = tuple(rng.randint(1, 50) for _ in range(rng.randint(1, 12)))
        n = len(w)
        c = continuants(w)
        q, q_prev = c.q(n), c.q(n - 1)

        assert math.prod(w) <= q <= math.prod(a + 1 for a in w)
        assert q * q >= 2 ** (n - 1)
        assert q <= (w[-1] + 1) * q_prev
        for k in range(n + 1):
            assert c.p(k) * c.q(k - 1) - c.p(k - 1) * c.q(k) == (-1) ** (k - 1)

        cut = rng.randint(0, n)
        qa = continuants(w[:cut]).q(cut)
        qb = continuants(w[cut:]).q(n - cut)
        assert qa * qb <= q <= 2 * qa * qb

        iv = cylinder(w)
        assert iv.length == Fraction(1, q * (q + q_prev))
        assert Fraction(1, 2 * q * q) <= iv.length <= Fraction(1, q * q)
    assert time.time() - t0 < 10.0


def test_digit_sum_ratio_windows():
    for t, (c1, c2) in sorted(RATIO_WINDOWS.items()):
        assert 0 < c1 < c2 < math.inf
        a_values = range(1, 1001)
        for a, e in zip(a_values, lemma_sum_batch(a_values, t)):
            scale = a ** (1 - t)
            assert c1 * scale <= e.lo_float
            assert e.hi_float <= c2 * scale

    # the closed-form corner: sum_{b<=a} 1/b at a = 1 is exactly 1
    e = lemma_sum(1, 1.0, cutoff=200_000)
    assert e.lo_float <= 1.0 <= e.hi_float
    assert e.hi_float - e.lo_float <= 1e-10


def test_root_grid_certified_straddles(root_grid, monkeypatch):
    # evaluate the sums afresh, not from the solver's cache
    sums._lambda_bounds.cache_clear()
    conventional = set()
    for (B, name, n), (a1z, r) in sorted(root_grid.items()):
        roots = {1: r.s1, 2: r.s2, 3: r.s3}
        # every flag names a kind whose root was clipped to 1
        for flag in r.flags:
            assert flag in CLIP_FLAGS, (B, name, n, flag)
            assert roots[CLIP_FLAGS[flag]] == enclose(1), (B, name, n, flag)
        for kind, e in roots.items():
            key = (B, name, n, kind)
            assert e.hi_float - e.lo_float <= GRID_TOL, key
            if not _is_conventional(e):
                assert e.lo_float > 0.5, key
                assert _certified_ends(n, B, kind, a1z, e), key
                continue
            conventional.add(key)
            # each conventional root has its stated reason
            if a1z == math.inf:
                assert (r.s2, r.s3, r.flags) == (enclose(1), enclose(0), ()), key
            else:
                assert e == enclose(1), key
                assert f"s{kind}_no_root_in_unit_interval" in r.flags, key
                assert _f_enclosure(n, B, kind, a1z, None, 1.0, 0).certified_gt(1), key
    assert conventional == CONVENTIONAL_ROOTS


def test_level_one_root_matches_zeta_oracle():
    for B, root in ZETA_ROOTS.items():
        e = solve_predim(1, B, 1, tol=1e-6)
        assert e.hi_float - e.lo_float <= 1e-6
        assert e.lo_float <= root <= e.hi_float


def test_threshold_checks_never_fail(root_grid):
    seen = 0
    for (_, _, _), (_, r) in root_grid.items():
        assert len(r.thresholds) == 4
        assert "FAIL" not in r.thresholds
        seen += 1
    assert seen == 45


def test_cover_decay_above_and_below():
    t0 = time.time()
    for spec in (TargetSpec.zero(), TargetSpec.constant((), (1,))):
        above = cover_decay(spec, 4, range(2, 7), 20, side="above", offset=0.05, tol=1e-3)
        assert above.monotone_decreasing
        assert above.slope <= -0.1
        below = cover_decay(spec, 4, range(2, 7), 20, side="below", offset=0.05, tol=1e-3)
        assert below.monotone_nondecreasing
    assert time.time() - t0 < 300.0


def test_witness_suite_small_instance():
    params = WitnessParams(
        CASE_I, 1, (1,), 2, 3, 5, 4, TargetSpec.zero(), Fraction(3, 200), Fraction(101, 200)
    )
    witness = build_witness(params)

    spot = membership_spotcheck(witness.intervals, params, points=5)
    assert spot.verdict == "PASS" and spot.failures == ()

    gaps = gap_check(witness.intervals, params)
    assert gaps.verdict == "PASS" and gaps.failures == ()

    assert witness.total_mass == Fraction(1)

    mass = mass_bounds_check(witness)
    assert mass.verdict == "PASS" and mass.failures == ()

    samples = holder_samples(witness, 10_000, seed=20260814)
    rep = holder_check(witness, samples)
    assert rep.samples == 10_000
    assert rep.limit == 16 * (3 + 2) ** 4 * (3 + 1) ** 4 == 2_560_000
    assert rep.verdict == "PASS" and rep.failures == ()

    content = content_lower_bound(witness)
    assert content.verdict == "PASS"
    assert content.reference_floor == Fraction(1, 2) / (2**10 * 5**4 * 4**4)
    assert content.bound.lo_float >= float(content.reference_floor)


def test_pressure_root_matches_trajectory():
    res = pressure_root(PHI1, 4, 0.0, range(1, 21), 8)
    for n in (4, 5, 6):
        r = predim_result(n, 4, math.inf, M=20, tol=1e-3)
        mid = 0.5 * (r.s1.lo_float + r.s1.hi_float)
        assert abs(res.root - mid) <= 0.02, (n, res.root, mid)


def test_lemma_runs_identical_across_threads(tmp_path):
    outputs = {}
    for threads in (1, 3):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        code = main(["lemmas", "--out", str(out), "--threads", str(threads)])
        assert code == 0
        outputs[threads] = {
            p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.suffix in (".csv", ".json")
        }
        summary = json.loads(outputs[threads]["lemmas.json"])
        assert summary["all_pass"] is True
    assert outputs[1] == outputs[3]
