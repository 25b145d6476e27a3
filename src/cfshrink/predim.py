"""Certified roots of the level-n dimension equations and branch selection.

All three equation kinds share the shape weight(s) * Lambda_n(s) = 1 with
Lambda_n the continuant power sum, strictly decreasing in s.  One envelope
evaluator (sums.lambda_enclosure) both places and certifies each root.
Every probe of the root loop certifies the sum's side of 1 (>= 1 left of
the root, <= 1 right of it), so it moves one end of the bracket, and the
log of its midpoint steers the next probe.  Each probe escalates its level
0 -> 1 -> 2 only until its side of 1 is certified; n = 1 on the full
alphabet takes the same route.  The same loop (root_loop) solves the
finite-alphabet exponent s(ell, M) of massdist, with 128/256/512-bit sums
as its rungs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from . import pressure
from . import rounding as rd
from . import sums
from .errors import (
    AmbiguousBranch,
    CfshrinkError,
    NoRoot,
    NoRootInUnitInterval,
    PrecisionExhausted,
)
from .rounding import Enclosure, enclose
from .targets import TargetSpec, first_digit

CASE_S1 = "CASE_S1"
CASE_MAX_S2_S3 = "CASE_MAX_S2_S3"

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

# the roots are sought in (1/2, 1]; stay clear of the s = 1/2 pole
LEFT_EDGE = 0.5055


@dataclass(frozen=True)
class PredimResult:
    """The three level-n roots, the selected one, and the threshold verdicts."""

    n: int
    B: object
    a1z: object
    s1: Enclosure
    s2: Enclosure
    s3: Enclosure
    sn: Enclosure
    branch: str
    thresholds: tuple
    flags: tuple = ()


@dataclass(frozen=True)
class SstarEstimate:
    """Window trajectory of the selected roots with running maxima.

    running_lo/running_hi are aligned with results; both are monotone
    nondecreasing.  No extrapolation beyond the window is attempted.
    """

    window: tuple
    results: tuple
    skipped: tuple = ()
    running_lo: tuple = ()
    running_hi: tuple = ()


def _weight_enclosure(n, B, kind, a1z, s) -> Enclosure:
    """Certified weight of the kind-1..3 equation: exp of pressure.log_weight
    with growth log a1z.

    kind 1: B^(-n s^2);  kind 2: a1z^(1-s) B^(-n s);  kind 3: a1z^(-s) B^(-n s/2).
    a1z = +inf weights are conventional and must never be summed.
    """
    if kind != 1 and a1z == math.inf:
        raise ValueError("a1z = +inf weights are conventional and never summed")
    growth = None if kind == 1 else rd.log_(enclose(int(a1z)))
    return rd.exp_(pressure.log_weight(kind, n, s, B, growth))


def _f_enclosure(n, B, kind, a1z, M, s: float, level: int) -> Enclosure:
    """Enclosure of the defining sum at s from the envelope at the given level."""
    lam = sums.lambda_enclosure(n, s, alphabet_max=M, level=level)
    return rd.mul(_weight_enclosure(n, B, kind, a1z, s), lam)


def _next_u(points, lo_pt, hi_pt) -> float:
    """Where log f crosses 0 in u, from the (u, log f) points:
    inverse quadratic interpolation on the last three, else the secant on
    the last two, else on the bracket ends, else the bracket's middle; the
    first estimate strictly inside the bracket wins."""
    candidates = []
    if len(points) >= 3:
        (u0, g0), (u1, g1), (u2, g2) = points[-3:]
        if g0 != g1 and g1 != g2 and g0 != g2:
            candidates.append(u0 * g1 * g2 / ((g0 - g1) * (g0 - g2))
                              + u1 * g0 * g2 / ((g1 - g0) * (g1 - g2))
                              + u2 * g0 * g1 / ((g2 - g0) * (g2 - g1)))
    for (ua, ga), (ub, gb) in (points[-2:], (lo_pt, hi_pt)):
        if ga != gb:
            candidates.append(ub - gb * (ub - ua) / (gb - ga))
    return next((u for u in candidates if lo_pt[0] < u < hi_pt[0]),
                0.5 * (lo_pt[0] + hi_pt[0]))


def root_loop(f_at, rungs, lo, hi, tol, pole):
    """Certified bracket, hi - lo <= tol, of the root of a decreasing f(s) = 1.

    Each probe takes the first of the rungs at which f_at(s, rung) certifies
    its side of 1, and moves that end.  The log of its midpoint steers the
    next probe, in u = log(2s - 1) if pole (f has its pole at s = 1/2), else
    in s: 0.45 tol from the estimate, towards the farther end, and at least
    0.45 tol inside.  A probe straddling 1 at the last rung leaves its
    neighbours at +-0.45 tol to decide.  Returns (lo, hi, None), or (None,
    None, (s, side, f)) at the probe that stopped the loop: hi certified
    >= 1 (side 1), lo certified <= 1 (-1), or a straddle (0, f None).
    """
    points, bracket = [], [None, None]  # (s, (u, log f)) at lo and at hi

    def probe(s):
        for rung in rungs:
            f = f_at(s, rung)
            side = 1 if f.certified_ge(1) else -1 if f.certified_le(1) else 0
            if side:
                break
        points.append((math.log(2.0 * s - 1.0) if pole else s, math.log(f.mid_float)))
        if side:
            bracket[side < 0] = (s, points[-1])
        return side, f

    for end, wrong in ((hi, 1), (lo, -1)):
        side, f = probe(end)
        if side == wrong:
            return None, None, (end, side, f)
    if None in bracket:
        return None, None, (lo if bracket[1] else hi, 0, None)
    half = 0.45 * tol
    while bracket[1][0] - bracket[0][0] > tol:
        (lo, lo_pt), (hi, hi_pt) = bracket
        u = _next_u(points, lo_pt, hi_pt)
        s = 0.5 * (1.0 + math.exp(u)) if pole else u
        s = min(max(s + half if hi - s > s - lo else s - half, lo + half), hi - half)
        if not probe(s)[0] and not (probe(s - half)[0] and probe(s + half)[0]):
            return None, None, (s, 0, None)
    return bracket[0][0], bracket[1][0], None


def solve_predim(n: int, B, kind: int, a1z=None, *, M=None, tol: float = 1e-4):
    """Certified enclosure of the level-n root for the given equation kind.

    kind 1 weights by B^(-n s^2); kind 2 by a1z^(1-s) B^(-n s); kind 3 by
    a1z^(-s) B^(-n s/2).  a1z = +inf short-circuits to the conventional
    values [1,1] (kind 2) and [0,0] (kind 3).  M restricts the digit
    alphabet to {1..M}; M = None sums over all of N.

    root_loop brackets the root from [LEFT_EDGE, 1], each probe certified
    at the coarsest level (0, 1, 2) that can, steered in u = log(2s - 1) on
    the full alphabet.  A probe that straddles 1 at level 2, with a
    neighbour at +-0.45 tol that straddles too, raises PrecisionExhausted.
    """
    if kind not in (1, 2, 3):
        raise ValueError("kind must be 1, 2 or 3")
    if n < 1:
        raise ValueError("n must be >= 1")
    if Fraction(B) <= 1:
        raise ValueError("base B must exceed 1")
    if not 0 < tol <= 0.05:
        raise ValueError("tol must be in (0, 0.05]")
    if M is not None and M < 1:
        raise ValueError("alphabet cutoff M must be >= 1")
    if kind == 1:
        a1z = None
    else:
        if a1z is None:
            raise ValueError("kinds 2 and 3 need the first digit a1(z_n)")
        if a1z == math.inf:
            return enclose(1) if kind == 2 else enclose(0)
        a1z = int(a1z)
        if a1z < 1:
            raise ValueError("a1z must be a positive integer or +inf")

    lo, hi, stop = root_loop(lambda s, level: _f_enclosure(n, B, kind, a1z, M, s, level),
                             (0, 1, 2), LEFT_EDGE, 1.0, tol, M is None)
    if stop is None:
        return rd.from_f64(lo, hi)
    s, side, f = stop
    if side > 0:
        raise NoRootInUnitInterval(
            f"sum at s=1 lies in [{f.lo_float:.6g}, {f.hi_float:.6g}], "
            f"above 1 (n={n}, B={B}, kind={kind})")
    if side < 0:
        raise NoRoot(f"sum at s = {LEFT_EDGE} is below 1 (n={n}, kind={kind}, M={M})")
    raise PrecisionExhausted(
        f"sum at s = {s!r} straddles 1 at the sharpest level (n={n}, kind={kind}); "
        "try a larger tol")


def select_sn(s1: Enclosure, s2: Enclosure, s3: Enclosure, refine=None):
    """Pick the level root: s1 when s1 <= s2, else the interval max(s2, s3).

    The comparison must be certified on the enclosures; if they overlap,
    refine() (when given) is called once for tighter replacements before
    AmbiguousBranch is raised.
    """
    for round_ in (0, 1):
        le = _tri_le(s1, s2)
        if le is True:
            return s1, CASE_S1
        if le is False:
            return rd.imax(s2, s3), CASE_MAX_S2_S3
        if refine is not None and round_ == 0:
            s1, s2, s3 = refine()
            continue
        break
    raise AmbiguousBranch(
        f"s1 = [{s1.lo_float:.8f}, {s1.hi_float:.8f}] and "
        f"s2 = [{s2.lo_float:.8f}, {s2.hi_float:.8f}] still overlap"
    )


def _tri_le(a: Enclosure, b: Enclosure):
    """a <= b, three-valued: True or False when certified, else None."""
    if a.hi <= b.lo:
        return True
    if a.lo > b.hi:
        return False
    return None


def _tri_not(v):
    return None if v is None else not v


def _tri_digit_ge(a1z, e: Enclosure):
    """a1z >= e, three-valued."""
    if a1z == math.inf:
        return True
    if e.certified_le(a1z):
        return True
    if e.certified_gt(a1z):
        return False
    return None


def _implication(hyp, concl) -> str:
    if concl is True or hyp is False:
        return PASS
    if hyp is True and concl is False:
        return FAIL
    return INCONCLUSIVE


def threshold_check(result: PredimResult) -> tuple:
    """Four first-digit threshold implications, conservatively three-valued.

    (1) s1 <= s2 implies a1z >= B^(n s1);   (2) s1 > s2 implies a1z < B^(n s2);
    (3) s2 < s3 implies a1z < B^(n s3 / 2); (4) s2 >= s3 implies a1z >= B^(n s2 / 2).
    """
    n, B, a1z = result.n, result.B, result.a1z
    base = enclose(Fraction(B))

    def bpow(scale: Fraction, s: Enclosure) -> Enclosure:
        return rd.powr(base, rd.mul(enclose(scale), s))

    hyp12 = _tri_le(result.s1, result.s2)
    hyp3 = _tri_not(_tri_le(result.s3, result.s2))  # s2 < s3
    return (
        _implication(hyp12, _tri_digit_ge(a1z, bpow(Fraction(n), result.s1))),
        _implication(_tri_not(hyp12),
                     _tri_not(_tri_digit_ge(a1z, bpow(Fraction(n), result.s2)))),
        _implication(hyp3, _tri_not(_tri_digit_ge(a1z, bpow(Fraction(n, 2), result.s3)))),
        _implication(_tri_not(hyp3), _tri_digit_ge(a1z, bpow(Fraction(n, 2), result.s2))),
    )


def predim_result(n: int, B, a1z, *, M=None, tol: float = 1e-4) -> PredimResult:
    """Solve all three kinds at level n, select the branch, check thresholds.

    A root outside [LEFT_EDGE, 1] is flagged.  s{k}_no_root_in_unit_interval:
    the sum exceeds 1 even at s = 1, and the root is taken to be 1 (the
    infimum convention).  A finite first digit can be clipped too, not only
    a1z = +inf (whose conventional s2 = 1, s3 = 0 come unflagged from
    solve_predim): at n = 1, B = 2, a1z = 1 the kind-3 sum at s = 1 is
    zeta(2) / sqrt(2) ~ 1.163.  The reported value is then min(root, 1) = 1;
    the true root lies above 1.  s{k}_root_below_left_edge, kinds 2 and 3:
    the sum is certified <= 1 at LEFT_EDGE, so the root is enclosed by
    [0, LEFT_EDGE] on a finite alphabet (the sum at s = 0 is a1z |A|^n or
    |A|^n >= 1) and by [1/2, LEFT_EDGE] on the full one (the sum diverges at
    s = 1/2).  Kind 1 still raises NoRoot: its root decides the branch.
    """
    flags = []

    def solve(kind, solve_tol):
        try:
            return solve_predim(n, B, kind, a1z, M=M, tol=solve_tol)
        except NoRootInUnitInterval:
            flag, value = f"s{kind}_no_root_in_unit_interval", enclose(1)
        except NoRoot:
            if kind == 1:
                raise
            flag = f"s{kind}_root_below_left_edge"
            value = rd.from_f64(0.0 if M is not None else 0.5, LEFT_EDGE)
        if flag not in flags:
            flags.append(flag)
        return value

    s1 = solve(1, tol)
    s2 = solve(2, tol)
    s3 = solve(3, tol)

    def refine():
        fine = max(tol / 16.0, 1e-6)
        out = []
        for kind, current in ((1, s1), (2, s2), (3, s3)):
            try:
                out.append(solve(kind, fine))
            except CfshrinkError:
                out.append(current)
        return tuple(out)

    sn, branch = select_sn(s1, s2, s3, refine=refine)
    result = PredimResult(
        n=n, B=B, a1z=a1z, s1=s1, s2=s2, s3=s3, sn=sn, branch=branch,
        thresholds=(), flags=tuple(flags),
    )
    return replace(result, thresholds=threshold_check(result))


def sstar_estimate(
    target: TargetSpec, B, n_range, *, M=None, tol: float = 1e-4
) -> SstarEstimate:
    """Per-level roots across a window with running maxima of the selection.

    The window max is a surrogate only; nothing is extrapolated.  Levels
    whose computation fails are reported in skipped, not silently dropped.
    """
    ns = sorted({int(n) for n in n_range})
    if not ns or ns[0] < 1:
        raise ValueError("n_range must be a nonempty collection of levels >= 1")
    results, skipped, run_lo, run_hi = [], [], [], []
    best_lo = best_hi = -math.inf
    for n in ns:
        a1z = first_digit(target, n)
        try:
            res = predim_result(n, B, a1z, M=M, tol=tol)
        except CfshrinkError as err:
            skipped.append((n, f"{type(err).__name__}: {err}"))
            continue
        results.append(res)
        best_lo = max(best_lo, res.sn.lo_float)
        best_hi = max(best_hi, res.sn.hi_float)
        run_lo.append(best_lo)
        run_hi.append(best_hi)
    return SstarEstimate(
        window=(ns[0], ns[-1]),
        results=tuple(results),
        skipped=tuple(skipped),
        running_lo=tuple(run_lo),
        running_hi=tuple(run_hi),
    )

