"""Level-n target hits: membership, J-interval balls, extremal pieces, covers.

Membership at level n asks |T^n x - z_n| |T^{n+1} x - T z_n| < B^{-n}.
On an (n+1)-cylinder both orbit points are Moebius functions of the tail
t = T^{n+1} x, so between the knots {0, 1, Tz, 1/z - a} the boundary
condition is one quadratic in t with coefficients in Q, or in Q(sqrt D)
for a quadratic-surd target.  Rational coefficients give exact rational or
surd roots; surd ones give roots in a degree-4 field, shaved to rationals
and proved by exact sign tests.  Every verdict here is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import predim as predim_mod
from . import rounding as rd
from . import sums
from .cf_core import Word, eval_word, gauss_step
from .errors import AmbiguousBranch, ExponentTooSmall, PrecisionExhausted
from .rounding import Enclosure, enclose
from .surd import Quad, quad_to_enclosure, sqrt_value
from .targets import TargetSpec, first_digit, z_value

BRANCH_S1 = "s1<=s2"
BRANCH_MAX = "s1>s2"
SHAVE_PREC = 192  # bits of the enclosures that irrational ends are shaved from


def _as_value(x):
    """Coerce x (number, Fraction, Quad, or digit word) to an exact point."""
    if isinstance(x, Quad):
        return x
    if isinstance(x, (tuple, list)):
        return eval_word(tuple(x))
    return Fraction(x)


def _check_base(B):
    if Fraction(B) <= 1:
        raise ValueError("base B must exceed 1")


def _sign(v) -> int:
    if isinstance(v, Quad):
        return v.sign()
    return (v > 0) - (v < 0)


def _orbit(x, upto: int) -> list:
    """[x, Tx, ..., T^upto x] exactly."""
    if not 0 <= x < 1:
        raise ValueError("orbit start must lie in [0, 1)")
    pts = [x]
    for _ in range(upto):
        pts.append(gauss_step(pts[-1]))
    return pts


def membership(x, spec: TargetSpec, B, n: int) -> bool:
    """Does x satisfy |T^n x - z_n| |T^{n+1} x - T z_n| < B^{-n}?

    x may be a rational (or quadratic surd, or a digit word); the verdict
    is exact in every case.
    """
    if n < 1:
        raise ValueError("level n must be >= 1")
    _check_base(B)
    pts = _orbit(_as_value(x), n + 1)
    return _membership_at(pts[n], pts[n + 1], spec, B, n)


def _membership_at(tn, tn1, spec, B, n) -> bool:
    z, _, tz = z_value(spec, n)
    d1 = abs(tn - z)
    d2 = abs(tn1 - tz)
    prod = d1 * d2
    bound = Fraction(B) ** (-n)
    return _sign(prod - bound) < 0


@dataclass(frozen=True)
class HitReport:
    """Levels n <= horizon passing membership; inconclusive kept for shape.

    All supported inputs evaluate exactly, so `inconclusive` stays empty.
    """

    x: object
    B: object
    horizon: int
    hits: tuple
    inconclusive: tuple = ()


def hit_times(x, spec: TargetSpec, B, N: int) -> HitReport:
    """All levels n in 1..N where membership holds."""
    if N < 1:
        raise ValueError("horizon must be >= 1")
    _check_base(B)
    x0 = _as_value(x)
    pts = _orbit(x0, N + 1)
    hits = tuple(
        n for n in range(1, N + 1) if _membership_at(pts[n], pts[n + 1], spec, B, n)
    )
    return HitReport(x=x0, B=B, horizon=N, hits=hits)


# ---------------------------------------------------------------------------
# J-interval balls

def _b_pow_half(B, n: int):
    """B^{-n/2} exactly: a Fraction when B^n is a square, else a Quad."""
    return sqrt_value(Fraction(1, Fraction(B) ** n))


# ---------------------------------------------------------------------------
# exact extremal pieces

@dataclass(frozen=True)
class ExtremalPiece:
    """One maximal tail interval where the membership product is <= B^{-n}.

    x endpoints are the Moebius images inside the (n+1)-cylinder, ordered
    x_lo <= x_hi.  Ends are exact (Fraction or Quad) unless exact is False:
    a surd target's root ends are rationals shaved inward.
    """

    t_lo: object
    t_hi: object
    x_lo: object
    x_hi: object
    exact: bool


def _shaved_roots(a2, a1, disc) -> tuple:
    """(-a1 -+ sqrt(disc)) / (2 a2) from SHAVE_PREC-bit enclosures, the first
    rounded up and the second down to rationals: each moves to the side
    where the quadratic is <= 0, whatever the sign of a2."""
    prec = SHAVE_PREC
    sq = rd.sqrt_(quad_to_enclosure(disc, prec), prec)
    neg_a1, den = quad_to_enclosure(-a1, prec), quad_to_enclosure(2 * a2, prec)
    r_minus = rd.div(rd.sub(neg_a1, sq, prec), den, prec)
    r_plus = rd.div(rd.add(neg_a1, sq, prec), den, prec)
    return rd.raw_fraction(r_minus.hi._mpf_), rd.raw_fraction(r_plus.lo._mpf_)


def _le_zero_on(a2, a1, a0, lo, hi) -> bool:
    """Exact proof that a2 t^2 + a1 t + a0 <= 0 on [lo, hi] (a2 != 0): it
    is at both ends, and the quadratic is convex or has no vertex inside."""
    vertex = -a1 / (2 * a2)
    return (all(_sign((a2 * e + a1) * e + a0) <= 0 for e in (lo, hi))
            and (a2 > 0 or not lo < vertex < hi))


def _poly_le_zero(a2, a1, a0, u, v) -> list:
    """Solution of a2 t^2 + a1 t + a0 <= 0 on [u, v] as closed pieces.

    Rational coefficients give exact ends.  Otherwise root ends are shaved
    (_shaved_roots) and each piece proved exactly, else PrecisionExhausted.
    """
    if a2 == 0:
        if a1 == 0:
            return [(u, v)] if a0 <= 0 else []
        r = -Fraction(a0) / a1
        if a1 > 0:
            return [(u, min(v, r))] if r > u else []
        return [(max(u, r), v)] if r < v else []
    disc = a1 * a1 - 4 * a2 * a0
    if disc <= 0:
        return [] if a2 > 0 else [(u, v)]
    shaved = any(isinstance(c, Quad) for c in (a2, a1, a0))
    if shaved:
        r_minus, r_plus = _shaved_roots(a2, a1, disc)
    else:
        sq = sqrt_value(disc)
        r_minus, r_plus = (-a1 - sq) / (2 * a2), (-a1 + sq) / (2 * a2)
    out = []
    if a2 > 0:  # between the roots, r_minus < r_plus
        lo = u if _sign(r_minus - u) < 0 else r_minus
        hi = v if _sign(r_plus - v) > 0 else r_plus
        out.append((lo, hi))
    else:
        # opens downward: solution is the complement of (r_plus, r_minus)
        if _sign(r_plus - u) > 0:
            out.append((u, v if _sign(r_plus - v) > 0 else r_plus))
        if _sign(r_minus - v) < 0:
            out.append((r_minus if _sign(r_minus - u) > 0 else u, v))
    out = [(lo, hi) for (lo, hi) in out if _sign(hi - lo) > 0]
    if shaved and not all(_le_zero_on(a2, a1, a0, lo, hi) for lo, hi in out):
        raise PrecisionExhausted(
            f"cannot prove a piece with shaved root ends at {SHAVE_PREC} bits on [{u}, {v}]")
    return out


def _map_piece(word: Word, t0, t1) -> tuple:
    """Moebius image of a tail interval inside the cylinder of `word`."""
    if len(word) % 2 == 1:  # odd length: x decreases in the tail
        return eval_word(word, t1), eval_word(word, t0)
    return eval_word(word, t0), eval_word(word, t1)


def extremal_interval(prefix: Word, a_next: int, spec: TargetSpec, B, n: int) -> tuple:
    """Maximal sub-intervals of the cylinder where membership holds.

    Solves |1/(a+t) - z| |t - Tz| <= B^{-n} for the tail t by splitting
    [0,1] at the factor sign changes; on each part the boundary is one
    quadratic (_poly_le_zero), and pieces meeting at a knot are joined.
    Root ends are exact for a rational target, shaved for a surd one.
    """
    prefix = tuple(prefix)
    if len(prefix) != n or n < 1:
        raise ValueError("prefix length must equal the level n >= 1")
    _check_base(B)
    z, _, tz = z_value(spec, n)
    surd = isinstance(z, Quad)
    a = a_next
    c = Fraction(B) ** (-n)

    pts = {Fraction(0), Fraction(1), tz}
    if z != 0:
        tstar = 1 / z - a
        if 0 < tstar < 1:
            pts.add(tstar)
    knots = sorted(p for p in pts if 0 <= p <= 1)

    t_pieces = []
    for u, v in zip(knots, knots[1:]):
        mid = (u + v) / 2
        s1 = _sign(1 - z * (a + mid))
        s2 = _sign(mid - tz)
        sigma = s1 * s2
        # sigma*(1 - z(a+t))(t - tz) - c(a+t) <= 0, coefficients in t
        a2 = -sigma * z
        a1 = sigma * (1 - z * a + z * tz) - c
        a0 = -sigma * (1 - z * a) * tz - c * a
        for lo, hi in _poly_le_zero(a2, a1, a0, u, v):
            # only a root end can be shaved, and only for a surd target
            exact = not surd or (_sign(lo - u) == 0 and _sign(hi - v) == 0)
            if t_pieces and _sign(t_pieces[-1][1] - lo) == 0:
                plo, _, pexact = t_pieces.pop()
                lo, exact = plo, pexact and exact
            t_pieces.append((lo, hi, exact))

    word = prefix + (a_next,)
    return tuple(ExtremalPiece(t0, t1, *_map_piece(word, t0, t1), exact)
                 for t0, t1, exact in t_pieces)


# ---------------------------------------------------------------------------
# cover s-volumes

@dataclass(frozen=True)
class CoverReport:
    """Total cover s-volume at one level, with a per-piece breakdown.

    `total` and `parts` score the cover pieces at their collapsed weights
    (the per-digit sums evaluate to their comparability class, constants
    normalized away): that is the quantity whose decay/growth tracks the
    pre-dimensional root.  The J-bound upper lengths carry 16^s-size
    constants on top of these; the constants shift the level where the total
    crosses 1, not the exponent its decay tracks, so they are left out.
    """

    n: int
    B: object
    s: float
    branch: str
    a1z: object
    total: Enclosure
    parts: dict


@dataclass(frozen=True)
class DecayReport:
    """Cover totals across levels with a fitted log2 slope."""

    reports: tuple
    side: str
    offset: float
    slope: float
    residual: float
    monotone_decreasing: bool
    monotone_nondecreasing: bool


def cover_svolume(n: int, B, spec: TargetSpec, s: float, M=None, *,
                  predim=None, level: int = 1) -> CoverReport:
    """Certified s-volume of the level-n cover of F_n.

    The per-word factor q_n^{-2s} splits off, so every term is the
    continuant power sum times a per-digit coefficient sum.  `total`
    scores the pieces at collapsed weights: the digit sums replaced by
    their evaluated comparability class, so first branch B^{-n s s1} per
    word plus the truncation interval, second branch a1z^{1-s} B^{-ns}
    plus the a1z-digit piece a1z^{-s} B^{-ns/2}; the J-bound constants
    are not summed (see CoverReport).  M truncates the outer word alphabet
    (None = full, certified envelope).
    """
    if s <= 0.51:
        raise ExponentTooSmall(f"cover sums need s > 1/2 + margin, got {s}")
    a1z = first_digit(spec, n)
    if predim is None:
        predim = predim_mod.predim_result(n, B, a1z, M=M, tol=1e-3)
    lam = sums.lambda_enclosure(n, s, alphabet_max=M, level=level)

    if predim.branch == predim_mod.CASE_S1:
        # truncation piece: one residual interval per word holds every
        # cylinder with a_{n+1} > B^{n s1}/2, length ~ B^{-n s1} q_n^{-2};
        # the kept digits sum to ~ B^{n s1 (1-s)} B^{-ns} per word
        Benc, sf = enclose(Fraction(B)), Fraction(s)
        trunc = rd.powr(Benc, rd.mul(enclose(-n * sf), predim.s1))
        far = rd.mul(rd.powr(Benc, rd.mul(enclose(n * (1 - sf)), predim.s1)),
                     rd.powr(enclose(1 / Fraction(B) ** n), sf))
        cutoff = int(float(B) ** (n * predim.s1.hi_float) / 2)
        if a1z != math.inf and a1z <= cutoff:
            raise AmbiguousBranch(
                f"first branch needs a_1(z_n) > B^(n s1)/2, got {a1z} <= {cutoff}")
        parts = {"truncation": rd.mul(lam, trunc), "far": rd.mul(lam, far)}
        total = rd.add(parts["truncation"], parts["far"])
        return CoverReport(n, B, s, BRANCH_S1, a1z, total, parts)

    a1z = int(a1z)
    parts = {"far": rd.mul(lam, predim_mod._weight_enclosure(n, B, 2, a1z, s)),
             "equal": rd.mul(lam, predim_mod._weight_enclosure(n, B, 3, a1z, s))}
    total = rd.add(parts["far"], parts["equal"])
    return CoverReport(n, B, s, BRANCH_MAX, a1z, total, parts)


def _fit_line(points) -> tuple:
    """Least-squares line through (x, y) points: (slope, mean x, mean y)."""
    n = len(points)
    mx = sum(x for x, _ in points) / n
    my = sum(y for _, y in points) / n
    den = sum((x - mx) ** 2 for x, _ in points)
    slope = sum((x - mx) * (y - my) for x, y in points) / den if den else 0.0
    return slope, mx, my


def cover_decay(spec: TargetSpec, B, n_range, M=None, *, side: str = "above",
                offset: float = 0.05, tol: float = 1e-3, level: int = 1) -> DecayReport:
    """Cover totals at s = s_n +/- offset across levels, with a log2 fit."""
    if side not in ("above", "below"):
        raise ValueError("side must be 'above' or 'below'")
    ns = sorted(set(int(n) for n in n_range))
    if not ns:
        raise ValueError("empty level range")
    reports = []
    for n in ns:
        res = predim_mod.predim_result(n, B, first_digit(spec, n), M=M, tol=tol)
        if side == "above":
            s = res.sn.hi_float + offset
        else:
            s = res.sn.lo_float - offset
        reports.append(cover_svolume(n, B, spec, s, M, predim=res, level=level))

    pts = [(n, math.log2(r.total.mid_float)) for n, r in zip(ns, reports)]
    slope, xbar, ybar = _fit_line(pts)
    resid = max(abs(y - (ybar + slope * (x - xbar))) for x, y in pts)
    dec = all(b.total.mid_float < a.total.mid_float for a, b in zip(reports, reports[1:]))
    nondec = all(b.total.mid_float >= a.total.mid_float for a, b in zip(reports, reports[1:]))
    return DecayReport(tuple(reports), side, offset, slope, resid, dec, nondec)
