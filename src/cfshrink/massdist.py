"""Lower-bound witnesses: fundamental intervals, block measures, ball bounds.

The construction lives inside one root cylinder I_k(u).  The word is padded
to u~ = (u, 1^ell0), extended by m blocks of length ell over {1..M}, and
closed with one more digit: an even integer from a short window (first and
second families) or the target's own first digit (third family).  Inside
every resulting (n+1)-cylinder the level-n hit set carves out one interval,
the fundamental interval.  Block weights are a product measure tuned so the
per-block sum is exactly 1 at the finite-alphabet exponent s(ell, M); the
closing digit is weighted uniformly by exact count.

Endpoints and weights are rationals (irrational ends are shaved inward
from a 192-bit enclosure), so distances, cylinder masses and ball masses all
evaluate exactly; only t-power comparisons go through directed rounding.
"""

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from itertools import product as iter_product

import numpy as np

from . import ivec
from . import rounding as rd
from .cf_core import Word, continuants, cylinder
from .errors import BudgetExceeded, InvalidWitness, NoRoot, PrecisionExhausted
from .predim import root_loop
from .pressure import log_weight
from .rounding import Enclosure, enclose
from .shrink import SHAVE_PREC, _b_pow_half, extremal_interval, membership
from .surd import quad_to_enclosure
from .targets import TargetSpec, first_digit

CASE_I = "I"
CASE_II = "II"
CASE_III = "III"
_CASES = (CASE_I, CASE_II, CASE_III)

RATIO_PREC = 96
_FINE_LIMIT = 128  # the ball lemma's constant on the fine regime
_PREBOUND_SLACK = 1.0 + 2.0**-40  # 1 + delta, see holder_check
_PREBOUND_CHUNK = 512  # samples per kernel call: keeps the temporaries small
_WORD_BUDGET = 1_000_000  # block words {1..M}^ell that s(ell, M) may sum over
_UNIT_DEN = 2**48 + 2  # holder_samples draws u = 1 .. 2^48 and uses u / _UNIT_DEN


def _inside_fraction(v, side):
    """Rational point certainly on the inner side of the exact endpoint v.

    side "lo": result >= v (left endpoint moves right); side "hi": <= v.
    Returns (fraction, was_exact).
    """
    if isinstance(v, Fraction):
        return v, True
    e = quad_to_enclosure(v, SHAVE_PREC)
    return rd.raw_fraction((e.hi if side == "lo" else e.lo)._mpf_), False


def _block_words(ell: int, M: int):
    return tuple(iter_product(range(1, M + 1), repeat=ell))


def _q_of(w: Word) -> int:
    return continuants(w).q(len(w))


# -- the finite-alphabet exponent s(ell, M) ----------------------------------


def _block_factor(case, ell, B, rate, s: Fraction, prec) -> Enclosure:
    """The per-block factor multiplying q^(-2s): the level-ell weight of
    potential kind 1, 2, 3 for case I, II, III, growth ell * rate."""
    growth = None if case == CASE_I else ell * Fraction(rate)
    return rd.exp_(log_weight(_CASES.index(case) + 1, ell, s, B, growth, prec), prec)


def _sum_at(case, ell, M, B, rate, s: Fraction, qcounts, prec) -> Enclosure:
    head = rd.sum_enclosures(
        (
            rd.mul(enclose(cnt, prec), rd.powr(enclose(q, prec), -2 * s, prec), prec)
            for q, cnt in qcounts
        ),
        prec,
    )
    return rd.mul(_block_factor(case, ell, B, rate, s, prec), head, prec)


def _solve_bracket(case, ell, M, B, rate, tol=Fraction(1, 10**13)):
    """Certified (lo, hi) around s(ell, M) from [2^-20, 1], sums at 128-512 bits."""
    if case not in _CASES:
        raise ValueError(f"case must be one of {_CASES}, got {case!r}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if tol < 2.0**-52:
        raise ValueError(f"tol below 2^-52 cannot separate float probes, got {tol!r}")
    if ell < 1 or M < 1:
        raise ValueError("ell and M must be positive")
    if B < 2:
        raise ValueError("B must be an integer >= 2")
    if case != CASE_I:
        if rate is None:
            raise ValueError("cases II/III need a growth rate")
        rate = Fraction(rate)
    elif rate is not None:
        raise ValueError("case I takes no growth rate")
    if M**ell > _WORD_BUDGET:
        raise BudgetExceeded(f"alphabet {{1..{M}}}^{ell} exceeds budget {_WORD_BUDGET}")
    qcounts = tuple(Counter(_q_of(a) for a in _block_words(ell, M)).items())
    lo, hi, stop = root_loop(
        lambda s, prec: _sum_at(case, ell, M, B, rate, Fraction(s), qcounts, prec),
        (128, 256, 512), 2.0**-20, 1.0, Fraction(tol), False)
    if stop is None:
        return Fraction(lo), Fraction(hi)
    if stop[1] < 0:
        raise NoRoot(
            f"defining sum never reaches 1 on (0, 1] for case {case}, "
            f"ell={ell}, M={M}; enlarge the alphabet"
        )
    if stop[1] > 0:
        raise NoRoot(f"defining sum still exceeds 1 at s=1 (case {case}, ell={ell}, M={M})")
    raise PrecisionExhausted(f"defining sum straddles 1 at s={stop[0]:.17g}")


def solve_finite_s(case, ell, M, B, rate=None, *, tol=Fraction(1, 10**13)):
    """Root s of the finite-alphabet defining sum, to within tol.

    Case I solves sum q^(-2s) B^(-ell s^2) = 1 over {1..M}^ell; case II
    weighs each word by e^(rate ell (1-s)) B^(-ell s), case III by
    e^(-rate ell s) B^(-ell s / 2).  The sum is strictly decreasing in s,
    so predim.root_loop brackets the root; the midpoint is returned.
    """
    lo, hi = _solve_bracket(case, ell, M, B, rate, tol=tol)
    return float((lo + hi) / 2)


# -- parameters ---------------------------------------------------------------


@dataclass(frozen=True)
class WitnessParams:
    """Shape of one witness construction, with the regime checks applied.

    n - k = m*ell + ell0 always; the analytic regime constraints (lower
    bounds on ell and m, s > t + eps, the exponent and window inequalities)
    are enforced on construction unless relax=True, which is meant for
    exploratory instances where only the exact geometric checks matter.
    """

    case: str
    k: int
    u: Word
    ell: int
    M: int
    n: int
    B: int
    spec: TargetSpec
    t: Fraction
    eps: Fraction
    rate: object = None
    relax: bool = False
    m: int = field(init=False)
    ell0: int = field(init=False)
    u_tilde: Word = field(init=False)
    s: float = field(init=False)
    s_lo: Fraction = field(init=False)
    s_hi: Fraction = field(init=False)

    def __post_init__(self):
        put = lambda k_, v: object.__setattr__(self, k_, v)
        if self.case not in _CASES:
            raise ValueError(f"case must be one of {_CASES}, got {self.case!r}")
        put("u", tuple(self.u))
        if any(not isinstance(a, int) or a < 1 for a in self.u):
            raise ValueError("root word digits must be integers >= 1")
        if self.k != len(self.u):
            raise ValueError(f"k={self.k} but u has {len(self.u)} digits")
        if not (isinstance(self.B, int) and self.B >= 2):
            raise ValueError("B must be an integer >= 2")
        put("t", Fraction(self.t))
        put("eps", Fraction(self.eps))
        if not (0 < self.t < 1):
            raise ValueError("t must lie in (0, 1)")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.n <= self.k:
            raise ValueError("n must exceed k")
        if self.ell < 1 or self.M < 1:
            raise ValueError("ell and M must be positive")
        put("m", (self.n - self.k) // self.ell)
        put("ell0", (self.n - self.k) % self.ell)
        if self.m < 1:
            raise ValueError("need at least one block: n - k >= ell")
        put("u_tilde", self.u + (1,) * self.ell0)
        rate = self.rate
        if self.case == CASE_I:
            if rate is not None:
                raise ValueError("case I takes no growth rate")
        else:
            a1 = first_digit(self.spec, self.n)
            if not isinstance(a1, int):
                raise ValueError("cases II/III need a finite a1(z_n)")
            if rate is None:
                rate = Fraction(math.log(a1)) / self.n
            put("rate", Fraction(rate))
        s_lo, s_hi = _solve_bracket(self.case, self.ell, self.M, self.B, self.rate)
        put("s_lo", s_lo)
        put("s_hi", s_hi)
        put("s", float((s_lo + s_hi) / 2))
        errs = self._regime_errors()
        if errs and not self.relax:
            raise ValueError("; ".join(errs) + " (set relax=True to explore anyway)")

    def _regime_errors(self):
        errs = []
        p = self
        if p.case == CASE_I:
            if not (p.ell > 2 * p.t / p.eps + 1):
                errs.append(f"ell={p.ell} must exceed 2t/eps + 1 = {float(2*p.t/p.eps+1):.6g}")
            logb4 = rd.div(rd.log_(enclose(4)), rd.log_(enclose(p.B)))
            if not rd.div(logb4, enclose(p.eps)).certified_lt(p.ell):
                errs.append(f"ell={p.ell} must exceed log_B(4)/eps")
            if p.m * p.eps < p.k * p.t:
                errs.append(f"m={p.m} must be at least k t/eps = {float(p.k*p.t/p.eps):.6g}")
            if p.m * p.ell * p.s_lo**2 < p.n * p.t**2:
                errs.append("exponent inequality m ell s^2 >= n t^2 fails")
        else:
            if not (p.ell >= 2 * p.t / p.eps + 1):
                errs.append(f"ell={p.ell} must be at least 2t/eps + 1 = {float(2*p.t/p.eps+1):.6g}")
            if not (p.n * (1 - p.eps) <= p.m * p.ell <= p.n):
                errs.append("window inequality n(1 - eps) <= m ell <= n fails")
            a1 = first_digit(p.spec, p.n)
            lo_e = rd.exp_(enclose(p.n * (p.rate - p.eps)))
            if not (lo_e.certified_le(a1) and _closing_scale(p).certified_ge(a1)):
                errs.append("a1(z_n) falls outside the e^(n(rate -+ eps)) window")
            if p.case == CASE_II:
                # block weight <= q^(-2s) needs e^(rate(1-s)) <= B^s
                lhs = rd.exp_(enclose(p.rate * (1 - p.s_lo)))
                rhs = rd.powr(enclose(p.B), p.s_lo)
                if not rd.sub(rhs, lhs).certified_ge(0):
                    errs.append("regime inequality e^(rate(1-s)) <= B^s fails")
        if not (p.s_lo > p.t + p.eps):
            errs.append(f"s(ell, M) = {p.s:.6g} must exceed t + eps = {float(p.t+p.eps):.6g}")
        return errs


# -- fundamental intervals -----------------------------------------------------


@dataclass(frozen=True)
class FundamentalInterval:
    """One interval inside F_n and its (n+1)-cylinder, rational endpoints."""

    word: Word
    blocks: tuple
    last: int
    lo: Fraction
    hi: Fraction
    exact_endpoints: bool

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    @property
    def address(self):
        return self.blocks + (self.last,)


def _block_prefix(p: WitnessParams, blocks) -> Word:
    """u~ followed by the digits of the given blocks."""
    return p.u_tilde + tuple(d for blk in blocks for d in blk)


def _closing_scale(p: WitnessParams) -> Enclosure:
    """B^(nt) in case I, e^(n(rate+eps)) otherwise: the scale of the closing
    digit's window (cases I, II) and the top of a1(z_n)'s window (II, III)."""
    if p.case == CASE_I:
        return rd.powr(enclose(p.B), p.n * p.t)
    return rd.exp_(enclose(p.n * (p.rate + p.eps)))


def _last_entries(params: WitnessParams):
    p = params
    if p.case == CASE_III:
        return (first_digit(p.spec, p.n),)
    e = _closing_scale(p)
    if p.case == CASE_I:
        lo_v, hi_v = rd.raw_fraction(e.hi._mpf_), 2 * rd.raw_fraction(e.lo._mpf_)
        what = "[B^(nt), 2 B^(nt)]"
    else:
        lo_v, hi_v = 2 * rd.raw_fraction(e.hi._mpf_), 3 * rd.raw_fraction(e.lo._mpf_)
        what = "[2 e^(n(rate+eps)), 3 e^(n(rate+eps))]"
    b = math.ceil(lo_v)
    b += b % 2
    top = math.floor(hi_v)
    top -= top % 2
    if b > top:
        raise ValueError(f"no even closing digit certified inside {what}")
    return tuple(range(b, top + 1, 2))


def _carve(prefix: Word, last: int, params: WitnessParams):
    pieces = extremal_interval(prefix, last, params.spec, params.B, params.n)
    if not pieces:
        raise InvalidWitness(f"hit set empty inside cylinder {prefix + (last,)}")
    best = max(pieces, key=lambda pc: float(pc.x_hi) - float(pc.x_lo))
    lo, ok_lo = _inside_fraction(best.x_lo, "lo")
    hi, ok_hi = _inside_fraction(best.x_hi, "hi")
    if lo >= hi:
        raise InvalidWitness(f"degenerate fundamental interval at {prefix + (last,)}")
    return lo, hi, best.exact and ok_lo and ok_hi


def _floor_enclosure(params: WitnessParams, qn: int, last: int) -> Enclosure:
    p = params
    if p.case == CASE_I:
        den = rd.mul(enclose(32 * qn * qn), rd.powr(enclose(p.B), p.n * (1 + p.t)))
    elif p.case == CASE_II:
        den = rd.mul(
            enclose(48 * qn * qn * last * p.B**p.n),
            rd.exp_(enclose(2 * p.n * p.eps)),
        )
    else:
        half = quad_to_enclosure(_b_pow_half(p.B, p.n), 128)
        return rd.div(half, enclose(4 * qn * qn * last))
    return rd.div(enclose(1), den)


def enumerate_fundamental(params: WitnessParams, *, budget=20_000):
    """All fundamental intervals of the family, sorted left to right.

    Each (n+1)-cylinder's interval is the longest piece of the hit set that
    `shrink.extremal_interval` solves there, for a rational or a
    quadratic-surd target alike, with irrational ends shaved to rationals.
    Every interval is checked against its case's length floor.
    """
    p = params
    lasts = _last_entries(p)
    blocks = _block_words(p.ell, p.M)
    total = len(blocks) ** p.m * len(lasts)
    if total > budget:
        raise BudgetExceeded(f"{total} fundamental intervals exceed budget {budget}")
    out = []
    for combo in iter_product(blocks, repeat=p.m):
        prefix = _block_prefix(p, combo)
        qn = continuants(prefix).q(p.n)
        for last in lasts:
            lo, hi, was_exact = _carve(prefix, last, p)
            floor = _floor_enclosure(p, qn, last)
            if not floor.certified_le(hi - lo):
                raise InvalidWitness(
                    f"interval at {prefix + (last,)} misses its length floor "
                    f"({float(hi - lo):.3g} vs {floor.hi_float:.3g})"
                )
            out.append(
                FundamentalInterval(prefix + (last,), combo, last, lo, hi, was_exact)
            )
    out.sort(key=lambda F: F.lo)
    for a, b in zip(out, out[1:]):
        if a.hi >= b.lo:
            raise InvalidWitness(f"overlapping intervals at {a.word} and {b.word}")
    return out


def membership_spotcheck(intervals, params: WitnessParams, points: int = 10):
    """Exact membership at equally spaced interior rationals; count checked."""
    failures = []
    for F in intervals:
        step = F.length / (points + 1)
        for j in range(1, points + 1):
            x = F.lo + j * step
            if not membership(x, params.spec, params.B, params.n):
                failures.append((F.address, x))
    return SpotcheckReport(len(intervals) * points, tuple(failures), _verdict(failures))


def _verdict(failures) -> str:
    return "PASS" if not failures else "FAIL"


@dataclass(frozen=True)
class SpotcheckReport:
    checked: int
    failures: tuple
    verdict: str


# -- the measure ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class WitnessMeasure:
    """Product measure on the fundamental intervals, total mass exactly 1.

    Block weights are the defining-sum terms at the bracketed s, normalized
    by their exact rational sum; the closing digit is weighted 1/count.
    nominal_last_total records what the per-digit convention (2/B^(nt),
    2/e^(n(rate+eps)), or 1) would sum to instead.
    """

    params: WitnessParams
    intervals: tuple
    block_weights: dict
    last_weights: dict
    block_sum_residual: float
    nominal_last_total: float
    los: tuple = field(init=False)
    his: tuple = field(init=False)
    masses: tuple = field(init=False)
    cum: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "los", tuple(F.lo for F in self.intervals))
        object.__setattr__(self, "his", tuple(F.hi for F in self.intervals))
        object.__setattr__(
            self, "masses", tuple(self.interval_mass(F) for F in self.intervals)
        )
        # cum[i] = exact mass of the first i intervals
        object.__setattr__(
            self, "cum", tuple(accumulate(self.masses, initial=Fraction(0)))
        )

    def weight(self, blocks, last=None) -> Fraction:
        w = Fraction(1)
        for a in blocks:
            w *= self.block_weights[tuple(a)]
        if last is not None:
            w *= self.last_weights[last]
        return w

    def interval_mass(self, F: FundamentalInterval) -> Fraction:
        return self.weight(F.blocks, F.last)

    @property
    def root_length(self) -> Fraction:
        return cylinder(self.params.u_tilde).length

    @property
    def total_mass(self) -> Fraction:
        return sum(self.masses, Fraction(0))

    def min_gap(self) -> Fraction:
        gaps = [b - a for a, b in zip(self.his, self.los[1:])]
        return min(gaps) if gaps else self.root_length


def build_witness(params: WitnessParams, *, budget=20_000) -> WitnessMeasure:
    """Enumerate the family and attach the normalized product measure."""
    p = params
    intervals = tuple(enumerate_fundamental(p, budget=budget))
    s = (p.s_lo + p.s_hi) / 2
    factor = _block_factor(p.case, p.ell, p.B, p.rate, s, rd.PREC)
    raw = {a: Fraction(rd.mul(rd.powr(enclose(_q_of(a)), -2 * s), factor).mid_float)
           for a in _block_words(p.ell, p.M)}
    total = sum(raw.values())
    block_weights = {a: w / total for a, w in raw.items()}
    lasts = sorted({F.last for F in intervals})
    last_weights = {b: Fraction(1, len(lasts)) for b in lasts}
    per = 1.0 if p.case == CASE_III else rd.div(enclose(2), _closing_scale(p)).mid_float
    return WitnessMeasure(
        params,
        intervals,
        block_weights,
        last_weights,
        float(abs(total - 1)),
        per * len(lasts),
    )


def _mass_tables(w: WitnessMeasure):
    """Numerator and denominator lists of w.los, w.his, w.cum, mass / length."""
    dens = [m / (b - a) for m, a, b in zip(w.masses, w.los, w.his)]
    return tuple(col for vs in (w.los, w.his, w.cum, dens)
                 for col in ([v.numerator for v in vs], [v.denominator for v in vs]))


def _first_at_least(ns, ds, a, d, i):
    """The first k >= i with ns[k]/ds[k] >= a/d, for ascending ns/ds and
    positive denominators: a binary search comparing ns[k] d with a ds[k]."""
    k = len(ns)
    while i < k:
        c = (i + k) // 2
        if ns[c] * d < a * ds[c]:
            i = c + 1
        else:
            k = c
    return i


def _ball_mass_pair(tables, xn, xd, rn, rd_):
    """Exact mass of [x - r, x + r] as a pair (num, den > 0), not normalized.

    x = xn/xd, r = rn/rd_ (positive denominators), tables from _mass_tables.
    The ball is [a/d, b/d] with d = xd rd_; intervals i..j-1 meet it.  The
    prefix-sum difference cum[j] - cum[i] loses the uncovered parts of the
    two end intervals at their densities.  Radius r <= 0: no mass.
    """
    lon, lod, hin, hid, cn, cd, pn, pd = tables
    if rn <= 0:
        return 0, 1
    d = xd * rd_
    a, b = xn * rd_ - rn * xd, xn * rd_ + rn * xd
    i = _first_at_least(hin, hid, a, d, 0)  # the first interval with his[i] >= lo
    j = _first_at_least(lon, lod, b, d, i)  # the first with los[j] >= hi
    if i >= j:
        return 0, 1
    num, den = cn[j] * cd[i] - cn[i] * cd[j], cd[i] * cd[j]
    e = a * lod[i] - lon[i] * d  # (lo - los[i]) d lod[i]
    if e > 0:
        f = pd[i] * d * lod[i]
        num, den = num * f - pn[i] * e * den, den * f
    e = hin[j - 1] * d - b * hid[j - 1]  # (his[j-1] - hi) d hid[j-1]
    if e > 0:
        f = pd[j - 1] * d * hid[j - 1]
        num, den = num * f - pn[j - 1] * e * den, den * f
    return num, den


def _ball_mass(w: WitnessMeasure, x, r, tables=None) -> Fraction:
    """Exact mass of [x - r, x + r] for int or Fraction x, r: the pair of
    _ball_mass_pair, normalized once.  n / d in int true division rounds
    that pair once, so it gives the bits of float(_ball_mass(w, x, r))."""
    return Fraction(*_ball_mass_pair(tables or _mass_tables(w), *x.as_integer_ratio(),
                                     *r.as_integer_ratio()))


# -- gap lemma -------------------------------------------------------------------


@dataclass(frozen=True)
class GapReport:
    pairs: int
    block_pairs: int
    last_pairs: int
    min_margin: object
    worst: object
    failures: tuple
    verdict: str


def _floors(p: WitnessParams, F: FundamentalInterval) -> tuple:
    """The separation lemma's floors at F: ([|I_(k+ell0+d*ell)| / (2(M+2)^4)
    for d = 1..m], |I_(n+1)| / c), the cylinders those of F's first d blocks
    and of F's own word, c = 32, 18 or 2(M+2)^4 for case I, II or III."""
    const4 = 2 * (p.M + 2) ** 4
    blocks = [cylinder(_block_prefix(p, F.blocks[:d])).length / const4
              for d in range(1, p.m + 1)]
    last_div = {CASE_I: 32, CASE_II: 18, CASE_III: const4}[p.case]
    return blocks, cylinder(F.word).length / last_div


def gap_check(intervals, params: WitnessParams) -> GapReport:
    """Exact pairwise distances against the separation lemma's floors.

    Pairs differing first in block p must sit |I_(k+ell0+p*ell)| / (2(M+2)^4)
    apart; pairs differing only in the closing digit get |I_(n+1)| / 32
    (first family) or / 18 (second).  The floor is evaluated for both
    members (_floors) and the larger one is required.
    """
    p = params
    ordered = sorted(intervals, key=lambda F: F.lo)
    floors = {F.address: _floors(p, F) for F in ordered}
    failures = []
    min_margin = None
    worst = None
    block_pairs = last_pairs = 0
    for i, A in enumerate(ordered):
        for Bv in ordered[i + 1 :]:
            dist = Bv.lo - A.hi
            diff_p = next(
                (j for j, (a, b) in enumerate(zip(A.blocks, Bv.blocks)) if a != b), None
            )
            if diff_p is None:
                if A.last == Bv.last:
                    raise InvalidWitness(f"duplicate address {A.address}")
                if p.case == CASE_III:
                    raise InvalidWitness("case III admits a single closing digit")
                last_pairs += 1
                required = max(floors[A.address][1], floors[Bv.address][1])
            else:
                block_pairs += 1
                required = max(floors[A.address][0][diff_p], floors[Bv.address][0][diff_p])
            margin = dist / required
            if min_margin is None or margin < min_margin:
                min_margin, worst = margin, (A.address, Bv.address)
            if dist < required:
                failures.append((A.address, Bv.address, dist, required))
    return GapReport(
        block_pairs + last_pairs,
        block_pairs,
        last_pairs,
        min_margin,
        worst,
        tuple(failures),
        _verdict(failures),
    )


# -- mass lemma -------------------------------------------------------------------


@dataclass(frozen=True)
class MassBoundsReport:
    cylinders: int
    fundamentals: int
    max_cylinder_ratio: float
    max_fundamental_ratio: float
    cylinder_limit: object
    fundamental_limit: object
    failures: tuple
    verdict: str


def mass_bounds_check(witness: WitnessMeasure, *, prec=RATIO_PREC) -> MassBoundsReport:
    """Mass-lemma inequalities on every enumerated address.

    Block-cylinder masses are compared with q^(-2t) / |I_(k+ell0)(u~)|^t and
    fundamental-interval masses with 64 |F|^t / |I_(k+ell0)(u~)|^t.  Where
    the constant is left implicit (second and third families' interval
    bound), the ratio is only reported, not thresholded.
    """
    p = witness.params
    t = p.t
    L0t = rd.powr(enclose(witness.root_length), t, prec)
    cyl_limit = 1
    fund_limit = 64 if p.case == CASE_I else None
    failures = []
    max_cyl = 0.0
    cylinders = 0
    blocks = _block_words(p.ell, p.M)
    for depth in range(p.m + 1):
        for combo in iter_product(blocks, repeat=depth):
            cylinders += 1
            word = _block_prefix(p, combo)
            mass = witness.weight(combo)
            q = _q_of(word)
            ratio = rd.mul(
                rd.mul(enclose(mass), rd.powr(enclose(q), 2 * t, prec), prec), L0t, prec
            )
            max_cyl = max(max_cyl, ratio.hi_float)
            if not ratio.certified_le(cyl_limit):
                failures.append(("cylinder", combo, ratio.hi_float))
    max_fund = 0.0
    for F in witness.intervals:
        mass = witness.interval_mass(F)
        ratio = rd.mul(
            enclose(mass), rd.powr(enclose(witness.root_length / F.length), t, prec), prec
        )
        max_fund = max(max_fund, ratio.hi_float)
        if fund_limit is not None and not ratio.certified_le(fund_limit):
            failures.append(("fundamental", F.address, ratio.hi_float))
    return MassBoundsReport(
        cylinders,
        len(witness.intervals),
        max_cyl,
        max_fund,
        cyl_limit,
        fund_limit,
        tuple(failures),
        _verdict(failures),
    )


# -- ball bound -------------------------------------------------------------------


@dataclass(frozen=True)
class HolderReport:
    samples: int
    limit: int
    max_ratio: float
    argmax: object
    big_samples: int
    big_max: float
    fine_samples: int
    fine_max: float
    failures: tuple
    verdict: str
    fine_verdict: str


def holder_limit(params: WitnessParams) -> int:
    return 16 * (params.M + 2) ** 4 * (params.M + 1) ** (2 * params.ell)


def _span(a: Fraction, b: Fraction):
    """Integers (c0, c1, den) with a + (b - a) u / _UNIT_DEN = (c0 + c1 u) / den."""
    w = b - a
    den = a.denominator * w.denominator
    return a.numerator * w.denominator * _UNIT_DEN, w.numerator * a.denominator, den * _UNIT_DEN


def holder_samples(witness: WitnessMeasure, count: int, seed: int):
    """Stratified (x, r) pairs covering every radius regime of the ball lemma.

    Radii are drawn per band: above the root cylinder length, the block
    windows |I_(k+ell0+p*ell)| / (2(M+2)^4), the closing-digit window, and
    below half the smallest gap.  Centers mix interval interiors, edges,
    gaps between intervals, and points far from the support.  count must
    be at least 1: a check over no samples would pass vacuously.
    """
    if count < 1:
        raise ValueError(f"holder sample count must be >= 1, got {count}")
    p = witness.params
    rng = random.Random(seed)
    L0 = witness.root_length
    min_gap = witness.min_gap()
    intervals = witness.intervals
    bands_of = {}
    for F in intervals:
        if F.blocks not in bands_of:
            block_floors, low = _floors(p, F)
            tops = [L0] + block_floors
            bands = [(L0, 2 * L0), *zip(tops[1:], tops), (low, tops[-1]), (low / 10, low),
                     (min_gap / 20, min_gap / 2)]
            bands_of[F.blocks] = [_span(lo, hi) for lo, hi in bands]
    spans = [_span(F.lo, F.hi) for F in intervals]
    mids = [(F.hi + G.lo) / 2 for F, G in zip(intervals, intervals[1:])]
    zero, one = Fraction(0), Fraction(1)
    draw = lambda c0, c1, den: Fraction(c0 + c1 * (rng.getrandbits(48) + 1), den)
    out = []
    for _ in range(count):
        f = rng.randrange(len(intervals))
        F, bands = intervals[f], bands_of[intervals[f].blocks]
        r = draw(*bands[rng.randrange(len(bands))])
        roll = rng.random()
        if roll < 0.55:
            x = draw(*spans[f])
        elif roll < 0.70:
            x = F.lo - r / 3 if rng.random() < 0.5 else F.hi + r / 3
            x = min(max(x, zero), one)
        elif roll < 0.85 and mids:
            x = mids[rng.randrange(len(mids))]
        else:
            x = draw(0, 1, _UNIT_DEN)
        out.append((x, r))
    return out


def _float_or_inf(n: int, d: int) -> float:
    """n / d rounded once, as in Fraction.__float__; inf on overflow."""
    try:
        return n / d
    except OverflowError:
        return math.inf


def _ratio_prebound(m, q, nonzero, t: Fraction):
    """Outward float64 enclosures [lo, hi] of mass * q^t, one per sample.

    m and q hold the nearest floats of the exact rationals (inf when too
    large), nonzero marks the samples of nonzero mass.  Each float is
    stepped outward with ivec.dn/up; q^t is exp(t ln q) by ivec.iln, an
    outward corner product and ivec.iexp.  A sample whose m or q is not a
    normal finite float, whose t ln q leaves [ivec.EXP_MIN, ivec.EXP_MAX],
    or whose lo is not a normal float gets the trivial enclosure [0, inf];
    a zero mass gets [0, 0].
    """
    lo = np.zeros_like(m)
    hi = np.where(nonzero, np.inf, 0.0)
    tiny = np.finfo(np.float64).tiny
    ok = (m >= tiny) & (q >= tiny) & np.isfinite(ivec.up(m)) & np.isfinite(ivec.up(q))
    idx = np.flatnonzero(ok)
    llo, lhi = ivec.iln(ivec.dn(q[idx]), ivec.up(q[idx]))
    tlo, thi = ivec.dir_const(t)
    corners = (tlo * llo, tlo * lhi, thi * llo, thi * lhi)
    ylo = ivec.dn(np.minimum.reduce(corners))
    yhi = ivec.up(np.maximum.reduce(corners))
    inside = (ylo >= ivec.EXP_MIN) & (yhi <= ivec.EXP_MAX)
    idx = idx[inside]
    plo, phi = ivec.iexp(ylo[inside], yhi[inside])
    vlo = ivec.dn(ivec.dn(m[idx]) * plo)
    vhi = ivec.up(ivec.up(m[idx]) * phi)
    normal = vlo >= tiny
    lo[idx[normal]] = vlo[normal]
    hi[idx[normal]] = vhi[normal]
    return lo, hi


def _needs_exact(lo, hi, big, fine, limit):
    """Samples whose prec-bit ratio could change the report (see holder_check).

    lo, hi: pre-bounds, hi = 0 exactly for a zero mass; big, fine: the
    r >= |I| and fine-regime masks.  A float below the nearest float of
    the limit is below the limit itself, so comparing with that is safe.
    """
    top = ivec.up(hi * _PREBOUND_SLACK)
    limit = _float_or_inf(limit, 1)
    floor_all = lo.max(initial=0.0)
    floor_big = lo[big].max(initial=0.0)
    floor_fine = lo[fine].max(initial=0.0)
    return (hi > 0) & (
        (top >= limit)
        | (top >= floor_all)
        | (big & (top >= floor_big))
        | (fine & (top >= floor_fine))
    )


def _sample_floats(witness: WitnessMeasure, samples, tables):
    """holder_check's float pass: per sample, the nearest floats m of the
    ball mass and q of L0 / r (0 for a zero mass), and the masks mass != 0,
    r >= L0 and r <= half the smallest gap.

    x, r and the mass stay integer pairs, no Fraction is built.  Each float
    is one int true division, which rounds the exact quotient once, as
    Fraction.__float__ does: m and q carry the bits of float(mass) and
    float(L0 / r) (inf where those overflow).  The masks cross-multiply.
    """
    L0n, L0d = witness.root_length.as_integer_ratio()
    fn, fd = (witness.min_gap() / 2).as_integer_ratio()
    count = len(samples)
    m, q = np.empty(count), np.empty(count)
    nonzero, big, fine = (np.empty(count, dtype=bool) for _ in range(3))
    for k, (x, r) in enumerate(samples):
        rn, rd_ = r.as_integer_ratio()
        if rn <= 0:
            raise ValueError("ball radius must be positive")
        num, den = _ball_mass_pair(tables, *x.as_integer_ratio(), rn, rd_)
        nonzero[k] = num != 0
        m[k] = _float_or_inf(num, den)
        q[k] = _float_or_inf(L0n * rd_, L0d * rn) if num else 0.0
        big[k], fine[k] = rn * L0d >= L0n * rd_, rn * fd <= fn * rd_
    return m, q, nonzero, big, fine


def holder_check(witness: WitnessMeasure, samples, *, prec=RATIO_PREC) -> HolderReport:
    """Max of mass(B(x,r)) |I_(k+ell0)(u~)|^t / r^t over the samples.

    PASS needs every sample certified under 16 (M+2)^4 (M+1)^(2 ell).  The
    proof's sharper constant 128 (_FINE_LIMIT) is tracked separately on the
    fine regime (r at most half the smallest gap) and the trivial regime
    r >= |I_(k+ell0)|.

    Every reported number comes from the prec-bit enclosure of a ratio, but
    only the samples that could change the report take that path.  A
    float64 pre-bound [lo, hi] of every ratio comes first: _ratio_prebound
    on _sample_floats' floats, the bits of float(mass) and float(L0 / r).
    A nonzero-mass sample takes the prec-bit path when its pre-bound is
    trivial, or when hi (1 + delta) reaches the limit or the largest lo of
    a group it belongs to (all samples, r >= |I_(k+ell0)|, r <= half the
    smallest gap).  The sample holding a group's largest lo always
    qualifies, so every skipped sample lies strictly below each of its
    groups' maxima and under the limit: it cannot set a maximum, the
    argmax, a failure or a verdict (fine_verdict reads the fine maximum).
    The report is the one that the prec-bit path on every sample gives.
    An empty sample list, or a sample of radius r <= 0, raises ValueError.

    delta = 2^-40 covers the gap between the exact ratio (<= hi) and the
    prec-bit path's hi_float.  A nontrivial pre-bound has |t ln(L0/r)| <=
    710 and lo normal.  The prec-bit enclosure (128-bit inputs, products
    rounded at prec bits, log and exp nudged two ulps) then ends at most a
    relative 2^(14 - prec) above the exact ratio, 2^-82 at 96 bits, and
    hi_float rounds that up by one float ulp, 2^-52 relative, at most: for
    prec >= 64, hi_float <= hi (1 + 2^-49).  Below 64 bits every
    nonzero-mass sample takes the prec-bit path.
    """
    p = witness.params
    t = p.t
    L0 = witness.root_length
    limit = holder_limit(p)
    count = len(samples)
    if count == 0:
        raise ValueError("holder_check needs at least one sample: none would pass vacuously")
    tables = _mass_tables(witness)
    m, q, nonzero, big, fine = _sample_floats(witness, samples, tables)
    lo, hi = np.empty(count), np.empty(count)
    for a in range(0, count, _PREBOUND_CHUNK):
        part = slice(a, a + _PREBOUND_CHUNK)
        lo[part], hi[part] = _ratio_prebound(m[part], q[part], nonzero[part], t)
    exact = _needs_exact(lo, hi, big, fine, limit) if prec >= 64 else nonzero
    max_ratio, argmax = 0.0, None
    big_n = int(big.sum())
    fine_n = int(fine.sum())
    big_max = fine_max = 0.0
    fine_ok = True
    failures = []
    for k in np.flatnonzero(exact):
        x, r = Fraction(samples[k][0]), Fraction(samples[k][1])
        mass = _ball_mass(witness, x, r, tables)
        ratio = rd.mul(enclose(mass), rd.powr(enclose(L0 / r), t, prec), prec)
        hi_k = ratio.hi_float
        if not ratio.certified_le(limit):
            failures.append((x, r, hi_k))
        if hi_k > max_ratio:
            max_ratio, argmax = hi_k, (x, r)
        if big[k]:
            big_max = max(big_max, hi_k)
        if fine[k]:
            fine_max = max(fine_max, hi_k)
            if hi_k > _FINE_LIMIT:
                fine_ok = False
    return HolderReport(
        count,
        limit,
        max_ratio,
        argmax,
        big_n,
        big_max,
        fine_n,
        fine_max,
        tuple(failures),
        _verdict(failures),
        "PASS" if fine_ok else "FAIL",
    )


# -- content bound -----------------------------------------------------------------


@dataclass(frozen=True)
class ContentReport:
    bound: Enclosure
    reference_floor: Fraction
    constant: int
    total_mass: Fraction
    verdict: str


def content_lower_bound(witness: WitnessMeasure, t=None, *, prec=128) -> ContentReport:
    """Hausdorff-content floor from the mass distribution principle.

    A measure of total mass mu with mass(B(x,r)) <= C r^t / |I|^t forces
    content >= mu |I|^t / C; the report compares that with the closed
    form |I_k(u)| / (2^(ell+8) (M+2)^4 (M+1)^(2 ell)).
    """
    p = witness.params
    t = p.t if t is None else Fraction(t)
    c = holder_limit(p)
    total = witness.total_mass
    bound = rd.mul(
        enclose(total),
        rd.div(rd.powr(enclose(witness.root_length), t, prec), enclose(c), prec),
        prec,
    )
    floor = cylinder(p.u).length / (
        2 ** (p.ell + 8) * (p.M + 2) ** 4 * (p.M + 1) ** (2 * p.ell)
    )
    verdict = "PASS" if bound.certified_ge(floor) else "FAIL"
    return ContentReport(bound, floor, c, total, verdict)


def dump_witness(witness: WitnessMeasure) -> str:
    """Audit dump: parameters, block weights, and every interval, exactly."""
    p = witness.params
    lines = [
        f"case={p.case} k={p.k} u={p.u} ell={p.ell} M={p.M} m={p.m} ell0={p.ell0} "
        f"n={p.n} B={p.B} t={p.t} eps={p.eps} s={p.s!r}",
        f"u_tilde={p.u_tilde} root_length={witness.root_length} "
        f"block_residual={witness.block_sum_residual:.3e} "
        f"nominal_last_total={witness.nominal_last_total:.6g}",
    ]
    for a, w in sorted(witness.block_weights.items()):
        lines.append(f"block {a} weight={w}")
    for b, w in sorted(witness.last_weights.items()):
        lines.append(f"last {b} weight={w}")
    for F in witness.intervals:
        lines.append(
            f"interval blocks={F.blocks} last={F.last} lo={F.lo} hi={F.hi} "
            f"mass={witness.interval_mass(F)} exact={F.exact_endpoints}"
        )
    return "\n".join(lines)
