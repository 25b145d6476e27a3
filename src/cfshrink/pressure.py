"""Finite-alphabet pressure sums for the three potential shapes, and roots.

Each potential is -s log|T'(x)| plus a per-level constant, so the level-n
Birkhoff sum over a cylinder is -s log|(T^n)'| + n c, and its supremum
over the alphabet's attractor is attained where the derivative is
smallest: at tail value x_min(A), the least point of the attractor.  The
sums are then continuant data over any finite alphabet A.  One route serves
every depth of a call: exact enumeration of A^depth while |A|^depth is at
most 150,000 words, the certified envelope iteration of `_transfer` above
that.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _transfer
from . import rounding as rd
from .errors import DepthTooLarge, NoRoot
from .ivec import dn, ipow_neg, tree_sum, up
from .rounding import Enclosure, enclose
from .surd import quad_to_enclosure
from .targets import _purely_periodic_value

PHI1 = "PHI1"
PHI2 = "PHI2"
PHI3 = "PHI3"
_KIND = {PHI1: 1, PHI2: 2, PHI3: 3}

_BUDGET = 2_000_000  # most words an enumeration may hold
_EXACT_FAST = 150_000  # above this, "auto" takes the envelope route
_LEVEL = _transfer.MAX_LEVEL
_S_LO, _S_HI = 0.02, 1.49


@dataclass(frozen=True)
class PotentialSpec:
    """-s log|T'| plus the per-level constant picked by `kind`.

    PHI1: -s^2 log B; PHI2: -s log B + (1-s) rate; PHI3: -(s/2) log B - s rate.
    rate is the growth rate of log a1(z_n)/n (`targets.growth_rate`), which
    the paper calls alpha in the second potential and beta in the third;
    PHI1 reads none.
    """

    kind: str
    s: float
    B: object
    rate: object = None

    def __post_init__(self):
        if self.kind not in (PHI1, PHI2, PHI3):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if not float(self.s) > 0:
            raise ValueError("exponent s must be positive")
        if Fraction(self.B) <= 1:
            raise ValueError("base B must exceed 1")
        name = {PHI2: "alpha", PHI3: "beta"}.get(self.kind)  # the paper's name for the rate
        if name is not None:
            if self.rate is None:
                raise ValueError(f"{self.kind} needs a growth rate {name}")
            if not math.isfinite(self.rate):
                raise ValueError(f"growth rate {name} must be finite, got {self.rate!r}")
        if self.kind == PHI3 and float(self.rate) > 0.5 * math.log(self.B) + 1e-12:
            warnings.warn(
                f"beta = {float(self.rate):.6g} exceeds (log B)/2; the third "
                "potential is normally used below that rate",
                stacklevel=2,
            )


def log_weight(kind: int, n: int, s, B, growth=None, prec: int = rd.PREC) -> Enclosure:
    """Certified log of the level-n weight of potential `kind` at exponent s.

    kind 1: -n s^2 log B;  kind 2: (1-s) G - n s log B;  kind 3: -s G - (n/2) s log B.
    G is the growth term, an Enclosure or an exact number: log a1(z_n) for
    the level roots, the growth rate at n = 1 for pressure, ell times
    the rate for the block measures.  Kind 1 reads no growth.
    """
    s = Fraction(s)
    logB = rd.log_(enclose(Fraction(B), prec), prec)
    if kind == 1:
        return rd.neg(rd.mul(enclose(n * s * s, prec), logB, prec))
    if kind not in (2, 3):
        raise ValueError(f"potential kind must be 1, 2 or 3, got {kind!r}")
    g = growth if isinstance(growth, Enclosure) else enclose(Fraction(growth), prec)
    if kind == 2:
        return rd.add(rd.neg(rd.mul(enclose(n * s, prec), logB, prec)),
                      rd.mul(enclose(1 - s, prec), g, prec), prec)
    return rd.neg(rd.add(rd.mul(enclose(n * s / 2, prec), logB, prec),
                         rd.mul(enclose(s, prec), g, prec), prec))


def log_weight_float(kind: int, n: int, s: float, B, growth=None) -> float:
    """Float twin of log_weight, not certified; for root localization."""
    logB = math.log(B)
    if kind == 1:
        return -n * s * s * logB
    if kind == 2:
        return (1.0 - s) * float(growth) - n * s * logB
    return -s * float(growth) - 0.5 * n * s * logB


@dataclass(frozen=True)
class PressureEstimate:
    """Per-depth pressure data: (1/n) log Sigma_n for both sum versions.

    sup_values uses the supremum over the attractor, x0_values the
    zero-tail endpoint; they share the limit.
    """

    alphabet: tuple
    depth: int
    sup_values: tuple
    x0_values: tuple


@dataclass(frozen=True)
class PressureRootResult:
    """Root report: a fast extrapolated point value plus a certified bracket.

    root comes from bisecting the ratio-extrapolated pressure and carries
    no certificate; certified_bracket is derived from the depth-n sandwich
    (1/n)(log Sigma_n - s log 4) <= P <= (1/n) log Sigma_n.  Each end
    takes 26 halvings, certified near the crossing and at the ends; the
    float twin decides the halvings it clears by the margin (see
    pressure_root), and each returned end has its own certified
    evaluation.
    """

    kind: str
    alphabet: tuple
    depth: int
    root: float
    certified_bracket: Enclosure


def x_min_value(A):
    """Least point of the attractor of digit set A (a quadratic surd).

    Satisfies x = 1/(Amax + y), y = 1/(Amin + x), so x = [0; Amax, Amin,
    Amax, Amin, ...].
    """
    return _purely_periodic_value((max(A), min(A)))


def _norm_alphabet(A) -> tuple:
    alpha = tuple(sorted({int(a) for a in A}))
    if not alpha or alpha[0] < 1:
        raise ValueError("alphabet must be a nonempty set of positive digits")
    return alpha


# ---------------------------------------------------------------------------
# exact enumeration of continuant data over A^n

def _enumerate(alpha: tuple, depth: int):
    """Per-level arrays (q_n, q_{n-1}) for all words in A^n."""
    if len(alpha) ** depth > _BUDGET:
        raise DepthTooLarge(
            f"|A|^depth = {len(alpha)}^{depth} exceeds the enumeration budget {_BUDGET}"
        )
    if (max(alpha) + 1) ** depth >= 2**53:
        raise DepthTooLarge("continuants would outgrow exact float64 range")
    return _enumerate_levels(alpha, depth)


# an entry holds every level of A^depth: at most the budget's 2e6 words
@functools.lru_cache(maxsize=16)
def _enumerate_levels(alpha: tuple, depth: int):
    digits = np.array(alpha, dtype=np.int64)
    q = np.array([1], dtype=np.int64)
    qp = np.array([0], dtype=np.int64)
    levels = []
    for _ in range(depth):
        a = np.repeat(digits, q.size)
        q, qp = a * np.tile(q, digits.size) + np.tile(qp, digits.size), np.tile(
            q, digits.size
        )
        levels.append((q, qp))
    return levels


# ---------------------------------------------------------------------------
# the route: enumerated levels or an envelope layout, read only by the sums below

def _route(alpha: tuple, depth: int, method: str):
    """Enumerated levels of A^depth ("exact"), or the envelope layout of A ("dp").

    "auto" enumerates while |A|^depth <= _EXACT_FAST, where the exact sums
    are cheap, and takes the envelope above that.
    """
    if method == "auto":
        method = "exact" if len(alpha) ** depth <= _EXACT_FAST else "dp"
    if method == "exact":
        return _enumerate(alpha, depth)
    if method == "dp":
        return _transfer.make_layout(_LEVEL, alpha)
    raise ValueError("method must be auto, exact or dp")


def _sup_seed(layout, xe, t):
    """Bounds of f(r) = (1 + x r)^{-t} and of f'(r) = -t x (1 + x r)^{-t-1}
    at the layout's nodes, for x >= 0 in the enclosure xe."""
    xlo, xhi = rd.to_f64(xe)
    r = layout.edges
    b_lo, b_hi = dn(1.0 + dn(xlo * r)), up(1.0 + up(xhi * r))
    f_lo, f_hi = ipow_neg(b_lo, b_hi, t)
    p_lo = dn(dn(t * xlo) * dn(f_lo / b_hi))  # t x (1 + x r)^{-t-1}, each factor >= 0
    p_hi = up(up(t * xhi) * up(f_hi / b_lo))
    return f_lo, f_hi, -p_hi, -p_lo


def _sums(route, depth: int, s, xe) -> list:
    """(sup, x0) enclosures of the level-n continuant sums for n = 1..depth,
    constants excluded; sup takes the tail value x in the enclosure xe."""
    t = 2.0 * float(s)
    if isinstance(route, _transfer.Layout):
        sup, x0 = _transfer.apply_powers(depth, t, route, [_sup_seed(route, xe, t), None])
    else:
        xlo, xhi = rd.to_f64(xe)
        sup, x0 = [], []
        for q, qp in route:
            qf, qpf = q.astype(np.float64), qp.astype(np.float64)
            sup.append(tree_sum(*ipow_neg(dn(qf + dn(xlo * qpf)), up(qf + up(xhi * qpf)), t)))
            x0.append(tree_sum(*ipow_neg(qf, qf, t)))
    return [(rd.from_f64(*a), rd.from_f64(*b)) for a, b in zip(sup, x0)]


def _x0_sum(route, n: int, s) -> Enclosure:
    """Certified sum of q_n^{-2s} over A^n."""
    t = 2.0 * float(s)
    if isinstance(route, _transfer.Layout):
        return rd.from_f64(*_transfer.apply_power(n, t, route))
    qf = route[n - 1][0].astype(np.float64)
    return rd.from_f64(*tree_sum(*ipow_neg(qf, qf, t)))


def _x0_estimate(route, n: int, s) -> float:
    """Float sum of q_n^{-2s} over A^n, not certified; for localization."""
    t = 2.0 * float(s)
    if isinstance(route, _transfer.Layout):
        return _transfer.apply_power_estimate(n, t, route)
    return float(np.sum(route[n - 1][0].astype(np.float64) ** -t))


def pressure_estimate(
    phi: PotentialSpec,
    A,
    depth: int,
    *,
    method: str = "auto",
) -> PressureEstimate:
    """Certified per-depth pressure values for the potential over alphabet A.

    method "exact" enumerates A^depth (at most 2,000,000 words); "dp" runs
    the envelope iteration, for any finite alphabet; "auto" enumerates
    while |A|^depth is at most 150,000 words and takes the envelope above
    that.  Every depth 1..depth comes from the one route.
    """
    alpha = _norm_alphabet(A)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    route = _route(alpha, depth, method)

    xe = quad_to_enclosure(x_min_value(alpha))
    c = log_weight(_KIND[phi.kind], 1, phi.s, phi.B, phi.rate)
    sup_vals, x0_vals = [], []
    for n, (sup_raw, x0_raw) in enumerate(_sums(route, depth, phi.s, xe), start=1):
        nc = rd.mul(enclose(n), c)
        sup_vals.append(rd.div(rd.add(rd.log_(sup_raw), nc), enclose(n)))
        x0_vals.append(rd.div(rd.add(rd.log_(x0_raw), nc), enclose(n)))
    return PressureEstimate(
        alphabet=alpha,
        depth=depth,
        sup_values=tuple(sup_vals),
        x0_values=tuple(x0_vals),
    )


def pressure_root(
    kind: str,
    B,
    rate,
    A,
    depth: int = 8,
    tol: float = 1e-3,
) -> PressureRootResult:
    """Exponent where the alphabet-restricted pressure crosses zero.

    The point value bisects the ratio-extrapolated pressure
    log(Sigma_d / Sigma_{d-1}) to width tol, or until the midpoint stops
    moving; it carries no certificate.  tol sets nothing else and must be
    positive and finite.  The bracket sandwiches the true root using
    (1/n)(log Sigma_n - s log 4) <= P <= (1/n) log Sigma_n at n = depth.
    Each end takes 26 halvings on [0.02, 1.49], certified near the
    crossing and at the ends: a halving is decided by the float twin of
    the bound when the twin is farther from 0 than a margin, 4 times the
    largest gap between the twin and a certified value seen so far in the
    call (the first two are the checks at 1.49 and 0.02), and by a
    certified value otherwise.  An end last moved by the twin is certified
    once more; if that fails, its 26 halvings are rerun all certified.
    So each returned end has its own certified evaluation in the call,
    and the bracket is the all-certified one unless the twin misjudges a
    step by more than the margin.  The sums take the route of
    pressure_estimate's "auto".
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive and finite")
    alpha = _norm_alphabet(A)
    if depth < 2:
        raise ValueError("depth must be >= 2 for a ratio root")
    PotentialSpec(kind, _S_HI, B, rate)  # validates once
    k = _KIND[kind]
    route = _route(alpha, depth, "auto")

    @functools.cache  # this call's probes: each estimate runs once
    def estimate(n: int, s: float) -> float:
        return _x0_estimate(route, n, s)

    def ratio(s: float) -> float:
        c = log_weight_float(k, 1, s, B, rate)
        lo = estimate(depth - 1, s)
        hi = estimate(depth, s)
        return math.log(hi) - math.log(lo) + c

    if ratio(_S_HI) > 0.0:
        raise NoRoot(f"pressure still positive at s = {_S_HI}")
    a, b = _S_LO, _S_HI
    if ratio(a) <= 0.0:
        root = a  # root at or below the probing floor
    else:
        while b - a > tol:
            mid = 0.5 * (a + b)
            if mid in (a, b):
                break  # no float left between a and b
            if ratio(mid) > 0.0:
                a = mid
            else:
                b = mid
        root = 0.5 * (a + b)

    def twin(s: float) -> float:
        """Float twin of value(s), not certified."""
        return (math.log(estimate(depth, s))
                + depth * log_weight_float(k, 1, s, B, rate)) / depth

    gap = 0.0  # largest distance from twin(s) to value(s) seen in this call

    def value(s: float) -> Enclosure:
        """(1/n) log Sigma_n^(x0) at exponent s and n = depth, certified."""
        nonlocal gap
        log_sig = rd.add(rd.log_(_x0_sum(route, depth, s)),
                         rd.mul(enclose(depth), log_weight(k, 1, s, B, rate)))
        v = rd.div(log_sig, enclose(depth))
        w = twin(s)
        gap = max(gap, v.hi_float - w, w - v.lo_float)
        return v

    def upper_ok(s: float) -> bool:
        return value(s).certified_le(0)

    def lower_ok(s: float) -> bool:
        slack = rd.div(rd.mul(enclose(Fraction(s)), rd.log_(enclose(4))), enclose(depth))
        return rd.sub(value(s), slack).certified_ge(0)

    def halve(keep: float, other: float, ok, est=None) -> float:
        """The end `keep` of [keep, other] (ok there certified) after 26
        halvings: ok(mid) moves it to mid, else `other` moves.  With a twin
        est of the tested bound (positive where ok holds), a step whose
        |est| exceeds 4 gaps is decided by its sign; an end it moved last
        is certified once more, and if that fails the halvings rerun
        without est."""
        start = keep, other
        floated = False
        for _ in range(26):
            mid = 0.5 * (keep + other)
            e = est(mid) if est is not None else 0.0
            by_twin = abs(e) > 4.0 * gap
            if (e > 0.0) if by_twin else ok(mid):
                keep, floated = mid, by_twin
            else:
                other = mid
        if floated and not ok(keep):
            return halve(*start, ok)
        return keep

    if not upper_ok(_S_HI):
        raise NoRoot(f"cannot certify nonpositive pressure by s = {_S_HI}")
    floor_ok = lower_ok(_S_LO)  # before any halving, so both checks set the margin
    hi_end = halve(_S_HI, _S_LO, upper_ok, lambda s: -twin(s))
    lo_end = 0.0
    if floor_ok:
        lo_end = halve(_S_LO, hi_end, lower_ok, lambda s: twin(s) - s * math.log(4.0) / depth)
    return PressureRootResult(
        kind=kind,
        alphabet=alpha,
        depth=depth,
        root=root,
        certified_bracket=rd.from_f64(lo_end, hi_end),
    )

