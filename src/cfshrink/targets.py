"""Target sequences {z_n}: exact values, first digits, shifts, growth rates.

A target is described by its digit streams, so the shifted image Tz_n is
always a digit shift of the description, never a numeric division.  Values
come back as exact rationals (terminating streams) or exact quadratic
surds (eventually periodic streams).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from . import rounding as rd
from .cf_core import Word, continuants, eval_word
from .errors import PrecisionExhausted, UndefinedForZeroTarget
from .surd import Quad, sqrt_value

ZERO = "ZERO"
CONSTANT = "CONSTANT"
PERIODIC_IN_N = "PERIODIC_IN_N"
EXP_FIRST_DIGIT = "EXP_FIRST_DIGIT"


def _check_digits(w):
    if any(int(a) < 1 for a in w):
        raise ValueError("digits must be positive integers")
    return tuple(int(a) for a in w)


@dataclass(frozen=True)
class TargetSpec:
    """Description of the sequence {z_n}.

    family ZERO: z_n = 0, a1 = +inf by convention.
    family CONSTANT: z_n = z given by digits pre + repeating period.
    family PERIODIC_IN_N: cycle of CONSTANT descriptions, indexed by n.
    family EXP_FIRST_DIGIT: a1(z_n) = max(1, round(e^(gamma n))), then tail.
    """

    family: str
    pre: Word = ()
    period: Word = ()
    cycle: tuple = ()
    gamma: object = None
    tail: Word = ()
    prec: int = 128

    @classmethod
    def zero(cls) -> "TargetSpec":
        return cls(ZERO)

    @classmethod
    def constant(cls, pre, period=()) -> "TargetSpec":
        pre, period = _check_digits(pre), _check_digits(period)
        if not pre and not period:
            raise ValueError("constant target needs at least one digit (use zero())")
        return cls(CONSTANT, pre=pre, period=period)

    @classmethod
    def periodic_in_n(cls, descriptions) -> "TargetSpec":
        cyc = tuple(
            (_check_digits(p), _check_digits(q)) for p, q in descriptions
        )
        if not cyc or any(not p and not q for p, q in cyc):
            raise ValueError("need a nonempty cycle of nonzero constants")
        return cls(PERIODIC_IN_N, cycle=cyc)

    @classmethod
    def exp_first_digit(cls, gamma, tail=(1,), prec: int = 128) -> "TargetSpec":
        return cls(EXP_FIRST_DIGIT, gamma=gamma, tail=_check_digits(tail), prec=prec)

    @classmethod
    def exp_half_log(cls, B: int, tail=(1,)) -> "TargetSpec":
        """EXP_FIRST_DIGIT with gamma = (log B)/2 held exactly."""
        return cls.exp_first_digit(("half_log", int(B)), tail=tail)


def _purely_periodic_value(c: Word) -> Quad:
    """Exact value of [0; c, c, c, ...]."""
    k = continuants(c)
    m = len(c)
    qm1, qm = k.q(m - 1), k.q(m)
    pm1, pm = k.p(m - 1), k.p(m)
    # y = (p_m + y p_{m-1})/(q_m + y q_{m-1})
    disc = (qm - pm1) ** 2 + 4 * qm1 * pm
    root = sqrt_value(Fraction(disc))
    if isinstance(root, Fraction):
        raise ValueError(f"period {c} does not describe an irrational")
    y = Quad(
        Fraction(-(qm - pm1), 2 * qm1),
        root.b / (2 * qm1),
        root.D,
    )
    if not 0 < y < 1:
        raise ValueError(f"period {c} does not describe a value in (0, 1)")
    return y


def _const_value(pre: Word, period: Word):
    if not period:
        return eval_word(pre, Fraction(0))
    y = _purely_periodic_value(period)
    return eval_word(pre, y) if pre else y


def _shift_description(pre: Word, period: Word):
    if pre:
        return pre[1:], period
    return (), period[1:] + period[:1]


def _exp_digit(spec: TargetSpec, n: int) -> int:
    g = spec.gamma
    if isinstance(g, tuple) and g and g[0] == "half_log":
        N = int(g[1]) ** n
        r = isqrt(N)
        # nearest integer to sqrt(N); N = r^2 + r + 1/4 can't occur
        a1 = r if N - r * r <= r else r + 1
        return max(1, a1)
    gf = Fraction(g)
    for prec in (spec.prec, 2 * spec.prec):
        e = rd.exp_(rd.enclose(gf * n, prec), prec)
        if e.hi > 2**prec:
            continue  # wider than 1 past 2^prec: skip it before building its ends
        k = round((rd.raw_fraction(e.lo._mpf_) + rd.raw_fraction(e.hi._mpf_)) / 2)
        if k >= 1 and e.certified_gt(Fraction(2 * k - 1, 2)) and e.certified_lt(
            Fraction(2 * k + 1, 2)
        ):
            return k
        if k < 1 and e.certified_lt(Fraction(3, 2)):
            return 1
    raise PrecisionExhausted(
        f"cannot round e^(gamma n) to an integer at {2 * spec.prec} bits (n={n})"
    )


def z_value(spec: TargetSpec, n: int):
    """(z_n, a1(z_n), Tz_n) with exact values; a1 is +inf for the zero target.

    Tz_n is the digit shift of the description.  For a terminating stream
    ending in digit 1 the shift may equal 1 (left endpoint convention kept
    as the formal shift, not the Gauss orbit of the rewritten word).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if spec.family == ZERO:
        return Fraction(0), math.inf, Fraction(0)
    if spec.family == CONSTANT:
        pre, period = spec.pre, spec.period
    elif spec.family == PERIODIC_IN_N:
        pre, period = spec.cycle[(n - 1) % len(spec.cycle)]
    elif spec.family == EXP_FIRST_DIGIT:
        a1 = _exp_digit(spec, n)
        z = eval_word((a1,) + spec.tail, Fraction(0))
        tz = eval_word(spec.tail, Fraction(0)) if spec.tail else Fraction(0)
        return z, a1, tz
    else:
        raise ValueError(f"unknown target family {spec.family!r}")

    a1 = pre[0] if pre else period[0]
    z = _const_value(pre, period)
    s_pre, s_period = _shift_description(pre, period)
    if not s_pre and not s_period:
        tz = Fraction(0)
    else:
        tz = _const_value(s_pre, s_period)
    return z, a1, tz


def first_digit(spec: TargetSpec, n: int):
    """a1(z_n) alone (cheaper than z_value for EXP targets)."""
    if spec.family == ZERO:
        return math.inf
    if spec.family == EXP_FIRST_DIGIT:
        return _exp_digit(spec, n)
    if spec.family == CONSTANT:
        return spec.pre[0] if spec.pre else spec.period[0]
    pre, period = spec.cycle[(n - 1) % len(spec.cycle)]
    return pre[0] if pre else period[0]


def alpha_beta(spec: TargetSpec, window) -> tuple[float, float]:
    """Limit growth rate of log a1(z_n)/n, the per-level growth term of
    `pressure.log_weight` (whose G at level n is n times this rate).

    It is gamma for exp:gamma, (log B)/2 for exp:half and 0 for constant
    and periodic targets.  The window is read only to reject an empty one.
    The same rate serves as alpha (second-branch potential) and beta
    (third-branch potential); both entries are returned for callers that
    name them differently.
    """
    window = list(window)
    if not window:
        raise ValueError("window must be nonempty")
    if spec.family == ZERO:
        raise UndefinedForZeroTarget("a1(z_n) = +inf for the zero target")
    if spec.family == EXP_FIRST_DIGIT:
        g = spec.gamma
        rate = 0.5 * math.log(g[1]) if isinstance(g, tuple) else float(g)
        return rate, rate
    if spec.family in (CONSTANT, PERIODIC_IN_N):
        return 0.0, 0.0
    raise ValueError(f"unknown target family {spec.family!r}")
