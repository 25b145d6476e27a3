"""Exact continued-fraction arithmetic.

Gauss map, continuant ladders, word values and cylinder intervals.
Everything here is exact arithmetic on integers, rationals or quadratic
surds (`surd.Quad`: the Gauss step and a word on a tail take either); no
floating point.  All values are immutable and all functions pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .surd import Quad

Word = tuple[int, ...]  # digits a_1..a_n, each >= 1; () is the level-0 word


def _check_word(w: Word) -> None:
    for a in w:
        if not isinstance(a, int) or a < 1:
            raise ValueError(f"word digits must be integers >= 1, got {a!r}")


def gauss_step(x):
    """T(x) = 1/x - floor(1/x) for a Fraction or a Quad x, with T(0) = 0."""
    if not isinstance(x, Quad):
        x = Fraction(x)
    if not 0 <= x < 1:
        raise ValueError(f"gauss_step needs x in [0,1), got {x}")
    if x == 0:
        return Fraction(0)
    inv = 1 / x
    return inv - math.floor(inv)


@dataclass(frozen=True)
class Continuants:
    """Ladder (p_k, q_k) for k = -1..n with the standard seeds."""

    word: Word
    ladder: tuple[tuple[int, int], ...]  # index 0 is k=-1

    def p(self, k: int) -> int:
        return self.ladder[k + 1][0]

    def q(self, k: int) -> int:
        return self.ladder[k + 1][1]

    @property
    def n(self) -> int:
        return len(self.word)


def continuants(w: Word) -> Continuants:
    """Full exact ladder from p_{k+1} = a_{k+1} p_k + p_{k-1} (same for q)."""
    _check_word(w)
    ladder = [(1, 0), (0, 1)]  # k = -1, 0
    p_prev, q_prev = 1, 0
    p_cur, q_cur = 0, 1
    for a in w:
        p_cur, p_prev = a * p_cur + p_prev, p_cur
        q_cur, q_prev = a * q_cur + q_prev, q_cur
        ladder.append((p_cur, q_cur))
    return Continuants(tuple(w), tuple(ladder))


@dataclass(frozen=True)
class CylinderInterval:
    """Set of x whose expansion starts with `word`; half-open by parity.

    Even |word|: [p/q, (p+p')/(q+q')).  Odd |word|: ((p+p')/(q+q'), p/q].
    """

    word: Word
    left: Fraction
    right: Fraction
    closed_left: bool
    closed_right: bool

    @property
    def length(self) -> Fraction:
        return self.right - self.left


def cylinder(w: Word) -> CylinderInterval:
    """Exact cylinder interval of a word; the empty word gives [0, 1)."""
    _check_word(w)
    if not w:
        return CylinderInterval((), Fraction(0), Fraction(1), True, False)
    c = continuants(w)
    n = len(w)
    conv = Fraction(c.p(n), c.q(n))
    other = Fraction(c.p(n) + c.p(n - 1), c.q(n) + c.q(n - 1))
    if n % 2 == 0:
        return CylinderInterval(tuple(w), conv, other, True, False)
    return CylinderInterval(tuple(w), other, conv, False, True)


def eval_word(w: Word, tail=Fraction(0)):
    """Value of [a_1, ..., a_n + tail] = (p_n + tail p_{n-1})/(q_n + tail q_{n-1})
    for a Fraction or a Quad tail; tail = 0 gives the convergent p_n/q_n."""
    _check_word(w)
    if not w:
        raise ValueError("eval_word needs a nonempty word")
    if not isinstance(tail, Quad):
        tail = Fraction(tail)
    if not 0 <= tail <= 1:
        raise ValueError(f"tail must lie in [0,1], got {tail}")
    c = continuants(w)
    n = len(w)
    return (c.p(n) + tail * c.p(n - 1)) / (c.q(n) + tail * c.q(n - 1))

