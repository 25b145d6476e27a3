"""Vectorized float64 interval kernels.

IEEE-754 +, -, *, / are correctly rounded to nearest, so stepping each
result one float outward yields a certified enclosure.  The step is the
successor formula of Rump, Zimmermann, Boldo and Melquiond ("Computing
predecessor and successor in rounding to nearest", BIT 49, 2009):

    up(x) = fl(x + fl(phi*|x| + eta)),   dn(x) = fl(x - fl(phi*|x| + eta)),

with phi = 2^-53 (1 + 2^-52) and eta = 2^-1074.  For every finite x the
result is the neighbouring float or the one after it (1-2 ulp), never on
the wrong side; for |x| outside [2^-1022, 2^-1020] it is exactly the
neighbour, as np.nextafter gives, for one multiply and two adds.
up(+max) is +inf; dn(+inf) and up(-inf) are NaN, so the kernels below
reject non-finite input.

exp and log are built here from argument reduction plus Taylor/atanh
series with explicit remainder bounds, because numpy's transcendentals
carry no rounding guarantee.

Array inputs are treated as exact binary values.  All functions are pure
and deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import numpy as np

from .rounding import raw_fraction

_PHI = np.float64(2.0**-53 * (1.0 + 2.0**-52))
_ETA = np.float64(2.0**-1074)


def dn(x):
    """A float 1-2 ulp below finite x, elementwise (see the module docstring)."""
    return x - (_PHI * np.abs(x) + _ETA)


def up(x):
    """A float 1-2 ulp above finite x, elementwise (see the module docstring)."""
    return x + (_PHI * np.abs(x) + _ETA)


def dir_const(fr: Fraction) -> tuple[float, float]:
    """Directed float64 brackets of an exact rational constant."""
    c = float(fr)
    cf = Fraction(c)
    if cf > fr:
        return float(dn(c)), c
    if cf < fr:
        return c, float(up(c))
    return c, c


# ln 2 split: HI carries few enough mantissa bits that k*LN2_HI is exact
# in float64 for |k| <= 2**10, LO catches the next 53 bits, ERR the rest.
LN2_HI = np.float64(0.6931471805598903)
LN2_LO = np.float64(5.497923018708371e-14)


def _ln2_residual() -> float:
    from mpmath.libmp import from_int, mpf_log

    bracket = [raw_fraction(mpf_log(from_int(2), 256, rnd)) for rnd in ("f", "c")]
    split = Fraction(float(LN2_HI)) + Fraction(float(LN2_LO))
    return float(max(abs(b - split) for b in bracket)) * 1.01


def _check_ln2_split(hi, err) -> None:
    """Raise unless k*hi is exact for |k| <= 2**10 and the split error is tiny."""
    if Fraction(float(hi)).numerator.bit_length() > 43:
        raise RuntimeError("ln 2 split: the high part has more than 43 significant bits")
    if not err < 1e-28:
        raise RuntimeError(f"ln 2 split: residual {err!r} is not below 1e-28")


LN2_ERR = _ln2_residual()
_check_ln2_split(LN2_HI, LN2_ERR)

_LN2_APPROX = np.float64(0.6931471805599453)  # only steers the choice of k

# e^x for x in [EXP_MIN, EXP_MAX] scales a reduced value in [0.70, 1.42] by
# 2^k with -1021 <= k <= 1023, which stays normal and finite
EXP_MIN = -708.0
EXP_MAX = 709.0

_N_EXP = 13  # Taylor degree for exp on |u| <= 0.35
_FACT_DN = [dir_const(Fraction(1, factorial(k)))[0] for k in range(_N_EXP + 2)]
_FACT_UP = [dir_const(Fraction(1, factorial(k)))[1] for k in range(_N_EXP + 2)]
# e^0.35 < 1.4191; 1.42 absorbs it plus the power-evaluation slack below
_EXP_REM = _FACT_UP[_N_EXP + 1] * 1.42

_J_LN = 25  # atanh series cutoff (odd)
_RECIP_DN = {j: dir_const(Fraction(1, j))[0] for j in range(1, _J_LN + 1, 2)}
_RECIP_UP = {j: dir_const(Fraction(1, j))[1] for j in range(1, _J_LN + 1, 2)}


def _upow(x, k):
    """Upper bound of x**k for x >= 0 by square-and-multiply, rounding up."""
    result = None
    base = x
    while k:
        if k & 1:
            result = base if result is None else up(result * base)
        k >>= 1
        if k:
            base = up(base * base)
    return result


def _exp_one_sided(x, side):
    """Bound of e^x rounded toward `side` (-1 lower, +1 upper).

    Needs EXP_MIN <= x <= EXP_MAX: there the scaled result is a normal,
    finite float64, so the final ldexp is exact.  Outside, ldexp rounds to
    nearest (subnormal) or overflows, and the bound would be wrong.

    Horner step: two products per bound, not four, because both bounds of
    every partial sum s_i stay in (0, 1.5/i!] for i >= 1.  Induction down
    from 1/13!: with |u| <= 0.35, step j moves 1/j! by at most
    0.35 * 1.5/(j+1)!, which leaves it within (1 +- 0.53/(j+1))/j!,
    rounding included.  For s > 0, s*u grows with u and rounding to
    nearest is monotone, so fl(s*ulo) <= fl(s*uhi): the least of the four
    corner products is min(slo*ulo, shi*ulo), the greatest
    max(slo*uhi, shi*uhi), the very floats a four-corner step picks.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("exp needs finite inputs")
    if np.any(x < EXP_MIN) or np.any(x > EXP_MAX):
        raise ValueError(f"exp argument outside [{EXP_MIN:g}, {EXP_MAX:g}]")
    k = np.round(x / _LN2_APPROX)
    # u = x - k*ln2, built from the exact HI product; |u| stays <= 0.35
    t1 = x - k * LN2_HI  # exact: Sterbenz subtraction of an exact product
    klo = k * LN2_LO
    t2lo, t2hi = dn(t1 - up(klo)), up(t1 - dn(klo))
    resid = up(np.abs(k) * LN2_ERR)
    ulo, uhi = dn(t2lo - resid), up(t2hi + resid)
    umax = np.maximum(np.abs(ulo), np.abs(uhi))
    if np.any(umax > 0.35):
        raise ValueError("exp reduced argument exceeds 0.35")
    R = up(_upow(umax, _N_EXP + 1) * _EXP_REM)
    slo = np.full_like(x, _FACT_DN[_N_EXP])
    shi = np.full_like(x, _FACT_UP[_N_EXP])
    for j in range(_N_EXP - 1, -1, -1):
        slo, shi = (dn(dn(np.minimum(slo * ulo, shi * ulo)) + _FACT_DN[j]),
                    up(up(np.maximum(slo * uhi, shi * uhi)) + _FACT_UP[j]))
    return np.ldexp(dn(slo - R) if side < 0 else up(shi + R), k.astype(np.int64))


def iexp(xlo, xhi):
    """Enclosure of exp on interval arrays."""
    return _exp_one_sided(xlo, -1), _exp_one_sided(xhi, +1)


def _ln_one_sided(x, side):
    """Bound of ln(x) toward `side` (-1 lower, +1 upper), x a positive exact array.

    ln x = e ln 2 + 2 atanh(u), x = m 2^e, m in [1, 2), u = (m-1)/(m+1)
    in [0, 1/3), atanh(u) = sum u^j/j over odd j.  Each side builds only
    what it returns, every step rounded toward `side`.  Lower: u, the
    series cut after u^J/J (its terms are positive, so the cut sum is
    already a lower bound) and e ln 2.  Upper: u, the cut series plus its
    tail R <= u^(J+2)/((J+2)(1 - u^2)), and e ln 2.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("ln needs finite inputs")
    if np.any(x <= 0):
        raise ValueError("ln needs positive inputs")
    rnd, opp, recip = (dn, up, _RECIP_DN) if side < 0 else (up, dn, _RECIP_UP)
    m, e = np.frexp(x)
    m = m * 2.0  # in [1, 2), exact
    e = (e - 1).astype(np.float64)
    u = rnd((m - 1.0) / opp(m + 1.0))  # m - 1 is exact (Sterbenz)
    u2 = rnd(u * u)
    s = np.full_like(x, recip[_J_LN])
    for j in range(_J_LN - 2, 0, -2):
        s = rnd(rnd(s * u2) + recip[j])
    p = rnd(s * u)
    if side > 0:
        p = up(p + up(_upow(u, _J_LN + 2) / dn((_J_LN + 2) * dn(1.0 - u2))))
    t = rnd(rnd(rnd(e * LN2_HI) + rnd(e * LN2_LO)) + side * up(np.abs(e) * LN2_ERR))
    return rnd(t + rnd(2.0 * p))


def iln(xlo, xhi):
    """Enclosure of ln on positive interval arrays."""
    return _ln_one_sided(xlo, -1), _ln_one_sided(xhi, +1)


def ipow_neg(xlo, xhi, t):
    """Enclosure of x**(-t) for positive finite interval arrays and scalar t > 0."""
    llo = _ln_one_sided(xlo, -1)
    lhi = _ln_one_sided(xhi, +1)
    elo, ehi = dn(lhi * (-t)), up(llo * (-t))
    return iexp(elo, ehi)


def tree_sum(lo, hi):
    """Certified sum of an interval array, reduced pairwise.

    Returns scalar (lo, hi).  Zero-padding keeps levels exact; the
    reduction order is fixed, so results are reproducible.
    """
    lo = np.asarray(lo, dtype=np.float64).ravel()
    hi = np.asarray(hi, dtype=np.float64).ravel()
    if lo.size == 0:
        return 0.0, 0.0
    while lo.size > 1:
        if lo.size & 1:
            lo = np.append(lo, 0.0)
            hi = np.append(hi, 0.0)
        lo = dn(lo[0::2] + lo[1::2])
        hi = up(hi[0::2] + hi[1::2])
    return float(lo[0]), float(hi[0])
