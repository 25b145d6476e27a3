"""Output checks, computed apart from the program.

Each check compares recorded outputs with a value the benchmark computes
itself (mpmath at 40 digits, exact Fractions, or its own continuant
enumeration), or with a property the method must have.  None compares with
a saved copy of an earlier run.  Every check comes with a corruption of
the outputs that it must reject; `run.py --selftest` applies each one.

A check returns a list of failure messages; an empty list is a pass.  An
output that is missing (its operation failed) is skipped: the verdict
speaks of the operations that did not fail.
"""

from __future__ import annotations

import copy
import math
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np

from workloads import cf_value

DPS = 40
LEFT_EDGE = 0.5055  # the level-root solver's search domain is [LEFT_EDGE, 1]
EXACT_WORDS = 20_000  # above this many words, sums run in float64 with a margin
FLOAT_MARGIN = 1e-12  # relative error allowance of an fsum of float64 powers


# -- enclosures as recorded: [lo_man, lo_exp, hi_man, hi_exp] -------------------

def lo_hi(e) -> tuple[Fraction, Fraction]:
    return Fraction(e[0]) * Fraction(2) ** e[1], Fraction(e[2]) * Fraction(2) ** e[3]


def width(e) -> Fraction:
    lo, hi = lo_hi(e)
    return hi - lo


def contains(e, v) -> bool:
    """lo <= v <= hi for an mpmath value v, compared at DPS digits."""
    lo, hi = lo_hi(e)
    with mpmath.workdps(DPS):
        return _mp(lo) <= v <= _mp(hi)


def _mp(fr: Fraction):
    return mpmath.mpf(fr.numerator) / fr.denominator


def from_fraction(lo: Fraction, hi: Fraction) -> list:
    """Inverse of lo_hi for dyadic rationals (used by the corruptions)."""
    out = []
    for v in (lo, hi):
        e = -(v.denominator.bit_length() - 1)
        out += [int(v * Fraction(2) ** -e), e]
    return out


def shifted(e) -> list:
    """The enclosure moved up by its own width (2^-60 for a point)."""
    lo, hi = lo_hi(e)
    w = (hi - lo) or Fraction(1, 2**60)
    return from_fraction(lo + w, hi + w)


def rel_width(e) -> float:
    lo, hi = lo_hi(e)
    mid = (lo + hi) / 2
    return float((hi - lo) / abs(mid))


def overlap(a, b) -> bool:
    alo, ahi = lo_hi(a)
    blo, bhi = lo_hi(b)
    return alo <= bhi and blo <= ahi


# -- the benchmark's own sums ---------------------------------------------------

def continuants(alphabet, n: int):
    """(q_n, q_{n-1}) over all words in alphabet^n, by q_k = a q_{k-1} + q_{k-2}."""
    digits = np.array(alphabet, dtype=np.int64)[:, None]
    q, qp = np.ones(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    for _ in range(n):
        q, qp = (digits * q + qp).ravel(), np.broadcast_to(q, (digits.size, q.size)).ravel()
    return q, qp


def power_sum(alphabet, n: int, s: float, shift=None):
    """sum over words of (q_n + shift q_{n-1})^(-2s) as (value, relative error bound).

    Exact words (at most EXACT_WORDS) are summed in mpmath; larger sums use
    float64 powers and math.fsum, with FLOAT_MARGIN as the error bound.
    """
    q, qp = continuants(alphabet, n)
    if q.size <= EXACT_WORDS:
        with mpmath.workdps(DPS):
            t = -2 * mpmath.mpf(s)
            if shift is None:
                terms = (c * mpmath.power(k, t) for k, c in Counter(q.tolist()).items())
            else:
                pairs = Counter(zip(q.tolist(), qp.tolist()))
                terms = (c * mpmath.power(a + shift * b, t) for (a, b), c in pairs.items())
            total = mpmath.fsum(terms)
        return total, mpmath.mpf(10) ** (5 - DPS)
    base = q.astype(np.float64) if shift is None else q + float(shift) * qp
    return mpmath.mpf(math.fsum((base ** (-2.0 * s)).tolist())), FLOAT_MARGIN


def zeta_power(s, n: int):
    """zeta(2s)^n: an upper bound of the full-alphabet sum, since q_n >= prod a_i."""
    with mpmath.workdps(DPS):
        return mpmath.zeta(2 * mpmath.mpf(s)) ** n


def weight(kind: int, n: int, B, a1z, s):
    """The level-n equation's weight: B^(-n s^2), a1z^(1-s) B^(-ns), a1z^(-s) B^(-ns/2)."""
    with mpmath.workdps(DPS):
        s = mpmath.mpf(s)
        if kind == 1:
            return mpmath.power(B, -n * s * s)
        if kind == 2:
            return mpmath.power(a1z, 1 - s) * mpmath.power(B, -n * s)
        return mpmath.power(a1z, -s) * mpmath.power(B, -n * s / 2)


def own_a1z(target: str, B: int, n: int):
    """First digit of the target at level n, from its definition."""
    if target == "zero":
        return math.inf
    if target == "ones":
        return 1
    with mpmath.workdps(DPS):  # exp_half: the integer nearest B^(n/2)
        return max(1, int(mpmath.floor(mpmath.sqrt(mpmath.mpf(B) ** n) + mpmath.mpf(1) / 2)))


def full_lower(n: int, s: float):
    """A lower bound of the full-alphabet sum: the truncation to {1..K}^n."""
    K = {1: 5000, 2: 120, 3: 25}.get(n, 8)
    value, err = power_sum(range(1, K + 1), n, s)
    return value * (1 - err)


# -- full-roots -------------------------------------------------------------------

def _predim_items(out):
    """Every predim_result output with its job key."""
    return [(k, v) for k, v in out.items() if k.startswith(("level_one/", "roots/"))]


def _target_of(key):
    return key.rsplit("/", 1)[1]


def _prediction(r):
    """{kind: conventional value or None} for one predim output.

    a1z = +inf gives s2 = 1 and s3 = 0.  A finite kind is clipped to 1
    exactly when its weighted sum at s = 1 exceeds 1: at n = 1 that sum is
    weight * zeta(2); at n >= 2 it is at most weight * zeta(2)^n, and the
    benchmark only uses n >= 2 where that bound is below 1.
    """
    n, B, a1z = r["n"], r["B"], r["a1z"]
    pred = {}
    for kind in (1, 2, 3):
        if a1z == "inf" and kind > 1:
            pred[kind] = 1 if kind == 2 else 0
            continue
        with mpmath.workdps(DPS):
            f1 = weight(kind, n, B, a1z, 1) * zeta_power(1, n)
            if n == 1:
                pred[kind] = 1 if f1 > 1 else None
            elif f1 <= 1:
                pred[kind] = None
            else:
                pred[kind] = "undecided"
    return pred


def check_conventional(spec, out):
    bad = []
    for key, r in _predim_items(out):
        own = own_a1z(_target_of(key), r["B"], r["n"])
        if r["a1z"] != ("inf" if own == math.inf else own):
            bad.append(f"{key}: a1z {r['a1z']} disagrees with the target's definition")
        pred = _prediction(r)
        want_flags = set()
        for kind, value in pred.items():
            lo, hi = lo_hi(r[f"s{kind}"])
            if value == "undecided":
                bad.append(f"{key}: kind {kind} clip is not decided by zeta(2)^n")
            elif value is None:
                if lo == hi:
                    bad.append(f"{key}: s{kind} is conventional [{lo}, {hi}] but a root is predicted")
            else:
                if not lo == hi == value:
                    bad.append(f"{key}: s{kind} should be exactly {value}, got [{float(lo)}, {float(hi)}]")
                if r["a1z"] != "inf":
                    want_flags.add(f"s{kind}_no_root_in_unit_interval")
        if set(r["flags"]) != want_flags:
            bad.append(f"{key}: flags {sorted(r['flags'])} but {sorted(want_flags)} predicted")
    return bad


def corrupt_conventional(out):
    for key, r in _predim_items(out):
        if r["flags"]:
            r["flags"] = []
            return out
    raise AssertionError("no clipped root to corrupt")


def _roots(spec, out, with_tight=True):
    """(key, n, B, kind, a1z, enclosure, tol) for every non-conventional root."""
    items = []
    for key, r in _predim_items(out):
        pred = _prediction(r)
        for kind in (1, 2, 3):
            if pred[kind] is None:
                items.append((f"{key}/s{kind}", r["n"], r["B"], kind, r["a1z"], r[f"s{kind}"], spec["tol"]))
    t = spec["tight"]
    if with_tight and "tight" in out:
        items.append(("tight", t["n"], t["B"], t["kind"], None, out["tight"], t["tol"]))
    return items


def check_n1_roots(spec, out):
    bad = []
    for key, n, B, kind, a1z, e, _ in _roots(spec, out, with_tight=False):
        if n != 1:
            continue
        with mpmath.workdps(DPS):
            f = lambda s: weight(kind, 1, B, a1z, s) * mpmath.zeta(2 * s) - 1
            root = mpmath.findroot(f, (mpmath.mpf(LEFT_EDGE), mpmath.mpf(1)), solver="anderson")
        if not contains(e, root):
            lo, hi = lo_hi(e)
            bad.append(f"{key}: [{float(lo)}, {float(hi)}] misses the zeta root {mpmath.nstr(root, 15)}")
    return bad


def corrupt_n1_roots(out):
    key = next(k for k in out if k.startswith("level_one/") and out[k]["a1z"] != "inf")
    out[key]["s1"] = shifted(out[key]["s1"])
    return out


def check_root_widths(spec, out):
    bad = []
    for key, *_rest, e, tol in _roots(spec, out):
        w = width(e)
        if not 0 < w <= Fraction(tol):
            bad.append(f"{key}: width {float(w):.3g} not in (0, tol = {tol}]")
    return bad


def corrupt_root_widths(out):
    lo, hi = lo_hi(out["tight"])
    out["tight"] = from_fraction(lo, hi + Fraction(1, 2**10))
    return out


def check_root_bounds(spec, out):
    """At n >= 2 the equation weight * Lambda_n(s) = 1 is bracketed by the
    truncated sum (below) and zeta(2s)^n (above), so weight(hi) * lower(hi)
    <= 1 <= weight(lo) * zeta(2 lo)^n must hold at the root's endpoints."""
    bad = []
    for key, n, B, kind, a1z, e, _ in _roots(spec, out):
        if n < 2:
            continue
        lo, hi = (float(v) for v in lo_hi(e))
        with mpmath.workdps(DPS):
            below = weight(kind, n, B, a1z, hi) * full_lower(n, hi)
            above = weight(kind, n, B, a1z, lo) * zeta_power(lo, n)
        if below > 1:
            bad.append(f"{key}: truncated sum already exceeds 1 at the upper end {hi}")
        if above < 1:
            bad.append(f"{key}: zeta bound is already below 1 at the lower end {lo}")
    return bad


def corrupt_root_bounds(out):
    lo, hi = lo_hi(out["tight"])
    out["tight"] = from_fraction(lo - Fraction(1, 16), hi - Fraction(1, 16))
    return out


def check_tight_nested(spec, out):
    t = spec["tight"]
    key = f"roots/n{t['n']}/B{t['B']}/zero"
    if "tight" not in out or key not in out:
        return []
    if not overlap(out["tight"], out[key][f"s{t['kind']}"]):
        return [f"tight root and {key} s{t['kind']} bound the same root but are disjoint"]
    return []


def corrupt_tight_nested(out):
    key = next(k for k in out if k.startswith("roots/") and k.endswith("/zero"))
    out[key]["s1"] = shifted(out[key]["s1"])
    return out


def check_branches(spec, out):
    bad = []
    for key, r in _predim_items(out):
        s1, s2, s3 = (lo_hi(r[f"s{k}"]) for k in (1, 2, 3))
        if r["branch"] == "CASE_S1":
            ok = s1[1] <= s2[0] and lo_hi(r["sn"]) == s1
        else:
            ok = s1[0] > s2[1] and lo_hi(r["sn"]) == (max(s2[0], s3[0]), max(s2[1], s3[1]))
        if not ok:
            bad.append(f"{key}: branch {r['branch']} does not follow from s1, s2, s3")
        if "FAIL" in r["thresholds"] or len(r["thresholds"]) != 4:
            bad.append(f"{key}: threshold verdicts {r['thresholds']}")
    return bad


def corrupt_branches(out):
    key = next(k for k, _ in _predim_items(out))
    out[key]["thresholds"][0] = "FAIL"
    return out


def _lambdas(spec, out):
    n = spec["lambda"]["n"]
    return [(s, level, out[f"lambda/{s}/L{level}"]) for s, level in spec["lambda"]["points"]
            if f"lambda/{s}/L{level}" in out], n


def check_lambda_bounds(spec, out):
    bad = []
    lams, n = _lambdas(spec, out)
    for s, level, e in lams:
        lo, hi = lo_hi(e)
        if _mp(hi) < full_lower(n, s):
            bad.append(f"lambda n={n} s={s} L{level} lies below the truncated sum")
        if _mp(lo) > zeta_power(s, n):
            bad.append(f"lambda n={n} s={s} L{level} lies above zeta(2s)^n")
    return bad


def corrupt_lambda_bounds(out):
    key = next(k for k in out if k.startswith("lambda/"))
    lo, hi = lo_hi(out[key])
    out[key] = from_fraction(lo / 2, hi / 2)
    return out


def check_lambda_levels(spec, out):
    bad = []
    lams, _ = _lambdas(spec, out)
    by_s = {}
    for s, level, e in lams:
        by_s.setdefault(s, {})[level] = e
    for s, levels in by_s.items():
        for level in levels:
            if level + 1 in levels and not overlap(levels[level], levels[level + 1]):
                bad.append(f"lambda s={s}: levels {level} and {level + 1} are disjoint")
    return bad


def corrupt_lambda_levels(out):
    key = next(k for k in out if k.startswith("lambda/") and k.endswith("/L0"))
    out[key] = shifted(out[key])
    return out


def check_lambda_monotone(spec, out):
    bad = []
    lams, _ = _lambdas(spec, out)
    for s, level, e in lams:
        for s2, level2, e2 in lams:
            if level2 == level and s < s2 and lo_hi(e)[1] <= lo_hi(e2)[0]:
                bad.append(f"lambda L{level}: value at s={s} is not above the value at s={s2}")
    return bad


def corrupt_lambda_monotone(out):
    keys = sorted((k for k in out if k.startswith("lambda/") and k.endswith("/L0")),
                  key=lambda k: float(k.split("/")[1]))
    out[keys[0]], out[keys[-1]] = out[keys[-1]], out[keys[0]]
    return out


def check_cover(spec, out):
    """Cover total on the first branch: Lambda_n(s) (B^(-n s s1) + B^(n s1 (1-s)) B^(-ns)),
    bounded with the truncated sum and zeta(2s)^n, both ends of s1 taken
    where each term is smallest or largest."""
    c = spec["cover"]
    key = f"roots/n{c['levels'][0]}/B{c['B']}/{c['target']}"
    if "cover" not in out or key not in out:
        return []
    bad = []
    B = c["B"]
    s1_lo, s1_hi = (float(v) for v in lo_hi(out[key]["s1"]))
    for rep in out["cover"]["reports"]:
        n, s = rep["n"], rep["s"]
        if abs(s - (s1_hi + c["offset"])) > 1e-12:
            bad.append(f"cover n={n}: s = {s} is not s1_hi + offset")
        with mpmath.workdps(DPS):
            def terms(a, b):
                return mpmath.power(B, -n * s * a) + mpmath.power(B, n * b * (1 - s) - n * s)
            low = full_lower(n, s) * terms(s1_hi, s1_lo)
            high = zeta_power(s, n) * terms(s1_lo, s1_hi)
        lo, hi = lo_hi(rep["total"])
        if _mp(hi) < low or _mp(lo) > high:
            bad.append(f"cover n={n}: total [{float(lo)}, {float(hi)}] outside [{low}, {high}]")
    return bad


def corrupt_cover(out):
    rep = out["cover"]["reports"][0]
    lo, hi = lo_hi(rep["total"])
    rep["total"] = from_fraction(lo / 4, hi / 4)
    return out


# -- pressure ---------------------------------------------------------------------

def x_min(alphabet):
    """Least point of the alphabet's attractor: x = 1/(amax + y), y = 1/(amin + x)."""
    amin, amax = min(alphabet), max(alphabet)
    with mpmath.workdps(DPS):
        m = amin * amax
        return (mpmath.sqrt(m * m + 4 * m) - m) / (2 * amax)


def _log_value(alphabet, n, s, B, shift=None):
    """(1/n)(log Sigma_n(s) - n s^2 log B) with its error bound."""
    total, err = power_sum(alphabet, n, s, shift)
    with mpmath.workdps(DPS):
        v = (mpmath.log(total) - n * mpmath.mpf(s) ** 2 * mpmath.log(B)) / n
        return v, abs(mpmath.log(1 - err)) / n + mpmath.mpf(10) ** (5 - DPS)


def _near(e, v, margin) -> bool:
    lo, hi = lo_hi(e)
    return _mp(lo) <= v + margin and v - margin <= _mp(hi)


def check_estimate_x0(spec, out):
    if "estimate" not in out:
        return []
    est = spec["estimate"]
    bad = []
    for n, e in enumerate(out["estimate"]["x0"], start=1):
        v, m = _log_value(est["alphabet"], n, est["s"], spec["B"])
        if not _near(e, v, m):
            lo, hi = lo_hi(e)
            bad.append(f"x0 value at depth {n}: [{float(lo)}, {float(hi)}] misses {mpmath.nstr(v, 15)}")
    return bad


def corrupt_estimate_x0(out):
    out["estimate"]["x0"][-1] = shifted(out["estimate"]["x0"][-1])
    return out


def check_estimate_sup(spec, out):
    """The sup version sums (q_n + x_min q_{n-1})^(-2s); checked where the
    benchmark enumerates exactly, and never above the x0 version."""
    if "estimate" not in out:
        return []
    est = spec["estimate"]
    xm = x_min(est["alphabet"])
    bad = []
    for n, (e, e0) in enumerate(zip(out["estimate"]["sup"], out["estimate"]["x0"]), start=1):
        if len(est["alphabet"]) ** n <= EXACT_WORDS:
            v, m = _log_value(est["alphabet"], n, est["s"], spec["B"], shift=xm)
            if not _near(e, v, m):
                bad.append(f"sup value at depth {n} misses {mpmath.nstr(v, 15)}")
        if lo_hi(e)[0] > lo_hi(e0)[1]:
            bad.append(f"sup value at depth {n} lies above the x0 value")
    return bad


def corrupt_estimate_sup(out):
    out["estimate"]["sup"][0] = shifted(out["estimate"]["sup"][0])
    return out


def check_bracket_sandwich(spec, out):
    """(1/d)(log Sigma_d - s log 4) <= P(s) <= (1/d) log Sigma_d at depth d: the
    bracket's upper end must have the upper bound <= 0, its lower end (when
    positive) the lower bound >= 0, both recomputed by the benchmark."""
    bad = []
    B = spec["B"]
    for alphabet, depth in spec["roots"]:
        key = f"root/{'-'.join(map(str, alphabet))}/d{depth}"
        if key not in out:
            continue
        lo, hi = (float(v) for v in lo_hi(out[key]["bracket"]))
        v_hi, m_hi = _log_value(alphabet, depth, hi, B)
        if v_hi - m_hi > 0:
            bad.append(f"{key}: pressure bound at the upper end {hi} is {mpmath.nstr(v_hi, 8)} > 0")
        if lo > 0:
            v_lo, m_lo = _log_value(alphabet, depth, lo, B)
            with mpmath.workdps(DPS):
                slack = mpmath.mpf(lo) * mpmath.log(4) / depth
            if v_lo + m_lo - slack < 0:
                bad.append(f"{key}: pressure lower bound at the lower end {lo} is below 0")
        if not lo < hi:
            bad.append(f"{key}: empty bracket [{lo}, {hi}]")
    return bad


def corrupt_bracket_sandwich(out):
    key = next(k for k in out if k.startswith("root/"))
    out[key]["bracket"] = shifted(out[key]["bracket"])
    return out


# -- witness-checks -----------------------------------------------------------------

def check_cli_verdicts(spec, out):
    bad = []
    for key in ("witness_cli", "lemmas_cli"):
        if key not in out:
            continue
        r = out[key]
        verdicts = r["json"].get("verdicts") or {
            f"{s['suite']}.{s['name']}": s["verdict"] for s in r["json"].get("suites", [])}
        if r["code"] != 0 or r["json"].get("all_pass") is not True:
            bad.append(f"{key}: exit code {r['code']}, all_pass {r['json'].get('all_pass')}")
        failing = sorted(k for k, v in verdicts.items() if v != "PASS")
        if failing or not verdicts:
            bad.append(f"{key}: verdicts not PASS: {failing}")
    w = out.get("witness_cli")
    if w and w["json"].get("samples") != spec["witness_cli"]["samples"]:
        bad.append("witness_cli: sample count differs from the request")
    return bad


def corrupt_cli_verdicts(out):
    out["witness_cli"]["json"]["verdicts"]["holder"] = "FAIL"
    return out


def check_witness_mass(spec, out):
    if "build_witness" not in out:
        return []
    r = out["build_witness"]
    bw = {k: Fraction(v) for k, v in r["block_weights"].items()}
    lw = {k: Fraction(v) for k, v in r["last_weights"].items()}
    total = Fraction(0)
    for blocks, last in r["intervals"]:
        w = lw[str(last)]
        for b in blocks:
            w *= bw[b]
        total += w
    bad = []
    if total != 1 or Fraction(r["total_mass"]) != 1:
        bad.append(f"total mass {total} (reported {r['total_mass']}), not exactly 1")
    if sum(bw.values()) != 1 or sum(lw.values()) != 1:
        bad.append("block or closing-digit weights do not sum to 1")
    return bad


def corrupt_witness_mass(out):
    bw = out["build_witness"]["block_weights"]
    key = next(iter(bw))
    bw[key] = str(Fraction(bw[key]) * Fraction(1001, 1000))
    return out


def check_holder(spec, out):
    if "holder_check" not in out or "build_witness" not in out:
        return []
    r = out["holder_check"]
    M, ell = out["build_witness"]["M"], out["build_witness"]["ell"]
    bad = []
    if r["limit"] != 16 * (M + 2) ** 4 * (M + 1) ** (2 * ell):
        bad.append(f"holder limit {r['limit']} is not 16 (M+2)^4 (M+1)^(2 ell)")
    if r["samples"] != spec["holder"]["samples"]:
        bad.append("holder sample count differs from the request")
    if r["verdict"] != "PASS" or r["failures"] or not r["max_ratio"] <= r["limit"]:
        bad.append(f"holder verdict {r['verdict']}, {r['failures']} failures, max {r['max_ratio']}")
    return bad


def corrupt_holder(out):
    out["holder_check"]["verdict"] = "FAIL"
    return out


def _finite_sum(case, ell, M, B, rate, s):
    """The defining sum of the finite-alphabet exponent, over the benchmark's {1..M}^ell."""
    q, _ = continuants(range(1, M + 1), ell)
    with mpmath.workdps(DPS):
        s = mpmath.mpf(s)
        head = mpmath.fsum(c * mpmath.power(k, -2 * s) for k, c in Counter(q.tolist()).items())
        if case == "I":
            common = mpmath.power(B, -ell * s * s)
        else:
            r = mpmath.mpf(Fraction(rate).numerator) / Fraction(rate).denominator
            if case == "II":
                common = mpmath.exp(r * ell * (1 - s)) * mpmath.power(B, -ell * s)
            else:
                common = mpmath.exp(-r * ell * s) * mpmath.power(B, -ell * s / 2)
        return common * head


FINITE_TOL = 1e-13  # the solver's default bracket width


def check_finite_s(spec, out):
    bad = []
    for case, ell, M, B, rate in spec["finite_s"]:
        key = f"finite_s/{case}"
        if key not in out:
            continue
        s = out[key]
        with mpmath.workdps(DPS):
            left = _finite_sum(case, ell, M, B, rate, mpmath.mpf(s) - FINITE_TOL)
            right = _finite_sum(case, ell, M, B, rate, mpmath.mpf(s) + FINITE_TOL)
        if not (left > 1 > right):
            bad.append(f"{key}: defining sum does not cross 1 across {s} +- {FINITE_TOL}")
    return bad


def corrupt_finite_s(out):
    key = next(k for k in out if k.startswith("finite_s/"))
    out[key] += 2 * FINITE_TOL
    return out


def check_lemma_closed(spec, out):
    bad = []
    with mpmath.workdps(DPS):
        values = {"1": mpmath.mpf(1), "7/2": mpmath.mpf(7) / 2, "pi^2/3-3": mpmath.pi ** 2 / 3 - 3}
        for a, t, name in spec["lemma"]["closed"]:
            key = f"lemma_closed/a{a}/t{t}"
            if key in out and not contains(out[key], values[name]):
                bad.append(f"{key}: enclosure misses the closed form {name}")
    return bad


def corrupt_lemma_closed(out):
    key = next(k for k in out if k.startswith("lemma_closed/"))
    out[key] = shifted(out[key])
    return out


LEMMA_K = 4000


def check_lemma_window(spec, out):
    """Brute-force partial sums over b <= K plus the two integral tails
    (a^t/(b(b-a))^t lies between a^t b^(-2t) and a^t (b-a)^(-2t) for b > K)."""
    if "lemma_window" not in out:
        return []
    t = spec["lemma"]["t"]
    b = np.arange(1, LEMMA_K + 1, dtype=np.float64)
    bad = []
    for a, e in enumerate(out["lemma_window"], start=1):
        mask = b != a
        part = math.fsum((a**t / (b[mask] ** t * np.abs(a - b[mask]) ** t)).tolist())
        tail_lo = a**t * (LEMMA_K + 1) ** (1 - 2 * t) / (2 * t - 1)
        tail_hi = a**t * (LEMMA_K - a) ** (1 - 2 * t) / (2 * t - 1)
        low = (part + tail_lo) * (1 - FLOAT_MARGIN)
        high = (part + tail_hi) * (1 + FLOAT_MARGIN)
        lo, hi = lo_hi(e)
        if hi < Fraction(low) or lo > Fraction(high):
            bad.append(f"lemma a={a}: [{float(lo)}, {float(hi)}] outside [{low}, {high}]")
    return bad


def corrupt_lemma_window(out):
    lo, hi = lo_hi(out["lemma_window"][0])
    out["lemma_window"][0] = from_fraction(lo * Fraction(101, 100), hi * Fraction(101, 100))
    return out


def gauss(x: Fraction) -> Fraction:
    return Fraction(0) if x == 0 else 1 / x - (1 / x).numerator // (1 / x).denominator


def own_membership(spec):
    """{(x, n): verdict} of |T^n x - z| |T^(n+1) x - Tz| < B^-n, by exact orbits."""
    h = spec["hits"]
    z, tz = cf_value(h["target"]), cf_value(h["target"][1:])
    levels = range(1, h["N"] + 1)
    verdicts = {}
    for x, _ in h["x"]:
        orbit = [Fraction(x)]
        for _ in range(h["N"] + 1):
            orbit.append(gauss(orbit[-1]))
        for n in levels:
            verdicts[(x, n)] = abs(orbit[n] - z) * abs(orbit[n + 1] - tz) < Fraction(1, h["B"] ** n)
    return verdicts


def check_hits(spec, out):
    own = own_membership(spec)
    h = spec["hits"]
    bad = []
    for i, (x, _) in enumerate(h["x"]):
        if f"hit_times/{i}" in out:
            want = [n for n in range(1, h["N"] + 1) if own[(x, n)]]
            if out[f"hit_times/{i}"] != want:
                bad.append(f"hit_times x={x}: {out[f'hit_times/{i}']} but the orbit gives {want}")
        if f"membership/{i}" in out:
            want = [own[(x, n)] for n in h["membership_levels"]]
            if out[f"membership/{i}"] != want:
                bad.append(f"membership x={x}: {out[f'membership/{i}']} but the orbit gives {want}")
    return bad


def corrupt_hits(out):
    out["membership/0"][0] = not out["membership/0"][0]
    return out


# -- registry ---------------------------------------------------------------------

CHECKS = {
    "full-roots": (
        ("n1_roots_contain_zeta_root", check_n1_roots, corrupt_n1_roots),
        ("conventional_roots_predicted", check_conventional, corrupt_conventional),
        ("root_width_le_tol", check_root_widths, corrupt_root_widths),
        ("root_brute_force_bounds", check_root_bounds, corrupt_root_bounds),
        ("tight_root_nested", check_tight_nested, corrupt_tight_nested),
        ("branch_and_thresholds", check_branches, corrupt_branches),
        ("lambda_brute_force_bounds", check_lambda_bounds, corrupt_lambda_bounds),
        ("lambda_levels_intersect", check_lambda_levels, corrupt_lambda_levels),
        ("lambda_decreasing_in_s", check_lambda_monotone, corrupt_lambda_monotone),
        ("cover_total_bounds", check_cover, corrupt_cover),
    ),
    "pressure": (
        ("x0_contains_exact_sum", check_estimate_x0, corrupt_estimate_x0),
        ("sup_contains_exact_sum", check_estimate_sup, corrupt_estimate_sup),
        ("bracket_depth_sandwich", check_bracket_sandwich, corrupt_bracket_sandwich),
    ),
    "witness-checks": (
        ("cli_all_pass", check_cli_verdicts, corrupt_cli_verdicts),
        ("witness_mass_exactly_one", check_witness_mass, corrupt_witness_mass),
        ("holder_verdict", check_holder, corrupt_holder),
        ("finite_s_sign_change", check_finite_s, corrupt_finite_s),
        ("lemma_closed_forms", check_lemma_closed, corrupt_lemma_closed),
        ("lemma_partial_sums", check_lemma_window, corrupt_lemma_window),
        ("hits_match_orbit", check_hits, corrupt_hits),
    ),
}


def run_checks(workload, spec, out) -> dict:
    """{check name: failure messages} over one pass's outputs."""
    return {name: fn(spec, out) for name, fn, _ in CHECKS[workload]}


def corrupted(workload, name, out):
    fn = {n: c for n, _, c in CHECKS[workload]}[name]
    return fn(copy.deepcopy(out))


def rel_widths(workload, spec, out) -> list:
    """Relative widths of the certified enclosures the workload returns.

    Conventional roots carry no width and are left out.  Pressure values
    are (1/n) log Sigma_n, so n times their width is the relative width of
    Sigma_n; that is what is recorded for them.
    """
    if workload == "full-roots":
        ws = [rel_width(e) for *_r, e, _tol in _roots(spec, out)]
        ws += [rel_width(rep["total"]) for rep in out.get("cover", {}).get("reports", [])]
        ws += [rel_width(e) for _, _, e in _lambdas(spec, out)[0]]
        return ws
    if workload == "pressure":
        ws = [rel_width(v["bracket"]) for k, v in out.items() if k.startswith("root/")]
        for key in ("x0", "sup"):
            ws += [n * float(width(e)) for n, e in enumerate(out.get("estimate", {}).get(key, []), 1)]
        return ws
    ws = [rel_width(e) for e in out.get("lemma_window", [])]
    ws += [rel_width(v) for k, v in out.items() if k.startswith("lemma_closed/")]
    return ws
