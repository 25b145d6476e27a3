import contextlib
import functools
import io
import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfshrink import rounding as rd
from cfshrink import sums
from cfshrink.errors import ExponentTooSmall
from cfshrink.ivec import ipow_neg, tree_sum
from cfshrink.predim import _weight_enclosure
from cfshrink.rounding import Enclosure, enclose

# independent high-precision values, frozen before the build
ZETA_15 = 2.61237534868548834334856756792
ZETA_12 = 5.5915824411777518836136712615
# brute-force bracket for sum_w q_2(w)^{-1.26}, digits up to 2000 plus tail
LAMBDA2_126_LO = 18.082870
LAMBDA2_126_HI = 18.083167


def contains(enc, x):
    return enc.lo_float <= x <= enc.hi_float


# The zeta(2s) route, an evaluator independent of the envelope: an exact
# head plus a first-order midpoint tail.  Oracle for the n = 1 sums.


def _power_tail(K: int, two_s: Fraction) -> Enclosure:
    """Enclosure of sum_{b > K} b^(-2s) by the midpoint rule.

    The tail lies in [I - C, I] with I = (K + 1/2)^(1-2s)/(2s - 1) and
    C = (|g'| + g'')(K + 1/2)/24 for g(x) = x^(-2s); in particular it
    sits inside the crude [0, K^(1-2s)/(2s-1)].
    """
    x0 = enclose(Fraction(2 * K + 1, 2))
    denom = enclose(two_s - 1)
    big_i = rd.div(rd.powr(x0, enclose(1 - two_s)), denom)
    g1 = rd.mul(enclose(two_s), rd.powr(x0, enclose(-two_s - 1)))
    g2 = rd.mul(rd.mul(enclose(two_s), enclose(two_s + 1)), rd.powr(x0, enclose(-two_s - 2)))
    corr = rd.div(rd.add(g1, g2), enclose(24))
    lo = rd.sub(big_i, corr).lo
    zero = enclose(0).lo
    if lo < zero:
        lo = zero
    return Enclosure(lo, big_i.hi)


def zeta_enclosure(s: float, K: int) -> Enclosure:
    """Enclosure of zeta(2s), exact head to K plus certified tail."""
    sf = float(s)
    if sf <= 0.5:
        raise ExponentTooSmall(f"zeta(2s) diverges for s <= 1/2; got s = {sf}")
    if K < 2:
        raise ValueError("head length K must be >= 2")
    return rd.add(_zeta_head(sf, K), _power_tail(K, 2 * Fraction(sf)))


def _zeta_head(s: float, M: int) -> Enclosure:
    b = np.arange(1, M + 1, dtype=np.float64)
    lo, hi = ipow_neg(b, b, 2.0 * float(s))
    return rd.from_f64(*tree_sum(lo, hi))


class TestZeta:
    def test_zeta2(self):
        z = zeta_enclosure(1.0, 10_000)
        assert contains(z, math.pi**2 / 6)
        assert z.width_float < 1e-9

    def test_zeta_15(self):
        z = zeta_enclosure(0.75, 10_000)
        assert contains(z, ZETA_15)

    def test_width_shrinks_with_K(self):
        widths = [zeta_enclosure(0.8, K).width_float for K in (10, 100, 1000)]
        assert widths[0] > widths[1] > widths[2]

    def test_divergent_exponent_rejected(self):
        with pytest.raises(ExponentTooSmall):
            zeta_enclosure(0.5, 100)

    def test_tail_inside_crude_bound(self):
        # stated contract: tail lies in [0, K^(1-2s)/(2s-1)]
        s, K = 0.8, 50
        head = _zeta_head(s, K)
        z = zeta_enclosure(s, K)
        crude = K ** (1 - 2 * s) / (2 * s - 1)
        assert head.lo_float <= z.lo_float
        assert z.hi_float <= head.hi_float + crude * (1 + 1e-12)

    @pytest.mark.parametrize("s", [0.51, 0.6, 0.786964, 0.925479, 1.0])
    def test_envelope_at_n1_meets_zeta(self, s):
        # the envelope contains zeta(2s) and overlaps the zeta(2s) oracle
        z = zeta_enclosure(s, 4096)
        with mp.workdps(40):
            exact = mp.zeta(2 * mp.mpf(s))
        for level in range(3):
            e = sums.lambda_enclosure(1, s, level=level)
            assert e.lo <= exact <= e.hi
            assert e.lo <= z.hi and z.lo <= e.hi


class TestLemmaSum:
    def test_telescoping_a1_t1(self):
        e = sums.lemma_sum(1, 1.0)
        assert contains(e, 1.0)
        assert e.width_float < 1e-9

    def test_a2_t1(self):
        # 2*(1 + sum_{b>=3} 1/(b(b-2))) = 2*(1 + 3/4) = 3.5
        assert contains(sums.lemma_sum(2, 1.0), 3.5)

    def test_a1_t2(self):
        assert contains(sums.lemma_sum(1, 2.0), math.pi**2 / 3 - 3)

    def test_brute_force_partial_sums(self):
        for a, t in [(1, 0.6), (3, 0.75), (7, 1.0)]:
            e = sums.lemma_sum(a, t)
            b = np.arange(1, 40_001, dtype=float)
            b = b[b != a]
            partial = float(np.sum(a**t / (b**t * np.abs(a - b) ** t)))
            assert partial <= e.hi_float * (1 + 1e-12)
            assert e.lo_float <= partial + 2 * a**t * 40_000 ** (1 - 2 * t) / (2 * t - 1)

    def test_cutoffs_consistent(self):
        e1 = sums.lemma_sum(5, 0.8, cutoff=20_000)
        e2 = sums.lemma_sum(5, 0.8, cutoff=160_000)
        assert max(e1.lo_float, e2.lo_float) <= min(e1.hi_float, e2.hi_float)

    def test_preconditions(self):
        with pytest.raises(ExponentTooSmall):
            sums.lemma_sum(1, 0.5)
        with pytest.raises(ValueError):
            sums.lemma_sum(100, 0.8, cutoff=300)

    def test_batch_matches_single(self):
        batch = sums.lemma_sum_batch([1, 4, 9], 0.75)
        for a, e in zip([1, 4, 9], batch):
            single = sums.lemma_sum(a, 0.75)
            assert e.lo == single.lo and e.hi == single.hi

    @pytest.mark.parametrize("a_values, t, match", [
        ([], 0.75, "nonempty"), ([1, 2], math.nan, "finite"),
        ([1, 2], math.inf, "finite"), ([1, 2], -math.inf, "finite")])
    def test_bad_input_rejected_before_any_table(self, a_values, t, match, monkeypatch):
        monkeypatch.setattr(sums, "ipow_neg", None)  # building a table would raise TypeError
        with pytest.raises(ValueError, match=match):
            sums.lemma_sum_batch(a_values, t)

    def test_large_t_names_the_largest_usable_t(self, monkeypatch):
        monkeypatch.setattr(sums, "ipow_neg", None)  # building a table would raise TypeError
        # (2t - 1) ln 256 <= 708 for the tail at a = 1, K = 256
        with pytest.raises(ValueError, match=r"t <= 64\.339"):
            sums.lemma_sum(1, 70.0)

    def test_t_64_keeps_its_value(self):
        e = sums.lemma_sum(1, 64.0)
        assert (e.lo_float.hex(), e.hi_float.hex()) == (
            "0x1.ffffffffffeb9p-65", "0x1.00000000000b8p-64")

    @pytest.mark.parametrize("t", [0.51, 0.6, 0.75, 1, 2, 3])
    @pytest.mark.parametrize("a", [1, 2, 7, 40, 1000])
    def test_tail_contains_binomial_hurwitz_oracle(self, a, t):
        default = max(4 * a, 256)
        for K in sorted({4 * a, 16 * a, default}):
            lo, hi = _lemma_oracle(a, t, K)
            e = sums.lemma_sum(a, t, cutoff=K)
            assert e.lo <= lo and hi <= e.hi, (a, t, K)
            if K == default and a <= 40 and t >= 0.6:
                assert e.width_float <= 1e-10 * e.lo_float


def _lemma_oracle(a, t, K):
    """[lo, hi] around sum_{b != a} a^t/(b^t |a - b|^t) at 40 digits.

    The head b <= K is summed term by term.  With c = a/2 and q = K + 1 - c
    the tail is sum_j C_j c^(2j) zeta(2t + 2j, q), C_j = binom(t + j - 1, j);
    zeta(p, q) <= q^-p (1 + q/(p - 1)) and consecutive bounds shrink by at
    most r = max(1, (t+j)/(j+1)) (c/q)^2, so the series stops once r < 1/2
    and the geometric rest is below 1e-36 of the tail; hi adds that rest.
    Both ends are widened by 1e-35 for the working precision.
    """
    with mp.workdps(40):
        t = mp.mpf(t)
        c = mp.mpf(a) / 2
        q = K + 1 - c
        head = mp.fsum(mp.mpf(b * abs(a - b)) ** -t for b in range(1, K + 1) if b != a)
        tail, c_j, j = 0, mp.mpf(1), 0
        while True:
            tail += c_j * c ** (2 * j) * mp.zeta(2 * t + 2 * j, q)
            c_j, j = c_j * (t + j) / (j + 1), j + 1
            p = 2 * t + 2 * j
            r = max(1, (t + j) / (j + 1)) * (c / q) ** 2
            rest = c_j * c ** (2 * j) * q**-p * (1 + q / (p - 1)) / (1 - r)
            if r < 0.5 and rest < mp.mpf(10) ** -36 * tail:
                break
        a_t, slack = mp.mpf(a) ** t, mp.mpf(10) ** -35
        return a_t * (head + tail) * (1 - slack), a_t * (head + tail + rest) * (1 + slack)


class TestWeights:
    def test_pre1_exact_half(self):
        # 4^(-2 * (1/2)^2) = 1/2
        e = _weight_enclosure(2, 4, 1, None, Fraction(1, 2))
        assert contains(e, 0.5) and e.width_float < 1e-30

    def test_pre2(self):
        # a1z^(1-s) B^(-ns) at s=1/2, a1z=9, B=4, n=1: 3 * 1/2 = 3/2
        assert contains(_weight_enclosure(1, 4, 2, 9, Fraction(1, 2)), 1.5)

    def test_pre3(self):
        # a1z^(-s) B^(-ns/2) at s=1/2, a1z=4, B=16, n=1: 1/2 * 1/2 = 1/4
        assert contains(_weight_enclosure(1, 16, 3, 4, Fraction(1, 2)), 0.25)

    def test_infinite_a1z_never_summed(self):
        with pytest.raises(ValueError):
            _weight_enclosure(1, 4, 2, math.inf, 0.6)


# Reference route for sum_{w in N^n} q_n(w)^(-2s): the exact head over
# {1..M}^n plus the remainder (some digit > M) in [0, zeta(2s)^n - zeta_M(2s)^n],
# since q_n(w) >= prod a_i.  Kept here as an oracle for the envelope evaluator.


def _continuants(n, M):
    """q_n over all words in {1..M}^n, exact in int64 and in float64."""
    assert (M + 1) ** n < 2**53
    Q, P = np.ones(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    for _ in range(n):
        digs = np.repeat(np.arange(1, M + 1, dtype=np.int64), Q.size)
        Qt = np.tile(Q, M)
        Q, P = digs * Qt + np.tile(P, M), Qt
    return Q.astype(np.float64)


def _head(n, s, M):
    """Certified sum of q_n(w)^(-2s) over words w in {1..M}^n."""
    q = _continuants(n, M)
    return rd.from_f64(*tree_sum(*ipow_neg(q, q, 2.0 * s)))


def _zeta_tail_route(n, s, M):
    """Certified sum of q_n(w)^(-2s) over all words w in N^n."""
    z = zeta_enclosure(s, max(4096, M + 1))
    diff = rd.sub(rd.pow_int(z, n), rd.pow_int(_zeta_head(s, M), n))
    zero = enclose(0)
    return rd.add(_head(n, s, M), Enclosure(zero.lo, max(diff.hi, zero.hi)))


class TestContinuantSum:
    def test_degenerate_zeta2(self):
        e = _zeta_tail_route(1, 1.0, 4096)
        assert contains(e, math.pi**2 / 6)

    def test_n2_head_quarter(self):
        e = _zeta_tail_route(2, 1.0, 1)
        z2 = math.pi**2 / 6
        assert 0.2499 < e.lo_float <= 0.25
        assert e.hi_float <= z2**2
        # the true sum is also above z2^2/4 by q_2 <= prod 2 a_i
        assert e.hi_float >= z2**2 / 4

    def test_monotone_decreasing_in_s(self):
        lo_small_s = _zeta_tail_route(3, 0.7, 12)
        hi_large_s = _zeta_tail_route(3, 0.9, 12)
        assert lo_small_s.lo_float > hi_large_s.hi_float

    def test_head_strictly_decreasing(self):
        a = _head(3, 0.7, 12)
        b = _head(3, 0.7001, 12)
        assert a.lo > b.hi

    def test_M_tightens(self):
        outer = _zeta_tail_route(2, 0.9, 8)
        inner = _zeta_tail_route(2, 0.9, 32)
        assert inner.is_subset_of(outer)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 3),
        s=st.floats(0.55, 1.4),
        M=st.integers(2, 10),
    )
    def test_head_contains_highprec_sum(self, n, s, M):
        head = _head(n, float(s), M)
        with mp.workdps(40):
            tot = mp.mpf(0)
            for w in itertools.product(range(1, M + 1), repeat=n):
                p, q = 1, 0
                for d in w:
                    p, q = d * p + q, p
                tot += mp.mpf(p) ** (-2 * mp.mpf(s))
            truth = float(tot)
        assert head.lo_float - 1e-12 <= truth <= head.hi_float + 1e-12


class TestEnvelopeEvaluator:
    def test_oracle_bracket(self):
        e = sums.lambda_enclosure(2, 1.26, level=2)
        # brute force with digits <= 4000 plus zeta-product remainder
        assert e.lo_float <= 0.5754935362 and e.hi_float >= 0.5754876591

    def test_oracle_bracket_s063(self):
        # frozen bracket is for exponent 1.26, i.e. s = 0.63
        e = sums.lambda_enclosure(2, 0.63, level=3)
        assert e.lo_float <= LAMBDA2_126_HI and e.hi_float >= LAMBDA2_126_LO

    def test_levels_all_overlap(self):
        encs = [sums.lambda_enclosure(3, 0.77, level=k) for k in range(4)]
        lo = max(e.lo_float for e in encs)
        hi = min(e.hi_float for e in encs)
        assert lo <= hi

    def test_widths_shrink_with_level(self):
        w = [sums.lambda_enclosure(3, 0.77, level=k).width_float for k in range(3)]
        assert w[0] > w[1] > w[2]

    def test_agrees_with_zeta_tail_route(self):
        a = _zeta_tail_route(2, 1.1, 600)
        b = sums.lambda_enclosure(2, 1.1, level=2)
        assert max(a.lo_float, b.lo_float) <= min(a.hi_float, b.hi_float)

    def test_restricted_alphabet_fibonacci(self):
        # alphabet {1}: single word, q_n = F_{n+1}
        fib = {2: 2, 3: 3, 5: 8}
        for n, q in fib.items():
            e = sums.lambda_enclosure(n, 0.8, alphabet_max=1)
            assert contains(e, q ** (-1.6))

    def test_restricted_alphabet_brute(self):
        e = sums.lambda_enclosure(2, 0.8, alphabet_max=6, level=2)
        assert contains(e, 1.70220597034000028937137574572)

    def test_estimate_close(self):
        est = sums.lambda_estimate(4, 0.7)
        enc = sums.lambda_enclosure(4, 0.7, level=1)
        mid = 0.5 * (enc.lo_float + enc.hi_float)
        assert abs(est - mid) / mid < 0.01

    @pytest.mark.parametrize("s", [0.5, 0.45, 0.2])
    def test_estimate_rejects_a_divergent_sum_like_the_enclosure(self, s):
        for evaluate in (sums.lambda_enclosure, sums.lambda_estimate):
            with pytest.raises(ExponentTooSmall, match="diverges"):
                evaluate(2, s)


class TestEmptyAlphabet:
    @pytest.mark.parametrize("alphabet_max", [0, -3])
    def test_enclosure_rejects_an_empty_alphabet(self, alphabet_max):
        with pytest.raises(ValueError, match="nonempty"):
            sums.lambda_enclosure(2, 0.8, alphabet_max=alphabet_max)

    def test_estimate_rejects_an_empty_alphabet(self):
        with pytest.raises(ValueError, match="nonempty"):
            sums.lambda_estimate(2, 0.8, alphabet_max=0)


class TestEnvelopeContainment:
    @pytest.mark.parametrize("M", [1, 2, 3, 4, 5, 6])
    def test_overlaps_exact_finite_sum(self, M):
        # over a finite alphabet the oracle head is the whole sum, so a
        # certified envelope must overlap it
        for n in range(1, 7):
            for level in (0, 1, 2):
                for s in (0.3, 0.8, 1.3):
                    e = sums.lambda_enclosure(n, s, alphabet_max=M, level=level)
                    h = _head(n, s, M)
                    assert max(e.lo, h.lo) <= min(e.hi, h.hi), (M, n, level, s)

    @pytest.mark.parametrize("M, levels", [(2, (0, 1, 2)), (6, (0, 1, 2)), (None, (0, 1))])
    def test_strictly_decreasing_in_s(self, M, levels):
        for n in (2, 5):
            for level in levels:
                for s in (0.56, 0.9):
                    a = sums.lambda_enclosure(n, s, alphabet_max=M, level=level)
                    b = sums.lambda_enclosure(n, s + 0.0101, alphabet_max=M, level=level)
                    assert a.lo > b.hi, (M, n, level, s)


class TestBoundedCache:
    def test_caches_are_bounded(self):
        assert sums._lambda_bounds.cache_info().maxsize == 4096
        assert sums.lambda_estimate.cache_info().maxsize == 4096
        from cfshrink import pressure

        assert pressure._enumerate_levels.cache_info().maxsize == 16

    def test_threads_keep_the_bound_and_the_values(self, monkeypatch):
        cache = functools.lru_cache(8)(sums._lambda_bounds.__wrapped__)
        monkeypatch.setattr(sums, "_lambda_bounds", cache)
        ss = [0.6 + 0.01 * (k % 12) for k in range(240)]
        want = {s: rd.from_f64(*cache.__wrapped__(2, s, 3, 0)) for s in set(ss)}
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(sums.lambda_enclosure, 2, s, alphabet_max=3, level=0)
                           for s in ss]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(old)
        assert results == [want[s] for s in ss]
        assert cache.cache_info().currsize == 8

    def test_lambda_cache_is_bounded_and_keyed_on_the_clamped_level(self, monkeypatch):
        cache = functools.lru_cache(3)(sums._lambda_bounds.__wrapped__)
        monkeypatch.setattr(sums, "_lambda_bounds", cache)
        top = sums.lambda_enclosure(2, 0.9, alphabet_max=4, level=sums.MAX_LEVEL)
        assert sums.lambda_enclosure(2, 0.9, alphabet_max=4, level=sums.MAX_LEVEL + 5) == top
        assert cache.cache_info()[:2] == (1, 1)  # (hits, misses): one entry, read twice
        for s in (0.91, 0.92, 0.93):
            sums.lambda_enclosure(2, s, alphabet_max=4, level=0)
        assert cache.cache_info().currsize == 3
        assert sums.lambda_enclosure(2, 0.9, alphabet_max=4, level=sums.MAX_LEVEL) == top
        assert cache.cache_info().misses == 5  # the top entry was evicted

    def test_enumeration_cache_is_bounded(self, monkeypatch):
        from cfshrink import pressure

        cache = functools.lru_cache(2)(pressure._enumerate_levels.__wrapped__)
        monkeypatch.setattr(pressure, "_enumerate_levels", cache)
        first = pressure._enumerate((1, 2, 3), 4)
        for depth in (1, 2, 3):
            pressure._enumerate((1, 2, 3), depth)
        assert cache.cache_info().currsize == 2
        again = pressure._enumerate((1, 2, 3), 4)
        assert again is not first
        assert all(np.array_equal(a, b) for x, y in zip(first, again) for a, b in zip(x, y))

    def test_lemmas_identical_across_threads_with_tiny_caches(self, monkeypatch, tmp_path):
        from cfshrink import cli, pressure

        for module, name in ((sums, "_lambda_bounds"), (sums, "lambda_estimate"),
                             (pressure, "_enumerate_levels")):
            monkeypatch.setattr(module, name,
                                functools.lru_cache(1)(getattr(module, name).__wrapped__))
        outputs = {}
        for threads in (1, 3):
            out = tmp_path / f"threads{threads}"
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["lemmas", "--out", str(out), "--threads", str(threads)]) == 0
            outputs[threads] = (out / "lemmas.json").read_bytes()
        assert outputs[1] == outputs[3]
