"""Diophantine search tests, cross-checked against mpmath brute force."""

import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coblab import diophantine
from coblab.certify import Enclosure, pow_enclosure, separate, sqrt_enclosure
from coblab.diophantine import (
    CONVERGENT_DIGITS,
    _bracket,
    _walk,
    bad_pair_constant,
    convergents,
    dirichlet_denominators,
    dirichlet_pair_search,
    dyadic_blocks,
    lacunary_denominators,
    square_approximation_search,
)
from coblab.cli import ExperimentConfig, run
from coblab.errors import ConfigError
from coblab.surd import (
    FP_MAX_K,
    QuadraticSurd,
    dist_enclosure,
    fixed_point,
    parse_surd,
)
from references import integer_dependence_search

ALPHA = parse_surd("(-1+1*sqrt(2))/1")
BETA = parse_surd("(-1+1*sqrt(3))/1")
GOLDEN = parse_surd("(1+sqrt(5))/2")
SQRT2 = QuadraticSurd(0, 1, 2)

# the two surd pairs of the benchmark's scan workload
PAIRS = [
    (ALPHA, BETA),
    (parse_surd("(-2+1*sqrt(5))/1"), parse_surd("(-2+1*sqrt(7))/1")),
]

# simultaneous Dirichlet solutions for (sqrt(2)-1, sqrt(3)-1) up to 100,
# frozen from an independent high-precision scan
DIRICHLET_100 = [1, 2, 3, 4, 5, 7, 8, 12, 14, 15, 19, 22, 34, 41, 48, 63, 75, 82]


def surd_mpf(x, dps=80):
    with mpmath.workdps(dps):
        return (x.a + x.b * mpmath.sqrt(x.d)) / x.c


def mp_dist(value):
    f = value - mpmath.floor(value)
    return min(f, 1 - f)


def oracle_dirichlet(alpha, beta, Q, dps=60):
    hits = []
    with mpmath.workdps(dps):
        a = surd_mpf(alpha, dps)
        b = surd_mpf(beta, dps)
        for q in range(1, Q + 1):
            if max(mp_dist(q * a), mp_dist(q * b)) < 1 / mpmath.sqrt(q):
                hits.append(q)
    return hits


# -- continued fractions -----------------------------------------------------


def terms(x, depth):
    return [a for a, _, _ in convergents(x, depth)]


def test_continued_fraction_golden_depth_8():
    assert terms(GOLDEN, 8) == [1] * 9


def test_continued_fraction_classics():
    assert terms(SQRT2, 5) == [1, 2, 2, 2, 2, 2]
    assert terms(BETA, 6) == [0, 1, 2, 1, 2, 1, 2]


@settings(max_examples=40, deadline=None)
@given(
    a=st.integers(-9, 9),
    b=st.integers(1, 6),
    c=st.integers(1, 9),
    d=st.sampled_from([2, 3, 5, 7, 11]),
)
def test_continued_fraction_matches_float_oracle(a, b, c, d):
    x = QuadraticSurd(a, b, d, c)
    got = terms(x, 12)
    with mpmath.workdps(120):
        v = (a + b * mpmath.sqrt(d)) / c
        expected = []
        for _ in range(13):
            f = int(mpmath.floor(v))
            expected.append(f)
            v = 1 / (v - f)
    assert got == expected


def test_convergents_satisfy_recurrence_and_quality():
    rows = list(convergents(SQRT2, 10))
    assert [a for a, _, _ in rows] == [1] + [2] * 10
    cs = [(p, q) for _, p, q in rows]
    for k in range(1, len(cs)):
        p1, q1 = cs[k]
        p0, q0 = cs[k - 1]
        assert abs(p1 * q0 - p0 * q1) == 1
    # classical convergent quality: |q*x - p| < 1/q_{k+1}
    with mpmath.workdps(60):
        r2 = mpmath.sqrt(2)
        for k in range(len(cs) - 1):
            p, q = cs[k]
            assert abs(q * r2 - p) < 1 / cs[k + 1][1]


def test_convergents_stop_at_the_digit_bound():
    x = parse_surd("sqrt(999950885)")  # [31622; 63244, 63244, ...]
    *_, (_, p, q) = convergents(x, 833)
    assert 10 ** (CONVERGENT_DIGITS - 5) < q < 10**CONVERGENT_DIGITS
    assert len(str(p)) < 4300
    walk = convergents(x, 834)
    assert len([next(walk) for _ in range(834)]) == 834  # k = 0..833
    with pytest.raises(ConfigError, match="q_834 has more than 4000 digits"):
        next(walk)


# -- distances ---------------------------------------------------------------


def test_nearest_integer_distance_oracle_and_clamp():
    enc = dist_enclosure(SQRT2, 8, abs_tol=Fraction(1, 10**40))
    with mpmath.workdps(200):
        val = 8 * mpmath.sqrt(2) - 11
        scaled = int(mpmath.floor(val * mpmath.mpf(2) ** 160))
    lo = Fraction(scaled, 2**160)
    assert enc.lo <= lo + Fraction(1, 2**150)
    assert lo - Fraction(1, 2**150) <= enc.hi
    assert Fraction(0) <= enc.lo and enc.hi <= Fraction(1, 2)
    assert enc.width <= Fraction(1, 10**40)


def test_nearest_integer_distance_validates():
    with pytest.raises(ConfigError):
        dist_enclosure(QuadraticSurd(1, 0, 1, 2), 3, abs_tol=Fraction(1, 10**30))
    with pytest.raises(ConfigError):
        dist_enclosure(ALPHA, 0, abs_tol=Fraction(1, 10**30))
    with pytest.raises(ConfigError):
        dist_enclosure(ALPHA, 3)
    with pytest.raises(ConfigError):
        dist_enclosure(ALPHA, 3, abs_tol=Fraction(1, 10), rel_tol=Fraction(1, 10))
    with pytest.raises(ConfigError):
        dist_enclosure(ALPHA, 3, abs_tol=0)


# -- the simultaneous search --------------------------------------------------


def test_dirichlet_pair_search_matches_brute_force():
    records = dirichlet_pair_search(ALPHA, BETA, 100)
    assert [r.q for r in records] == DIRICHLET_100
    assert [r.q for r in records] == oracle_dirichlet(ALPHA, BETA, 100)


def test_dirichlet_records_are_certified():
    records = dirichlet_pair_search(ALPHA, BETA, 500, tol=Fraction(1, 10**15))
    with mpmath.workdps(80):
        a, b = surd_mpf(ALPHA), surd_mpf(BETA)
        for rec in records:
            assert rec.quality.hi < 1
            assert rec.dist_alpha.width <= Fraction(1, 10**15)
            da = mp_dist(rec.q * a)
            db = mp_dist(rec.q * b)
            slack = Fraction(1, 10**14)
            assert rec.dist_alpha.lo - slack <= Fraction(str(da)) <= rec.dist_alpha.hi + slack
            assert rec.dist_beta.lo - slack <= Fraction(str(db)) <= rec.dist_beta.hi + slack
            assert Fraction(0) <= rec.dist_alpha.lo
            assert rec.dist_alpha.hi <= Fraction(1, 2)


def test_dirichlet_other_pair_consistency():
    gamma = parse_surd("(1+2*sqrt(5))/3")
    delta = parse_surd("(0+1*sqrt(7))/2")
    records = dirichlet_pair_search(gamma, delta, 300)
    assert [r.q for r in records] == oracle_dirichlet(gamma, delta, 300)


def float_prescan_reference(alpha, beta, Q):
    """The float64 prescan the search used before the exact walk, then the
    exact confirmation: q*dist**2 - 1 < 0 for both rotations."""
    alpha_f = float(alpha.frac().enclosure(96).mid)
    beta_f = float(beta.frac().enclosure(96).mid)
    margin = Q * 2.0**-49 + 2.0**-40
    q = np.arange(1, Q + 1, dtype=np.float64)
    thr = 1.0 / np.sqrt(q) + margin
    fa = (q * alpha_f) % 1.0
    fb = (q * beta_f) % 1.0
    mask = (np.minimum(fa, 1.0 - fa) < thr) & (np.minimum(fb, 1.0 - fb) < thr)
    hits = []
    for q_int in (int(v) for v in q[mask]):
        da = (alpha * q_int).dist_to_int()
        db = (beta * q_int).dist_to_int()
        if (da * da * q_int - 1).sign() < 0 and (db * db * q_int - 1).sign() < 0:
            hits.append(q_int)
    return hits


@pytest.mark.parametrize("pair", [0, 1])
def test_dirichlet_matches_float_prescan_reference_at_1e6(pair):
    alpha, beta = PAIRS[pair]
    records = dirichlet_pair_search(alpha, beta, 10**6)
    assert [r.q for r in records] == float_prescan_reference(alpha, beta, 10**6)


def test_dirichlet_rejects_q_past_the_fixed_point_range():
    with pytest.raises(ConfigError, match="fixed-point range"):
        dirichlet_pair_search(ALPHA, BETA, 2**112 + 1)


# -- exact enumeration of small multiples -------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    a=st.integers(-20, 20),
    b=st.sampled_from([-3, -2, -1, 1, 2, 3]),
    c=st.integers(1, 30),
    d=st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13]),
    hi=st.one_of(st.integers(1, 10**4), st.integers(1, 2**40)),
    span=st.integers(0, 1500),
    eps=st.one_of(
        st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(3, 5),
                     max_denominator=10**6),
        st.integers(1, 3000).map(lambda hits: Fraction(hits, 2**40)),
    ),
)
def test_walk_yields_every_exact_hit_in_order(a, b, c, d, hi, span, eps):
    # one rotation: the second window, 2**192 ulps, passes every q
    x = QuadraticSurd(a, b, d, c)
    lo = max(1, hi - span)
    X = fixed_point(x) | 1
    got = list(_walk(X, math.ceil(eps * 2**192), 0, 2**192, lo, hi))
    qs = [q for q, _, _ in got]
    assert all(u < v for u, v in zip(qs, qs[1:]))
    assert all(lo <= q < hi for q in qs)
    exact = [q for q in range(lo, hi) if ((x * q).dist_to_int() - eps).sign() < 0]
    assert set(exact) <= set(qs)
    for q, s, _ in got:
        # the bracket holds the 256-bit enclosure of ||q*x|| * 2**192
        dist = (x * q).dist_to_int().enclosure(256)
        low, high = _bracket(q, s)
        assert low <= dist.lo * 2**192 and dist.hi * 2**192 <= high


RATIONAL = QuadraticSurd(1, 0, 1, 2)


@pytest.mark.parametrize("scan", [dirichlet_denominators, bad_pair_constant])
@pytest.mark.parametrize(
    "alpha, beta, Q, message",
    [
        (RATIONAL, BETA, 10, f"alpha must be irrational, got {RATIONAL}"),
        (ALPHA, RATIONAL, 10, f"beta must be irrational, got {RATIONAL}"),
        (ALPHA, BETA, 0, "Q must be a positive integer, got 0"),
        (ALPHA, BETA, 10**13 + 1,
         f"scan bound {10**13 + 1} exceeds the running-time cap 10**13"),
        (ALPHA, BETA, FP_MAX_K + 1,
         f"scan bound {FP_MAX_K + 1} exceeds the fixed-point range {FP_MAX_K}"),
    ],
)
def test_joint_scans_validate(scan, alpha, beta, Q, message):
    with pytest.raises(ConfigError) as info:
        scan(alpha, beta, Q)
    assert str(info.value) == message


# -- greedy selection ----------------------------------------------------------


def test_select_example_all_survive():
    chosen = lacunary_denominators([2, 5, 12, 29, 70], ratio=2.0, budget=3.0)
    assert chosen == [2, 5, 12, 29, 70]
    # direct evaluation: 2**-0.5 + 5**-0.5 + 12**-0.5 + 29**-0.5 + 70**-0.5
    total = sum(q**-0.5 for q in chosen)
    assert total == pytest.approx(1.74822, abs=1e-4)


def test_select_ratio_10_keeps_two():
    chosen = lacunary_denominators([2, 5, 12, 29, 70], ratio=10.0, budget=3.0)
    assert chosen == [2, 29]


def test_select_may_come_back_short():
    # the caller decides how many terms it needs
    assert lacunary_denominators([], ratio=2.0, budget=2.0) == []
    assert lacunary_denominators([3, 4, 5], ratio=2.0, budget=0.1) == []
    assert lacunary_denominators([4, 5, 7], ratio=2.0, budget=1.0) == [4]


def test_select_budget_is_certified_upper_bound():
    chosen = lacunary_denominators(list(range(1, 40)), ratio=2.0, budget=2.0)
    assert chosen == [1, 2, 12]  # greedy: 1 + 0.7071 + 0.2887
    total = sum((sqrt_enclosure(Fraction(1, q), 160) for q in chosen),
                Enclosure.point(0))
    assert total.hi <= 2


# -- badness ------------------------------------------------------------------


def test_bad_pair_constant_matches_brute_force():
    enc, argmin = bad_pair_constant(ALPHA, BETA, 1000)
    best, best_q = None, None
    with mpmath.workdps(60):
        a, b = surd_mpf(ALPHA), surd_mpf(BETA)
        for q in range(1, 1001):
            v = mpmath.sqrt(q) * max(mp_dist(q * a), mp_dist(q * b))
            if best is None or v < best:
                best, best_q = v, q
        assert argmin == best_q
        assert float(enc.mid) == pytest.approx(float(best), abs=1e-15)


def mp_bad_pair_argmin(alpha, beta, Q, dps=40):
    best, best_q = None, None
    with mpmath.workdps(dps):
        a, b = surd_mpf(alpha, dps), surd_mpf(beta, dps)
        for q in range(1, Q + 1):
            v = mpmath.sqrt(q) * max(mp_dist(q * a), mp_dist(q * b))
            if best is None or v < best:
                best, best_q = v, q
    return best_q


@pytest.mark.parametrize("pair", [0, 1])
def test_bad_pair_argmin_matches_brute_force_at_20000(pair):
    alpha, beta = PAIRS[pair]
    _, argmin = bad_pair_constant(alpha, beta, 20000)
    assert argmin == mp_bad_pair_argmin(alpha, beta, 20000)


def test_bad_pair_settles_near_ties_by_certified_comparison(monkeypatch):
    # alpha, beta = 1/2 + 2**-200 * sqrt(2), sqrt(3): every even q has
    # ||q*x|| = q * 2**-200 * sqrt(d), far below one ulp of 2**-192, so its
    # 2q-ulp bracket reaches 0 and the fixed-point screen keeps it; only the
    # certified comparisons tell the even q apart, and the least wins
    alpha = QuadraticSurd(2**200, 2, 2, 2**201)
    beta = QuadraticSurd(2**200, 2, 3, 2**201)
    comparisons = []
    monkeypatch.setattr(
        diophantine, "separate",
        lambda *args: comparisons.append(args) or separate(*args),
    )
    _, argmin = bad_pair_constant(alpha, beta, 64)
    assert len(comparisons) > 1
    assert argmin == 2 == mp_bad_pair_argmin(alpha, beta, 64, dps=200)


@settings(max_examples=25, deadline=None)
@given(
    a=st.integers(-9, 9),
    b=st.sampled_from([-2, -1, 1, 2]),
    c=st.integers(1, 12),
    d=st.sampled_from([2, 3, 5, 6, 7]),
    d2=st.sampled_from([10, 11, 13]),
    Q=st.integers(1, 3000),
)
def test_bad_pair_argmin_matches_brute_force_on_random_pairs(a, b, c, d, d2, Q):
    alpha, beta = QuadraticSurd(a, b, d, c), QuadraticSurd(c, 1, d2, 7)
    _, argmin = bad_pair_constant(alpha, beta, Q)
    assert argmin == mp_bad_pair_argmin(alpha, beta, Q)


SURDS = st.builds(
    QuadraticSurd,
    a=st.integers(-9, 9),
    b=st.sampled_from([-3, -2, -1, 1, 2, 3]),
    d=st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13]),
    c=st.integers(1, 12),
)


@settings(max_examples=20, deadline=None)
@given(alpha=SURDS, beta=SURDS)
def test_dirichlet_pigeonhole_in_two_dimensions(alpha, beta):
    # for every N some 1 <= q <= N**2 has ||q*alpha|| < 1/N and ||q*beta|| <
    # 1/N, in exact surd arithmetic; the least such q grows with N, so one
    # forward scan finds it for N = 1, ..., 64 in turn
    def close(q, n):
        return all(((x * q).dist_to_int() - Fraction(1, n)).sign() < 0
                   for x in (alpha, beta))

    q = 1
    for n in range(1, 65):
        while q <= n * n and not close(q, n):
            q += 1
        assert q <= n * n, (alpha, beta, n)


def test_bad_pair_memory_does_not_grow_with_q():
    tracemalloc.start()
    try:
        bad_pair_constant(ALPHA, BETA, 2_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


# -- squares -------------------------------------------------------------------


def oracle_squares(beta, delta, N, dps=60):
    hits = []
    with mpmath.workdps(dps):
        b = surd_mpf(beta, dps)
        for n in range(1, N + 1):
            if mp_dist(n * n * b) < mpmath.power(n, -delta):
                hits.append(n)
    return hits


def test_square_search_matches_oracle():
    got = square_approximation_search(BETA, 0.6, 300)
    assert got == oracle_squares(BETA, 0.6, 300)
    assert got[0] == 1  # n = 1 always qualifies: ||beta|| < 1


def test_square_search_threshold_monotone():
    wide = square_approximation_search(BETA, 0.6, 2000)
    narrow = square_approximation_search(BETA, 0.65, 2000)
    assert set(narrow) <= set(wide)


def test_square_search_validates_delta():
    # the float 2/3 sits strictly below the open boundary at its exact
    # binary value and is therefore legal; the exact fraction is not
    for bad in (0.5, 0.7, Fraction(2, 3), Fraction(1, 2)):
        with pytest.raises(ConfigError):
            square_approximation_search(BETA, bad, 10)


def test_square_search_bounds_n():
    with pytest.raises(ConfigError, match="visits every n"):
        square_approximation_search(BETA, Fraction(3, 5), 10**6 + 1)


def float_screen_square_search(beta, delta, N):
    """The square scan as it was before the exact power test: the same
    residue walk and integer window, then a float compare of
    (d - n^2) * 2**-192 with n**-delta * (1 + 1e-12), whose error stays below
    a factor 1 + 2e-15 for n <= 10**6 and 1/2 < delta < 1, and a certified
    comparison with pow_enclosure for every n the float compare leaves."""
    X = fixed_point(beta)
    one, mask = 1 << 192, (1 << 192) - 1
    hits = []
    for lo, hi in dyadic_blocks(N):
        E = math.isqrt(one * one // lo) + 1 + hi * hi
        L, c = 2 * E - 1, E - 1
        t, s = (lo * lo * X + c) & mask, (2 * lo + 1) * X
        for n in range(lo, hi):
            if t < L:
                lower = abs((t - c + one // 2) % one - one // 2) - n * n
                if n == 1:
                    hits.append(1)
                elif lower <= 0 or not (
                    math.ldexp(lower, -192) >= n ** -float(delta) * (1 + 1e-12)
                ):
                    dist = (beta * (n * n)).dist_to_int()
                    threshold = lambda bits, nv=n: pow_enclosure(nv, -delta, bits)
                    if separate(dist.enclosure, threshold) < 0:
                        hits.append(n)
            t = (t + s) & mask
            s += 2 * X
    return hits


SQUARE_DELTAS = st.one_of(
    st.fractions(min_value=Fraction(1, 2), max_value=Fraction(2, 3), max_denominator=64)
    .filter(lambda f: Fraction(1, 2) < f < Fraction(2, 3)),
    # denominators past 64: the test brackets delta first
    st.fractions(min_value=Fraction(501, 1000), max_value=Fraction(333, 500),
                 max_denominator=10**9),
    st.floats(min_value=0.501, max_value=0.666),
)


@settings(max_examples=40, deadline=None)
@given(
    a=st.integers(-20, 20),
    b=st.sampled_from([-3, -2, -1, 1, 2, 3]),
    c=st.integers(1, 30),
    d=st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13]),
    N=st.integers(1, 3000),
    delta=SQUARE_DELTAS,
)
def test_square_search_matches_the_float_screen(a, b, c, d, N, delta):
    x = QuadraticSurd(a, b, d, c)
    assert square_approximation_search(x, delta, N) == float_screen_square_search(
        x, Fraction(delta), N
    )


@pytest.mark.parametrize("sign, hit", [(1, False), (-1, True)])
def test_square_search_settles_a_residue_inside_the_band(monkeypatch, sign, hit):
    # beta = (2**194 - sign + sign*sqrt(2)) / 2**220, so at n = 1024 = 2**10
    # ||n^2 * beta|| = 2**-6 + sign*(sqrt(2) - 1)*2**-200, within 2**-200 of
    # n**(-3/5) = 2**-6: the residue's n^2-ulp band holds the threshold,
    # neither integer test decides, and the certified comparison runs.
    beta = QuadraticSurd(2**194 - sign, sign, 2, 2**220)
    comparisons = []
    monkeypatch.setattr(
        diophantine, "separate",
        lambda *args: comparisons.append(args) or separate(*args),
    )
    got = square_approximation_search(beta, Fraction(3, 5), 1024)
    assert len(comparisons) == 1
    assert (1024 in got) is hit
    assert got == float_screen_square_search(beta, Fraction(3, 5), 1024)


@pytest.mark.parametrize("pair", [0, 1])
def test_square_search_settles_the_benchmark_scan_in_integers(monkeypatch, pair):
    # at delta = 3/5 no threshold n**(-3/5) * 2**192 falls within n^2 ulps of
    # a residue, so the two integer tests decide every n of the window
    def refuse(*args):
        raise AssertionError("a certified comparison ran")

    monkeypatch.setattr(diophantine, "separate", refuse)
    assert len(square_approximation_search(PAIRS[pair][1], Fraction(3, 5), 30000)) > 100


def test_power_bound_brackets_a_large_delta_denominator():
    # b = 10**6: without bracketing delta by the nearest fractions with
    # denominator at most 64, the exact test would build 10**6-th powers
    delta = Fraction(600001, 10**6)
    a, b, one = diophantine._power_bound(delta, min, math.ceil)
    a_lo, b_lo, one_lo = diophantine._power_bound(delta, max, math.floor)
    assert b <= 64 and b_lo <= 64
    assert Fraction(a_lo, b_lo) <= delta <= Fraction(a, b)
    assert (one, one_lo) == (1 << (192 * b), 1 << (192 * b_lo))
    assert diophantine._power_bound(Fraction(3, 5), min, math.ceil) == (3, 5, 1 << 960)


def test_cli_squares_with_a_large_delta_denominator():
    src = os.path.dirname(os.path.dirname(diophantine.__file__))
    out = subprocess.run(
        [sys.executable, "-m", "coblab.cli", "approx", "squares", "--delta",
         "600001/1000000", "--N", str(10**5), "--format", "json"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=300, check=True,
    )
    hits = json.loads(out.stdout)["result"]["hits"]
    assert hits == float_screen_square_search(BETA, Fraction(600001, 10**6), 10**5)


def float_square_prescan_reference(beta, delta, N):
    """The float64 prescan the square scan used before the fixed-point
    screen, then the same exact confirmation of every candidate."""
    beta_f = float(beta.frac().enclosure(96).mid)
    n = np.arange(1, N + 1, dtype=np.float64)
    fa = (n * n * beta_f) % 1.0
    dist = np.minimum(fa, 1.0 - fa)
    margin = max(1e-8, N * N * 2.0**-50)
    thr = n ** (-float(delta)) + margin + 1e-12 * n ** (-float(delta))
    hits = []
    for n_val in (int(v) for v in np.nonzero(dist < thr)[0] + 1):
        dist_surd = (beta * (n_val * n_val)).dist_to_int()
        threshold = lambda bits, nv=n_val: pow_enclosure(nv, -delta, bits)
        if n_val == 1 or separate(dist_surd.enclosure, threshold) < 0:
            hits.append(n_val)
    return hits


@pytest.mark.parametrize("delta", [Fraction(51, 100), Fraction(3, 5), Fraction(13, 20)])
@pytest.mark.parametrize("pair", [0, 1])
def test_square_search_matches_float_prescan_reference_at_1e5(pair, delta):
    beta = PAIRS[pair][1]
    got = square_approximation_search(beta, delta, 10**5)
    assert got == float_square_prescan_reference(beta, delta, 10**5)


def brute_force_squares(x, delta, N):
    """Every n <= N, settled on the exact distance: exact signs drop n with
    ||n^2 x|| >= n**-1/2 and keep n with ||n^2 x|| < n**-2/3; the rest are
    compared with pow_enclosure."""
    hits = [1]
    for n in range(2, N + 1):
        d = (x * (n * n)).dist_to_int()
        if (d * d * n - 1).sign() >= 0:
            continue
        if (d * d * d * (n * n) - 1).sign() < 0:
            hits.append(n)
        elif d.enclosure(512).hi < pow_enclosure(n, -delta, 512).lo:
            hits.append(n)
        else:
            assert d.enclosure(512).lo > pow_enclosure(n, -delta, 512).hi
    return hits


@settings(max_examples=40, deadline=None)
@given(
    a=st.integers(-20, 20),
    b=st.sampled_from([-3, -2, -1, 1, 2, 3]),
    c=st.integers(1, 30),
    d=st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13]),
    N=st.integers(1, 500),
    delta=st.fractions(min_value=Fraction(501, 1000), max_value=Fraction(333, 500),
                       max_denominator=1000),
)
def test_square_search_matches_brute_force(a, b, c, d, N, delta):
    x = QuadraticSurd(a, b, d, c)
    assert square_approximation_search(x, delta, N) == brute_force_squares(x, delta, N)


# -- dependence ----------------------------------------------------------------


def test_dependence_rational_combination():
    beta = (2 * ALPHA + 1) * Fraction(1, 3)
    dep = integer_dependence_search(ALPHA, beta, 5)
    assert (dep.m, dep.n, dep.p) == (2, -3, 1)
    assert ALPHA * dep.m + beta * dep.n + dep.p == 0


def test_dependence_distinct_fields_none():
    assert integer_dependence_search(ALPHA, BETA, 10) is None


def test_dependence_shifted_same_surd():
    a = SQRT2
    b = SQRT2 + 1
    dep = integer_dependence_search(a, b, 3)
    assert (dep.m, dep.n, dep.p) == (1, -1, 1)


def test_dependence_bound_too_small():
    beta = (2 * ALPHA + 1) * Fraction(1, 3)
    assert integer_dependence_search(ALPHA, beta, 1) is None


def brute_force_dependence(alpha, beta, B):
    """The smallest (m, n, p) with m*alpha + n*beta + p = 0 and entries in
    [-B, B], found by testing every triple in order of |m|+|n|+|p|, then |m|,
    |n|, |p|, then positive m first; None if there is none."""
    if alpha.d != beta.d:
        return None
    triples = [
        (m, n, p)
        for m in range(-B, B + 1)
        for n in range(-B, B + 1)
        for p in range(-B, B + 1)
        if (m, n, p) != (0, 0, 0)
    ]
    triples.sort(key=lambda t: (abs(t[0]) + abs(t[1]) + abs(t[2]),
                                abs(t[0]), abs(t[1]), abs(t[2]), t[0] <= 0))
    for m, n, p in triples:
        if alpha * m + beta * n + p == 0:
            return m, n, p
    return None


@settings(max_examples=60, deadline=None)
@given(
    alpha=SURDS,
    other=SURDS,
    lift=st.tuples(st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(-4, 4),
                   st.integers(1, 3)),
    related=st.booleans(),
    B=st.integers(1, 8),
)
# in lowest terms (m, n) = (-1, 1) both times, so the sign flips; in the
# first, p = 1/2 there, so the relation is (2, -2, -1)
@example(alpha=QuadraticSurd(1, 1, 5, 2), other=QuadraticSurd(0, 1, 5, 2),
         lift=(1, 0, 1), related=False, B=2)
@example(alpha=SQRT2, other=SQRT2 + 1, lift=(1, 0, 1), related=False, B=1)
def test_dependence_matches_the_exhaustive_search(alpha, other, lift, related, B):
    # beta = (u*alpha + v)/w shares alpha's field and has a small relation;
    # other shares it with probability 1/8 and otherwise has none
    u, v, w = lift
    beta = (alpha * u + v) * Fraction(1, w) if related else other
    assert integer_dependence_search(alpha, beta, B) == brute_force_dependence(
        alpha, beta, B)


# -- serialization --------------------------------------------------------------


def test_records_csv_roundtrip_shape():
    # the CSV layout of `approx dirichlet` lives in the CLI handler
    records = dirichlet_pair_search(ALPHA, BETA, 50)
    buf = io.StringIO()
    config = ExperimentConfig("approx", "dirichlet", Q=50, format="csv")
    assert run(config, buf) == 0
    lines = [line for line in buf.getvalue().splitlines() if line[:1] != "#"]
    assert lines[0].split(",")[0] == "q"
    assert len(lines) == len(records) + 1
    for line in lines[1:]:
        cells = line.split(",")
        assert int(cells[0]) in DIRICHLET_100
        assert float(cells[1]) <= float(cells[2])
        assert float(cells[5]) <= float(cells[6]) < 1.0
