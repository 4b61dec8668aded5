"""Acceptance checks for the laboratory as a whole.

Ten end-to-end criteria, one test each: the flagship construction with its
two certificates and the joint identity, the spectral dichotomy on its
difference, seeded boundedness of double and single ergodic sums, exactness
of the commuting-endomorphism variance, oracle agreement of the fast norm
evaluators, Diophantine soundness against high-precision oracles, the
lattice shift example, the dependence-and-lift route, and the square
approximation search. Every test finishes by printing a single pass/fail
line (visible with -s; the verbose test report carries the same verdicts).
"""

import random
import time
from collections import Counter
from fractions import Fraction

import mpmath
import pytest

from coblab.certify import Enclosure, pi_enclosure, sqrt_enclosure
from coblab.constructions import build_joint_not_double
from coblab.diophantine import (
    dirichlet_pair_search,
    square_approximation_search,
)
from coblab.fourier import (
    apply_difference,
    browder_sum_norm,
    coefficient_magnitude_enclosure,
    divisor_enclosure,
    double_ergodic_sum_norm,
    random_real_series,
)
from coblab.shift_example import build_h, divergence_certificate, lp_partial_norm
from coblab.spectral import criterion_sum, spectral_measure
from coblab.surd import dist_enclosure, parse_surd
from mpbridge import mp_fraction
from references import (
    add,
    apply_rotation,
    common_generator,
    double_solve,
    integer_dependence_search,
    power_lift_joint,
    solve_coboundary,
)

ALPHA = parse_surd("(-1+1*sqrt(2))/1", label="alpha")
BETA = parse_surd("(-1+1*sqrt(3))/1", label="beta")


def _report(number: int, description: str, checks) -> None:
    """Print one pass/fail line for a criterion, then assert it."""
    failed = [name for name, ok in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    print(f"criterion {number:02d} {status}: {description}")
    assert not failed, f"criterion {number} failing checks: {failed}"


@pytest.fixture(scope="module")
def flagship():
    start = time.perf_counter()
    result = build_joint_not_double(ALPHA, BETA, K=10, Q=10**6)
    return result, time.perf_counter() - start


def test_criterion_01_flagship_certificates(flagship):
    result, build_elapsed = flagship
    start = time.perf_counter()
    qs = list(result.q_sequence)
    checks = [("ten construction terms", len(qs) == 10)]

    joint = next(
        c for c in result.certificates if c.kind == "joint-upper-bound"
    )
    summable = next(
        e
        for e in joint.entries
        if e.comparison == "<=" and "q_k**-1/2" in e.description
        and "|g_hat" in e.description
    )
    checks.append(
        ("summability certificate strict",
         summable.value.hi < summable.threshold.lo)
    )
    checks.append(("joint certificate verdict", joint.verdict))

    # recompute both sides of the summability comparison from the emitted g
    pi_enc = pi_enclosure(200)
    g_sum = Enclosure.point(0)
    budget = Enclosure.point(0)
    for q in qs:
        g_sum = g_sum + coefficient_magnitude_enclosure(result.g.coeff(q))
        budget = budget + sqrt_enclosure(Fraction(1, q), 200)
    budget = budget * (pi_enc / 2)
    checks.append(("recomputed sums strict", g_sum.hi < budget.lo))

    # solve phi = (I - T_alpha) f as a double coboundary and bracket |h_hat|
    phi = apply_difference(result.f, ALPHA)
    h = double_solve(phi, ALPHA, BETA)
    checks.append(("h support matches the q sequence", set(h.support) == set(qs)))

    double_cert = next(
        c for c in result.certificates if c.kind == "double-lower-bound"
    )
    checks.append(("double certificate verdict", double_cert.verdict))
    lower = Enclosure.point(1) / (2 * pi_enc)
    bracketed = widths_ok = consistent = True
    for q in qs:
        mag = coefficient_magnitude_enclosure(result.f.coeff(q))
        enc = mag / divisor_enclosure(BETA, q)
        widths_ok = widths_ok and enc.width <= Fraction(1, 10**10)
        bracketed = bracketed and enc.lo >= lower.hi and enc.hi <= Fraction(1, 4)
        direct = coefficient_magnitude_enclosure(h.coeff(q))
        consistent = consistent and max(enc.lo, direct.lo) <= min(
            enc.hi, direct.hi
        )
    checks.append(("every |h_hat| within [1/(2*pi), 1/4]", bracketed))
    checks.append(("|h_hat| enclosure widths within 1e-10", widths_ok))
    checks.append(("closed-form magnitudes match the solved series", consistent))

    lhs = apply_difference(result.f, ALPHA)
    rhs = apply_difference(result.g, BETA)
    identity = True
    for n in set(lhs.support) | set(rhs.support):
        left = complex(lhs.coeff(n))
        right = complex(rhs.coeff(n))
        identity = identity and abs(left - right) <= 1e-12 * max(
            abs(left), abs(right)
        )
    checks.append(("joint identity within 1e-12 relative", identity))

    elapsed = build_elapsed + (time.perf_counter() - start)
    checks.append(("runtime within 60 s", elapsed <= 60.0))
    _report(
        1,
        "flagship construction: strict summability, |h_hat| bracket, "
        "joint identity (K=10, Q=10^6)",
        checks,
    )


def test_criterion_02_spectral_dichotomy(flagship):
    result, _ = flagship
    phi = apply_difference(result.f, ALPHA)
    measure = spectral_measure(phi, ALPHA, BETA)
    alpha_side = criterion_sum(measure, 1, 0)
    beta_side = criterion_sum(measure, 0, 1)
    joint = alpha_side.value + beta_side.value
    double = criterion_sum(measure, 1, 1)
    pi_sq = pi_enclosure(200).square()

    checks = [
        ("no mass at frequency zero",
         not alpha_side.divergent and not beta_side.divergent
         and not double.divergent),
        ("one atom per construction term", len(alpha_side.terms) == 10),
    ]
    increments = True
    for (q, a), (_, b) in zip(alpha_side.terms, beta_side.terms):
        term = a + b
        dist_a = dist_enclosure(ALPHA, q, abs_tol=Fraction(1, 10**30))
        cap = Enclosure.point(Fraction(1, q)) + pi_sq * dist_a.square() * Fraction(1, 4)
        increments = increments and term.hi <= cap.lo
    checks.append(
        ("joint increments within 1/q + (pi^2/4)*||q*alpha||^2", increments)
    )
    checks.append(("joint partial sum finite", float(joint.hi) < 4.0))

    threshold = Enclosure.point(Fraction(10)) / (pi_sq * 4)
    checks.append(
        ("double partial sum at least 10/(4*pi^2)",
         double.value.lo >= threshold.hi)
    )
    checks.append(("double partial sum at least 0.2533",
                   float(double.value.lo) >= 0.2533))
    _report(
        2,
        "spectral dichotomy of (I - T_alpha) f: summable joint criterion, "
        "divergent double criterion",
        checks,
    )


def test_criterion_03_double_difference_boundedness():
    start = time.perf_counter()
    within = True
    for seed in range(100):
        h = random_real_series(seed, 10)
        phi = apply_difference(apply_difference(h, ALPHA), BETA)
        bound = 4 * h.l2_norm() + 1e-9
        peak = max(
            double_ergodic_sum_norm(phi, ALPHA, BETA, n, n)
            for n in range(1, 1001)
        )
        within = within and peak <= bound
    elapsed = time.perf_counter() - start
    checks = [
        ("100 seeds within 4*||h|| + 1e-9 for all n <= 1000", within),
        ("runtime within 120 s", elapsed <= 120.0),
    ]
    _report(
        3,
        "double ergodic sums of (I - T_alpha)(I - T_beta) h stay within "
        "4*||h||",
        checks,
    )


def test_criterion_04_browder_bound():
    within = True
    for seed in range(100):
        g = random_real_series(seed, 10)
        f = apply_difference(g, ALPHA)
        bound = 2 * g.l2_norm() + 1e-9
        peak = max(browder_sum_norm(f, ALPHA, n) for n in range(1, 1001))
        within = within and peak <= bound
    checks = [("100 seeds within 2*||g|| + 1e-9 for all n <= 1000", within)]
    _report(
        4,
        "one-sided ergodic sums of (I - T_alpha) g stay within 2*||g||",
        checks,
    )


def test_criterion_05_doubling_tripling_exactness():
    # x -> 2x and x -> 3x carry one harmonic through the frequencies
    # v = 2**i * 3**j, i, j < n. By orthogonality the squared norm of the
    # normalized n-by-n double average is the sum over v of mult(v)**2 / n**2,
    # where mult(v) counts the pairs (i, j) that land on v.
    start = time.perf_counter()
    values = []
    for n in range(1, 65):
        mult = Counter(2**i * 3**j for i in range(n) for j in range(n))
        values.append(Fraction(sum(m * m for m in mult.values()), n * n))
    elapsed = time.perf_counter() - start
    checks = [
        ("exact rationals", all(isinstance(v, Fraction) for v in values)),
        ("variance exactly 1 for every n <= 64", all(v == 1 for v in values)),
        ("runtime within 5 s", elapsed <= 5.0),
    ]
    _report(
        5,
        "commuting endomorphism square averages have exact unit variance",
        checks,
    )


def _summed_series_norm(f, n: int, m: int) -> float:
    """Literal summed-series oracle for the double ergodic sum norm."""
    inner = None
    term = f
    for _ in range(m):
        inner = term if inner is None else add(inner, term)
        term = apply_rotation(term, BETA)
    outer = None
    term = inner
    for _ in range(n):
        outer = term if outer is None else add(outer, term)
        term = apply_rotation(term, ALPHA)
    return outer.l2_norm()


def test_criterion_06_kernel_norm_matches_summed_series():
    rng = random.Random(2026)
    worst = 0.0
    for seed in range(50):
        f = random_real_series(1000 + seed, 6)
        pairs = [(rng.randrange(1, 33), rng.randrange(1, 33)), (32, 32), (1, 1)]
        for n, m in pairs:
            fast = double_ergodic_sum_norm(f, ALPHA, BETA, n, m)
            slow = _summed_series_norm(f, n, m)
            worst = max(worst, abs(fast - slow))
    checks = [("50 seeds agree within 1e-9 for n, m <= 32", worst <= 1e-9)]
    _report(
        6,
        f"kernel evaluation matches the summed-series oracle "
        f"(worst gap {worst:.3e})",
        checks,
    )


def test_criterion_07_diophantine_soundness():
    rng = random.Random(14)
    nonsquares = (2, 3, 5, 6, 7, 10, 11, 13, 15)
    contained = True
    for _ in range(20):
        q = rng.randrange(1, 10**6)
        a = rng.randrange(-3, 4)
        b = rng.randrange(1, 4)
        c = rng.randrange(1, 6)
        d = rng.choice(nonsquares)
        x = parse_surd(f"({a}+{b}*sqrt({d}))/{c}")
        enc = dist_enclosure(x, q, abs_tol=Fraction(1, 10**30))
        with mpmath.workdps(200):
            value = mpmath.mpf(q) * (a + b * mpmath.sqrt(d)) / c
            frac_part = value - mpmath.floor(value)
            oracle = mp_fraction(min(frac_part, 1 - frac_part))
        contained = contained and enc.lo <= oracle <= enc.hi
    checks = [("20 seeded enclosures contain the 200-digit oracle", contained)]

    records = dirichlet_pair_search(ALPHA, BETA, 10**4)
    qs = [r.q for r in records]
    checks.append(("simultaneous search nonempty", len(records) > 0))
    checks.append(("q = 2 and q = 5 among the records", 2 in qs and 5 in qs))
    certified = all(
        max(r.dist_alpha.hi, r.dist_beta.hi) ** 2 * r.q < 1 for r in records
    )
    checks.append(("every record certified below q**-1/2", certified))
    _report(
        7,
        "distance enclosures sound at 200 digits; simultaneous denominators "
        "certified",
        checks,
    )


def test_criterion_08_lattice_shift():
    start = time.perf_counter()
    h2 = build_h(2)
    norm = lp_partial_norm(h2, 10**6)
    with mpmath.workdps(60):
        oracle = mp_fraction(mpmath.pi**2 / 6 - mpmath.zeta(3))
    checks = [
        ("l_2 total encloses pi^2/6 - zeta(3)",
         norm.total.lo <= oracle <= norm.total.hi),
        ("l_2 total width within 1e-6", norm.total.width <= Fraction(1, 10**6)),
    ]

    reports = [divergence_certificate(2, k) for k in (100, 1000, 10**4)]
    lows = [r.row_sum_lower.lo for r in reports]
    checks.append(("row-sum lower bound at least 30 at K = 10^4", lows[2] >= 30))
    checks.append(("row-sum lower bound monotone in K", lows[0] < lows[1] < lows[2]))
    final = reports[2]
    checks.append(("bounded exponent is 5", final.bounded_exponent == 5))
    checks.append(
        ("l_5 partial sums certified bounded",
         final.certificate.verdict and float(final.lr_partial.hi) < 100.0)
    )
    elapsed = time.perf_counter() - start
    checks.append(("runtime within 30 s", elapsed <= 30.0))
    _report(
        8,
        "lattice shift: certified l_2 mass, divergent row sums, bounded l_5",
        checks,
    )


def test_criterion_09_dependence_and_lift():
    beta = parse_surd("(-1+2*sqrt(2))/3", label="beta")
    dep = integer_dependence_search(ALPHA, beta, 5)
    checks = [
        ("dependence (2, -3, 1) found",
         dep is not None and (dep.m, dep.n, dep.p) == (2, -3, 1)),
    ]
    gamma, k, j = common_generator(ALPHA, dep)
    checks.append(("generator powers (k, j) = (3, 2)", (k, j) == (3, 2)))

    u = random_real_series(9, 6)
    u_x = solve_coboundary(u, gamma)
    u_y = solve_coboundary(u, beta)  # j*gamma and beta differ by 1
    v = power_lift_joint(u_x, u_y, gamma, k, j)

    lhs = apply_difference(u_x, ALPHA)
    rhs = None
    term = apply_difference(u_y, beta)
    for _ in range(k):
        rhs = term if rhs is None else add(rhs, term)
        term = apply_rotation(term, gamma)
    scale = max(1.0, u_x.l2_norm(), u_y.l2_norm())
    agree = True
    for n in set(v.support) | set(lhs.support) | set(rhs.support):
        a_rep = abs(complex(v.coeff(n)) - complex(lhs.coeff(n)))
        b_rep = abs(complex(v.coeff(n)) - complex(rhs.coeff(n)))
        agree = agree and max(a_rep, b_rep) <= 1e-12 * scale
    checks.append(("both coboundary representations agree within 1e-12", agree))
    _report(
        9,
        "dependent pair reduces to one generator and the lift matches both "
        "representations",
        checks,
    )


def test_criterion_10_square_approximation():
    hits_06 = square_approximation_search(ALPHA, Fraction(3, 5), 10**4)
    hits_065 = square_approximation_search(ALPHA, Fraction(13, 20), 10**4)
    verified = True
    with mpmath.workdps(60):
        root2 = mpmath.sqrt(2)
        for n in hits_06:
            if n == 1:
                continue
            value = n * n * (root2 - 1)
            frac_part = value - mpmath.floor(value)
            dist = min(frac_part, 1 - frac_part)
            verified = verified and dist < mpmath.mpf(n) ** (
                -mpmath.mpf(3) / 5
            )
    checks = [
        ("delta = 0.6 list nonempty", len(hits_06) > 0),
        ("delta = 0.65 hits form a subset of the delta = 0.6 hits",
         set(hits_065) <= set(hits_06)),
        ("every hit confirmed at 60 digits", verified),
    ]
    _report(
        10,
        f"square approximation search: {len(hits_06)} hits at delta = 0.6, "
        f"{len(hits_065)} at delta = 0.65",
        checks,
    )
