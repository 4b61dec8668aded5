"""Tests for sparse Fourier series and rotation-operator workflows.

Oracles here are independent high-precision recomputations: phases through
mpmath.expjpi at 60 digits from the surd's own radical, ergodic sums through
literal term-by-term summation of the geometric series. The module under test
never sees these code paths.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from mpmath.libmp import from_rational
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coblab.dyadic import PREC, WorkComplex, phase, to_fraction
from coblab.errors import ConfigError
from coblab.fourier import (
    SparseFourierSeries,
    _kernel_row,
    apply_difference,
    browder_sum_norm,
    coefficient_magnitude_enclosure,
    coefficient_mass,
    divisor_enclosure,
    double_ergodic_sum_norm,
    random_real_series,
    transfer_coefficients,
    unit_phase,
)
from coblab.surd import FP_BITS, FP_MAX_K, FP_ONE, QuadraticSurd, fixed_point, parse_surd
from mpbridge import from_parts, mp_fraction, to_mp
from references import add, apply_rotation, contains, double_solve, solve_coboundary

ALPHA = parse_surd("(-1+1*sqrt(2))/1", label="alpha")
BETA = parse_surd("(-1+1*sqrt(3))/1", label="beta")


def surd_mpf(s):
    """High-precision float of a quadratic surd, recomputed from its parts."""
    return (mpmath.mpf(s.a) + mpmath.mpf(s.b) * mpmath.sqrt(s.d)) / s.c


def phase_oracle(x, n):
    """e(n*x) at the ambient mpmath precision."""
    return mpmath.expjpi(2 * n * surd_mpf(x))


def max_abs_coeff_diff(f, g):
    worst = mpmath.mpf(0)
    for n in set(f.support) | set(g.support):
        worst = max(worst, abs(to_mp(f.coeff(n)) - to_mp(g.coeff(n))))
    return worst


# ---------------------------------------------------------------------------
# exact dyadic conversion


def test_float_coefficients_are_kept_exactly():
    values = [0.1, -2.7335, 1e-12, 123456.75, -0.0]
    for v in values:
        c = WorkComplex(v)
        assert to_fraction(c.re_man, c.re_exp) == Fraction(v)
        assert complex(WorkComplex(v, -v)) == complex(v, -v)


def test_nonfinite_coefficients_are_refused():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            WorkComplex(bad)
    with pytest.raises(ValueError):
        WorkComplex(1.0, math.nan)
    with pytest.raises(TypeError):  # parts are numbers, never decimal strings
        WorkComplex("0.5")


# ---------------------------------------------------------------------------
# series container


def test_constructor_drops_exact_zeros():
    f = SparseFourierSeries({1: 0.5, 2: 0.0, -3: 1j})
    assert f.support == (-3, 1)
    assert len(f) == 2
    assert f.coeff(2) == 0
    assert f.coeff(99) == 0


def test_series_is_immutable():
    f = SparseFourierSeries({1: 1.0})
    with pytest.raises(AttributeError):
        f.real_valued = True


def test_real_valued_validation():
    SparseFourierSeries({1: 0.5 + 0.25j, -1: 0.5 - 0.25j}, real_valued=True)
    SparseFourierSeries({0: 2.0}, real_valued=True)
    with pytest.raises(ValueError):
        SparseFourierSeries({1: 0.5 + 0.25j, -1: 0.5 + 0.25j}, real_valued=True)
    with pytest.raises(ValueError):
        SparseFourierSeries({1: 1.0}, real_valued=True)
    with pytest.raises(ValueError):
        SparseFourierSeries({0: 1j}, real_valued=True)


def test_algebra_matches_dict_arithmetic():
    f = SparseFourierSeries({1: 1.0 + 1j, 2: -0.5})
    g = SparseFourierSeries({2: 0.5, 3: 2j})
    s = add(f, g)
    assert s.support == (1, 3)
    assert s.coeff(1) == f.coeff(1)
    assert s.coeff(2) == 0
    d = add(f, g.scale(-1))
    assert to_mp(d.coeff(2)) == mpmath.mpc(-1.0)
    h = f.scale(2)
    assert to_mp(h.coeff(1)) == mpmath.mpc(2, 2)


def test_scale_with_complex_factor_drops_real_flag():
    f = SparseFourierSeries({1: 1j, -1: -1j}, real_valued=True)
    assert f.scale(0.5).real_valued
    assert not f.scale(1j).real_valued


def test_centered_checks():
    f = SparseFourierSeries({0: 1.0, 1: 1.0})
    assert not f.is_centered()
    with pytest.raises(ValueError):
        f.require_centered()
    assert SparseFourierSeries({1: 1.0}).is_centered()


def test_norms_exact_and_float():
    f = SparseFourierSeries({1: 0.5, -1: 0.5, 3: 0.25j})
    assert f.l2_norm_sq_exact() == Fraction(1, 4) + Fraction(1, 4) + Fraction(1, 16)
    assert f.l2_norm() == pytest.approx(math.sqrt(9 / 16), rel=1e-15)


# The Fraction-valued masses that the integer Parseval mass replaced: each
# part converted to a Fraction, squared and summed in storage order.


def reference_mass(c):
    re = Fraction(c.re_man) * Fraction(2) ** c.re_exp
    im = Fraction(c.im_man) * Fraction(2) ** c.im_exp
    return re * re + im * im


def reference_l2_norm_sq(f):
    return sum(map(reference_mass, f._coeffs.values()), Fraction(0))


# a part with a zero mantissa, or one from a mantissa and an exponent far
# from the other parts' exponents
PART = st.one_of(
    st.just((0, 0)),
    st.tuples(st.integers(min_value=-(2**PREC), max_value=2**PREC),
              st.integers(min_value=-600, max_value=600)),
)


@settings(max_examples=150, deadline=None)
@given(parts=st.dictionaries(
    st.integers(min_value=-50, max_value=50), st.tuples(PART, PART), max_size=12))
@example(parts={})
@example(parts={1: ((0, 0), (3, 0))})
@example(parts={1: ((1, -600), (0, 0)), -2: ((5, 600), (-7, 3))})
def test_exact_mass_matches_the_fraction_sum(parts):
    f = SparseFourierSeries({n: from_parts(*re, *im)
                             for n, (re, im) in parts.items()})
    exact = f.l2_norm_sq_exact()
    assert type(exact) is Fraction
    assert exact == reference_l2_norm_sq(f)
    for c in f._coeffs.values():
        assert coefficient_mass(c) == reference_mass(c)


# ---------------------------------------------------------------------------
# phases and rotations


@pytest.mark.parametrize("n", [1, 2, 7, 164, 24695, 652982, -3, -57649])
def test_unit_phase_matches_oracle(n):
    with mpmath.workdps(60):
        expected = phase_oracle(ALPHA, n)
        got = to_mp(unit_phase(ALPHA, n))
        assert abs(got - expected) < mpmath.mpf("1e-35")
        assert abs(abs(got) - 1) < mpmath.mpf("1e-37")


def test_unit_phase_conjugate_symmetry_exact():
    # compare at working precision so conj itself does not round
    with mpmath.mp.workprec(160):
        for n in (1, 5, 1183):
            assert to_mp(unit_phase(ALPHA, -n)) == mpmath.conj(to_mp(unit_phase(ALPHA, n)))


def test_apply_rotation_matches_oracle_and_preserves_norm():
    f = random_real_series(seed=7, max_freq=8)
    rotated = apply_rotation(f, ALPHA)
    with mpmath.workdps(60):
        for n, c in f.items():
            expected = to_mp(c) * phase_oracle(ALPHA, n)
            assert abs(to_mp(rotated.coeff(n)) - expected) < mpmath.mpf("1e-34")
    assert rotated.real_valued
    assert rotated.l2_norm() == pytest.approx(f.l2_norm(), rel=1e-13)


def test_apply_rotation_requires_irrational():
    f = SparseFourierSeries({1: 1.0})
    from coblab.errors import ConfigError
    from coblab.surd import QuadraticSurd

    with pytest.raises(ConfigError):
        apply_rotation(f, QuadraticSurd(1, 0, 2))


def test_apply_difference_consistency():
    f = random_real_series(seed=11, max_freq=5)
    direct = apply_difference(f, ALPHA)
    composed = add(f, apply_rotation(f, ALPHA).scale(-1))
    assert max_abs_coeff_diff(direct, composed) < mpmath.mpf("1e-36")
    assert direct.real_valued


# ---------------------------------------------------------------------------
# coboundary solves


def test_solve_coboundary_identity_and_report():
    f = random_real_series(seed=3, max_freq=6)
    g = solve_coboundary(f, ALPHA)
    back = apply_difference(g, ALPHA)
    assert max_abs_coeff_diff(back, f) < mpmath.mpf("1e-34")
    assert g.real_valued
    assert g.support == f.support


def test_solve_coboundary_rejects_uncentered():
    f = SparseFourierSeries({0: 1.0, 1: 1.0})
    with pytest.raises(ValueError):
        solve_coboundary(f, ALPHA)


def test_divisor_enclosure_oracle_tightness():
    with mpmath.workdps(60):
        a = surd_mpf(ALPHA)
        for n in (1, 2, 12, 57649):
            enc = divisor_enclosure(ALPHA, n)
            dist = abs(n * a - mpmath.nint(n * a))
            oracle = 2 * mpmath.sin(mpmath.pi * dist)
            assert enc.lo > 0
            assert float(enc.lo) <= float(oracle) <= float(enc.hi) * (1 + 1e-18)
            assert float(enc.width) < 1e-12
    with pytest.raises(ValueError):
        divisor_enclosure(ALPHA, 0)


def test_coefficient_magnitude_enclosure():
    c = WorkComplex(3, 4)
    enc = coefficient_magnitude_enclosure(c)
    assert contains(enc, 5)
    assert float(enc.width) < 1e-30


def test_transfer_identity():
    f = random_real_series(seed=19, max_freq=5)
    g = transfer_coefficients(f, ALPHA, BETA)
    lhs = apply_difference(g, BETA)
    rhs = apply_difference(f, ALPHA)
    assert max_abs_coeff_diff(lhs, rhs) < mpmath.mpf("1e-33")
    assert g.real_valued


def test_double_solve_identity_and_report():
    f = random_real_series(seed=23, max_freq=4)
    h = double_solve(f, ALPHA, BETA)
    back = apply_difference(apply_difference(h, ALPHA), BETA)
    assert max_abs_coeff_diff(back, f) < mpmath.mpf("1e-33")
    assert h.support == f.support


# ---------------------------------------------------------------------------
# ergodic sums


def brute_double_norm(f, x, y, n, m, dps=50):
    """Literal double sum of rotated copies, then the Parseval norm."""
    with mpmath.workdps(dps):
        a = surd_mpf(x)
        b = surd_mpf(y)
        total = mpmath.mpf(0)
        for nu, c in f.items():
            s_a = mpmath.fsum(mpmath.expjpi(2 * k * nu * a) for k in range(n))
            s_b = mpmath.fsum(mpmath.expjpi(2 * j * nu * b) for j in range(m))
            total += abs(to_mp(c) * s_a * s_b) ** 2
        return float(mpmath.sqrt(total))


def brute_single_norm(f, x, n, dps=50):
    with mpmath.workdps(dps):
        a = surd_mpf(x)
        total = mpmath.mpf(0)
        for nu, c in f.items():
            s = mpmath.fsum(mpmath.expjpi(2 * k * nu * a) for k in range(n))
            total += abs(to_mp(c) * s) ** 2
        return float(mpmath.sqrt(total))


@pytest.mark.parametrize("seed,n,m", [(0, 1, 1), (1, 2, 3), (2, 5, 4), (3, 32, 17)])
def test_double_ergodic_sum_norm_against_bruteforce(seed, n, m):
    f = random_real_series(seed=seed, max_freq=6)
    got = double_ergodic_sum_norm(f, ALPHA, BETA, n, m)
    expected = brute_double_norm(f, ALPHA, BETA, n, m)
    assert got == pytest.approx(expected, rel=1e-11)


def test_double_ergodic_sum_norm_constant_mode():
    f = SparseFourierSeries({0: 1.0})
    assert double_ergodic_sum_norm(f, ALPHA, BETA, 7, 9) == pytest.approx(63.0)


def test_double_ergodic_sum_norm_validates_lengths():
    f = SparseFourierSeries({1: 1.0})
    with pytest.raises(ValueError):
        double_ergodic_sum_norm(f, ALPHA, BETA, 0, 5)


@pytest.mark.parametrize("seed,n", [(4, 1), (5, 7), (6, 100)])
def test_browder_sum_norm_against_bruteforce(seed, n):
    f = random_real_series(seed=seed, max_freq=6)
    got = browder_sum_norm(f, ALPHA, n)
    expected = brute_single_norm(f, ALPHA, n)
    assert got == pytest.approx(expected, rel=1e-11)


def test_browder_sum_norm_large_frequency():
    # exact argument reduction keeps kernels accurate at desk-scale products
    f = SparseFourierSeries({652982: 1.0})
    got = browder_sum_norm(f, ALPHA, 1000)
    expected = brute_single_norm(f, ALPHA, 1000, dps=80)
    assert got == pytest.approx(expected, rel=1e-9)


def residue(x, k):
    """The residue of k*x, (k * fixed_point(x)) mod 2**192."""
    return (k * fixed_point(x)) % FP_ONE


def dist_float(x, k):
    """||k*x|| as a float64, from the residue of k*x."""
    t = residue(x, k)
    return math.ldexp(float(min(t, FP_ONE - t)), -FP_BITS)


def reference_kernel_sq(x, nu, n):
    """D(n, nu*x)**2 with n*nu*x reduced afresh, the per-term evaluation."""
    if nu == 0:
        return float(n) * float(n)
    ratio = math.sin(math.pi * dist_float(x, n * nu)) / math.sin(
        math.pi * dist_float(x, nu)
    )
    return ratio * ratio


# Both references sum in storage order, the order the module sums in, so
# equal arithmetic gives equal bits.
def reference_double_norm(f, x, y, n, m):
    total = 0.0
    for nu, c in f._coeffs.items():
        weight = abs(complex(c)) ** 2
        total += weight * reference_kernel_sq(x, nu, n) * reference_kernel_sq(y, nu, m)
    return math.sqrt(total)


def reference_single_norm(f, x, n):
    total = 0.0
    for nu, c in f._coeffs.items():
        total += abs(complex(c)) ** 2 * reference_kernel_sq(x, nu, n)
    return math.sqrt(total)


LENGTHS = (1, 2, 3, 7, 64, 311, 999, 1000, 65537, 10**9)


@pytest.mark.parametrize("seed", [0, 1, 5, 12])
def test_ergodic_norms_bit_identical_to_per_term_kernel(seed):
    base = random_real_series(seed=seed, max_freq=10)
    phi = apply_difference(apply_difference(base, ALPHA), BETA)
    for n in LENGTHS:
        assert browder_sum_norm(phi, ALPHA, n) == reference_single_norm(phi, ALPHA, n)
        for m in (n, n + 1, 17):
            got = double_ergodic_sum_norm(phi, ALPHA, BETA, n, m)
            assert got == reference_double_norm(phi, ALPHA, BETA, n, m)


def test_ergodic_norms_bit_identical_with_zero_frequency():
    f = add(random_real_series(seed=3, max_freq=6),
            SparseFourierSeries({0: 0.75}, True))
    assert 0 in f.support
    wide = SparseFourierSeries({652982: 1.0, -57649: 0.5 + 0.25j, 0: 2.0, 3: 1j})
    for g in (f, wide):
        for n in LENGTHS:
            assert browder_sum_norm(g, BETA, n) == reference_single_norm(g, BETA, n)
            got = double_ergodic_sum_norm(g, BETA, ALPHA, n, 2 * n + 1)
            assert got == reference_double_norm(g, BETA, ALPHA, n, 2 * n + 1)


def test_memoised_tables_keep_series_and_rotations_apart():
    # same support, different coefficients; one series under alpha and beta
    f = random_real_series(seed=8, max_freq=5)
    g = random_real_series(seed=9, max_freq=5)
    assert f.support == g.support
    cases = [(s, x, n) for s in (f, g) for x in (ALPHA, BETA) for n in (13, 400)]
    expected = [reference_single_norm(s, x, n) for s, x, n in cases]
    assert len(set(expected)) == len(cases)
    for _ in range(2):  # the second round finds every table memoised
        for (s, x, n), value in zip(cases, expected):
            assert browder_sum_norm(s, x, n) == value
            assert double_ergodic_sum_norm(s, x, x, n, 1) == value


def test_ergodic_norms_refuse_lengths_past_the_reduction_range():
    f = SparseFourierSeries({-4: 1.0, 2: 0.5})
    limit = FP_MAX_K // 4
    assert math.isfinite(browder_sum_norm(f, ALPHA, limit))
    assert math.isfinite(double_ergodic_sum_norm(f, ALPHA, BETA, limit, limit))
    with pytest.raises(ValueError):
        browder_sum_norm(f, ALPHA, limit + 1)
    with pytest.raises(ValueError):
        double_ergodic_sum_norm(f, ALPHA, BETA, limit + 1, 1)
    with pytest.raises(ValueError):
        double_ergodic_sum_norm(f, ALPHA, BETA, 1, limit + 1)


# Kernel rows are cached per (rotation, sorted distinct |nu|, n) and shared
# by every series with those magnitudes and by both signs of nu.


def assert_norms_exact(f, n, m):
    assert browder_sum_norm(f, ALPHA, n) == reference_single_norm(f, ALPHA, n)
    assert browder_sum_norm(f, BETA, m) == reference_single_norm(f, BETA, m)
    assert double_ergodic_sum_norm(f, ALPHA, BETA, n, m) == reference_double_norm(
        f, ALPHA, BETA, n, m
    )
    assert double_ergodic_sum_norm(f, BETA, ALPHA, m, n) == reference_double_norm(
        f, BETA, ALPHA, m, n
    )


def test_kernel_rows_exact_for_any_storage_order():
    base = random_real_series(seed=14, max_freq=6)
    items = list(base.items())
    for order in (items, items[::-1], items[1::2] + items[::2]):
        f = SparseFourierSeries(dict(order), real_valued=True)
        assert list(f._coeffs) == [nu for nu, _ in order]
        for n in LENGTHS:
            assert_norms_exact(f, n, n + 5)


def test_kernel_rows_exact_with_partial_sign_pairs():
    f = SparseFourierSeries({3: 1.0, -5: 0.5j, 7: 0.25 - 1j, -7: 2.0, 0: -0.75})
    g = SparseFourierSeries({-3: 1.0, 5: -0.5j, 7: 1.5, 0: 0.125})
    for n in LENGTHS:
        assert_norms_exact(f, n, 2 * n + 1)
        assert_norms_exact(g, n, 17)


def test_kernel_rows_shared_across_series_and_rotations():
    f = random_real_series(seed=21, max_freq=7)
    g = SparseFourierSeries({nu: 1.0 + nu * 1j for nu in range(1, 8)})
    for n in (5, 96, 4001, 5, 96):
        assert_norms_exact(f, n, n + 1)
        misses = _kernel_row.cache_info().misses
        assert_norms_exact(g, n, n + 1)
        assert _kernel_row.cache_info().misses == misses  # g reuses f's rows


def test_kernel_row_cache_stays_bounded_and_exact():
    f = SparseFourierSeries({1: 1.0, -2: 0.5j, 9: 0.25})

    def expected(n):
        total = 0.0
        for nu, c in f._coeffs.items():
            total += abs(complex(c)) ** 2 * reference_kernel_sq(ALPHA, nu, n)
        return math.sqrt(total)

    size = _kernel_row.cache_info().maxsize
    for n in range(1, size + 100):
        assert browder_sum_norm(f, ALPHA, n) == expected(n)
    assert _kernel_row.cache_info().currsize <= size
    for n in (1, 2, 77, size + 99):  # evicted and still cached rows
        assert browder_sum_norm(f, ALPHA, n) == expected(n)


def test_checks_run_before_the_kernel_row_cache():
    f = SparseFourierSeries({-4: 1.0, 2: 0.5})
    limit = FP_MAX_K // 4
    _kernel_row.cache_clear()
    assert math.isfinite(browder_sum_norm(f, ALPHA, limit))
    assert math.isfinite(double_ergodic_sum_norm(f, ALPHA, ALPHA, limit, 3))
    assert math.isfinite(double_ergodic_sum_norm(f, ALPHA, ALPHA, 3, 3))
    stored = _kernel_row.cache_info().currsize
    with pytest.raises(ValueError):
        browder_sum_norm(f, ALPHA, limit + 1)
    with pytest.raises(ValueError):
        double_ergodic_sum_norm(f, ALPHA, ALPHA, 3, limit + 1)
    with pytest.raises(ConfigError):
        browder_sum_norm(f, QuadraticSurd(1, 0, 2), 3)
    assert _kernel_row.cache_info().currsize == stored  # no refused row is kept


def test_checks_refuse_every_call_after_a_row_is_cached():
    # the checks run inside the cached _kernel_row, so a stored row must never
    # let a bad call through
    f = SparseFourierSeries({-4: 1.0, 2: 0.5})
    too_long = FP_MAX_K // 4 + 1
    rational = QuadraticSurd(1, 0, 2)
    for _ in range(3):
        assert math.isfinite(browder_sum_norm(f, ALPHA, 5))
        assert math.isfinite(double_ergodic_sum_norm(f, ALPHA, BETA, 5, 7))
        with pytest.raises(ValueError, match="exceeds the exact-reduction range"):
            browder_sum_norm(f, ALPHA, too_long)
        with pytest.raises(ValueError, match="exceeds the exact-reduction range"):
            double_ergodic_sum_norm(f, ALPHA, BETA, 5, too_long)
        with pytest.raises(ConfigError, match="alpha must be irrational"):
            browder_sum_norm(f, rational, 5)
        with pytest.raises(ConfigError, match="beta must be irrational"):
            double_ergodic_sum_norm(f, ALPHA, rational, 5, 7)


# ---------------------------------------------------------------------------
# deterministic random inputs


def test_random_real_series_deterministic_and_normalized():
    f = random_real_series(seed=42, max_freq=10)
    g = random_real_series(seed=42, max_freq=10)
    assert max_abs_coeff_diff(f, g) == 0
    assert f.support == tuple(range(-10, 0)) + tuple(range(1, 11))
    assert f.l2_norm() == pytest.approx(1.0, abs=1e-12)
    assert f.real_valued
    assert f.is_centered()


def test_random_series_differ_across_seeds():
    f = random_real_series(seed=0, max_freq=5)
    g = random_real_series(seed=1, max_freq=5)
    assert max_abs_coeff_diff(f, g) > 0


# ---------------------------------------------------------------------------
# bit identity with mpmath at the working precision
#
# The coefficients once were mpmath numbers at 140 bits, and reports print
# them; every sum, product, scaling and conversion must give the same
# mantissa and exponent. That oracle runs at 140 bits, the precision under
# test, and `_mpc_` tuples compare sign, mantissa, exponent and bit count
# exactly. Phases and quotients are correctly rounded instead: their oracles
# are computed at 400 bits or exactly, and rounded once to 140 bits.

MANTISSA = st.integers(-(1 << PREC) + 1, (1 << PREC) - 1)
# close exponents make rounding ties common; far ones reach the sticky-bit sum
EXPONENT = st.one_of(st.integers(-150, -130), st.integers(-600, 200))
WORK = st.builds(from_parts, MANTISSA, EXPONENT, MANTISSA, EXPONENT)
SURD = st.builds(
    QuadraticSurd,
    st.integers(-60, 60),
    st.integers(1, 30),
    st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13, 19, 61, 97]),
    st.integers(1, 40),
)


def mp_phase(t):
    """e(t * 2**-192) correctly rounded: cos and sin of 2*pi*t*2**-192,
    taken as cospi and sinpi of the exact t*2**-191 at 400 bits, each
    rounded once to PREC bits."""
    with mpmath.workprec(400):
        x = mpmath.ldexp(t, -191)
        c, s = mpmath.cospi(x), mpmath.sinpi(x)
    with mpmath.workprec(PREC):
        return +mpmath.mpc(c, s)


def rounded_quotient(x, y):
    """x / y from the exact rational quotient, each part rounded once to
    PREC bits, to nearest with ties to even."""
    mx, my = to_mp(x), to_mp(y)
    a, b, c, d = map(mp_fraction, (mx.real, mx.imag, my.real, my.imag))
    mag = c * c + d * d
    parts = ((a * c + b * d) / mag, (b * c - a * d) / mag)
    return mpmath.mp.make_mpc(
        tuple(from_rational(q.numerator, q.denominator, PREC, "n") for q in parts)
    )


def assert_bits(got, want):
    # want is rounded to PREC bits here, also for a caller outside
    # workprec(PREC), where mpmath would round it to 53
    with mpmath.workprec(PREC):
        assert to_mp(got)._mpc_ == mpmath.mpc(want)._mpc_


def test_assert_bits_rounds_at_prec_outside_workprec():
    # a 53-bit rounding of this expectation drops its low bits
    with mpmath.workprec(PREC):
        want = mpmath.mpc(mpmath.mpf(((1 << PREC) + 3, -1100)))
    assert_bits(from_parts((1 << PREC) + 3, -1100, 0, 0), want)


# mantissas past PREC bits and exponents past the float range
WIDE_PART = (st.integers(-(1 << 300), 1 << 300), st.integers(-1200, 1200))


@settings(max_examples=200, deadline=None)
@given(parts=st.tuples(*WIDE_PART, *WIDE_PART))
@example(parts=((1 << PREC) + 1, 0, (1 << PREC) + 3, -1100))  # ties to even
def test_from_parts_rounds_like_mpmath(parts):
    # the bridge that builds the coefficients of these tests, at any exponent
    re_man, re_exp, im_man, im_exp = parts
    with mpmath.workprec(PREC):
        want = mpmath.mpc(mpmath.mpf((re_man, re_exp)), mpmath.mpf((im_man, im_exp)))
        assert_bits(from_parts(*parts), want)


@settings(max_examples=150, deadline=None)
@given(t=st.integers(1, (1 << 192) - 1))
# residues where an earlier, not correctly rounded phase was off by an ulp
@example(t=183269814127341280839353737989248260055829441598177103686)
@example(t=721069625247378937753501259505062410797896599528666169908)
@example(t=518040960123750238814066036451670649599188285189141283367)
# the extremes of the range and exact quarter turns, the hardest reductions
@example(t=1)
@example(t=(1 << 192) - 1)
@example(t=1 << 190)
@example(t=2 << 190)
@example(t=3 << 190)
def test_phase_of_residue_matches_mpmath(t):
    with mpmath.workprec(PREC):
        assert_bits(phase(t), mp_phase(t))


@settings(max_examples=150, deadline=None)
@given(
    quadrant=st.integers(1, 3),
    scale=st.integers(0, 170),
    offset=st.integers(1, 1 << 170),
    below=st.booleans(),
)
def test_phase_near_quadrant_ends_matches_mpmath(quadrant, scale, offset, below):
    # next to a quarter turn one part is tiny and needs the widest precision
    offset = 1 + offset % (1 << scale)
    t = (quadrant << 190) + (-offset if below else offset)
    with mpmath.workprec(PREC):
        assert_bits(phase(t), mp_phase(t))


@settings(max_examples=120, deadline=None)
@given(alpha=SURD, n=st.integers(1, FP_MAX_K), negative=st.booleans())
def test_unit_phase_matches_mpmath_bit_for_bit(alpha, n, negative):
    t = residue(alpha, n)
    with mpmath.workprec(PREC):
        want = mp_phase(t)
        if negative:
            want, n = mpmath.conj(want), -n
        assert_bits(unit_phase(alpha, n), want)


def test_unit_phase_matches_mpmath_for_small_n():
    with mpmath.workprec(PREC):
        for n in range(1, 1500):
            assert_bits(unit_phase(ALPHA, n), mp_phase(residue(ALPHA, n)))


# quotients whose PREC-bit result changes when |y|**2 and the numerators are
# first cut to PREC + 10 bits: truncated (the first) or rounded to nearest
# (the other two)
DIVISION_EXAMPLES = [
    (
        (1085755120518394502976681313881009173749011, -144,
         375552290766736976326725458701415638042807, -139),
        (37446808791991391813352164464682519359705, -127,
         -1128538754982438400176565571400690017078731, -148),
    ),
    (
        (118336144147350354148337372310989040382897, -135,
         -666493651915636509965502235299019068470203, -141),
        (143102846045625445118626534239776561599077, -148,
         807828889321388818248311215701249115175687, -132),
    ),
    (
        (-2485507241239440969573870589908474579023, -146,
         714500216808310259913439307986641940617391, -134),
        (-99122216131600007093760041132307148571729, -149,
         339789330764269665881684284522852282299639, -129),
    ),
]


@settings(max_examples=300, deadline=None)
@given(x=WORK, y=WORK, real=st.floats(allow_nan=False, allow_infinity=False))
# (2**140 - 1) + 2 lies halfway between two 140-bit numbers: ties go to even
@example(
    x=from_parts((1 << PREC) - 1, 0, 1, 0),
    y=from_parts(1, 1, (1 << PREC) - 1, -1),
    real=0.5,
)
def test_arithmetic_matches_mpmath_bit_for_bit(x, y, real):
    mx, my = to_mp(x), to_mp(y)
    with mpmath.workprec(PREC):
        assert_bits(x + y, mx + my)
        assert_bits(x + (-y), mx - my)
        assert_bits(x * y, mx * my)
        assert_bits(1 - x, 1 - mx)
        assert_bits(x.conj(), mpmath.conj(mx))
        scaled = SparseFourierSeries({1: x}).scale(real).coeff(1)
        assert_bits(scaled, mx * mpmath.mpc(real))
        if y:
            assert_bits(x / y, rounded_quotient(x, y))


@pytest.mark.parametrize("x,y", DIVISION_EXAMPLES)
def test_division_is_correctly_rounded(x, y):
    x, y = from_parts(*x), from_parts(*y)
    with mpmath.workprec(PREC):
        assert_bits(x / y, rounded_quotient(x, y))


@settings(max_examples=200, deadline=None)
@given(
    num=st.integers(-(10**60), 10**60),
    den=st.one_of(st.integers(1, 10**60), st.integers(0, 300).map(lambda k: 1 << k)),
)
def test_from_fraction_matches_mpmath_bit_for_bit(num, den):
    value = Fraction(num, den)
    with mpmath.workprec(PREC):
        want = mpmath.mpf(value.numerator) / value.denominator
        assert_bits(WorkComplex.from_fraction(value), want)


@settings(max_examples=300, deadline=None)
@given(x=WORK)
def test_decimal_strings_match_mpmath(x):
    mx = to_mp(x)
    re, im = x.to_strings()
    assert (re, im) == (mpmath.nstr(mx.real, 36), mpmath.nstr(mx.imag, 36))
