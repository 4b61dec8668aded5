"""Tests for atomic spectral measures and rate diagnostics.

Oracles: change-of-variables identities evaluated with exact rational
arithmetic (membership integrals of difference images must reproduce exact
Parseval masses), 40-digit mpmath recomputations of single-atom integrands,
and literal Dirichlet-kernel products for the one-mode rate profile.
"""

import io
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coblab.cli import ExperimentConfig, run
from coblab.constructions import build_joint_not_double
from coblab.errors import ConfigError
from coblab.fourier import (
    SparseFourierSeries,
    apply_difference,
    double_ergodic_sum_norm,
    random_real_series,
)
from coblab.spectral import (
    cesaro_rate_profile,
    criterion_sum,
    doubling_tripling_variance,
    spectral_measure,
)
from coblab.surd import COEFFICIENT_LIMIT, RADICAND_LIMIT, QuadraticSurd, parse_surd
from mpbridge import mp_fraction
from references import add, contains

ALPHA = parse_surd("(-1+1*sqrt(2))/1", label="alpha")
BETA = parse_surd("(-1+1*sqrt(3))/1", label="beta")


def surd_mpf(s):
    return (mpmath.mpf(s.a) + mpmath.mpf(s.b) * mpmath.sqrt(s.d)) / s.c


def dist_oracle(x, q):
    with mpmath.workdps(40):
        t = mpmath.frac(q * surd_mpf(x))
        return min(t, 1 - t)


# ---------------------------------------------------------------------------
# measure construction


def test_measure_one_atom_per_frequency():
    f = SparseFourierSeries({1: 1, 2: 0.5})
    m = spectral_measure(f, ALPHA, BETA)
    assert len(m) == 2
    assert [atom.n for atom in m] == [1, 2]


def test_measure_total_mass_is_parseval():
    f = random_real_series(11, 9)
    m = spectral_measure(f, ALPHA, BETA)
    assert sum(atom.mass for atom in m) == f.l2_norm_sq_exact()


def test_measure_constant_function():
    f = SparseFourierSeries({0: 0.5 + 0.25j})
    m = spectral_measure(f, ALPHA, BETA)
    assert len(m) == 1
    atom = m[0]
    assert atom.n == 0
    assert atom.mass == Fraction(1, 4) + Fraction(1, 16)
    assert atom.div_alpha_sq.hi == 0


def test_measure_divisors_exclude_zero_off_center():
    f = SparseFourierSeries({5: 1, -3: 2})
    m = spectral_measure(f, ALPHA, BETA)
    for atom in m:
        assert atom.div_alpha_sq.lo > 0
        assert atom.div_beta_sq.lo > 0


def test_measure_atom_order_is_by_absolute_frequency():
    f = SparseFourierSeries(
        {7: 1, -2: 1, 2: 1}
    )
    m = spectral_measure(f, ALPHA, BETA)
    assert [a.n for a in m] == [-2, 2, 7]


# ---------------------------------------------------------------------------
# membership integrals


def test_coboundary_integral_change_of_variables():
    g = random_real_series(3, 6)
    f = apply_difference(g, ALPHA)
    m = spectral_measure(f, ALPHA, BETA)
    result = criterion_sum(m, 1, 0)
    exact = g.l2_norm_sq_exact()
    assert not result.divergent
    assert result.value.lo <= exact <= result.value.hi
    assert float(result.value.width) < 1e-30


def test_coboundary_integral_single_mode_value():
    f = SparseFourierSeries({1: 1})
    m = spectral_measure(f, ALPHA, BETA)
    result = criterion_sum(m, 1, 0)
    with mpmath.workdps(40):
        oracle = 1 / (2 * mpmath.sinpi(dist_oracle(ALPHA, 1))) ** 2
    assert abs(float(result.value.mid) - float(oracle)) < 1e-12
    assert abs(float(result.value.mid) - 0.26910) < 1e-4


def test_coboundary_integral_divergent_at_zero_mass():
    f = SparseFourierSeries({0: 2, 3: 1})
    m = spectral_measure(f, ALPHA, BETA)
    result = criterion_sum(m, 1, 0)
    assert result.divergent
    assert len(result.terms) == 1  # the finite part is still reported


def sides(m):
    """The two one-sided integrals, whose sum is the joint criterion."""
    return criterion_sum(m, 1, 0), criterion_sum(m, 0, 1)


def test_joint_criterion_is_sum_of_sides():
    # atom by atom, the two sides add up to the joint integrand
    # mass * (d_a + d_b) / (d_a * d_b), enclosed here from the same divisors
    f = random_real_series(17, 8)
    m = spectral_measure(f, ALPHA, BETA)
    alpha_side, beta_side = sides(m)
    total = Fraction(0)
    for atom, (n, a), (n_b, b) in zip(m, alpha_side.terms, beta_side.terms):
        assert atom.n == n == n_b
        da, db = atom.div_alpha_sq, atom.div_beta_sq
        joint = (atom.mass * (da + db)) / (da * db)
        both = a + b
        assert joint.lo <= both.lo <= both.hi <= joint.hi
        total += both.mid
    recombined = alpha_side.value + beta_side.value
    assert recombined.lo <= total <= recombined.hi


def test_joint_criterion_empty_measure():
    m = spectral_measure(SparseFourierSeries({}), ALPHA, BETA)
    alpha_side, beta_side = sides(m)
    assert (alpha_side.value + beta_side.value).hi == 0
    assert alpha_side.terms == beta_side.terms == ()
    assert not alpha_side.divergent and not beta_side.divergent


# parse_surd's whole input range
coefficients = st.integers(-COEFFICIENT_LIMIT + 1, COEFFICIENT_LIMIT - 1)
SURDS = st.builds(
    QuadraticSurd,
    coefficients,
    coefficients.filter(bool),
    st.integers(2, RADICAND_LIMIT).filter(lambda d: math.isqrt(d) ** 2 != d),
    coefficients.filter(bool),
)


def mp_divisor_sq(x, n):
    """|1 - e(n*x)|**2 = 4*sin(pi*n*x)**2 at the ambient mpmath precision."""
    value = (mpmath.mpf(x.a) + x.b * mpmath.sqrt(x.d)) / x.c
    return 4 * mpmath.sinpi(n * value) ** 2


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), max_freq=st.integers(1, 6),
       alpha=SURDS, beta=SURDS)
@example(seed=17, max_freq=8, alpha=ALPHA, beta=BETA)
def test_joint_criterion_contains_the_summed_joint_integrand(
        seed, max_freq, alpha, beta):
    # the sum of the two sides holds sum of mass * (d_a + d_b) / (d_a * d_b),
    # with the divisors recomputed at 300 bits from the surds' radicals
    m = spectral_measure(random_real_series(seed, max_freq), alpha, beta)
    alpha_side, beta_side = sides(m)
    with mpmath.workprec(300):
        oracle = mpmath.mpf(0)
        for atom in m:
            da, db = mp_divisor_sq(alpha, atom.n), mp_divisor_sq(beta, atom.n)
            mass = mpmath.mpf(atom.mass.numerator) / atom.mass.denominator
            oracle += mass * (da + db) / (da * db)
    assert contains(alpha_side.value + beta_side.value, mp_fraction(oracle))


def test_double_criterion_change_of_variables():
    h = random_real_series(7, 5)
    phi = apply_difference(apply_difference(h, ALPHA), BETA)
    m = spectral_measure(phi, ALPHA, BETA)
    result = criterion_sum(m, 1, 1)
    exact = h.l2_norm_sq_exact()
    assert result.value.lo <= exact <= result.value.hi


def test_double_criterion_flags_zero_atom():
    m = spectral_measure(SparseFourierSeries({0: 1}), ALPHA, BETA)
    assert criterion_sum(m, 1, 1).divergent


# ---------------------------------------------------------------------------
# the constructed obstruction seen through the measure


@pytest.fixture(scope="module")
def pipeline_atoms():
    result = build_joint_not_double(ALPHA, BETA, K=10, Q=10**6)
    phi = apply_difference(result.f, ALPHA)
    return result, spectral_measure(phi, ALPHA, BETA)


def test_pipeline_double_terms_have_uniform_floor(pipeline_atoms):
    _, m = pipeline_atoms
    floor = 1 / (4 * math.pi**2)
    ledger = criterion_sum(m, 1, 1)
    assert len(ledger.terms) == 10
    for _, term in ledger.terms:
        assert float(term.lo) >= floor - 1e-15
    assert float(ledger.value.lo) >= 10 * floor - 1e-12


def test_pipeline_joint_increments_are_summable(pipeline_atoms):
    result, m = pipeline_atoms
    alpha_side, beta_side = sides(m)
    for (n, a), (_, b) in zip(alpha_side.terms, beta_side.terms):
        term = a + b
        q = abs(n)
        da = float(dist_oracle(ALPHA, q))
        bound = 1 / q + math.pi**2 / 4 * da * da
        assert float(term.hi) <= bound * (1 + 1e-12)


def test_pipeline_double_average_bound(pipeline_atoms):
    # Prop-style bound: the n-by-n double sum of phi is controlled by
    # 4*sqrt(double criterion sum) whenever the double solve exists; here it
    # exists for the truncation, so check the certified inequality at n=100
    h = random_real_series(23, 6)
    phi = apply_difference(apply_difference(h, ALPHA), BETA)
    m = spectral_measure(phi, ALPHA, BETA)
    cap = 4 * math.sqrt(float(criterion_sum(m, 1, 1).value.hi))
    for n in (1, 7, 31, 100):
        assert double_ergodic_sum_norm(phi, ALPHA, BETA, n, n) <= cap + 1e-9


# ---------------------------------------------------------------------------
# rate profiles


def test_profile_constant_mode():
    c = SparseFourierSeries({0: 0.5})
    profile = cesaro_rate_profile(c, ALPHA, BETA, [1, 4, 16])
    for n, per_n, per_n_sq in profile:
        assert abs(per_n - 0.5 * n) < 1e-12
        assert abs(per_n_sq - 0.5) < 1e-12


def test_profile_single_mode_matches_kernel_product():
    nu = 3
    f = SparseFourierSeries({nu: 1})
    (row,) = cesaro_rate_profile(f, ALPHA, BETA, [8])
    with mpmath.workdps(40):
        ka = abs(mpmath.fsum(
            mpmath.expjpi(2 * k * nu * surd_mpf(ALPHA)) for k in range(8)
        ))
        kb = abs(mpmath.fsum(
            mpmath.expjpi(2 * k * nu * surd_mpf(BETA)) for k in range(8)
        ))
        oracle = float(ka * kb / 8)
    assert abs(row[1] - oracle) < 1e-9


def test_profile_coboundary_sum_decays():
    g = random_real_series(5, 6)
    h = random_real_series(6, 6)
    f = add(apply_difference(g, ALPHA), apply_difference(h, BETA))
    profile = cesaro_rate_profile(f, ALPHA, BETA, [2, 8, 32, 128, 512])
    rates = [per_n for _, per_n, _ in profile]
    assert rates[-1] < rates[0]
    assert rates[-1] < 0.1 * rates[0]


def test_profile_sorts_and_dedupes():
    f = SparseFourierSeries({1: 1})
    profile = cesaro_rate_profile(f, ALPHA, BETA, [8, 2, 8])
    assert [n for n, _, _ in profile] == [2, 8]
    with pytest.raises(ConfigError):
        cesaro_rate_profile(f, ALPHA, BETA, [])
    with pytest.raises(ConfigError):
        cesaro_rate_profile(f, ALPHA, BETA, [0])


# ---------------------------------------------------------------------------
# doubling/tripling variance


def test_variance_small_cases():
    assert doubling_tripling_variance(1) == 1
    assert doubling_tripling_variance(4) == 1


def test_variance_exact_value_is_rational_one():
    value = doubling_tripling_variance(64)
    assert isinstance(value, Fraction)
    assert value == Fraction(1)


def test_variance_guards():
    with pytest.raises(ConfigError):
        doubling_tripling_variance(0)
    assert doubling_tripling_variance(128) == 1


def test_doubling_tripling_exponents_are_distinct():
    # the orthogonality behind the unit variance: 2**k * 3**j are pairwise
    # distinct, checked exactly over the block the CLI reports (n <= 64)
    exponents = {2**k * 3**j for k in range(64) for j in range(64)}
    assert len(exponents) == 64 * 64


# ---------------------------------------------------------------------------
# CSV emission


# The CSV layouts live in the CLI handlers; these run the subcommands on the
# flagship series at K = 4, Q = 300 and read the rows back.


def csv_lines(**fields):
    buf = io.StringIO()
    assert run(ExperimentConfig(K=4, Q=300, format="csv", **fields), buf) == 0
    return [line for line in buf.getvalue().splitlines() if line[:1] != "#"]


def test_criterion_csv_round_trip_columns():
    f = build_joint_not_double(ALPHA, BETA, 4, 300).f
    terms = criterion_sum(spectral_measure(f, ALPHA, BETA), 1, 1).terms
    lines = csv_lines(subcommand="spectral")
    assert lines[0] == "n,value_lo,value_hi"
    assert len(lines) == 1 + len(terms)
    for line, (n, term) in zip(lines[1:], terms):
        cells = line.split(",")
        assert int(cells[0]) == n
        # outward-rounded decimals: the printed interval holds the term
        lo, hi = map(Fraction, cells[1:])
        assert lo <= term.lo <= term.hi <= hi


def test_profile_csv_shapes():
    f = build_joint_not_double(ALPHA, BETA, 4, 300).f
    profile = cesaro_rate_profile(f, ALPHA, BETA, [1, 2, 4, 8, 16])
    lines = csv_lines(subcommand="rates", N=16)
    assert lines[0] == "n,value_lo,value_hi"
    assert lines[1:] == [f"{n},{per_n!r},{per_n!r}" for n, per_n, _ in profile]
