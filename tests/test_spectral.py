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
    coboundary_integral,
    double_criterion_sum,
    doubling_tripling_variance,
    joint_criterion_sum,
    spectral_measure,
)
from coblab.surd import parse_surd
from references import add

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
    result = coboundary_integral(m, "alpha")
    exact = g.l2_norm_sq_exact()
    assert not result.divergent
    assert result.value.lo <= exact <= result.value.hi
    assert float(result.value.width) < 1e-30


def test_coboundary_integral_single_mode_value():
    f = SparseFourierSeries({1: 1})
    m = spectral_measure(f, ALPHA, BETA)
    result = coboundary_integral(m, "alpha")
    with mpmath.workdps(40):
        oracle = 1 / (2 * mpmath.sinpi(dist_oracle(ALPHA, 1))) ** 2
    assert abs(float(result.value.mid) - float(oracle)) < 1e-12
    assert abs(float(result.value.mid) - 0.26910) < 1e-4


def test_coboundary_integral_divergent_at_zero_mass():
    f = SparseFourierSeries({0: 2, 3: 1})
    m = spectral_measure(f, ALPHA, BETA)
    result = coboundary_integral(m, "alpha")
    assert result.divergent
    assert len(result.terms) == 1  # the finite part is still reported


def test_coboundary_integral_validates_side():
    m = spectral_measure(SparseFourierSeries({1: 1}), ALPHA, BETA)
    with pytest.raises(ConfigError):
        coboundary_integral(m, "gamma")


def sides(m):
    """The two one-sided integrals that joint_criterion_sum checks against."""
    return coboundary_integral(m, "alpha"), coboundary_integral(m, "beta")


def test_joint_criterion_is_sum_of_sides():
    f = random_real_series(17, 8)
    m = spectral_measure(f, ALPHA, BETA)
    alpha_side, beta_side = sides(m)
    joint = joint_criterion_sum(m, alpha_side, beta_side)
    recombined = alpha_side.value + beta_side.value
    assert abs(float(joint.value.mid) - float(recombined.mid)) < 1e-12 * max(
        float(recombined.mid), 1.0
    )


def test_joint_criterion_rejects_sides_that_drift_apart():
    from coblab.errors import CertificationError

    m = spectral_measure(random_real_series(17, 8), ALPHA, BETA)
    alpha_side, beta_side = sides(m)
    # far below a float midpoint test, far above the widths
    shifted = beta_side._replace(value=beta_side.value + Fraction(1, 10**20))
    joint_criterion_sum(m, alpha_side, beta_side)
    with pytest.raises(CertificationError):
        joint_criterion_sum(m, alpha_side, shifted)


def test_joint_criterion_empty_measure():
    m = spectral_measure(SparseFourierSeries({}), ALPHA, BETA)
    joint = joint_criterion_sum(m, *sides(m))
    assert joint.value.hi == 0
    assert joint.terms == ()
    assert not joint.divergent


def test_double_criterion_change_of_variables():
    h = random_real_series(7, 5)
    phi = apply_difference(apply_difference(h, ALPHA), BETA)
    m = spectral_measure(phi, ALPHA, BETA)
    result = double_criterion_sum(m)
    exact = h.l2_norm_sq_exact()
    assert result.value.lo <= exact <= result.value.hi


def test_double_criterion_flags_zero_atom():
    m = spectral_measure(SparseFourierSeries({0: 1}), ALPHA, BETA)
    assert double_criterion_sum(m).divergent


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
    ledger = double_criterion_sum(m)
    assert len(ledger.terms) == 10
    for _, term in ledger.terms:
        assert float(term.lo) >= floor - 1e-15
    assert float(ledger.value.lo) >= 10 * floor - 1e-12


def test_pipeline_joint_increments_are_summable(pipeline_atoms):
    result, m = pipeline_atoms
    ledger = joint_criterion_sum(m, *sides(m))
    for (n, term) in ledger.terms:
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
    cap = 4 * math.sqrt(float(double_criterion_sum(m).value.hi))
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
    terms = double_criterion_sum(spectral_measure(f, ALPHA, BETA)).terms
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
