"""Tests for the lattice shift example.

Oracles: closed forms evaluated with 50-digit mpmath (2**-3/2 for the
corner value, zeta(3/2) - 1 for the corner of the formal solution,
pi**2/6 - zeta(3) for the full l_2 mass), their 400-bit counterparts at
random rational p (zeta(p) - zeta(p+1) and the Hurwitz zeta((p+1)/p, s)),
direct summation with ten times more explicit terms, and exact
harmonic-sum arithmetic for the divergence floor. The long sums kept as
ints on a dyadic grid must equal, endpoint for endpoint, the same sums done
in Enclosure arithmetic.
"""

import io
from fractions import Fraction
from math import isqrt

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coblab.certify import Enclosure, from_fixed, log_enclosure
from coblab.cli import ExperimentConfig, run
from coblab.errors import ConfigError
from coblab.shift_example import (
    _diag_power,
    _isqrt_pow32_sum,
    _logpower_divergence,
    _power_divergence,
    _power_series_remainder,
    _q_diagonal_upper,
    _rational_pow,
    build_h,
    build_q,
    divergence_certificate,
    lp_partial_norm,
)
from mpbridge import mp_fraction
from references import contains


def _oracle(expr_digits):
    return Fraction(expr_digits)


class TestBuildH:
    def test_p2_is_power_three_halves(self):
        h = build_h(2)
        assert h.kind == "power"
        assert h.exponent == Fraction(3, 2)

    def test_corner_value_is_inverse_sqrt8(self):
        v = build_h(2).diagonal_value(2)  # h(1, 1)
        with mpmath.workdps(50):
            oracle = mpmath.nstr(mpmath.mpf(2) ** mpmath.mpf("-1.5"), 40)
        assert contains(v, oracle)
        assert v.width < Fraction(1, 10**25)

    def test_p1_switches_to_logpower(self):
        h = build_h(1)
        assert h.kind == "logpower"
        v = h.diagonal_value(2)  # h(1, 1)
        with mpmath.workdps(50):
            oracle = mpmath.nstr(1 / (4 * mpmath.log(2) ** 2), 40)
        assert contains(v, oracle)

    def test_rejects_p_below_one(self):
        with pytest.raises(ConfigError):
            build_h(Fraction(1, 2))


class TestLpPartialNorm:
    def test_p2_total_encloses_pi2_over_6_minus_zeta3(self):
        h = build_h(2)
        result = lp_partial_norm(h, 2000)
        with mpmath.workdps(50):
            oracle = mpmath.nstr(mpmath.pi**2 / 6 - mpmath.zeta(3), 40)
        assert contains(result.total, oracle)
        assert result.total.width < Fraction(1, 1000)

    def test_partial_matches_direct_box_summation(self):
        # Direct oracle: sum over the complete diagonals s <= 11 of
        # (s-1) s**-3, computed in exact rational arithmetic.
        h = build_h(2)
        result = lp_partial_norm(h, 10)
        direct = sum(Fraction(s - 1, s**3) for s in range(2, 12))
        assert result.partial.lo <= direct <= result.partial.hi
        assert result.partial.width < Fraction(1, 10**30)

    def test_tail_shrinks_with_the_box(self):
        h = build_h(2)
        small = lp_partial_norm(h, 50)
        large = lp_partial_norm(h, 500)
        assert large.tail.hi < small.tail.hi
        assert large.total.width < small.total.width

    def test_totals_nested_as_the_box_grows(self):
        h = build_h(2)
        small = lp_partial_norm(h, 50)
        large = lp_partial_norm(h, 500)
        assert small.total.lo <= large.total.lo
        assert large.total.hi <= small.total.hi

    def test_fractional_p_uses_enclosures(self):
        h = build_h(Fraction(5, 2))
        result = lp_partial_norm(h, 40)
        # kappa = (7/5)(5/2) = 7/2; direct float check of the first terms.
        direct = sum((s - 1) * s**-3.5 for s in range(2, 42))
        assert abs(float(result.partial.mid) - direct) < 1e-12

    def test_logpower_total_is_finite_and_positive(self):
        h = build_h(1)
        result = lp_partial_norm(h, 300)
        direct = 0.0
        import math

        for s in range(2, 302):
            direct += (s - 1) / (s**2 * math.log(s) ** 2)
        assert abs(float(result.partial.mid) - direct) < 1e-9
        assert result.total.hi < 3

    def test_box_validation(self):
        with pytest.raises(ConfigError):
            lp_partial_norm(build_h(2), 0)


@settings(max_examples=20, deadline=None)
@given(
    p=st.fractions(min_value=1, max_value=8, max_denominator=12).filter(
        lambda p: p > 1),
    box=st.integers(min_value=1, max_value=60),
)
def test_norm_and_formal_solution_contain_their_zeta_values(p, box):
    # the p values no golden config pins: the l_p mass of h is
    # zeta(p) - zeta(p+1), and q on the diagonal s is zeta((p+1)/p, s)
    h = build_h(p)
    total = lp_partial_norm(h, box).total
    grid = build_q(h, 3, 4)
    with mpmath.workprec(400):
        mp_p = mpmath.mpf(p.numerator) / p.denominator
        assert contains(total, mp_fraction(mpmath.zeta(mp_p) - mpmath.zeta(mp_p + 1)))
        for s, enc in grid.diagonals.items():
            assert contains(enc, mp_fraction(mpmath.zeta((mp_p + 1) / mp_p, s))), s


class TestBuildQ:
    def test_corner_encloses_zeta_three_halves_minus_one(self):
        grid = build_q(build_h(2), 1, 1, tail_terms=2000)
        with mpmath.workdps(50):
            oracle = mpmath.nstr(mpmath.zeta(mpmath.mpf("1.5")) - 1, 40)
        q11 = grid.diagonals[2]  # q(1, 1)
        assert contains(q11, oracle)
        assert q11.width < Fraction(2, 10**5)

    def test_bracket_certificate_passes(self):
        grid = build_q(build_h(2), 3, 3, tail_terms=200)
        assert grid.certificate.verdict
        kinds = {e.comparison for e in grid.certificate.entries}
        assert ">=" in kinds and "<=" in kinds

    def test_analytic_bracket_two_over_sqrt(self):
        # 2 (j+k)**-1/2 (1 - eps) <= q <= 2 (j+k-1)**-1/2 for the p = 2
        # function, checked directly on a sampled diagonal.
        grid = build_q(build_h(2), 5, 5, tail_terms=300)
        eps = Fraction(1, 1000)
        for s in (4, 7, 10):
            enc = grid.diagonals[s]
            # Avoid irrational square roots by squaring both comparisons:
            # q >= 2(1-eps)/sqrt(s) iff q**2 s >= 4(1-eps)**2, and
            # q <= 2/sqrt(s-1) iff q**2 (s-1) <= 4.
            assert enc.lo**2 * s >= 4 * (1 - eps) ** 2
            assert enc.hi**2 * (s - 1) <= 4

    def test_ten_times_more_terms_stays_inside(self):
        base = build_q(build_h(2), 2, 2, tail_terms=100)
        fine = build_q(build_h(2), 2, 2, tail_terms=1000)
        for s in (2, 3, 4):
            a, b = base.diagonals[s], fine.diagonals[s]
            assert max(a.lo, b.lo) <= min(a.hi, b.hi)
            assert b.width < a.width

    def test_difference_roundtrip_reproduces_f(self):
        # (I-U)(I-V) q telescopes to f = (I-U) h; on the diagonals this is
        # q(s) - 2 q(s+1) + q(s+2) = h(s) - h(s+1).
        h = build_h(2)
        grid = build_q(h, 4, 4, tail_terms=400)
        for s in range(2, 7):
            diff = (
                grid.diagonals[s]
                - 2 * grid.diagonals[s + 1]
                + grid.diagonals[s + 2]
            )
            f_enc = h.diagonal_value(s) - h.diagonal_value(s + 1)
            assert max(diff.lo, f_enc.lo) <= min(diff.hi, f_enc.hi)
            # The defect is the rolled-down remainder bracket, four of
            # which stack up in the second difference.
            assert diff.width <= 5 * grid.diagonals[s].width

    def test_strictly_decreasing_along_diagonals(self):
        grid = build_q(build_h(2), 4, 4, tail_terms=200)
        for s in range(2, 8):
            assert grid.diagonals[s + 1].hi < grid.diagonals[s].lo

    def test_logpower_grid_certifies(self):
        grid = build_q(build_h(1), 2, 2, tail_terms=200)
        assert grid.certificate.verdict
        direct = 0.0
        import math

        for t in range(2, 5000):
            direct += 1 / (t**2 * math.log(t) ** 2)
        q2 = grid.diagonals[2]
        assert q2.lo <= Fraction(repr(direct)) + Fraction(1, 100)
        assert q2.hi >= Fraction(repr(direct))

    def test_tail_terms_validation(self):
        with pytest.raises(ConfigError):
            build_q(build_h(2), 2, 2, tail_terms=1)


class TestDivergenceCertificate:
    def test_p2_row_sum_floor_exceeds_thirty_at_ten_thousand(self):
        report = divergence_certificate(2, 10**4)
        assert report.row_sum_lower.lo >= 30
        assert report.certificate.verdict

    def test_p2_row_sum_matches_exact_harmonic_arithmetic(self):
        # Oracle: 4 (1 - 1/1000)**2 * sum_{k<=K} 1/(1+k) in exact rationals.
        K = 200
        report = divergence_certificate(2, K)
        eps = Fraction(1, 1000)
        exact = 4 * (1 - eps) ** 2 * sum(Fraction(1, k + 1) for k in range(1, K + 1))
        assert abs(report.row_sum_lower.mid - exact) < Fraction(1, 10**25)

    def test_lower_bound_monotone_in_K(self):
        values = [
            divergence_certificate(2, K).row_sum_lower.lo
            for K in (100, 1000, 10**4)
        ]
        assert values[0] < values[1] < values[2]

    def test_l5_partial_sums_certified_bounded(self):
        report = divergence_certificate(2, 10**4)
        assert report.bounded_exponent == 5
        assert report.lr_partial.hi <= 96
        described = [
            e
            for e in report.certificate.entries
            if "q**5" in e.description and e.comparison == "<="
        ]
        assert described and described[0].satisfied

    def test_p1_threshold_is_certified_crossing(self):
        report = divergence_certificate(1, 10**4)
        J0 = report.log_threshold
        assert J0 is not None
        import math

        assert math.log(J0) ** 4 <= J0
        assert math.log(J0 - 1) ** 4 > J0 - 1
        assert report.certificate.verdict
        assert report.bounded_exponent == 3

    def test_p1_row_lower_bounds_positive(self):
        report = divergence_certificate(1, 10**4)
        assert report.row_sum_lower.lo > 0
        rows = [
            e
            for e in report.certificate.entries
            if e.description.startswith("row") and e.comparison == ">="
        ]
        assert len(rows) == 3 and all(e.satisfied for e in rows)

    def test_fractional_p_round_trips(self):
        report = divergence_certificate(Fraction(3, 2), 500)
        assert report.bounded_exponent == 4
        assert report.certificate.verdict
        # coefficient ((1-eps) p)**p with p = 3/2 against a float check
        import math

        coef = ((1 - 1e-3) * 1.5) ** 1.5
        harmonic = sum(1 / (1 + k) for k in range(1, 501))
        assert abs(float(report.row_sum_lower.mid) - coef * harmonic) < 1e-9

    @pytest.mark.parametrize("p", [Fraction(5, 4), Fraction(4, 3), Fraction(7, 3)])
    def test_lattice_sum_bound_when_2p_is_not_an_integer(self, p, capsys):
        # r - 2p < 1: the integral tail and the closed bound carry p/(r - 2p)
        from coblab.cli import main

        assert main(["shift", "--p", str(p), "--K", "200"]) == 0
        capsys.readouterr()
        report = divergence_certificate(p, 200)
        r = report.bounded_exponent
        assert report.certificate.verdict and r - 2 * p < 1
        closed = [e for e in report.certificate.entries if "full lattice" in e.description]
        hi = report.lr_partial.hi
        bound = p**r * (1 + p / (r - 2 * p))
        assert hi <= closed[0].threshold.lo
        assert bound <= closed[0].threshold.lo <= bound * (1 + Fraction(1, 10**20))
        with mpmath.workdps(40):
            mp_p = mpmath.mpf(p.numerator) / p.denominator
            oracle = mp_p**r * mpmath.zeta(r / mp_p - 1)
            assert mpmath.mpf(hi.numerator) / hi.denominator >= oracle

    def test_validation(self):
        with pytest.raises(ConfigError):
            divergence_certificate(Fraction(1, 2), 100)
        with pytest.raises(ConfigError):
            divergence_certificate(2, 4)
        # the row sums visit every k, so K is capped
        for p in (1, 2):
            with pytest.raises(ConfigError, match="10\\*\\*6"):
                divergence_certificate(p, 10**6 + 1)


class TestCsv:
    """The `shift` CSV, laid out by the CLI handler: the N-by-N grid of q."""

    @staticmethod
    def csv_lines(N):
        buf = io.StringIO()
        assert run(ExperimentConfig("shift", K=8, N=N, format="csv"), buf) == 0
        return [line for line in buf.getvalue().splitlines() if line[:1] != "#"]

    def test_grid_csv_shape_and_header(self):
        lines = self.csv_lines(3)
        assert lines[0] == "j,k,q_lo,q_hi"
        assert len(lines) == 1 + 3 * 3
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "1"
        for line in lines[1:]:
            lo, hi = map(Fraction, line.split(",")[2:])
            assert lo <= hi

    def test_csv_rows_ordered_row_major(self):
        keys = [tuple(map(int, line.split(",")[:2])) for line in self.csv_lines(3)[1:]]
        assert keys == sorted(keys)
        assert keys == [(j, k) for j in (1, 2, 3) for k in (1, 2, 3)]


# Reference sums in Enclosure arithmetic: each partial sum is an Enclosure,
# rounded outward onto the 2**-160 grid with Enclosure.rounded. The module
# adds the rounded terms as ints on that grid; the endpoints must be equal.

GRID = 160


def _ref_grid_sum(terms):
    acc = Enclosure.point(0)
    for term in terms:
        acc = (acc + term).rounded(GRID)
    return acc


def _ref_logpower_term(s, num, bits=110):
    return Enclosure.point(Fraction(num, s * s)) / log_enclosure(s, bits).square()


def _ref_logpower_q_upper(s):
    ln = log_enclosure(s, 96).lo
    return Enclosure.point((Fraction(1, s * s) + Fraction(1, s)) / ln**2)


def _ref_roll_down(f, remainder, top, bottom):
    values, acc = {}, remainder
    for t in range(top, bottom - 1, -1):
        acc = (f.diagonal_value(t) + acc).rounded(GRID)
        values[t] = acc
    return values


@settings(max_examples=25, deadline=None)
@given(S=st.integers(min_value=2, max_value=200))
def test_logpower_partial_matches_enclosure_reference(S):
    ref = _ref_grid_sum(_ref_logpower_term(s, s - 1) for s in range(2, S + 1))
    assert lp_partial_norm(build_h(1), S - 1).partial == ref


@settings(max_examples=40, deadline=None)
@given(
    s=st.integers(min_value=2, max_value=10**6),
    bits=st.integers(min_value=64, max_value=256),
)
def test_logpower_diagonal_matches_enclosure_reference(s, bits):
    f = build_h(1)
    assert _diag_power(f, s, bits) == _ref_logpower_term(s, 1, bits)


@pytest.mark.parametrize("p", [1, 2, Fraction(3, 2), Fraction(5, 2)])
def test_build_q_matches_enclosure_reference(p):
    f = build_h(p)
    grid = build_q(f, 3, 4, tail_terms=40)
    M = 3 + 4 + 40
    ref = _ref_roll_down(f, _power_series_remainder(f, M), M - 1, 2)
    assert grid.diagonals == {s: ref[s] for s in range(2, 3 + 4 + 1)}


@pytest.mark.parametrize("p,K", [(2, 8), (Fraction(3, 2), 30), (Fraction(5, 2), 9)])
def test_power_divergence_matches_enclosure_reference(p, K):
    p = Fraction(p)
    f = build_h(p)
    report = _power_divergence(p, K)
    # the sampled q values: a 48-term roll-down from the integral remainder
    points = [
        e.value
        for e in report.certificate.entries
        if e.description.startswith("q at row 1") and "lower" in e.description
    ]
    assert points == [
        _ref_roll_down(f, _power_series_remainder(f, 1 + k + 48), k + 48, 1 + k)[1 + k]
        for k in sorted({1, 7, K})
    ]
    # the l_r sum: partial sum on the grid, integral tail, constant factor
    r = (2 * p).__floor__() + 1
    e_r = 1 - Fraction(r, p)
    cap = 1000 if e_r.denominator in (1, 2) else 200
    acc = _ref_grid_sum(_rational_pow(Fraction(m), e_r, 110) for m in range(1, cap + 1))
    tail_hi = p * _rational_pow(Fraction(cap), -1 / p, 96).hi
    coef_r = (
        Enclosure.point(p**r) if p.denominator == 1 else _rational_pow(p, Fraction(r), 140)
    )
    assert report.lr_partial == coef_r * (acc + Enclosure(Fraction(0), tail_hi))


def test_logpower_divergence_matches_enclosure_reference():
    f = build_h(1)
    report = _logpower_divergence(8)
    acc = _ref_grid_sum(
        (s - 1) * _ref_logpower_q_upper(s) * _ref_logpower_q_upper(s)
        * _ref_logpower_q_upper(s)
        for s in range(2, 401)
    )
    tail_hi = 8 / (Fraction(400) * log_enclosure(400, 96).lo ** 6)
    assert report.lr_partial == acc + Enclosure(Fraction(0), tail_hi)
    for s in (2, 3, 57, 400):
        assert _q_diagonal_upper(f, s) == _ref_logpower_q_upper(s)


@pytest.mark.parametrize(
    "terms",
    [[5504] * 3000, [5504] * 10 + list(range(5505, 5600)), [2, 2] + list(range(3, 8))],
)
def test_isqrt_pow32_sum_equals_the_term_by_term_sum(terms):
    # a run of one value, bracketed once and weighted by its count, then
    # consecutive integers; the grid ints must be those of bracketing every
    # term on its own
    m0, count = terms[0], terms.count(terms[0])
    stop = m0 + 1 + len(terms) - count
    assert terms == [m0] * count + list(range(m0 + 1, stop))
    lo = hi = 0
    for m in terms:
        u = isqrt((m**3) << 160)
        lo += (1 << 160) // (u + 1)
        hi -= (-1 << 160) // u
    assert _isqrt_pow32_sum(m0, count, m0 + 1, stop) == from_fixed(lo, hi, 80)
