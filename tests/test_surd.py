"""Exactness tests for quadratic-surd arithmetic against an mpmath oracle."""

import math
import re
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coblab import diophantine
from coblab.certify import HARD_CAP_BITS, Enclosure, precisions, refine
from coblab.errors import ConfigError, PrecisionCapError
from coblab.surd import (
    COEFFICIENT_LIMIT,
    FP_BITS,
    FP_MAX_K,
    FP_ONE,
    RADICAND_LIMIT,
    QuadraticSurd,
    dist_enclosure,
    fixed_point,
    parse_surd,
    squarefree_decompose,
)
from mpbridge import mp_fraction
from references import inverse


def oracle_value(x, dps=200):
    """Independent high-precision float of (a + b*sqrt(d))/c."""
    with mpmath.workdps(dps):
        return (x.a + x.b * mpmath.sqrt(x.d)) / x.c


ALPHA = parse_surd("(-1+1*sqrt(2))/1")  # sqrt(2) - 1
BETA = parse_surd("(-1+1*sqrt(3))/1")  # sqrt(3) - 1
GOLDEN = parse_surd("(1+sqrt(5))/2")


def test_squarefree_decompose():
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(8) == (2, 2)
    assert squarefree_decompose(360) == (6, 10)
    assert squarefree_decompose(49) == (7, 1)
    assert squarefree_decompose(97) == (1, 97)


def test_canonical_form():
    x = QuadraticSurd(2, 4, 8, -6)
    # 4*sqrt(8) = 8*sqrt(2); gcd and sign normalize to (-1-4*sqrt(2))/3
    assert (x.a, x.b, x.c, x.d) == (-1, -4, 3, 2)
    assert QuadraticSurd(3, 5, 4).is_rational  # sqrt(4) = 2 folds in
    assert QuadraticSurd(3, 5, 4) == 13


def test_parse_and_str_roundtrip():
    for text in ["(-1+1*sqrt(2))/1", "(1+2*sqrt(5))/3", "(2-3*sqrt(7))/5", "sqrt(2)", "-1+sqrt(2)"]:
        x = parse_surd(text)
        assert parse_surd(str(x)) == x


def test_parse_rejects_garbage():
    for bad in ["sqrt(4)", "(1+0*sqrt(2))/3", "1+2", "(1+sqrt(2)", "(1+sqrt(2))/0", "x"]:
        with pytest.raises((ConfigError, ZeroDivisionError)):
            parse_surd(bad)


@pytest.mark.parametrize(
    "text, message",
    [
        (f"({2**63 - 1}+sqrt(2))/1", None),
        (f"({2**63}+sqrt(2))/1", "|a| must be below 2**63"),
        (f"({1 - 2**63}+sqrt(2))/1", None),
        (f"({-2**63}+sqrt(2))/1", "|a| must be below 2**63"),
        (f"(1+{2**63 - 1}*sqrt(2))/1", None),
        (f"(1+{2**63}*sqrt(2))/1", "|b| must be below 2**63"),
        (f"(1-{2**63}*sqrt(2))/1", "|b| must be below 2**63"),
        (f"(1+sqrt(2))/{2**63 - 1}", None),
        (f"(1+sqrt(2))/{2**63}", "|c| must be below 2**63"),
        (f"(1+sqrt(2))/{-2**63}", "|c| must be below 2**63"),
        (f"sqrt({10**9})", None),
        (f"sqrt({10**9 + 1})", "d must be at most 10**9"),
        (f"(000000000000000000000000001+sqrt(2))/0000000000000000000000003", None),
        # past int()'s 4300-digit string limit: refused, not a ValueError
        ("(1+" + "9" * 5000 + "*sqrt(2))/1", "|b| must be below 2**63"),
        ("(1+sqrt(2))/" + "9" * 5000, "|c| must be below 2**63"),
        ("sqrt(" + "9" * 5000 + ")", "d must be at most 10**9"),
    ],
)
def test_parse_bounds_the_coefficients_and_the_radicand(text, message):
    if message is None:
        assert parse_surd(text).is_rational is False
    else:
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_surd(text)


def test_field_arithmetic_matches_oracle():
    x = (2 * ALPHA + 1) * Fraction(1, 3)
    y = ALPHA * ALPHA - ALPHA * Fraction(1, 2) + Fraction(7, 3)
    with mpmath.workdps(60):
        a = oracle_value(ALPHA, 60)
        oracles = ((2 * a + 1) / 3, a * a - a / 2 + mpmath.mpf(7) / 3)
    slack = Fraction(1, 2**150)  # the 60-digit oracle's own rounding
    for value, oracle in zip((x, y), oracles):
        enc = value.enclosure(96)
        assert enc.lo - slack <= mp_fraction(oracle) <= enc.hi + slack


def test_cross_field_mixing_rejected():
    with pytest.raises(ValueError):
        ALPHA + BETA
    with pytest.raises(ValueError):
        ALPHA * BETA


def test_sign_and_comparisons():
    assert ALPHA.sign() == 1
    assert (-ALPHA).sign() == -1
    assert (ALPHA - ALPHA).sign() == 0
    assert (ALPHA - Fraction(1, 2)).sign() < 0
    assert (ALPHA - Fraction(2, 5)).sign() > 0
    assert (GOLDEN - 1).sign() > 0
    # a > 0, b < 0 branch: 3 - 2*sqrt(2) > 0 iff 9 > 8
    assert QuadraticSurd(3, -2, 2).sign() == 1
    assert QuadraticSurd(2, -2, 2).sign() == -1


def test_floor_and_frac():
    assert math.floor(GOLDEN) == 1
    assert math.floor(-GOLDEN) == -2
    assert math.floor(17 * ALPHA) == 7  # 17*(sqrt(2)-1) = 7.0416
    fr = (17 * ALPHA).frac()
    assert fr.sign() > 0 and (fr - 1).sign() < 0
    assert math.floor(QuadraticSurd(7, 0, 1, 2)) == 3


def test_nearest_int_and_distance():
    x = 8 * parse_surd("sqrt(2)")  # 11.3137
    assert x.nearest_int() == 11
    dist = x.dist_to_int()
    with mpmath.workdps(200):
        expected = 8 * mpmath.sqrt(2) - 11
        scaled = int(mpmath.floor(expected * mpmath.mpf(2) ** 150))
    enc = refine(dist.enclosure, lambda e: e.width <= Fraction(1, 10**40))
    val = Fraction(scaled, 2**150)
    assert enc.lo <= val + Fraction(1, 2**140) and val - Fraction(1, 2**140) <= enc.hi


def test_enclosure_contains_and_width():
    enc = ALPHA.enclosure(128)
    with mpmath.workdps(200):
        v = oracle_value(ALPHA)
        scaled = int(mpmath.floor(v * mpmath.mpf(2) ** 150))
    bracket_lo = Fraction(scaled, 2**150)
    assert enc.lo <= bracket_lo + Fraction(1, 2**140)
    assert bracket_lo - Fraction(1, 2**140) <= enc.hi
    assert enc.width <= Fraction(1, 2**127)


def test_inverse():
    inv = inverse(ALPHA)
    assert inv * ALPHA == 1
    # 1/(sqrt(2)-1) = sqrt(2)+1
    assert inv == QuadraticSurd(1, 1, 2)


def test_equality_hash_and_rational_interop():
    assert QuadraticSurd(6, 0, 1, 4) == Fraction(3, 2)
    assert hash(QuadraticSurd(6, 0, 1, 4)) == hash(Fraction(3, 2))
    assert QuadraticSurd(1, 1, 2) != QuadraticSurd(1, 1, 3)
    assert len({ALPHA, ALPHA + 0, BETA}) == 2


def test_labels_do_not_affect_identity():
    tagged = parse_surd("(-1+1*sqrt(2))/1", label="alpha")
    assert tagged == ALPHA
    assert tagged.label == "alpha"


@settings(max_examples=80, deadline=None)
@given(
    a=st.integers(-50, 50),
    b=st.integers(-20, 20),
    c=st.integers(1, 30),
    d=st.sampled_from([2, 3, 5, 6, 7, 10, 13]),
)
def test_arithmetic_identities_random(a, b, c, d):
    x = QuadraticSurd(a, b, d, c)
    y = QuadraticSurd(b - 1, a + 1, d, 7)
    assert (x + y) - y == x
    assert x + (-x) == 0
    if x.sign() != 0:
        assert x * inverse(x) == 1
    # floor correctness: floor <= x < floor + 1, checked exactly
    f = math.floor(x)
    assert (x - f).sign() >= 0 and (x - f - 1).sign() < 0


@settings(max_examples=50, deadline=None)
@given(k=st.integers(1, 10**6))
def test_fixed_point_reducer_matches_oracle(k):
    t = (k * fixed_point(ALPHA)) % FP_ONE
    got = math.ldexp(float(min(t, FP_ONE - t)), -FP_BITS)
    with mpmath.workdps(60):
        t = mpmath.frac(k * (mpmath.sqrt(2) - 1))
        expected = float(min(t, 1 - t))
    assert got == pytest.approx(expected, abs=1e-14)


def test_fixed_point_reducer_frac_is_periodic_safe():
    for k in (1, 2, 34, 6765):
        fr = (k * fixed_point(GOLDEN)) % FP_ONE
        assert 0 <= fr < 1 << 192
        # within k ulps of frac(k*x) * 2**192, measured around the circle
        gap = abs(fr - (GOLDEN * k).frac().enclosure(256).mid * 2**192)
        assert min(gap, 2**192 - gap) <= k + 1


COEFFICIENTS = st.integers(-(COEFFICIENT_LIMIT - 1), COEFFICIENT_LIMIT - 1)
# "(a+b*sqrt(d))/c" with every part inside parse_surd's bounds
ROTATION_TEXTS = st.builds(
    "({}{:+d}*sqrt({}))/{}".format,
    COEFFICIENTS,
    COEFFICIENTS.filter(bool),
    st.integers(2, RADICAND_LIMIT).filter(lambda d: math.isqrt(d) ** 2 != d),
    COEFFICIENTS.filter(bool),
)


@settings(max_examples=60, deadline=None)
@given(text=ROTATION_TEXTS, k=st.integers(1, FP_MAX_K) | st.sampled_from([1, FP_MAX_K]))
def test_fixed_point_residue_stays_within_k_plus_one_ulps(text, k):
    # (k*X) mod 2**192 against frac(k*x)*2**192, compared exactly around the
    # circle: the gap, reduced to its nearest representative, is at most k + 1
    x = parse_surd(text)
    gap = -(x * k).frac() * FP_ONE + (k * fixed_point(x)) % FP_ONE
    gap = gap - FP_ONE * (gap * Fraction(1, FP_ONE)).nearest_int()
    assert (abs(gap) - (k + 1)).sign() <= 0


def test_sqrt_of_a_nonsquare_is_irrational():
    assert QuadraticSurd(0, 1, 2).require_irrational("sqrt argument").d == 2
    with pytest.raises(ConfigError):
        QuadraticSurd(0, 1, 9).require_irrational("sqrt argument")


def test_rational_collapse_hashes_like_its_equals():
    # sqrt(4) folds into a: (3 + 2*sqrt(4))/5 = 7/5
    collapsed = QuadraticSurd(3, 2, 4, 5)
    plain = QuadraticSurd(7, 0, 1, 5)
    assert collapsed == plain == Fraction(7, 5)
    assert hash(collapsed) == hash(plain) == hash(Fraction(7, 5))
    assert hash(QuadraticSurd(6, 0, 7, 2)) == hash(3)
    assert len({collapsed, plain, Fraction(7, 5)}) == 1


def test_irrational_hash_ignores_label_and_normal_form():
    a = QuadraticSurd(2, 2, 8, 2, label="x")  # (2 + 4*sqrt(2))/2 = 1 + 2*sqrt(2)
    b = QuadraticSurd(1, 2, 2)
    assert a == b and hash(a) == hash(b)


# -- the one distance enclosure ----------------------------------------------
#
# The three loops below are the distance enclosures that dist_enclosure
# replaced, kept as references: it must return the very same Enclosure.


def _clamp(enc):
    return Enclosure(max(enc.lo, Fraction(0)), min(enc.hi, Fraction(1, 2)))


def tight_dist_reference(x, q, rel_tol, start):
    """The flagship's loop: clamp, then relative width, from 192 bits."""
    dist = (x * q).dist_to_int()
    bits = start
    while True:
        enc = _clamp(dist.enclosure(bits))
        if enc.lo > 0 and enc.width <= enc.lo * rel_tol:
            return enc
        if bits >= 1 << 14:
            raise PrecisionCapError("unresolved")
        bits *= 2


def positive_dist_reference(x, q, abs_tol, start):
    """The divisor enclosure's loop: clamp, then absolute width, from 128."""
    dist = (x * q).dist_to_int()
    bits = start
    while True:
        enc = _clamp(dist.enclosure(bits))
        if enc.lo > 0 and enc.width <= abs_tol:
            return enc
        if bits >= 1 << 14:
            raise PrecisionCapError("unresolved")
        bits *= 2


def refined_dist_reference(x, q, abs_tol, start):
    """The records' loop: absolute width before the clamp, from 128."""
    enc = refine(
        (x * q).dist_to_int().enclosure, lambda e: e.width <= abs_tol, start=start
    )
    return _clamp(enc)


def dist_oracle(x, q):
    """||q*x|| at 300 bits, with a bound on its error."""
    with mpmath.workprec(300):
        t = mpmath.frac(q * (x.a + x.b * mpmath.sqrt(x.d)) / x.c)
        return mp_fraction(min(t, 1 - t)), Fraction(1, 2**250)


surds = st.builds(
    QuadraticSurd,
    a=st.integers(-20, 20),
    b=st.integers(1, 12) | st.integers(-12, -1),
    d=st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13, 15]),
    c=st.integers(1, 20),
)
tolerances = st.integers(5, 60).map(lambda k: Fraction(1, 10**k))


@settings(max_examples=150, deadline=None)
@given(
    x=surds,
    q=st.integers(1, 10**13),
    tol=tolerances,
    start=st.sampled_from([128, 192]),
    relative=st.booleans(),
)
def test_dist_enclosure_matches_the_loops_it_replaced(x, q, tol, start, relative):
    if relative:
        got = dist_enclosure(x, q, rel_tol=tol, start_bits=start)
        assert got == tight_dist_reference(x, q, tol, start)
        assert got.width <= got.lo * tol
    else:
        got = dist_enclosure(x, q, abs_tol=tol, start_bits=start)
        assert got == positive_dist_reference(x, q, tol, start)
        assert got == refined_dist_reference(x, q, tol, start)
        assert got.width <= tol
    value, err = dist_oracle(x, q)
    assert got.lo - err <= value <= got.hi + err
    assert 0 < got.lo and got.hi <= Fraction(1, 2)


def test_dist_enclosure_refines_until_the_lower_end_is_positive():
    # ||985*alpha|| is about 3.6e-4; its 8-bit enclosure is clamped to
    # [0, 1/2], which meets the width goal 1 but not lo > 0
    enc = dist_enclosure(ALPHA, 985, abs_tol=1, start_bits=8)
    assert enc.lo > 0
    value, err = dist_oracle(ALPHA, 985)
    assert enc.lo - err <= value <= enc.hi + err


def spy_on_precision(monkeypatch):
    seen = []
    enclosure = QuadraticSurd.enclosure

    def spy(self, bits):
        seen.append(bits)
        return enclosure(self, bits)

    monkeypatch.setattr(QuadraticSurd, "enclosure", spy)
    return seen


def test_dist_enclosure_stops_at_the_hard_cap(monkeypatch):
    seen = spy_on_precision(monkeypatch)
    with pytest.raises(PrecisionCapError, match=f"{HARD_CAP_BITS}-bit"):
        dist_enclosure(ALPHA, 12345, abs_tol=Fraction(1, 2**9000))
    assert max(seen) == HARD_CAP_BITS


def test_approximation_record_stops_at_the_hard_cap(monkeypatch):
    seen = spy_on_precision(monkeypatch)
    with pytest.raises(PrecisionCapError, match=f"{HARD_CAP_BITS}-bit"):
        diophantine.approximation_record(ALPHA, BETA, 2, tol=Fraction(1, 2**9000))
    assert max(seen) == HARD_CAP_BITS


def test_quality_loop_stops_at_the_hard_cap(monkeypatch):
    # q = 100 is no Dirichlet denominator of the pair: sqrt(100)*||100*alpha||
    # is about 4.2, so the quality never drops below 1 and the loop must stop
    seen = spy_on_precision(monkeypatch)
    with pytest.raises(PrecisionCapError, match=f"{HARD_CAP_BITS}-bit"):
        diophantine.approximation_record(ALPHA, BETA, 100)
    assert max(seen) == HARD_CAP_BITS


def test_floor_and_quotients_take_no_enclosure(monkeypatch):
    def refuse(self, bits):
        raise AssertionError("an enclosure was taken")

    monkeypatch.setattr(QuadraticSurd, "enclosure", refuse)
    assert math.floor(ALPHA) == 0 and math.floor(-GOLDEN) == -2
    rows = list(diophantine.convergents(BETA, 6))
    assert [a for a, _, _ in rows] == [0, 1, 2, 1, 2, 1, 2]
    assert rows[-1][1:] == (30, 41)


# -- the exact floor and quotient recurrence ---------------------------------
#
# The enclosure walk that QuadraticSurd.__floor__ replaced and the Gauss map
# that diophantine._quotients replaced, kept as references.


def enclosure_floor_reference(x):
    if x.b == 0:
        return Fraction(x.a, x.c).__floor__()
    for bits in precisions(64):
        enc = x.enclosure(bits)
        lo, hi = enc.lo.__floor__(), enc.hi.__floor__()
        if lo == hi:
            return lo
    raise PrecisionCapError(f"floor of {x} unresolved")


def gauss_map_reference(x, depth):
    out = []
    for _ in range(depth + 1):
        a = enclosure_floor_reference(x)
        out.append(a)
        x = inverse(x - a)
    return out


# parse_surd's whole input range
coefficients = st.integers(-COEFFICIENT_LIMIT + 1, COEFFICIENT_LIMIT - 1)


@settings(max_examples=60, deadline=None)
@given(
    a=coefficients,
    b=coefficients.filter(bool),
    c=coefficients.filter(bool),
    d=st.integers(2, RADICAND_LIMIT).filter(lambda d: math.isqrt(d) ** 2 != d),
)
def test_floor_and_quotients_match_the_enclosure_walk(a, b, c, d):
    x = QuadraticSurd(a, b, d, c)
    f = math.floor(x)
    assert (x - f).sign() >= 0 and (x - f - 1).sign() < 0
    assert f == enclosure_floor_reference(x)
    assert list(diophantine._quotients(x, 300)) == gauss_map_reference(x, 300)


def test_approximation_record_builds_each_distance_once(monkeypatch):
    calls = []
    dist_to_int = QuadraticSurd.dist_to_int

    def counted(self):
        calls.append(self)
        return dist_to_int(self)

    monkeypatch.setattr(QuadraticSurd, "dist_to_int", counted)
    rec = diophantine.approximation_record(ALPHA, BETA, 41)
    assert len(calls) == 2
    monkeypatch.undo()
    assert rec.dist_alpha == dist_enclosure(ALPHA, 41, abs_tol=Fraction(1, 10**12))
    assert rec.dist_beta == dist_enclosure(BETA, 41, abs_tol=Fraction(1, 10**12))
