"""Containment tests for the certified enclosure kernel.

Every enclosure is checked against mpmath at several hundred bits, an
independent route: the kernel uses only integer brackets and rational
series, while the oracle uses binary floating point transcendentals.
"""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coblab.certify import (
    Enclosure,
    exp_enclosure,
    log_enclosure,
    pi_enclosure,
    pow_enclosure,
    refine,
    separate,
    sin_pi_enclosure,
    sqrt_enclosure,
)
from coblab.errors import PrecisionCapError


def mpf_frac(x):
    fr = Fraction(x)
    return mpmath.mpf(fr.numerator) / fr.denominator


def oracle(expr, dps=140):
    with mpmath.workdps(dps):
        value = expr()
        num = int(mpmath.floor(value * mpmath.mpf(2) ** 400))
    # a two-sided rational bracket of the oracle value, padded for the
    # oracle's own rounding (140 dps is ~465 bits, so 2 units is generous)
    return Fraction(num - 2, 2**400), Fraction(num + 3, 2**400)


def assert_contains_oracle(enc, expr):
    lo, hi = oracle(expr)
    assert enc.lo <= hi and lo <= enc.hi, f"enclosure {enc} misses oracle [{lo},{hi}]"


def test_enclosure_basic_algebra():
    a = Enclosure(Fraction(1, 4), Fraction(1, 2))
    b = Enclosure(Fraction(-1, 3), Fraction(1, 5))
    assert (a + b).lo == Fraction(1, 4) - Fraction(1, 3)
    assert (a * 2).hi == 1
    assert (-a).hi == -Fraction(1, 4)
    assert (a * b).lo == Fraction(1, 2) * Fraction(-1, 3)
    assert (a / a).lo <= 1 <= (a / a).hi
    assert a.square().lo == Fraction(1, 16)
    assert Enclosure(Fraction(-2), Fraction(3)).square() == Enclosure(
        Fraction(0), Fraction(9)
    )
    with pytest.raises(ValueError):
        Enclosure(Fraction(1), Fraction(0))


def test_enclosure_rounding_is_outward():
    e = Enclosure(Fraction(1, 3), Fraction(2, 3))
    r = e.rounded(16)
    assert r.lo <= e.lo and e.hi <= r.hi
    assert r.lo.denominator <= 2**16 and r.hi.denominator <= 2**16


@pytest.mark.parametrize("x", [2, 3, 5, Fraction(1, 7), Fraction(9, 4), 10**12])
def test_sqrt_enclosure_contains_oracle(x):
    enc = sqrt_enclosure(x, 128)
    assert_contains_oracle(enc, lambda: mpmath.sqrt(mpf_frac(x)))
    assert enc.width <= Fraction(1, 2**100)


def test_sqrt_zero_and_negative():
    assert sqrt_enclosure(0, 64) == Enclosure.point(0)
    with pytest.raises(ValueError):
        sqrt_enclosure(-1, 64)


@pytest.mark.parametrize("bits", [64, 128, 512])
def test_pi_enclosure(bits):
    enc = pi_enclosure(bits)
    assert_contains_oracle(enc, lambda: mpmath.pi + 0)
    assert enc.width <= Fraction(1, 2**bits)


@pytest.mark.parametrize(
    "x",
    [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1, 10**6), Fraction(413, 1000)],
)
def test_sin_pi_enclosure(x):
    enc = sin_pi_enclosure(Enclosure.point(x), 128)
    assert_contains_oracle(enc, lambda: mpmath.sin(mpmath.pi * mpf_frac(x)))
    assert Fraction(0) <= enc.lo and enc.hi <= Fraction(1)


def test_sin_pi_on_wide_interval():
    x = Enclosure(Fraction(1, 8), Fraction(3, 8))
    enc = sin_pi_enclosure(x, 96)
    # must contain the whole image [sin(pi/8), sin(3 pi/8)]
    for point in (Fraction(1, 8), Fraction(1, 4), Fraction(3, 8)):
        assert_contains_oracle(enc, lambda p=point: mpmath.sin(mpmath.pi * mpf_frac(p)))


def test_sin_pi_rejects_out_of_range():
    with pytest.raises(ValueError):
        sin_pi_enclosure(Enclosure(Fraction(0), Fraction(3, 4)), 64)


@pytest.mark.parametrize("y", [2, 3, 10, 10**6, Fraction(3, 2), Fraction(1, 17)])
def test_log_enclosure(y):
    enc = log_enclosure(y, 128)
    assert_contains_oracle(enc, lambda: mpmath.log(mpf_frac(y)))


@pytest.mark.parametrize(
    "u", [Fraction(0), Fraction(1, 2), Fraction(5), Fraction(-7, 2), Fraction(1, 1000)]
)
def test_exp_enclosure(u):
    enc = exp_enclosure(u, 128)
    assert_contains_oracle(enc, lambda: mpmath.exp(mpf_frac(u)))
    assert enc.lo > 0


@pytest.mark.parametrize("n,expo", [(2, Fraction(-3, 5)), (9973, Fraction(-1, 2)), (5, Fraction(2, 3))])
def test_pow_enclosure(n, expo):
    enc = pow_enclosure(n, expo, 96)
    assert_contains_oracle(enc, lambda: mpmath.power(n, mpf_frac(expo)))


def test_refine_hits_width_goal():
    enc = refine(lambda bits: sqrt_enclosure(2, bits), Fraction(1, 10**30))
    assert enc.width <= Fraction(1, 10**30)


def test_refine_raises_at_cap():
    stuck = lambda bits: Enclosure(Fraction(0), Fraction(1))
    with pytest.raises(PrecisionCapError):
        refine(stuck, Fraction(1, 10), start=64, cap=128)


def test_separate_orders_close_values():
    a = lambda bits: sqrt_enclosure(2, bits)
    b = lambda bits: sqrt_enclosure(Fraction(2000000000001, 10**12), bits)
    assert separate(a, b) == -1
    assert separate(b, a) == 1


@settings(max_examples=60, deadline=None)
@given(
    num=st.integers(min_value=0, max_value=10**9),
    den=st.integers(min_value=1, max_value=10**9),
)
def test_sqrt_containment_random(num, den):
    x = Fraction(num, den)
    enc = sqrt_enclosure(x, 80)
    assert enc.lo * enc.lo <= x <= enc.hi * enc.hi


@settings(max_examples=40, deadline=None)
@given(
    num=st.integers(min_value=0, max_value=500),
    den=st.integers(min_value=1000, max_value=2000),
)
def test_sin_monotone_bounds_random(num, den):
    # x in [0, 1/2]; sin(pi x) must respect the 2x <= sin(pi x) <= pi x chain
    x = Fraction(num, den)
    if x > Fraction(1, 2):
        x = Fraction(1, 2)
    enc = sin_pi_enclosure(Enclosure.point(x), 96)
    pi = pi_enclosure(96)
    assert enc.hi <= pi.hi * x or x == 0
    assert enc.lo >= 2 * x * Fraction(999, 1000) or x == 0


# Randomized containment across the precisions the callers use. Each width
# bound is one the kernel meets by its error budget: the final outward
# rounding costs 2**-(bits+1), the series and ln2 terms a small multiple of
# 2**-(bits+5), and exp's squaring steps scale that with the value.

BITS = st.sampled_from([128, 256, 512, 1024])


@settings(max_examples=40, deadline=None)
@given(
    bits=BITS,
    y=st.one_of(
        st.integers(min_value=2, max_value=10**12),
        # the dyadic arguments _log_power passes: 192-bit denominators
        st.integers(min_value=1, max_value=2**200).map(lambda n: Fraction(n, 2**192)),
    ),
)
def test_log_enclosure_random(bits, y):
    y = Fraction(y)
    enc = log_enclosure(y, bits)
    assert_contains_oracle(enc, lambda: mpmath.log(mpf_frac(y)))
    # |floor(log2 y)| is at most this many binades
    e = abs(y.numerator.bit_length() - y.denominator.bit_length()) + 1
    assert enc.width <= Fraction(128 + e, 128 * 2**bits)


@settings(max_examples=40, deadline=None)
@given(
    bits=BITS,
    u=st.one_of(
        st.fractions(min_value=-40, max_value=0, max_denominator=10**6),
        # several halvings before the Taylor step
        st.fractions(min_value=8, max_value=40, max_denominator=10**6),
    ),
)
def test_exp_enclosure_random(bits, u):
    enc = exp_enclosure(u, bits)
    value = lambda: mpmath.exp(mpf_frac(u))
    assert_contains_oracle(enc, value)
    assert enc.lo > 0
    assert enc.width <= (1 + oracle(value)[1]) / 2**bits


@settings(max_examples=30, deadline=None)
@given(
    bits=BITS,
    n=st.integers(min_value=2, max_value=10**6),
    sign=st.sampled_from([1, -1]),
    offset=st.fractions(
        min_value=Fraction(-1, 10), max_value=Fraction(1, 10), max_denominator=10**4
    ),
)
def test_pow_enclosure_near_half(bits, n, sign, offset):
    expo = sign * (Fraction(1, 2) + offset)
    enc = pow_enclosure(n, expo, bits)
    value = lambda: mpmath.power(n, mpf_frac(expo))
    assert_contains_oracle(enc, value)
    assert enc.width <= (1 + oracle(value)[1]) / 2**bits


@settings(max_examples=40, deadline=None)
@given(
    bits=BITS,
    a=st.integers(min_value=0, max_value=2**16),
    e=st.integers(min_value=17, max_value=1100),
)
def test_sin_pi_enclosure_near_half(bits, a, e):
    x = Fraction(1, 2) - Fraction(a, 2**e)
    enc = sin_pi_enclosure(Enclosure.point(x), bits)
    assert_contains_oracle(enc, lambda: mpmath.sin(mpmath.pi * mpf_frac(x)))
    assert Fraction(0) <= enc.lo and enc.hi <= Fraction(1)
    assert enc.width <= Fraction(1, 2**bits)
