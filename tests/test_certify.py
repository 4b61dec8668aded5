"""Containment tests for the certified enclosure kernel.

Every enclosure is checked against mpmath at several hundred bits, an
independent route: the kernel uses only integer brackets and rational
series, while the oracle uses binary floating point transcendentals. The
integer sin, log, exp and pow kernels must also give exactly the endpoints
of the Fraction-valued kernels they replaced, kept below as a reference.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coblab import certify, diophantine, dyadic
from coblab.certify import (
    GUARD_BITS,
    HARD_CAP_BITS,
    START_BITS,
    Enclosure,
    _atanh_fixed,
    _fixed,
    _mul_down,
    _mul_up,
    exp_enclosure,
    from_fixed,
    log_enclosure,
    pi_enclosure,
    pow_enclosure,
    precisions,
    refine,
    separate,
    sin_pi_enclosure,
    sqrt_enclosure,
)
from coblab.errors import PrecisionCapError
from coblab.surd import dist_enclosure, parse_surd
from mpbridge import mp_fraction


def mpf_frac(x):
    fr = Fraction(x)
    return mpmath.mpf(fr.numerator) / fr.denominator


def oracle(expr, bits):
    """A two-sided rational bracket of expr() for a kernel asked for bits:
    mpmath's value at 3 * bits + 200 bits, taken exactly as a Fraction and
    padded by (1 + |value|) * 2**-(3 * bits + 150) for mpmath's own rounding,
    so the bracket is far narrower than the enclosure's last bit."""
    with mpmath.workprec(3 * bits + 200):
        value = mp_fraction(expr())
    slack = (1 + abs(value)) / 2 ** (3 * bits + 150)
    return value - slack, value + slack


def assert_contains_oracle(enc, expr, bits):
    lo, hi = oracle(expr, bits)
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
    assert_contains_oracle(enc, lambda: mpmath.sqrt(mpf_frac(x)), 128)
    assert enc.width <= Fraction(1, 2**100)


def test_sqrt_zero_and_negative():
    assert sqrt_enclosure(0, 64) == Enclosure.point(0)
    with pytest.raises(ValueError):
        sqrt_enclosure(-1, 64)


@pytest.mark.parametrize("bits", [64, 128, 512])
def test_pi_enclosure(bits):
    enc = pi_enclosure(bits)
    assert_contains_oracle(enc, lambda: mpmath.pi + 0, bits)
    assert enc.width <= Fraction(1, 2**bits)


@pytest.mark.parametrize(
    "x",
    [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1, 10**6), Fraction(413, 1000)],
)
def test_sin_pi_enclosure(x):
    enc = sin_pi_enclosure(Enclosure.point(x), 128)
    assert_contains_oracle(enc, lambda: mpmath.sin(mpmath.pi * mpf_frac(x)), 128)
    assert Fraction(0) <= enc.lo and enc.hi <= Fraction(1)


def test_sin_pi_on_wide_interval():
    x = Enclosure(Fraction(1, 8), Fraction(3, 8))
    enc = sin_pi_enclosure(x, 96)
    # must contain the whole image [sin(pi/8), sin(3 pi/8)]
    for point in (Fraction(1, 8), Fraction(1, 4), Fraction(3, 8)):
        assert_contains_oracle(
            enc, lambda p=point: mpmath.sin(mpmath.pi * mpf_frac(p)), 96)


def test_sin_pi_rejects_out_of_range():
    with pytest.raises(ValueError):
        sin_pi_enclosure(Enclosure(Fraction(0), Fraction(3, 4)), 64)


@pytest.mark.parametrize("y", [2, 3, 10, 10**6, Fraction(3, 2), Fraction(1, 17)])
def test_log_enclosure(y):
    enc = log_enclosure(y, 128)
    assert_contains_oracle(enc, lambda: mpmath.log(mpf_frac(y)), 128)


@pytest.mark.parametrize(
    "u", [Fraction(0), Fraction(1, 2), Fraction(5), Fraction(-7, 2), Fraction(1, 1000)]
)
def test_exp_enclosure(u):
    enc = exp_enclosure(u, 128)
    assert_contains_oracle(enc, lambda: mpmath.exp(mpf_frac(u)), 128)
    assert enc.lo > 0


@pytest.mark.parametrize("n,expo", [(2, Fraction(-3, 5)), (9973, Fraction(-1, 2)), (5, Fraction(2, 3))])
def test_pow_enclosure(n, expo):
    enc = pow_enclosure(n, expo, 96)
    assert_contains_oracle(enc, lambda: mpmath.power(n, mpf_frac(expo)), 96)


def test_refine_hits_width_goal():
    goal = Fraction(1, 10**30)
    enc = refine(lambda bits: sqrt_enclosure(2, bits), lambda e: e.width <= goal)
    assert enc.width <= goal


def doubling_loop_reference(start):
    """The precisions the hand-written doubling loops visited before they
    shared one schedule: start, then min(2*bits, cap) up to the cap."""
    bits, seen = start, []
    while True:
        seen.append(bits)
        if bits >= HARD_CAP_BITS:
            return seen
        bits = min(2 * bits, HARD_CAP_BITS)


@pytest.mark.parametrize("start", [64, 128, 160, 192])
def test_precisions_visit_what_the_doubling_loops_visited(start):
    assert list(precisions(start)) == doubling_loop_reference(start)


def test_precisions_end_on_the_cap():
    assert list(precisions(160)) == [160, 320, 640, 1280, 2560, 5120, 8192]
    assert list(precisions(HARD_CAP_BITS)) == [HARD_CAP_BITS]


@pytest.mark.parametrize("start", [0, -64, HARD_CAP_BITS + 1, 2 * HARD_CAP_BITS])
def test_precisions_refuse_a_start_outside_the_cap(start):
    with pytest.raises(ValueError, match="start precision"):
        next(precisions(start))


def test_refine_raises_at_cap():
    seen = []

    def stuck(bits):
        seen.append(bits)
        return Enclosure(Fraction(0), Fraction(1))

    with pytest.raises(PrecisionCapError, match=f"{HARD_CAP_BITS}-bit"):
        refine(stuck, lambda e: e.width <= Fraction(1, 10), start=64)
    assert seen == list(precisions(64))


def test_separate_raises_at_cap_on_equal_values():
    seen = []

    def one(bits):
        seen.append(bits)
        return sqrt_enclosure(2, bits)

    with pytest.raises(PrecisionCapError, match=f"{HARD_CAP_BITS}-bit"):
        separate(one, one)
    assert seen[::2] == list(precisions(START_BITS))


def test_refine_and_separate_take_no_cap():
    producer = lambda bits: sqrt_enclosure(2, bits)
    with pytest.raises(TypeError):
        refine(producer, lambda e: e.width <= Fraction(1, 10), cap=128)
    with pytest.raises(TypeError):
        separate(producer, producer, cap=128)
    with pytest.raises(TypeError):
        separate(producer, producer, start=128)


def test_every_escalation_walks_the_one_schedule(monkeypatch):
    """With certify.precisions cut to a single 8-bit step, no enclosure in
    the package can reach its goal, so each escalation must end in the cap
    error: none may walk a schedule of its own."""
    monkeypatch.setattr(certify, "precisions", lambda start: iter([8]))
    alpha, beta = parse_surd("(-1+1*sqrt(2))/1"), parse_surd("(-1+1*sqrt(3))/1")
    root2 = lambda bits: sqrt_enclosure(2, bits)
    close = lambda bits: sqrt_enclosure(Fraction(2000000000001, 10**12), bits)
    escalations = [
        lambda: dist_enclosure(alpha, 12345, abs_tol=Fraction(1, 10**12)),
        lambda: diophantine.approximation_record(alpha, beta, 2),
        lambda: dyadic.phase((3 << 188) + 123456789),
        lambda: refine(root2, lambda e: e.width <= Fraction(1, 10**30)),
        lambda: separate(root2, close),
    ]
    for escalate in escalations:
        with pytest.raises(PrecisionCapError, match=f"{HARD_CAP_BITS}-bit hard cap"):
            escalate()


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
    assert_contains_oracle(enc, lambda: mpmath.log(mpf_frac(y)), bits)
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
    assert_contains_oracle(enc, value, bits)
    assert enc.lo > 0
    assert enc.width <= (1 + oracle(value, bits)[1]) / 2**bits


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
    assert_contains_oracle(enc, value, bits)
    assert enc.width <= (1 + oracle(value, bits)[1]) / 2**bits


@settings(max_examples=40, deadline=None)
@given(
    bits=BITS,
    a=st.integers(min_value=0, max_value=2**16),
    e=st.integers(min_value=17, max_value=1100),
)
def test_sin_pi_enclosure_near_half(bits, a, e):
    x = Fraction(1, 2) - Fraction(a, 2**e)
    enc = sin_pi_enclosure(Enclosure.point(x), bits)
    assert_contains_oracle(enc, lambda: mpmath.sin(mpmath.pi * mpf_frac(x)), bits)
    assert Fraction(0) <= enc.lo and enc.hi <= Fraction(1)
    assert enc.width <= Fraction(1, 2**bits)


# Reference kernels: the Fraction-valued log, exp and pow that the integer
# kernels replaced. Every step after the series builds normalised Fractions
# and rounds through Enclosure.rounded; the integer kernels must reproduce
# their endpoints exactly, not just contain the same value.


def _ref_sin_taylor(t, bits):
    if t == 0:
        return Enclosure.point(0)
    p = bits + 8 + GUARD_BITS
    a_lo, a_hi = _fixed(t.numerator, t.denominator, p)
    sq_lo, sq_hi = _mul_down(a_lo, a_lo, p), _mul_up(a_hi, a_hi, p)
    lo = hi = 0
    k = 0
    while True:
        if a_hi < 1 << GUARD_BITS:
            if k % 2 == 0:
                hi += a_hi
            else:
                lo -= a_hi
            return from_fixed(lo, hi, p).rounded(bits + 4)
        if k % 2 == 0:
            lo, hi = lo + a_lo, hi + a_hi
        else:
            lo, hi = lo - a_hi, hi - a_lo
        k += 1
        d = (2 * k) * (2 * k + 1)
        a_lo, a_hi = _mul_down(a_lo, sq_lo, p, d), _mul_up(a_hi, sq_hi, p, d)


def _ref_sin_pi(x, bits):
    pi = pi_enclosure(bits + 6)
    lower = _ref_sin_taylor(pi.lo * x.lo, bits + 6).lo
    hi_arg = pi.hi * x.hi
    if hi_arg <= pi.lo / 2:
        upper = min(_ref_sin_taylor(hi_arg, bits + 6).hi, Fraction(1))
    else:
        upper = Fraction(1)
    return Enclosure(max(lower, Fraction(0)), upper)


def _ref_atanh_series(t, bits):
    if t == 0:
        return Enclosure.point(0)
    p = bits + 6 + GUARD_BITS
    pw_lo, pw_hi = _fixed(t.numerator, t.denominator, p)
    sq_lo, sq_hi = _mul_down(pw_lo, pw_lo, p), _mul_up(pw_hi, pw_hi, p)
    one_minus = (1 << p) - sq_hi
    lo = hi = 0
    k = 0
    while True:
        lo += pw_lo // (2 * k + 1)
        hi += -(-pw_hi // (2 * k + 1))
        pw_lo, pw_hi = _mul_down(pw_lo, sq_lo, p), _mul_up(pw_hi, sq_hi, p)
        remainder = -(-(pw_hi << p) // ((2 * k + 3) * one_minus))
        if remainder <= 1 << GUARD_BITS:
            return from_fixed(lo, hi + remainder, p).rounded(bits + 4)
        k += 1


def _ref_log(y, bits):
    q = Fraction(y)
    if q == 1:
        return Enclosure.point(0)
    n, d = q.numerator, q.denominator
    e = n.bit_length() - d.bit_length()
    e = e - 1 if n << max(-e, 0) < d << max(e, 0) else e
    m = q / Fraction(2) ** e
    body = 2 * _ref_atanh_series((m - 1) / (m + 1), bits + 4)
    ln2 = 2 * _ref_atanh_series(Fraction(1, 3), bits + 6)
    return (body + e * ln2).rounded(bits + 2)


def _ref_exp(u, bits):
    q = Fraction(u)
    if q == 0:
        return Enclosure.point(1)
    if q < 0:
        pos = _ref_exp(-q, bits + 4)
        return Enclosure(1 / pos.hi, 1 / pos.lo).rounded(bits + 2)
    halvings = 0
    while q > Fraction(1 << halvings, 2):
        halvings += 1
    p = bits + 2 * halvings + 10 + GUARD_BITS
    w_lo, w_hi = _fixed(q.numerator, q.denominator, p - halvings)
    lo = hi = a_lo = a_hi = 1 << p
    k = 0
    while True:
        k += 1
        a_lo, a_hi = _mul_down(a_lo, w_lo, p, k), _mul_up(a_hi, w_hi, p, k)
        if 2 * a_hi <= 1 << GUARD_BITS:
            hi += 2 * a_hi
            break
        lo += a_lo
        hi += a_hi
    for _ in range(halvings):
        lo, hi = _mul_down(lo, lo, p), _mul_up(hi, hi, p)
    return from_fixed(lo, hi, p).rounded(bits + 2)


def _ref_pow(base, expo, bits):
    base, expo = Fraction(base), Fraction(expo)
    if base == 1 or expo == 0:
        return Enclosure.point(1)
    w = _ref_log(base, bits + 8) * expo
    lower = _ref_exp(w.lo, bits + 4).lo
    upper = _ref_exp(w.hi, bits + 4).hi
    return Enclosure(max(lower, Fraction(0)), upper)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=-(2**200), max_value=2**200),
    d=st.integers(min_value=1, max_value=2**200),
    p=st.integers(min_value=0, max_value=1100),
)
def test_fixed_is_floor_and_ceiling(n, d, p):
    scaled = Fraction(n, d) * 2**p
    assert _fixed(n, d, p) == (math.floor(scaled), math.ceil(scaled))


ANY_BITS = st.integers(min_value=64, max_value=1024)
POSITIVE = st.one_of(
    # num/den up to 2**200 on both sides of 1
    st.builds(
        Fraction,
        st.integers(min_value=1, max_value=2**200),
        st.integers(min_value=1, max_value=2**200),
    ),
    # below 1
    st.fractions(min_value=Fraction(1, 10**9), max_value=1, max_denominator=10**9),
    # powers of two: the atanh argument is t = 0
    st.integers(min_value=-300, max_value=300).map(lambda e: Fraction(2) ** e),
    st.integers(min_value=1, max_value=10**12).map(Fraction),
)
EXPONENT = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-8, max_value=8, max_denominator=10**4),
    st.fractions(min_value=-8, max_value=8, max_denominator=2**200),
)


@settings(max_examples=80, deadline=None)
@given(
    bits=ANY_BITS,
    t=st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=2**64),
)
# The upper sum of this one ends a few ulps above a point of the output
# grid, so rounding any step of it down instead of up shows in the result.
@example(bits=64, t=Fraction(282686, 981118))
def test_atanh_matches_fraction_reference(bits, t):
    lo, hi = _atanh_fixed(t.numerator, t.denominator, bits)
    assert from_fixed(lo, hi, bits + 4) == _ref_atanh_series(t, bits)


SMALL_BITS = st.integers(min_value=8, max_value=32)


@st.composite
def log_just_above_a_grid_point(draw):
    """(bits, y) with log y a hair above m * 2**-(bits+2), a point of the
    output grid of log_enclosure(y, bits), for |m| up to twice ln 2's.

    There an upper endpoint that lost any positive term of its sum rounds up
    to m * 2**-(bits+2) at most, below log y.
    """
    bits = draw(SMALL_BITS)
    m = draw(st.integers(min_value=-(2 << bits), max_value=2 << bits))
    with mpmath.workprec(600):
        y = mpmath.exp(mpmath.ldexp(m, -bits - 2) + mpmath.ldexp(1, -bits - 80))
        sign, man, exp, _ = y._mpf_
    return bits, man * Fraction(2) ** exp


# Containment at small bits against mpmath's log at 3000 bits, taken exactly
# as a Fraction; for these arguments its error is below 2**-2990. The grid
# is coarse here, so a dropped tail of atanh's upper sum moves the upper
# endpoint across a grid point, which the Fraction-reference tests alone
# would not tell from a matching change to the reference.
@settings(max_examples=300, deadline=None)
@given(
    case=st.one_of(
        st.tuples(SMALL_BITS, POSITIVE), log_just_above_a_grid_point()
    )
)
def test_log_enclosure_contains_the_3000_bit_log_at_small_bits(case):
    bits, y = case
    with mpmath.workprec(3000):
        sign, man, exp, _ = mpmath.log(mpf_frac(y))._mpf_
    value = (-1) ** sign * man * Fraction(2) ** exp
    enc = log_enclosure(y, bits)
    slack = Fraction(1, 2**2900)
    assert enc.lo - slack <= value <= enc.hi + slack


@settings(max_examples=80, deadline=None)
@given(bits=ANY_BITS, y=POSITIVE)
def test_log_matches_fraction_reference(bits, y):
    assert log_enclosure(y, bits) == _ref_log(y, bits)


@settings(max_examples=80, deadline=None)
@given(
    bits=ANY_BITS,
    u=st.one_of(
        EXPONENT,
        st.fractions(min_value=-64, max_value=64, max_denominator=2**200),
    ),
)
def test_exp_matches_fraction_reference(bits, u):
    assert exp_enclosure(u, bits) == _ref_exp(u, bits)


@settings(max_examples=80, deadline=None)
@given(bits=ANY_BITS, base=POSITIVE, expo=EXPONENT)
def test_pow_matches_fraction_reference(bits, base, expo):
    assert pow_enclosure(base, expo, bits) == _ref_pow(base, expo, bits)


HALF = Fraction(1, 2)
SIN_POINT = st.one_of(
    st.fractions(min_value=0, max_value=HALF, max_denominator=2**64),
    st.fractions(min_value=0, max_value=HALF, max_denominator=10**40),
    # next to 1/2, where pi.hi * x passes pi/2 and the upper end is 1
    st.builds(lambda a, e: HALF - Fraction(a, 2**e),
              st.integers(min_value=0, max_value=2**16),
              st.integers(min_value=17, max_value=1100)),
    st.sampled_from([Fraction(0), HALF]),
)


@settings(max_examples=100, deadline=None)
@given(bits=st.integers(min_value=64, max_value=1024), ends=st.lists(
    SIN_POINT, min_size=1, max_size=2).map(sorted))
@example(bits=64, ends=[HALF])
@example(bits=128, ends=[Fraction(0), HALF - Fraction(1, 2**70)])
@example(bits=1024, ends=[Fraction(1, 3), HALF - Fraction(1, 2**1030)])
def test_sin_pi_matches_fraction_reference(bits, ends):
    x = Enclosure(ends[0], ends[-1])
    assert sin_pi_enclosure(x, bits) == _ref_sin_pi(x, bits)


def next_to_a_grid_point(bits, j, side):
    """x near 1/2 with sin(pi*x) a hair above (side 1) or below (side -1)
    1 - j * 2**-(bits+10), a point of the output grid of
    sin_pi_enclosure(., bits).

    Near 1/2 the sine is flat, so pi's own width moves sin(pi.hi * x) and
    sin(pi.lo * x) by far less than the last Taylor term: an end that lost
    that term's tail rounds onto the grid point, on the wrong side of
    sin(pi*x).
    """
    with mpmath.workprec(3 * bits + 200):
        target = 1 - mpmath.ldexp(j, -bits - 10) + side * mpmath.ldexp(1, -bits - 60)
        sign, man, exp, _ = (mpmath.asin(target) / mpmath.pi)._mpf_
    return man * Fraction(2) ** exp


# Containment against mpmath's sine at 3 * bits + 200 bits, taken exactly as
# a Fraction, where the bracket's last term decides on which side of a grid
# point an end falls.
@settings(max_examples=60, deadline=None)
@given(
    bits=st.integers(min_value=64, max_value=256),
    j=st.integers(min_value=1, max_value=2**12),
    side=st.sampled_from([-1, 1]),
)
@example(bits=64, j=1, side=1)  # the upper end needs the tail
@example(bits=128, j=1, side=-1)  # the lower end needs the tail
def test_sin_pi_enclosure_contains_the_sine_next_to_a_grid_point(bits, j, side):
    x = next_to_a_grid_point(bits, j, side)
    with mpmath.workprec(3 * bits + 200):
        sign, man, exp, _ = mpmath.sin(mpmath.pi * mpf_frac(x))._mpf_
    value = man * Fraction(2) ** exp
    enc = sin_pi_enclosure(Enclosure.point(x), bits)
    slack = Fraction(1, 2 ** (3 * bits + 150))
    assert enc.lo - slack <= value <= enc.hi + slack
    assert enc.width <= Fraction(1, 2**bits)


def test_pow_rejects_nonpositive_base():
    with pytest.raises(ValueError):
        pow_enclosure(0, Fraction(1, 3), 64)
    with pytest.raises(ValueError):
        pow_enclosure(Fraction(-1, 2), Fraction(1, 3), 64)
