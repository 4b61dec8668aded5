"""Certified enclosures built from integer arithmetic with directed rounding.

Every bound produced here is sound by construction: square roots come from
``math.isqrt`` brackets, pi from the Machin arctangent formula with
alternating-series truncation, sin from alternating Taylor brackets, log from
the atanh series with an explicit geometric remainder, exp from Taylor with
scaled squaring. No floating point enters any certified path, which keeps
these routines fully independent of the high-precision decimal oracles used
in the test suite.

The series run in integer fixed point: plain ints scaled by 2**p, where p is
the target precision plus GUARD_BITS. Each loop keeps a lower and an upper
partial sum; every product and quotient is floored for the lower sum and
ceiled for the upper one, and the truncation remainder is ceiled, so each
bracket holds by construction while the at most one ulp lost per step stays
below the guard bits. sin, log, exp and pow stay in ints to the end, since
every later step (pi*x read from numerators and denominators, a coarser
grid, e*ln 2, 1/exp(u), exponent*log(base)) is a floor or a ceiling onto a
dyadic grid. A Fraction is built once per public result: for
sin_pi_enclosure, once per end.

Precision escalates on one schedule, precisions(start): start, 2*start,
4*start, ... and then HARD_CAP_BITS, the one cap every report prints. refine
is its only walk: separate, the distance enclosure, the quality loop of the
Dirichlet records and the correctly rounded phases of coblab.dyadic are each
one refine call, from 128 or 192 bits (a start that is part of the report
bytes) or, for the phases, 180 bits. refine raises PrecisionCapError naming
the cap when the last step still falls short.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import Callable, Iterator, TypeVar, Union

from .errors import PrecisionCapError

START_BITS = 128
HARD_CAP_BITS = 8192
# precision of the midpoint (non-certified) arithmetic in coblab.fourier
WORK_PREC = 128
GUARD_BITS = 20

Rational = Union[int, Fraction]
T = TypeVar("T")


class Frozen:
    """Base of the immutable records that are not NamedTuples.

    Those are the records that validate in __init__ or define operators a
    tuple already has (+, *, in, len). The fields are the subclass's
    __slots__, each set once with object.__setattr__; == and hash compare
    them in order, and the repr is Name(field=value, ...).
    """

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        pairs = zip(self.__slots__, self._values())
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in pairs)})"


class Enclosure(Frozen):
    """A closed rational interval [lo, hi] certified to contain a value."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise ValueError(f"empty enclosure: {lo} > {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def point(cls, value: Rational) -> "Enclosure":
        v = Fraction(value)
        return cls(v, v)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __add__(self, other: "Enclosure | Rational") -> "Enclosure":
        if isinstance(other, Enclosure):
            return Enclosure(self.lo + other.lo, self.hi + other.hi)
        q = Fraction(other)
        return Enclosure(self.lo + q, self.hi + q)

    __radd__ = __add__

    def __neg__(self) -> "Enclosure":
        return Enclosure(-self.hi, -self.lo)

    def __sub__(self, other: "Enclosure | Rational") -> "Enclosure":
        if isinstance(other, Enclosure):
            return self + (-other)
        return self + (-Fraction(other))

    def __mul__(self, other: "Enclosure | Rational") -> "Enclosure":
        if isinstance(other, Enclosure):
            products = (
                self.lo * other.lo,
                self.lo * other.hi,
                self.hi * other.lo,
                self.hi * other.hi,
            )
            return Enclosure(min(products), max(products))
        q = Fraction(other)
        if q >= 0:
            return Enclosure(self.lo * q, self.hi * q)
        return Enclosure(self.hi * q, self.lo * q)

    __rmul__ = __mul__

    def __truediv__(self, other: "Enclosure | Rational") -> "Enclosure":
        if isinstance(other, Enclosure):
            # Only division by intervals bounded away from 0 arises here.
            if other.lo <= 0:
                raise ZeroDivisionError(
                    "division requires a strictly positive divisor enclosure"
                )
            return self * Enclosure(1 / other.hi, 1 / other.lo)
        q = Fraction(other)
        if q == 0:
            raise ZeroDivisionError("division by exact zero")
        return self * (1 / q)

    def square(self) -> "Enclosure":
        """Interval square, tight also when the interval straddles 0."""
        a, b = self.lo * self.lo, self.hi * self.hi
        lo = Fraction(0) if self.lo < 0 < self.hi else min(a, b)
        return Enclosure(lo, max(a, b))

    def rounded(self, bits: int) -> "Enclosure":
        """Round endpoints outward onto the 2**-bits dyadic grid.

        Keeps denominators bounded at the cost of at most 2**-bits of extra
        width per endpoint; used to stop exact Fractions from snowballing.
        """
        return from_fixed(*to_fixed(self, bits), bits)


# Fixed point: an int n stands for n * 2**-p. Lower bounds are rounded down
# and upper bounds up; d is a positive integer divisor.


def _fixed(n: int, d: int, p: int) -> tuple[int, int]:
    """Floor and ceiling of (n/d) * 2**p."""
    return (n << p) // d, -((-n << p) // d)


def _mul_down(a: int, b: int, p: int, d: int = 1) -> int:
    return (a * b >> p) // d  # floor(a * b / (d * 2**p))


def _mul_up(a: int, b: int, p: int, d: int = 1) -> int:
    return -((-a * b >> p) // d)  # ceil(a * b / (d * 2**p))


def _alternate(lo: int, hi: int, k: int, a_lo: int, a_hi: int) -> tuple[int, int]:
    """Add (-1)**k * a, for a in [a_lo, a_hi], to the bracket [lo, hi]."""
    if k % 2 == 0:
        return lo + a_lo, hi + a_hi
    return lo - a_hi, hi - a_lo


def from_fixed(lo: int, hi: int, p: int) -> Enclosure:
    """The enclosure [lo, hi] * 2**-p of a fixed-point bracket."""
    return Enclosure(Fraction(lo, 1 << p), Fraction(hi, 1 << p))


def to_fixed(x: Enclosure, p: int) -> tuple[int, int]:
    """Floor of x.lo and ceiling of x.hi, times 2**p."""
    lo, hi = x.lo, x.hi
    return (lo.numerator << p) // lo.denominator, -(
        (-hi.numerator << p) // hi.denominator
    )


def max_enclosure(a: Enclosure, b: Enclosure) -> Enclosure:
    return Enclosure(max(a.lo, b.lo), max(a.hi, b.hi))


def precisions(start: int) -> Iterator[int]:
    """The one precision schedule: start, 2*start, 4*start, ... while below
    HARD_CAP_BITS, then HARD_CAP_BITS itself. A start past the cap is
    refused, since no enclosure may be taken above it."""
    if not 0 < start <= HARD_CAP_BITS:
        raise ValueError(f"start precision {start} outside (0, {HARD_CAP_BITS}]")
    bits = start
    while bits < HARD_CAP_BITS:
        yield bits
        bits *= 2
    yield HARD_CAP_BITS


def refine(
    producer: Callable[[int], T],
    done: Callable[[T], bool],
    *,
    start: int = START_BITS,
    what: str = "an enclosure",
) -> T:
    """The first producer(bits), for bits on precisions(start), that done
    accepts; PrecisionCapError naming what when none is."""
    for bits in precisions(start):
        result = producer(bits)
        if done(result):
            return result
    raise PrecisionCapError(f"{what} unresolved at the {HARD_CAP_BITS}-bit hard cap")


def separate(
    prod_a: Callable[[int], Enclosure], prod_b: Callable[[int], Enclosure]
) -> int:
    """Return -1 if a < b certified, +1 if a > b, refining both from
    START_BITS until the enclosures are disjoint.

    Callers must only compare values that cannot be equal (e.g. quantities
    lying in distinct quadratic fields); equality burns through the cap.
    """
    a, b = refine(
        lambda bits: (prod_a(bits), prod_b(bits)),
        lambda pair: pair[0].hi < pair[1].lo or pair[1].hi < pair[0].lo,
        what="the order of two enclosures",
    )
    return -1 if a.hi < b.lo else 1


# ---------------------------------------------------------------------------
# square roots


def sqrt_enclosure(x: Rational, bits: int) -> Enclosure:
    """Enclosure of sqrt(x) for rational x >= 0, width below 2**-bits·x^(1/2)·ulp."""
    q = Fraction(x)
    if q < 0:
        raise ValueError("sqrt of a negative rational")
    if q == 0:
        return Enclosure.point(0)
    # sqrt(p/q) = sqrt(p*q)/q, bracketed by isqrt on p*q*4**bits.
    n = q.numerator * q.denominator
    s = isqrt(n << (2 * bits))
    den = q.denominator << bits
    return Enclosure(Fraction(s, den), Fraction(s + 1, den))


# ---------------------------------------------------------------------------
# pi


def _arctan_inv(m: int, bits: int) -> Enclosure:
    """Alternating-series enclosure of arctan(1/m) for integer m >= 2."""
    p = bits + 8 + GUARD_BITS
    lo = hi = 0
    pw_lo, pw_hi = _fixed(1, m, p)  # (1/m)**(2k+1)
    m2 = m * m
    k = 0
    while True:
        a_lo, a_hi = pw_lo // (2 * k + 1), -(-pw_hi // (2 * k + 1))
        if a_hi < 1 << GUARD_BITS:
            # term < 2**-(bits+8): the tail lies between 0 and (-1)**k * term
            return from_fixed(*_alternate(lo, hi, k, 0, a_hi), p)
        lo, hi = _alternate(lo, hi, k, a_lo, a_hi)
        pw_lo, pw_hi = pw_lo // m2, -(-pw_hi // m2)
        k += 1


@lru_cache(maxsize=None)
def pi_enclosure(bits: int) -> Enclosure:
    """Machin: pi = 16*arctan(1/5) - 4*arctan(1/239)."""
    a5 = _arctan_inv(5, bits + 6)
    a239 = _arctan_inv(239, bits + 6)
    lo = 16 * a5.lo - 4 * a239.hi
    hi = 16 * a5.hi - 4 * a239.lo
    return Enclosure(lo, hi).rounded(bits + 2)


# ---------------------------------------------------------------------------
# sin on [0, pi/2]


def _sin_fixed(num: int, den: int, bits: int) -> tuple[int, int]:
    """Alternating Taylor bracket of sin(t) for t = num/den in [0, 2], as ints
    on the 2**-(bits+4) grid."""
    p = bits + 8 + GUARD_BITS
    a_lo, a_hi = _fixed(num, den, p)  # t**(2k+1) / (2k+1)!
    sq_lo, sq_hi = _mul_down(a_lo, a_lo, p), _mul_up(a_hi, a_hi, p)
    lo = hi = 0
    k = 0
    while True:
        if a_hi < 1 << GUARD_BITS:
            # term < 2**-(bits+8): the tail lies between 0 and (-1)**k * term
            lo, hi = _alternate(lo, hi, k, 0, a_hi)
            return lo >> (GUARD_BITS + 4), -(-hi >> (GUARD_BITS + 4))
        lo, hi = _alternate(lo, hi, k, a_lo, a_hi)
        k += 1
        # terms strictly decrease for t <= 2 since (2k)(2k+1) >= 6 > t*t
        d = (2 * k) * (2 * k + 1)
        a_lo, a_hi = _mul_down(a_lo, sq_lo, p, d), _mul_up(a_hi, sq_hi, p, d)


def sin_pi_enclosure(x: Enclosure, bits: int) -> Enclosure:
    """Enclosure of sin(pi*x) for an enclosure x inside [0, 1/2].

    Monotone on the quarter period, so endpoint brackets suffice; if the
    scaled upper endpoint may cross pi/2 the upper bound falls back to 1.
    pi lies on the 2**-(bits+8) grid, so pi*x is num/den with ints read
    from the numerators and denominators, and the ends stay ints on the
    2**-(bits+10) grid until the one Enclosure is built.
    """
    lo_n, lo_d = x.lo.numerator, x.lo.denominator
    hi_n, hi_d = x.hi.numerator, x.hi.denominator
    if lo_n < 0 or 2 * hi_n > hi_d:
        raise ValueError("argument enclosure must lie inside [0, 1/2]")
    pi_lo, pi_hi = to_fixed(pi_enclosure(bits + 6), bits + 8)
    one = 1 << (bits + 10)
    lower = max(_sin_fixed(pi_lo * lo_n, lo_d << (bits + 8), bits + 6)[0], 0)
    if 2 * pi_hi * hi_n <= pi_lo * hi_d:  # pi.hi * x.hi <= pi.lo / 2
        upper = min(_sin_fixed(pi_hi * hi_n, hi_d << (bits + 8), bits + 6)[1], one)
    else:
        # x.hi at or next to 1/2: sin(pi*x.hi) is within ulp of 1
        upper = one
    return from_fixed(lower, upper, bits + 10)


# ---------------------------------------------------------------------------
# log and exp


@lru_cache(maxsize=1024)
def _atanh_fixed(n: int, d: int, bits: int) -> tuple[int, int]:
    """atanh(n/d) for ints with 0 <= n/d <= 1/2, as ints on the 2**-(bits+4) grid.

    Memoised, since log_fixed meets the same ratio again and again and
    passes it in lowest terms. The 1024 latest (n, d, bits) stay: about
    0.2 kB each at the 100-210 bits of shift, about 2.4 MB in all at the
    8192-bit cap.
    """
    p = bits + 6 + GUARD_BITS
    pw_lo, pw_hi = _fixed(n, d, p)  # t**k
    sq_lo, sq_hi = _mul_down(pw_lo, pw_lo, p), _mul_up(pw_hi, pw_hi, p)
    one_minus = (1 << p) - sq_hi  # 1 - t*t, rounded down
    lo = hi = 0
    k = 1  # odd: the terms are t**k / k
    while True:
        lo += pw_lo // k
        hi -= -pw_hi // k
        pw_lo, pw_hi = pw_lo * sq_lo >> p, -(-pw_hi * sq_hi >> p)
        k += 2
        # the tail from here on is below t**k / (k (1 - t*t)); its ceiling
        # is at most 2**GUARD_BITS, i.e. 2**-(bits+6), exactly when
        # pw_hi * 2**(p - GUARD_BITS) <= k * one_minus
        if pw_hi << (p - GUARD_BITS) <= k * one_minus:
            hi -= -(pw_hi << p) // (k * one_minus)
            return lo >> (GUARD_BITS + 2), -(-hi >> (GUARD_BITS + 2))


@lru_cache(maxsize=None)
def _ln2_fixed(bits: int) -> tuple[int, int]:
    """ln 2 = 2 atanh(1/3), as ints on the 2**-(bits+6) grid."""
    lo, hi = _atanh_fixed(1, 3, bits + 2)
    return 2 * lo, 2 * hi


def log_fixed(num: int, den: int, bits: int) -> tuple[int, int]:
    """log(num/den) for positive ints, as ints on the 2**-(bits+2) grid."""
    # num/den = m * 2**e with m in [1, 2): log = 2 atanh((m-1)/(m+1)) + e ln 2
    e = num.bit_length() - den.bit_length()  # floor(log2(num/den)) is e or e - 1
    if num << max(-e, 0) < den << max(e, 0):
        e -= 1
    a, b = num << max(-e, 0), den << max(e, 0)  # m = a/b
    g = gcd(a - b, a + b)  # lowest terms, so that equal ratios share a memo
    # grid 2**-(bits+8)
    body_lo, body_hi = _atanh_fixed((a - b) // g, (a + b) // g, bits + 4)
    ln2_lo, ln2_hi = _ln2_fixed(bits + 4)  # grid 2**-(bits+10)
    if e < 0:
        ln2_lo, ln2_hi = ln2_hi, ln2_lo
    lo = 8 * body_lo + e * ln2_lo
    hi = 8 * body_hi + e * ln2_hi
    return lo >> 8, -(-hi >> 8)


def _exp_fixed(num: int, den: int, bits: int) -> tuple[int, int]:
    """exp(num/den) for ints with den > 0, as ints on the 2**-(bits+2) grid."""
    if num < 0:
        lo, hi = _exp_fixed(-num, den, bits + 4)  # grid 2**-(bits+6)
        one = 1 << (2 * bits + 8)
        return one // hi, -(-one // lo)
    halvings = 0  # w = (num/den) / 2**halvings <= 1/2
    while 2 * num > den << halvings:
        halvings += 1
    p = bits + 2 * halvings + 10 + GUARD_BITS
    w_lo, w_hi = _fixed(num, den, p - halvings)
    lo = hi = a_lo = a_hi = 1 << p  # a = w**k / k!
    k = 0
    while True:
        k += 1
        a_lo, a_hi = (a_lo * w_lo >> p) // k, -((-a_hi * w_hi >> p) // k)
        # for w <= 1/2 the Taylor tail is below twice the next term
        if 2 * a_hi <= 1 << GUARD_BITS:
            hi += 2 * a_hi
            break
        lo += a_lo
        hi += a_hi
    for _ in range(halvings):
        lo, hi = lo * lo >> p, -(-hi * hi >> p)
    shift = p - bits - 2
    return lo >> shift, -(-hi >> shift)


def log_enclosure(y: Rational, bits: int) -> Enclosure:
    """Enclosure of the natural log of a positive rational."""
    q = Fraction(y)
    if q <= 0:
        raise ValueError("log of a nonpositive rational")
    return from_fixed(*log_fixed(q.numerator, q.denominator, bits), bits + 2)


def exp_enclosure(u: Rational, bits: int) -> Enclosure:
    """Enclosure of exp(u) for rational u via Taylor plus scaled squaring."""
    q = Fraction(u)
    return from_fixed(*_exp_fixed(q.numerator, q.denominator, bits), bits + 2)


def pow_enclosure(base: Rational, exponent: Rational, bits: int) -> Enclosure:
    """Enclosure of base**exponent for rational base > 0 and rational exponent."""
    q = Fraction(base)
    if q <= 0:
        raise ValueError("base must be positive")
    expo = Fraction(exponent)
    if q == 1 or expo == 0:
        return Enclosure.point(1)
    # exp(expo * log q), with log q on the 2**-(bits+10) grid
    ln_lo, ln_hi = log_fixed(q.numerator, q.denominator, bits + 8)
    if expo < 0:
        ln_lo, ln_hi = ln_hi, ln_lo
    den = expo.denominator << (bits + 10)
    lo = _exp_fixed(ln_lo * expo.numerator, den, bits + 4)[0]
    hi = _exp_fixed(ln_hi * expo.numerator, den, bits + 4)[1]
    return from_fixed(lo, hi, bits + 6)
