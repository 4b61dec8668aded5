"""Exact arithmetic in real quadratic fields Q(sqrt(d)).

A value is stored as (a + b*sqrt(d))/c with integers a, b, c > 0 and d
squarefree, reduced so gcd(a, b, c) = 1. Signs, floors and
integer-distance computations are exact integer work: the floor is
(a + isqrt(b*b*d))//c for b > 0 and (a - isqrt(b*b*d) - 1)//c for b < 0,
exact because sqrt(b*b*d) is irrational. Only ``enclosure`` rounds, outward.

The rotation scans, the Fourier phases and the ergodic-sum kernels all step
one fixed-point residue of a rotation number x, frac(k*x) * 2**FP_BITS, from
the integer fixed_point(x); its width and range are defined here only.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Union

from .certify import START_BITS, Enclosure, refine
from .errors import ConfigError

Rational = Union[int, Fraction]


@lru_cache(maxsize=256)  # every surd built in a field decomposes its d again
def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = s*s*r with r squarefree; returns (s, r). Requires n >= 0."""
    if n < 0:
        raise ValueError("need a nonnegative integer")
    if n in (0, 1):
        return 1, n
    s, r = 1, 1
    f = 2
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            s *= f ** (e // 2)
            if e % 2:
                r *= f
        f += 1 if f == 2 else 2
    return s, r * n


@lru_cache(maxsize=None)
def _sqrt_bracket(d: int, bits: int) -> int:
    """Integer s with s <= sqrt(d)*2**bits < s + 1."""
    return isqrt(d << (2 * bits))


class QuadraticSurd:
    """An element (a + b*sqrt(d))/c of a real quadratic field.

    Rational values are permitted (b = 0, d = 1) so that field arithmetic is
    closed; operations that require irrationality validate explicitly.
    """

    __slots__ = ("a", "b", "c", "d", "label", "_hash")

    def __init__(self, a: int, b: int, d: int, c: int = 1, label: str | None = None):
        if c == 0:
            raise ZeroDivisionError("zero denominator")
        if d < 0:
            raise ValueError("only real quadratic fields are supported")
        s, r = squarefree_decompose(d)
        b, d = b * s, r
        if d in (0, 1):
            # the radical collapsed to an integer: fold it into a
            a, b, d = a + b * (1 if d == 1 else 0), 0, 1
        if b == 0:
            d = 1
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(a, b, c)
        if g > 1:
            a, b, c = a // g, b // g, c // g
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "label", label)
        # a rational value hashes like the Fraction it equals
        key = Fraction(a, c) if b == 0 else (a, b, c, d)
        object.__setattr__(self, "_hash", hash(key))

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticSurd is immutable")

    # -- basic structure ---------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def require_irrational(self, what: str = "value") -> "QuadraticSurd":
        if self.is_rational:
            raise ConfigError(f"{what} must be irrational, got {self}")
        return self

    def __repr__(self) -> str:
        return f"QuadraticSurd({self})"

    def __str__(self) -> str:
        return f"({self.a}{self.b:+d}*sqrt({self.d}))/{self.c}"

    def __eq__(self, other) -> bool:
        if isinstance(other, QuadraticSurd):
            return (self.a, self.b, self.c, self.d) == (
                other.a,
                other.b,
                other.c,
                other.d,
            )
        if isinstance(other, (int, Fraction)):
            return self.is_rational and Fraction(self.a, self.c) == other
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    # -- arithmetic ---------------------------------------------------------

    def _parts(self, other) -> tuple[int, int, int, int] | None:
        """Coerce other into (a, b, c) over a common field; None if foreign."""
        if isinstance(other, QuadraticSurd):
            if self.b and other.b and self.d != other.d:
                raise ValueError(
                    f"cannot mix sqrt({self.d}) with sqrt({other.d}) exactly"
                )
            d = self.d if self.b else other.d
            return other.a, other.b, other.c, d
        if isinstance(other, int):
            return other, 0, 1, self.d
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator, self.d
        return None

    def __add__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        a2, b2, c2, d = parts
        return QuadraticSurd(
            self.a * c2 + a2 * self.c, self.b * c2 + b2 * self.c, d, self.c * c2
        )

    __radd__ = __add__

    def __neg__(self):
        return QuadraticSurd(-self.a, -self.b, self.d, self.c)

    def __sub__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        a2, b2, c2, d = parts
        return QuadraticSurd(
            self.a * c2 - a2 * self.c, self.b * c2 - b2 * self.c, d, self.c * c2
        )

    def __mul__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        a2, b2, c2, d = parts
        return QuadraticSurd(
            self.a * a2 + self.b * b2 * d,
            self.a * b2 + self.b * a2,
            d,
            self.c * c2,
        )

    __rmul__ = __mul__

    # -- order --------------------------------------------------------------

    def sign(self) -> int:
        a, b = self.a, self.b  # denominator is positive
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 against b^2 d (never equal: d squarefree)
        lhs, rhs = a * a, b * b * self.d
        if a > 0:
            return 1 if lhs > rhs else -1
        return -1 if lhs > rhs else 1

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- enclosures and integer geometry -------------------------------------

    def enclosure(self, bits: int) -> Enclosure:
        """Certified dyadic enclosure of width |b|/(c*2**bits)."""
        if self.b == 0:
            return Enclosure.point(Fraction(self.a, self.c))
        s = _sqrt_bracket(self.d, bits)
        scale = 1 << bits
        if self.b > 0:
            lo_num = self.a * scale + self.b * s
            hi_num = self.a * scale + self.b * (s + 1)
        else:
            lo_num = self.a * scale + self.b * (s + 1)
            hi_num = self.a * scale + self.b * s
        den = self.c * scale
        return Enclosure(Fraction(lo_num, den), Fraction(hi_num, den))

    def __floor__(self) -> int:
        """floor(x) with r = isqrt(b*b*d): (a + r)//c for b > 0 and
        (a - r - 1)//c for b < 0. Exact: d is squarefree and not 1, so
        sqrt(b*b*d) is irrational and r < sqrt(b*b*d) < r + 1; and c > 0."""
        a, b, c = self.a, self.b, self.c
        if b == 0:
            return a // c
        r = isqrt(b * b * self.d)
        return (a + r) // c if b > 0 else (a - r - 1) // c

    def frac(self) -> "QuadraticSurd":
        return self - self.__floor__()

    def nearest_int(self) -> int:
        """Nearest integer; exact, and tie-free for irrational values.

        Rational inputs sitting exactly on a half-integer round down.
        """
        m = self.__floor__()
        rem = self - m
        if (rem + rem - 1).sign() > 0:
            return m + 1
        return m

    def dist_to_int(self) -> "QuadraticSurd":
        """Distance to the nearest integer, an exact value in [0, 1/2]."""
        return abs(self - self.nearest_int())


_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


def dist_enclosure(
    x: QuadraticSurd,
    q: int,
    *,
    abs_tol: Rational | None = None,
    rel_tol: Rational | None = None,
    start_bits: int = START_BITS,
    exact: QuadraticSurd | None = None,
) -> Enclosure:
    """Certified enclosure of ||q*x||, the distance from q*x to the integers.

    The enclosure is clamped into [0, 1/2], has lo > 0, and has width at most
    abs_tol or at most rel_tol * lo; exactly one of the two is given. It is
    refined from start_bits, and the start is part of the result: at a given
    width goal, the enclosure returned is the first one on that schedule that
    meets it. A caller that holds the exact distance
    (x*q).dist_to_int() already passes it as exact, so it is built once.
    """
    x.require_irrational("x")
    if q < 1:
        raise ConfigError(f"q must be a positive integer, got {q}")
    if (abs_tol is None) == (rel_tol is None):
        raise ConfigError("give exactly one of abs_tol and rel_tol")
    tol = Fraction(abs_tol if rel_tol is None else rel_tol)
    if tol <= 0:
        raise ConfigError(f"the tolerance must be positive, got {tol}")
    dist = (x * q).dist_to_int() if exact is None else exact

    def clamped(bits: int) -> Enclosure:
        enc = dist.enclosure(bits)
        return Enclosure(max(enc.lo, _ZERO), min(enc.hi, _HALF))

    def done(enc: Enclosure) -> bool:
        return enc.lo > 0 and enc.width <= (tol if rel_tol is None else tol * enc.lo)

    return refine(
        clamped, done, start=start_bits, what=f"||q*x|| for q = {q}, x = {x}"
    )


_SURD_BODY = re.compile(
    r"""^
    (?:(?P<a>[+-]?\d+)\s*(?P<bsign>[+-])|(?P<lonesign>[+-])?)\s*
    (?:(?P<b>\d+)\s*\*\s*)?
    sqrt\(\s*(?P<d>\d+)\s*\)
    $""",
    re.VERBOSE,
)


# parse_surd's input bounds. They keep |x| < 2**79 and the stored |b|, which
# takes in the square part of d (below 2**15), below 2**78; the enclosure
# widths behind the --tol floor (cli._TOL_MARGIN_BITS) and the convergents'
# digit bound (diophantine.CONVERGENT_DIGITS) assume as much. The radicand
# bound also keeps squarefree_decompose's trial division under 16000 steps.
COEFFICIENT_LIMIT = 1 << 63
RADICAND_LIMIT = 10**9


def _bounded_int(digits: str, what: str, limit: int) -> int:
    """int(digits) if its absolute value is below limit, else ConfigError
    saying what. The length is checked first: int() refuses a string of over
    4300 digits."""
    if len(digits.lstrip("+-0")) <= len(str(limit)):
        value = int(digits)
        if abs(value) < limit:
            return value
    raise ConfigError(f"{what} in a rotation number")


def parse_surd(text: str, label: str | None = None) -> QuadraticSurd:
    """Parse "(a+b*sqrt(d))/c" (parens and /c optional) into an exact surd.

    The integer part, the explicit coefficient and the denominator may be
    omitted; d must not be a perfect square and the sqrt coefficient must be
    nonzero, so the parsed value is guaranteed irrational. |a|, |b| and |c|
    must be below COEFFICIENT_LIMIT = 2**63 and d at most RADICAND_LIMIT =
    10**9; other input raises ConfigError.
    """
    s = text.strip().replace(" ", "")
    c = 1
    if s.startswith("("):
        close = s.rfind(")")
        if close < 0:
            raise ConfigError(f"unbalanced parentheses in {text!r}")
        body, rest = s[1:close], s[close + 1 :]
        if rest:
            if not rest.startswith("/"):
                raise ConfigError(f"unexpected trailing {rest!r} in {text!r}")
            try:
                c = _bounded_int(rest[1:], "|c| must be below 2**63",
                                 COEFFICIENT_LIMIT)
            except ValueError:
                raise ConfigError(f"bad denominator in {text!r}") from None
            if c == 0:
                raise ConfigError(f"zero denominator in {text!r}")
    else:
        body = s
    m = _SURD_BODY.match(body)
    if m is None:
        raise ConfigError(
            f"cannot parse {text!r}; expected the form (a+b*sqrt(d))/c"
        )
    a = _bounded_int(m.group("a") or "0", "|a| must be below 2**63",
                     COEFFICIENT_LIMIT)
    sign = -1 if (m.group("bsign") or m.group("lonesign")) == "-" else 1
    b = sign * _bounded_int(m.group("b") or "1", "|b| must be below 2**63",
                            COEFFICIENT_LIMIT)
    d = _bounded_int(m.group("d"), "d must be at most 10**9", RADICAND_LIMIT + 1)
    if b == 0:
        raise ConfigError(f"zero sqrt coefficient in {text!r} gives a rational")
    value = QuadraticSurd(a, b, d, c, label=label)
    if value.is_rational:
        raise ConfigError(f"{text!r} reduces to a rational: d is a perfect square")
    return value


# The fixed-point residue of a rotation: FP_ONE = 2**FP_BITS is one turn.
# (k*fixed_point(x)) mod FP_ONE is within k + 1 ulps of frac(k*x)*FP_ONE
# around the circle, so for |k| <= FP_MAX_K = 2**(FP_BITS - 80) it is off
# from frac(k*x) by at most about 2**-80 of a turn.
FP_BITS = 192
FP_ONE = 1 << FP_BITS
FP_HALF = FP_ONE >> 1
FP_MAX_K = 1 << (FP_BITS - 80)


@lru_cache(maxsize=64)
def fixed_point(x: QuadraticSurd) -> int:
    """X with |X - frac(x)*FP_ONE| < 1, built once per x."""
    goal = Fraction(1, 1 << (FP_BITS + 8))
    enc = refine(x.frac().enclosure, lambda e: e.width <= goal)
    return round(enc.mid * FP_ONE)
