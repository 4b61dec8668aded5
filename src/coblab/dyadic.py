"""Complex numbers at the working precision, held as pairs of integer mantissas.

A WorkComplex is re_man * 2**re_exp + i * im_man * 2**im_exp, where each
mantissa has at most PREC = WORK_PREC + 12 = 140 bits and is odd or zero
(zero has exponent 0), so equal values have equal fields. Every operation
forms its exact result from exact products and sums and rounds it once, to
nearest with ties to even. Three rules of the binary floating-point library
the Fourier midpoints were first computed with are kept, so that every
mantissa and exponent, and so every report, stays the same:

- a sum whose terms lie more than 100 exponents and PREC + 4 bits of
  magnitude apart replaces the smaller term by a sticky bit PREC + 4 bits
  below the larger one (`_add`);
- a quotient of complex numbers forms |w|**2 and both numerators truncated
  to PREC + 10 bits before the two rounded divisions (`__truediv__`);
- `from_fraction` rounds the numerator to PREC bits, then the quotient.

Decimal strings are written with DIGITS = 36 significant digits by the same
rules as that library (`to_strings`).

`phase(t)` is e(t * 2**-FP_BITS) = exp(2*pi*i * t * 2**-FP_BITS) for a
rotation residue 0 < t < 2**FP_BITS (`surd.FP_BITS`): the argument is 2*pi
rounded to PREC bits times t rounded to PREC bits, rounded; it is reduced
modulo pi/2 with 20, 40, 80 ... bits of cancellation guard, and cos and sin
come from a table of cos(k/256) and sin(k/256) and a Taylor series on the
remainder, with only 10 guard bits in all. Those values are not correctly
rounded, so a correctly rounded sine would differ from them in the last bit
now and then. `_mod_pi2`, the body of `phase` and `_cos_sin_fixed` are ports
of `mod_pi2`, `mpf_cos_sin` and `cos_sin_basecase` in libmp/libelefun.py,
Copyright (c) 2005-2021 Fredrik Johansson and contributors, used under the
BSD licence reproduced in NOTICE.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .certify import WORK_PREC
from .surd import FP_BITS

PREC = WORK_PREC + 12
DIGITS = 36  # significant digits of a decimal coefficient
_DIV_PREC = PREC + 10
# floor(pi * 2**512)
_PI_BITS = 512
_PI = int(
    "3243f6a8885a308d313198a2e03707344a4093822299f31d0082efa98ec4e6c8"
    "9452821e638d01377be5466cf34e90c6cc0ac29b7c97c50dd3f84d5b5b5470917",
    16,
)
_TABLE_PREC = 400
_TABLE_STEP = 8


def _round(man: int, exp: int, prec: int = PREC, down: bool = False) -> tuple:
    """man * 2**exp rounded to prec bits: to nearest, ties to even, or toward 0.

    The result mantissa is odd or zero, with exponent 0 for zero.
    """
    if not man:
        return 0, 0
    mag = -man if man < 0 else man
    n = mag.bit_length() - prec
    if n > 0:
        if down:
            mag >>= n
        else:
            t = mag >> (n - 1)
            if t & 1 and (t & 2 or mag & ((1 << (n - 1)) - 1)):
                mag = (t >> 1) + 1
            else:
                mag = t >> 1
        exp += n
    zeros = (mag & -mag).bit_length() - 1
    if zeros:
        mag >>= zeros
        exp += zeros
    return (-mag if man < 0 else mag), exp


def _add(m1: int, e1: int, m2: int, e2: int, prec: int = PREC, down: bool = False):
    """m1 * 2**e1 + m2 * 2**e2, rounded; far-apart terms add a sticky bit."""
    if not m2:
        return _round(m1, e1, prec, down)
    if not m1:
        return _round(m2, e2, prec, down)
    if e1 < e2:
        m1, e1, m2, e2 = m2, e2, m1, e1
    offset = e1 - e2
    if offset > 100:
        gap = abs(m1).bit_length() + e1 - abs(m2).bit_length() - e2
        if gap > prec + 4:
            sticky = 1 if m2 > 0 else -1
            return _round((m1 << (prec + 4)) + sticky, e1 - prec - 4, prec, down)
    return _round((m1 << offset) + m2, e2, prec, down)


def _div(m1: int, e1: int, m2: int, e2: int) -> tuple[int, int]:
    """m1 * 2**e1 / (m2 * 2**e2) rounded to nearest, ties to even."""
    if not m2:
        raise ZeroDivisionError("division by a zero coefficient")
    if not m1:
        return 0, 0
    a, b = abs(m1), abs(m2)
    sign = -1 if (m1 < 0) != (m2 < 0) else 1
    if b == 1:
        return _round(sign * a, e1 - e2)
    extra = max(PREC - a.bit_length() + b.bit_length() + 5, 5)
    quot, rem = divmod(a << extra, b)
    if rem:
        quot = (quot << 1) | 1
        extra += 1
    return _round(sign * quot, e1 - e2 - extra)


def _real_parts(value, exact: bool = False) -> tuple[int, int]:
    """A real int or float as (mantissa, exponent), rounded.

    With exact set, an int keeps all its bits.
    """
    if isinstance(value, int):
        return _round(value, 0, max(PREC, abs(value).bit_length()) if exact else PREC)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"coefficient parts must be finite, got {value!r}")
        num, den = value.as_integer_ratio()
        return _round(num, 1 - den.bit_length())
    raise TypeError(f"cannot make a coefficient part from {type(value).__name__}")


def _to_str(man: int, exp: int, dps: int) -> str:
    """man * 2**exp with dps significant digits, as the source library prints."""
    if not man:
        return "0.0"
    sign = "-" if man < 0 else ""
    man = abs(man)
    bc = man.bit_length()
    if abs(exp + bc) > 3500:
        raise ValueError("coefficient magnitude out of range for decimal output")
    # dps + 3 digits rounded toward zero, then rounded half up to dps digits
    bitprec = int((dps + 3) * math.log(10, 2)) + 10
    fixprec = max(bitprec - exp - bc, 0)
    fixdps = int(fixprec / math.log(10, 2) + 0.5)
    shift = exp + fixprec
    fixed = man << shift if shift >= 0 else man >> -shift
    digits = str(fixed * 10**fixdps >> fixprec)
    exponent = len(digits) - fixdps - 1
    if len(digits) > dps and digits[dps] in "56789":
        digits = digits[:dps]
        i = dps - 1
        while i >= 0 and digits[i] == "9":
            i -= 1
        if i >= 0:
            digits = digits[:i] + str(int(digits[i]) + 1) + "0" * (dps - i - 1)
        else:
            digits = "1" + "0" * (dps - 1)
            exponent += 1
    else:
        digits = digits[:dps]
    if min(-(dps // 3), -5) < exponent < dps:
        if exponent < 0:
            digits = "0" * -exponent + digits
            split = 1
        else:
            split = exponent + 1
            if split > dps:
                digits += "0" * (split - dps)
        exponent = 0
    else:
        split = 1
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    if digits[-1] == ".":
        digits += "0"
    if exponent == 0:
        return sign + digits
    return f"{sign}{digits}e{'+' if exponent > 0 else ''}{exponent}"


class WorkComplex:
    """An immutable complex number at PREC bits; see the module docstring.

    WorkComplex(re, im) takes ints or floats for the parts;
    WorkComplex(z) also takes a Python complex or a WorkComplex. Every part
    is rounded to nearest at PREC bits, so floats are kept exactly.
    """

    __slots__ = ("re_man", "re_exp", "im_man", "im_exp")

    def __init__(self, re=0, im=0):
        if isinstance(re, WorkComplex) and im == 0:
            _init(self, re.re_man, re.re_exp, re.im_man, re.im_exp)
            return
        if isinstance(re, complex):
            if im != 0:
                raise TypeError("a complex first part takes no imaginary part")
            re, im = re.real, re.imag
        _init(self, *_real_parts(re), *_real_parts(im))

    @classmethod
    def from_parts(cls, re_man: int, re_exp: int, im_man: int = 0, im_exp: int = 0):
        """re_man * 2**re_exp + i * im_man * 2**im_exp, each part rounded."""
        return _make(*_round(re_man, re_exp), *_round(im_man, im_exp))

    @classmethod
    def from_fraction(cls, value: Fraction) -> "WorkComplex":
        """A real rational: the numerator rounded to PREC bits, then the quotient."""
        num = _round(value.numerator, 0)
        return _make(*_div(*num, value.denominator, 0), 0, 0)

    def __setattr__(self, name, value):
        raise AttributeError("WorkComplex is immutable")

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return _make(
            *_add(self.re_man, self.re_exp, other.re_man, other.re_exp),
            *_add(self.im_man, self.im_exp, other.im_man, other.im_exp),
        )

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.re_man, self.re_exp, -self.im_man, self.im_exp)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        a, ea, b, eb = self.re_man, self.re_exp, self.im_man, self.im_exp
        c, ec, d, ed = other.re_man, other.re_exp, other.im_man, other.im_exp
        return _make(
            *_add(a * c, ea + ec, -(b * d), eb + ed),
            *_add(a * d, ea + ed, b * c, eb + ec),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        a, ea, b, eb = self.re_man, self.re_exp, self.im_man, self.im_exp
        c, ec, d, ed = other.re_man, other.re_exp, other.im_man, other.im_exp
        mag = _add(c * c, 2 * ec, d * d, 2 * ed, _DIV_PREC, down=True)
        t = _add(a * c, ea + ec, b * d, eb + ed, _DIV_PREC, down=True)
        u = _add(b * c, eb + ec, -(a * d), ea + ed, _DIV_PREC, down=True)
        return _make(*_div(*t, *mag), *_div(*u, *mag))

    def conj(self) -> "WorkComplex":
        return _make(self.re_man, self.re_exp, -self.im_man, self.im_exp)

    # -- comparison and conversion -----------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return (
            self.re_man == other.re_man
            and self.re_exp == other.re_exp
            and self.im_man == other.im_man
            and self.im_exp == other.im_exp
        )

    __hash__ = None

    def __bool__(self) -> bool:
        return bool(self.re_man or self.im_man)

    def __complex__(self) -> complex:
        re = _to_float(self.re_man, self.re_exp)
        return complex(re, _to_float(self.im_man, self.im_exp))

    def to_strings(self) -> tuple[str, str]:
        """The real and imaginary parts as decimal literals of DIGITS digits."""
        re = _to_str(self.re_man, self.re_exp, DIGITS)
        return re, _to_str(self.im_man, self.im_exp, DIGITS)

    def __repr__(self) -> str:
        re, im = self.to_strings()
        return f"WorkComplex({re!r}, {im!r})"


_setattr = object.__setattr__


def _init(z: WorkComplex, re_man: int, re_exp: int, im_man: int, im_exp: int) -> None:
    _setattr(z, "re_man", re_man)
    _setattr(z, "re_exp", re_exp)
    _setattr(z, "im_man", im_man)
    _setattr(z, "im_exp", im_exp)


def _make(re_man: int, re_exp: int, im_man: int, im_exp: int) -> WorkComplex:
    """A WorkComplex from parts that are already rounded."""
    z = object.__new__(WorkComplex)
    _init(z, re_man, re_exp, im_man, im_exp)
    return z


def _coerce(value):
    """An int, float or complex operand exactly, or NotImplemented."""
    if isinstance(value, WorkComplex):
        return value
    if isinstance(value, complex):
        re, im = value.real, value.imag
    elif isinstance(value, (int, float)):
        re, im = value, 0
    else:
        return NotImplemented
    try:
        return _make(*_real_parts(re, exact=True), *_real_parts(im, exact=True))
    except ValueError:  # not finite
        return NotImplemented


def to_fraction(man: int, exp: int) -> Fraction:
    """The exact value man * 2**exp."""
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def _to_float(man: int, exp: int) -> float:
    """The nearest float (ties to even) to man * 2**exp in the normal range."""
    man, exp = _round(man, exp, 53)
    return math.ldexp(man, exp)


ZERO = WorkComplex(0)
ONE = WorkComplex(1)


# ---------------------------------------------------------------------------
# e(x) on exact residues


def _pi_fixed(prec: int) -> int:
    """floor(pi * 2**prec)."""
    if prec > _PI_BITS:
        raise ValueError(f"pi is held to {_PI_BITS} bits, {prec} requested")
    return _PI >> (_PI_BITS - prec)


@lru_cache(maxsize=None)
def _table(k: int) -> tuple[int, int]:
    """cos(k/256) and sin(k/256) on the 2**-400 grid, truncated from 440 bits."""
    wp = _TABLE_PREC + 40
    term, cos, sin, j = 1 << wp, 0, 0, 0
    while term:
        if j & 1:
            sin += -term if j & 2 else term
        else:
            cos += -term if j & 2 else term
        j += 1
        term = term * k // (j << _TABLE_STEP)
    return cos >> 40, sin >> 40


def _mod_pi2(man: int, exp: int, mag: int, wp: int) -> tuple[int, int, int]:
    """x = man * 2**exp reduced modulo pi/2: (remainder on 2**-wp', quadrant, wp')."""
    if mag > 0:
        i = 0
        while True:
            wpmod = wp + mag + (20 << i)
            pi2 = _pi_fixed(wpmod - 1)
            offset = wpmod + exp
            t = man << offset if offset >= 0 else man >> -offset
            n, y = divmod(t, pi2)
            small = pi2 - y if y > pi2 >> 1 else y
            if small >> (wp + mag - 10):
                return y >> mag, n, wpmod - mag
            i += 1
    wp -= mag
    offset = exp + wp
    return (man << offset if offset >= 0 else man >> -offset), 0, wp


def _cos_sin_fixed(x: int, prec: int) -> tuple[int, int]:
    """cos and sin of x * 2**-prec in [0, pi/2), on the 2**-prec grid."""
    if prec > _TABLE_PREC:
        raise ValueError(f"a phase needs {prec} bits, past the table's {_TABLE_PREC}")
    precs = prec - _TABLE_STEP
    t = x >> precs
    cos_t, sin_t = _table(t)
    cos_t >>= _TABLE_PREC - prec
    sin_t >>= _TABLE_PREC - prec
    x -= t << precs
    cos = 1 << prec
    sin = x
    k = 2
    a = -((x * x) >> prec)
    while a:
        a //= k
        cos += a
        k += 1
        a = (a * x) >> prec
        a //= k
        sin += a
        k += 1
        a = -((a * x) >> prec)
    return (cos * cos_t - sin * sin_t) >> prec, (sin * cos_t + cos * sin_t) >> prec


# 2*pi as pi rounded to PREC bits from its 2**-(PREC + 20) floor, doubled
_TWO_PI_MAN, _PI_EXP = _round(_pi_fixed(PREC + 20), -PREC - 20)
_TWO_PI_EXP = _PI_EXP + 1


def phase(t: int) -> WorkComplex:
    """e(t * 2**-FP_BITS) for an integer residue 0 < t < 2**FP_BITS.

    A 140-bit argument lies at least 2**-142 from every multiple of pi/2, so
    the reduction stops by 160 cancellation bits and the kernel never needs
    more than 340 bits; past either limit it raises.
    """
    tm, te = _round(t, -FP_BITS)
    man, exp = _round(_TWO_PI_MAN * tm, _TWO_PI_EXP + te)
    mag = man.bit_length() + exp
    wp = PREC + 10
    if mag < -wp:  # cos rounds to 1 and sin to the argument itself
        return _make(1, 0, man, exp)
    x, n, wp = _mod_pi2(man, exp, mag, wp)
    c, s = _cos_sin_fixed(x, wp)
    quadrant = n & 3
    if quadrant == 1:
        c, s = -s, c
    elif quadrant == 2:
        c, s = -c, -s
    elif quadrant == 3:
        c, s = s, -c
    return _make(*_round(c, -wp), *_round(s, -wp))
