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
- `from_fraction` rounds the numerator to PREC bits, then the quotient;
- decimal strings have DIGITS = 36 significant digits, written by that
  library's rules (`to_strings`).

`phase(t)` is e(t * 2**-FP_BITS) = exp(2*pi*i * t * 2**-FP_BITS) for a
rotation residue 0 < t < 2**FP_BITS (`surd.FP_BITS`), each part correctly
rounded from `certify.sin_pi_enclosure`: the reduction is exact, in turns, so
no pi and no sine are computed here.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .certify import WORK_PREC, Enclosure, refine, sin_pi_enclosure
from .surd import FP_BITS

PREC = WORK_PREC + 12
DIGITS = 36  # significant digits of a decimal coefficient


def _round(man: int, exp: int, prec: int = PREC) -> tuple:
    """man * 2**exp rounded to prec bits, to nearest with ties to even.

    The result mantissa is odd or zero, with exponent 0 for zero.
    """
    if not man:
        return 0, 0
    mag = -man if man < 0 else man
    n = mag.bit_length() - prec
    if n > 0:
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


def _exact_sum(m1: int, e1: int, m2: int, e2: int) -> tuple[int, int]:
    """m1 * 2**e1 + m2 * 2**e2 exactly, on the finer of the two grids."""
    if e1 < e2:
        m1, e1, m2, e2 = m2, e2, m1, e1
    return (m1 << (e1 - e2)) + m2, e2


def _add(m1: int, e1: int, m2: int, e2: int):
    """m1 * 2**e1 + m2 * 2**e2, rounded; far-apart terms add a sticky bit."""
    if not m2:
        return _round(m1, e1)
    if not m1:
        return _round(m2, e2)
    if e1 < e2:
        m1, e1, m2, e2 = m2, e2, m1, e1
    if e1 - e2 > 100:
        gap = abs(m1).bit_length() + e1 - abs(m2).bit_length() - e2
        if gap > PREC + 4:
            sticky = 1 if m2 > 0 else -1
            return _round((m1 << (PREC + 4)) + sticky, e1 - PREC - 4)
    return _round(*_exact_sum(m1, e1, m2, e2))


def _div(m1: int, e1: int, m2: int, e2: int) -> tuple[int, int]:
    """m1 * 2**e1 / (m2 * 2**e2) rounded to nearest, ties to even."""
    if not m2:
        raise ZeroDivisionError("division by a zero coefficient")
    if not m1:
        return 0, 0
    a, b = abs(m1), abs(m2)
    sign = -1 if (m1 < 0) != (m2 < 0) else 1
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
        mag = _exact_sum(c * c, 2 * ec, d * d, 2 * ed)
        t = _exact_sum(a * c, ea + ec, b * d, eb + ed)
        u = _exact_sum(b * c, eb + ec, -(a * d), ea + ed)
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

_QUARTER = FP_BITS - 2  # a quarter turn, in residue units 2**-FP_BITS


def _sin_pi_rounded(x: Fraction, bits: int):
    """sin(pi*x) for x in [0, 1/2] rounded to PREC bits from its enclosure at
    bits, or None while the two ends of the enclosure round apart."""
    enc = sin_pi_enclosure(Enclosure.point(x), bits)
    lo = _div(enc.lo.numerator, 0, enc.lo.denominator, 0)
    return lo if lo == _div(enc.hi.numerator, 0, enc.hi.denominator, 0) else None


def phase(t: int) -> WorkComplex:
    """e(t * 2**-FP_BITS) for an integer residue 0 < t < 2**FP_BITS, each
    part correctly rounded.

    The turn is reduced exactly: with t = quadrant * 2**190 + r and
    0 <= r < 2**190, e(t * 2**-192) is i**quadrant * (cos + i sin) of
    pi * r/2**191, and that cosine is the sine of pi * (2**190 - r)/2**191.
    Both points lie in [0, 1/2], so certify.sin_pi_enclosure encloses both
    values; certify.refine raises the precision from PREC + 40 bits until
    the two ends of each enclosure round to one PREC-bit number, which is
    then the correctly rounded value. The walk ends: by Niven's theorem
    sin(pi * x) at a rational x in [0, 1/2] is rational only when it is 0,
    1/2 or 1, all PREC-bit numbers, so it is never a rounding midpoint, and
    a narrow enough enclosure lies between two adjacent midpoints. One that
    needs more than HARD_CAP_BITS raises PrecisionCapError.
    """
    quadrant, r = t >> _QUARTER, t & ((1 << _QUARTER) - 1)
    den = 1 << (_QUARTER + 1)
    cos_x, sin_x = Fraction((1 << _QUARTER) - r, den), Fraction(r, den)

    def rounded(bits: int):
        c = _sin_pi_rounded(cos_x, bits)
        return c, None if c is None else _sin_pi_rounded(sin_x, bits)

    (cm, ce), (sm, se) = refine(
        rounded,
        lambda pair: pair[1] is not None,
        start=PREC + 40,
        what=f"the phase of residue {t}",
    )
    if quadrant == 1:
        cm, ce, sm, se = -sm, se, cm, ce
    elif quadrant == 2:
        cm, sm = -cm, -sm
    elif quadrant == 3:
        cm, ce, sm, se = sm, se, -cm, ce
    return _make(cm, ce, sm, se)
