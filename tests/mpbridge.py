"""Exact conversions between coblab coefficients and mpmath numbers.

The oracles in these tests run in mpmath, which coblab itself never
imports; coefficients cross over here without rounding on the way out.
"""

from fractions import Fraction

import mpmath
from mpmath.libmp import from_man_exp

from coblab.dyadic import WorkComplex


def to_mp(c: WorkComplex) -> mpmath.mpc:
    """c as an mpmath complex with every mantissa bit kept."""
    return mpmath.mp.make_mpc(
        (from_man_exp(c.re_man, c.re_exp), from_man_exp(c.im_man, c.im_exp))
    )


def _signed(raw) -> tuple[int, int]:
    sign, man, exp, _ = raw
    if not man and exp:
        raise ValueError("not a finite number")
    return (-man if sign else man), exp


def _dyadic(man: int, exp: int) -> WorkComplex:
    """man * 2**exp: man rounded to 140 bits, then scaled exactly."""
    z = WorkComplex(man)
    return z * 2**exp if exp >= 0 else z / 2**-exp


def from_parts(re_man: int, re_exp: int, im_man: int = 0,
               im_exp: int = 0) -> WorkComplex:
    """re_man * 2**re_exp + i * im_man * 2**im_exp, each part rounded once.

    Scaling by a power of two and adding a zero part are exact, so any
    exponent gives the coefficient's own rounding of the exact value.
    """
    return _dyadic(re_man, re_exp) + _dyadic(im_man, im_exp) * 1j


def from_mp(x) -> WorkComplex:
    """An mpmath number as a coefficient, rounded to nearest at 140 bits."""
    if hasattr(x, "_mpc_"):
        re, im = x._mpc_
    else:
        re, im = mpmath.mpmathify(x)._mpf_, mpmath.libmp.fzero
    return from_parts(*_signed(re), *_signed(im))


def mp_fraction(x) -> Fraction:
    """The exact rational value of a finite mpmath real."""
    man, exp = _signed(mpmath.mpmathify(x)._mpf_)
    return Fraction(man) * Fraction(2) ** exp
