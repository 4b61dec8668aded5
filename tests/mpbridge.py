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


def from_mp(x) -> WorkComplex:
    """An mpmath number as a coefficient, rounded to nearest at 140 bits."""
    if hasattr(x, "_mpc_"):
        re, im = x._mpc_
    else:
        re, im = mpmath.mpmathify(x)._mpf_, mpmath.libmp.fzero
    return WorkComplex.from_parts(*_signed(re), *_signed(im))


def mp_fraction(x) -> Fraction:
    """The exact rational value of a finite mpmath real."""
    man, exp = _signed(mpmath.mpmathify(x)._mpf_)
    return Fraction(man) * Fraction(2) ** exp
