"""Reference computations that only the tests call.

The formal coboundary solves, the rotation and the sum of series, and the
dependence lift are what the acceptance criteria check the library
against; the exact inverse of a surd drives the Gauss-map reference of the
surd tests, and `contains` is the oracles' containment test. No report
prints what they compute, so they live here, built on the public API of
coblab alone, at the same working precision. `eager_parser`, the oracle of
the command-line parser, is built from the tables that its caller passes in.
"""

import argparse
import math
from fractions import Fraction
from typing import NamedTuple, Optional

from coblab.certify import Enclosure
from coblab.dyadic import ZERO
from coblab.errors import CertificationError, ConfigError
from coblab.fourier import SparseFourierSeries, apply_difference, unit_phase
from coblab.surd import QuadraticSurd

# ---------------------------------------------------------------------------
# enclosures


def contains(enc: Enclosure, value) -> bool:
    """Whether the rational value, or the number its text spells, lies in enc."""
    return enc.lo <= Fraction(value) <= enc.hi


# ---------------------------------------------------------------------------
# series algebra


def add(f: SparseFourierSeries, g: SparseFourierSeries) -> SparseFourierSeries:
    """f + g, coefficientwise at working precision."""
    data = dict(f.items())
    for n, c in g.items():
        data[n] = data.get(n, ZERO) + c
    return SparseFourierSeries(data, f.real_valued and g.real_valued)


def apply_rotation(f: SparseFourierSeries, alpha: QuadraticSurd) -> SparseFourierSeries:
    """Compose with the rotation by alpha: coefficient n picks up e(n*alpha)."""
    alpha.require_irrational("alpha")
    data = {n: c * unit_phase(alpha, n) for n, c in f.items()}
    return SparseFourierSeries(data, f.real_valued)


def _solve(
    f: SparseFourierSeries, rotations: tuple[QuadraticSurd, ...]
) -> SparseFourierSeries:
    """Divide each coefficient once by the product of 1 - e(n*x) over the
    rotations x."""
    data = {}
    first, *rest = rotations
    for n, c in f.items():
        factor = 1 - unit_phase(first, n)
        for x in rest:
            factor = factor * (1 - unit_phase(x, n))
        data[n] = c / factor
    return SparseFourierSeries(data, f.real_valued)


def solve_coboundary(f: SparseFourierSeries, alpha: QuadraticSurd) -> SparseFourierSeries:
    """Solve f = (I - T_alpha) g for g at working precision.

    The input must be centered; for irrational alpha no divisor
    1 - e(n*alpha) with n != 0 vanishes.
    """
    alpha.require_irrational("alpha")
    f.require_centered("coboundary data")
    return _solve(f, (alpha,))


def double_solve(
    f: SparseFourierSeries, alpha: QuadraticSurd, beta: QuadraticSurd
) -> SparseFourierSeries:
    """Solve f = (I - T_alpha)(I - T_beta) h for h at working precision."""
    alpha.require_irrational("alpha")
    beta.require_irrational("beta")
    f.require_centered("double-coboundary data")
    return _solve(f, (alpha, beta))


# ---------------------------------------------------------------------------
# surds


def inverse(x: QuadraticSurd) -> QuadraticSurd:
    """1/x exactly: 1/((a + b*sqrt(d))/c) = c*(a - b*sqrt(d))/(a**2 - b**2*d).

    The norm a**2 - b**2*d is nonzero for b != 0, because d is squarefree.
    """
    if x.is_rational and x.a == 0:
        raise ZeroDivisionError("inverse of zero")
    return QuadraticSurd(x.c * x.a, -x.c * x.b, x.d, x.a * x.a - x.b * x.b * x.d)


# ---------------------------------------------------------------------------
# dependence lift


class Dependence(NamedTuple):
    """An exact integer relation m*alpha + n*beta + p = 0."""

    m: int
    n: int
    p: int


def integer_dependence_search(
    alpha: QuadraticSurd, beta: QuadraticSurd, B: int
) -> Optional[Dependence]:
    """Smallest relation m*alpha + n*beta + p = 0 with |m|,|n|,|p| <= B.

    Distinct radicands force independence (1, sqrt(d), sqrt(d') are linearly
    independent over the rationals), reported as None. In one field, with
    x = (a_x + b_x*sqrt(d))/c_x, a relation splits into its sqrt(d) part
    m*b_alpha/c_alpha + n*b_beta/c_beta = 0, which fixes m/n, and its
    rational part, which fixes p = -(m*a_alpha/c_alpha + n*a_beta/c_beta).
    So with m, n that ratio in lowest terms and t the p it fixes, the
    relations are exactly the integer multiples of the primitive triple
    t.denominator*(m, n, t). The smallest is that triple or its negative;
    the one with m > 0 is returned if it fits in B, None otherwise (neither
    m nor n is 0, for both rotations are irrational).
    """
    alpha.require_irrational("alpha")
    beta.require_irrational("beta")
    if B < 1:
        raise ConfigError(f"B must be a positive integer, got {B}")
    if alpha.d != beta.d:
        return None
    ratio = Fraction(-beta.b * alpha.c, beta.c * alpha.b)
    m, n = ratio.numerator, ratio.denominator
    t = -(m * Fraction(alpha.a, alpha.c) + n * Fraction(beta.a, beta.c))
    m, n, p = m * t.denominator, n * t.denominator, t.numerator
    if m < 0:
        m, n, p = -m, -n, -p
    if max(abs(m), abs(n), abs(p)) > B:
        return None
    return Dependence(m=m, n=n, p=p)


def common_generator(
    alpha: QuadraticSurd, dependence: Dependence
) -> tuple[QuadraticSurd, int, int]:
    """gamma with alpha = k*gamma and beta = j*gamma modulo 1.

    From m*alpha + n*beta + p = 0 the pair rotates by powers of a single
    rotation: normalize the relation so the beta coefficient is negative and
    the alpha coefficient positive, then gamma = (alpha + s)/|n| with s the
    unique shift making beta a clean multiple. Returns (gamma, k, j) with
    k = |n| (so T_alpha = T_gamma**k) and j = m (so T_beta = T_gamma**j).
    """
    m, n, p = dependence
    if n >= 0:
        m, n, p = -m, -n, -p
    if n == 0 or m <= 0:
        raise ConfigError(
            "dependence must relate both rotations with opposite signs"
        )
    k = -n
    if math.gcd(m, k) != 1:
        raise ConfigError("dependence coefficients must be coprime")
    s = (p * pow(m, -1, k)) % k
    # (alpha + s)/k = (a + s*c + b*sqrt(d))/(c*k)
    gamma = QuadraticSurd(alpha.a + s * alpha.c, alpha.b, alpha.d, alpha.c * k)
    return gamma, k, m


def power_lift_joint(
    u_x: SparseFourierSeries,
    u_y: SparseFourierSeries,
    gamma: QuadraticSurd,
    k: int,
    j: int,
) -> SparseFourierSeries:
    """Lift a joint coboundary of (T_gamma, T_gamma**j) to (T_gamma**k, T_gamma**j).

    Requires (I - T_gamma) u_x = (I - T_gamma**j) u_y within
    1e-12 * max(1, ||u_x||, ||u_y||), making u = (I - T_gamma) u_x a joint
    coboundary of the base pair. Returns
    v = sum over n < k of T_gamma**n u, which telescopes to (I - T_gamma**k) u_x;
    both representations are computed and must agree (an exact identity, so a
    mismatch is a precision bug).
    """
    gamma.require_irrational("gamma")
    if k < 1 or j < 1:
        raise ConfigError("powers must be positive")
    u = apply_difference(u_x, gamma)
    other = apply_difference(u_y, gamma * j)
    scale = max(1.0, u_x.l2_norm(), u_y.l2_norm())
    if max_abs_diff(u, other) > 1e-12 * scale:
        raise ValueError(
            "precondition failed: (I - T_gamma) u_x differs from"
            " (I - T_gamma**j) u_y beyond tolerance"
        )
    data = {}
    for nu, c in u.items():
        phase_sum = ZERO
        for n_pow in range(k):
            phase_sum += unit_phase(gamma, n_pow * nu)
        data[nu] = c * phase_sum
    v = SparseFourierSeries(data, u.real_valued)
    telescoped = apply_difference(u_x, gamma * k)
    if max_abs_diff(v, telescoped) > 1e-24 * max(1.0, u_x.l2_norm()) * k:
        raise CertificationError(
            "telescoped lift disagrees with the summed representation"
        )
    return v


def max_abs_diff(f: SparseFourierSeries, g: SparseFourierSeries) -> float:
    """The largest coefficient gap |f_hat(n) - g_hat(n)|, in float64."""
    worst = 0.0
    for n in set(f.support) | set(g.support):
        worst = max(worst, abs(complex(f.coeff(n)) - complex(g.coeff(n))))
    return worst


# ---------------------------------------------------------------------------
# the command line


def eager_parser(parser_class, commands, options, output, formats):
    """The coblab argument parser built whole: every subparser with its action
    and options up front, as coblab.cli.build_parser did before its
    subparsers filled in on first use.

    commands, options, output and formats are the tables _COMMANDS, _OPTIONS,
    _OUTPUT and _FORMATS of coblab.cli; parser_class makes the top-level
    parser and every subparser. A subparser offers the options of all the
    actions of its subcommand, and once parser_class has parsed its part of
    the command line it refuses an option that the action given does not
    read.
    """
    names = {row[0] for row in options}

    class Subparser(parser_class):
        def __init__(self, *, reads, **kwargs):
            super().__init__(**kwargs)
            self.reads = reads

        def parse_known_args(self, args=None, namespace=None):
            namespace, extras = super().parse_known_args(args, namespace)
            action = getattr(namespace, "action", None)
            for name in vars(namespace):
                if name in names and name not in (*self.reads[action], *output):
                    self.error(f"{action} takes no --{name}")
            return namespace, extras

    parser = parser_class(
        prog="coblab",
        description=(
            "Certified constructions, searches, and diagnostics for joint "
            "and double coboundaries of commuting circle rotations."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=Subparser)
    for name, command in commands.items():
        subparser = sub.add_parser(name, help=command.help, reads=command.reads,
                                   argument_default=argparse.SUPPRESS)
        if None not in command.reads:
            subparser.add_argument("action", choices=tuple(command.reads))
        offered = {option for reads in command.reads.values() for option in reads}
        for option, kind, _, text, _ in options:
            if option in offered or option in output:
                subparser.add_argument(
                    "--" + option, help=text,
                    type=int if kind in ("count", "int") else None,
                    choices=formats if option == "format" else None)
    return parser
