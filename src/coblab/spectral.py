"""Atomic spectral measures and ergodic-rate diagnostics for rotation pairs.

Two commuting irrational rotations diagonalize together in the Fourier
basis, so the spectral measure of a trigonometric polynomial is purely
atomic: one atom per supported frequency n, sitting at the pair of
eigenvalues (e(n*alpha), e(n*beta)) with mass |f_hat(n)|**2. The measure is
the tuple of its atoms; its total mass is f.l2_norm_sq_exact(), by Parseval.
Membership of f in the range of (I - T_alpha), of (I - T_beta), or of their
product then reduces to one weighted sum over atoms, criterion_sum, with
certified divisor enclosures |1 - e(n*x)|**2 = 4*sin(pi*||n*x||)**2. The
joint criterion is the sum of the two one-sided integrals.

Everything here reports partial sums over the finite atom set. Divergence
of an infinite criterion integral is never claimed from a truncation; what
can be certified is that a partial sum already exceeds a threshold, or that
each atom contributes at least an analytic floor.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from operator import mul
from typing import NamedTuple, Sequence

from . import fourier
from .certify import Enclosure
from .errors import ConfigError
from .surd import QuadraticSurd


class Atom(NamedTuple):
    """One spectral atom: frequency, exact mass, certified divisor squares."""

    n: int
    mass: Fraction
    div_alpha_sq: Enclosure
    div_beta_sq: Enclosure


class CriterionSum(NamedTuple):
    """A certified partial criterion sum with its per-atom ledger.

    divergent marks a nonzero mass at frequency 0, where the integrand has
    a zero divisor; the value then covers only the finite atoms and the
    verdict of any membership reading is negative by inspection.
    """

    value: Enclosure
    divergent: bool
    terms: tuple[tuple[int, Enclosure], ...]


def spectral_measure(
    f: fourier.SparseFourierSeries, alpha: QuadraticSurd, beta: QuadraticSurd
) -> tuple[Atom, ...]:
    """Diagonalize f against the rotation pair: one atom per frequency.

    Atoms are sorted by (|n|, n) so that every reduction is reproducible.
    """
    alpha.require_irrational("alpha")
    beta.require_irrational("beta")
    atoms = []
    for n in sorted(f.support, key=lambda m: (abs(m), m)):
        mass = fourier.coefficient_mass(f.coeff(n))
        if n == 0:
            da_sq = Enclosure.point(0)
            db_sq = Enclosure.point(0)
        else:
            da_sq = fourier.divisor_enclosure(alpha, n).square()
            db_sq = fourier.divisor_enclosure(beta, n).square()
        atoms.append(Atom(n=n, mass=mass, div_alpha_sq=da_sq, div_beta_sq=db_sq))
    return tuple(atoms)


def criterion_sum(m: tuple[Atom, ...], s: int, t: int) -> CriterionSum:
    """Partial sum of mass / (|1 - e(n*alpha)|**(2*s) * |1 - e(n*beta)|**(2*t)).

    (1, 0) and (0, 1) are the one-sided coboundary integrals; the joint
    criterion is their sum. (1, 1) is the product criterion, whose per-atom
    ledger is the content: for atoms produced by the main construction each
    term sits above 1/(4*pi**2). An atom at frequency 0 makes every one of
    them infinite, reported through the divergent flag rather than by
    raising. s + t must be positive.
    """
    total = Enclosure.point(0)
    divergent = False
    terms = []
    for atom in m:
        if atom.n == 0:
            divergent = True
            continue
        divisor = reduce(mul, (atom.div_alpha_sq,) * s + (atom.div_beta_sq,) * t)
        term = Enclosure.point(atom.mass) / divisor
        terms.append((atom.n, term))
        total = total + term
    return CriterionSum(value=total, divergent=divergent, terms=tuple(terms))


def cesaro_rate_profile(
    f: fourier.SparseFourierSeries,
    alpha: QuadraticSurd,
    beta: QuadraticSurd,
    n_values: Sequence[int],
) -> list[tuple[int, float, float]]:
    """Double ergodic averages at the requested lengths, two normalizations.

    Returns (n, ||S_n||/n, ||S_n||/n**2) with S_n the unnormalized double
    sum over the n-by-n block of rotation powers. Values are reported at
    the tested lengths in increasing order and nothing is extrapolated.
    """
    if not n_values:
        raise ConfigError("need at least one length")
    cleaned = sorted(set(int(n) for n in n_values))
    if cleaned[0] < 1:
        raise ConfigError("lengths must be positive")
    profile = []
    for n in cleaned:
        norm = fourier.double_ergodic_sum_norm(f, alpha, beta, n, n)
        profile.append((n, norm / n, norm / n**2))
    return profile


def doubling_tripling_variance(n: int) -> Fraction:
    """Exact variance of the n-by-n double average under doubling/tripling.

    The orbit of a single harmonic under x -> 2x and x -> 3x runs through
    the frequencies v = 2**i * 3**j, i, j < n. By orthogonality
    ||(1/n) * sum over the block||**2 = sum over v of mult(v)**2 / n**2,
    where mult(v) counts the pairs (i, j) that land on v. Unique
    factorization makes every mult(v) one, so the value is 1.
    """
    if n < 1:
        raise ConfigError("n must be positive")
    mult = Counter(2**i * 3**j for i in range(n) for j in range(n))
    return Fraction(sum(m * m for m in mult.values()), n * n)
