"""Atomic spectral measures and ergodic-rate diagnostics for rotation pairs.

Two commuting irrational rotations diagonalize together in the Fourier
basis, so the spectral measure of a trigonometric polynomial is purely
atomic: one atom per supported frequency n, sitting at the pair of
eigenvalues (e(n*alpha), e(n*beta)) with mass |f_hat(n)|**2. The measure is
the tuple of its atoms; its total mass is f.l2_norm_sq_exact(), by Parseval.
Membership of f in the range of (I - T_alpha), of (I - T_beta), or of their
product then reduces to weighted sums over atoms with certified divisor
enclosures |1 - e(n*x)|**2 = 4*sin(pi*||n*x||)**2.

Everything here reports partial sums over the finite atom set. Divergence
of an infinite criterion integral is never claimed from a truncation; what
can be certified is that a partial sum already exceeds a threshold, or that
each atom contributes at least an analytic floor.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import fourier
from .certify import Enclosure
from .errors import CertificationError, ConfigError
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


def _criterion_sum(m: tuple[Atom, ...], term_of) -> CriterionSum:
    """Sum term_of(atom) over the atoms off frequency 0, with the ledger."""
    total = Enclosure.point(0)
    divergent = False
    terms = []
    for atom in m:
        if atom.n == 0:
            divergent = True
            continue
        term = term_of(atom)
        terms.append((atom.n, term))
        total = total + term
    return CriterionSum(value=total, divergent=divergent, terms=tuple(terms))


def coboundary_integral(m: tuple[Atom, ...], which: str) -> CriterionSum:
    """Partial sum of mass / |1 - e(n*x)|**2 over atoms, x = alpha or beta.

    Finiteness of this integral is the one-sided coboundary criterion; an
    atom at frequency 0 makes it infinite, reported through the divergent
    flag rather than by raising.
    """
    if which not in ("alpha", "beta"):
        raise ConfigError(f"which must be 'alpha' or 'beta', got {which!r}")
    field = "div_alpha_sq" if which == "alpha" else "div_beta_sq"
    return _criterion_sum(
        m, lambda atom: Enclosure.point(atom.mass) / getattr(atom, field)
    )


def joint_criterion_sum(
    m: tuple[Atom, ...], alpha_side: CriterionSum, beta_side: CriterionSum
) -> CriterionSum:
    """Partial sum of mass * (d_a + d_b) / (d_a * d_b) over atoms.

    Algebraically this is the sum of the two one-sided integrals of m, which
    the caller passes as alpha_side and beta_side; the two routes must
    agree, so a drift between them signals a precision bug rather than a
    mathematical possibility.
    """
    joint = _criterion_sum(
        m,
        lambda atom: (atom.mass * (atom.div_alpha_sq + atom.div_beta_sq))
        / (atom.div_alpha_sq * atom.div_beta_sq),
    )
    recombined = alpha_side.value + beta_side.value
    # both enclosures hold the same exact sum, so disjoint ones mean a bug
    if joint.value.hi < recombined.lo or joint.value.lo > recombined.hi:
        raise CertificationError(
            "joint criterion sum drifted from the sum of its one-sided parts"
        )
    return joint


def double_criterion_sum(m: tuple[Atom, ...]) -> CriterionSum:
    """Partial sum of mass / (d_a * d_b) over atoms, the product criterion.

    The per-atom ledger is the content: for atoms produced by the main
    construction each term sits above 1/(4*pi**2), so the partial sums grow
    at least linearly in the atom count.
    """
    return _criterion_sum(
        m,
        lambda atom: Enclosure.point(atom.mass)
        / (atom.div_alpha_sq * atom.div_beta_sq),
    )


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
