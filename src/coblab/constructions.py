"""Explicit joint coboundaries that are not double coboundaries, with
machine-checked certificates, plus the decay-envelope checker that
`check double-bad` runs on the same series.

The flagship pipeline picks simultaneous Dirichlet denominators q_k for a
rotation pair (alpha, beta), puts f_hat(q_k) = ||q_k*beta||, and transfers
to g with g_hat = f_hat*(1-e(q*alpha))/(1-e(q*beta)), so that
(I-T_alpha)f = (I-T_beta)g holds coefficientwise. Two certificates are
attached as certified interval comparisons:

  summable side   sum_k |g_hat(q_k)| <= (pi/2)*sum_k ||q_k*alpha||
                                     <= (pi/2)*sum_k q_k**-1/2
  obstruction     |h_hat(q_k)| = ||q_k*beta|| / (2*sin(pi*||q_k*beta||))
                  lies in [1/(2*pi), 1/4] for every k,

where h is the unique formal solution of f = (I-T_alpha)(I-T_beta)h. The
first shows the joint equation solves with summable coefficients; the second
shows the double solution's coefficients cannot tend to zero, which rules
out any L2 solution once the support is infinite (the truncation carries the
per-term witnesses; the limit statement is documentation).

Every certificate entry compares whole intervals: a comparison holds only
when the entire value enclosure sits on the required side of the entire
threshold enclosure. Non-strict comparisons accept exact endpoint equality,
so degenerate all-zero families stay trivially true.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence, Union

from .certify import (
    Enclosure,
    exp_enclosure,
    log_enclosure,
    max_enclosure,
    pi_enclosure,
    sin_pi_enclosure,
    sqrt_enclosure,
)
from .diophantine import dirichlet_denominators, lacunary_denominators
from .dyadic import WorkComplex
from .errors import CertificationError, ConfigError, ShortfallError
from .fourier import (
    SparseFourierSeries,
    coefficient_magnitude_enclosure,
    transfer_coefficients,
)
from .report import Certificate, CertificateEntry, enclosure_json, require
from .surd import QuadraticSurd, dist_enclosure

Rational = Union[int, float, Fraction]

_BITS = 192


# ---------------------------------------------------------------------------
# certified scalar helpers


@lru_cache(maxsize=1024)
def _tight_dist(x: QuadraticSurd, q: int) -> Enclosure:
    """Enclosure of ||q*x|| with relative width below 1e-32, inside (0, 1/2];
    memoised, so the flagship certificates reuse f's enclosures."""
    return dist_enclosure(x, q, rel_tol=Fraction(1, 10**32), start_bits=_BITS)


def _half_sine(dist: Enclosure) -> Enclosure:
    """sin(pi*x) on a positive distance enclosure, kept strictly positive."""
    enc = sin_pi_enclosure(dist, _BITS)
    if enc.lo <= 0:
        raise CertificationError("sine enclosure lost positivity")
    return enc


# ---------------------------------------------------------------------------
# construction results


class ConstructionResult(NamedTuple):
    """A truncated construction with its inputs, solution, and certificates.

    tail_bound is the certified value of the geometric tail model
    (pi/2)*q_K**-1/2 * r/(1-r) with r = sqrt(q_{K-1}/q_K), standing in for
    the discarded infinite part of sum |g_hat|; the model assumption is
    recorded as a certificate annotation.
    """

    alpha: QuadraticSurd
    beta: QuadraticSurd
    f: SparseFourierSeries
    g: SparseFourierSeries
    q_sequence: tuple[int, ...]
    certificates: tuple[Certificate, ...]
    tail_bound: Enclosure
    notes: tuple[str, ...] = ()

    @property
    def verdict(self) -> bool:
        return all(cert.verdict for cert in self.certificates)

    def to_json_dict(self) -> dict:
        return {
            "alpha": str(self.alpha),
            "beta": str(self.beta),
            "q_sequence": list(self.q_sequence),
            "f": self.f.to_json_dict(),
            "g": self.g.to_json_dict(),
            "certificates": [c.to_json_dict() for c in self.certificates],
            "tail_bound": enclosure_json(self.tail_bound),
            "notes": list(self.notes),
            "verdict": self.verdict,
        }


def _geometric_tail(chosen: Sequence[int], half_pi: Enclosure) -> Enclosure:
    """(pi/2) * q_K**-1/2 * r/(1-r) with r = sqrt(q_{K-1}/q_K)."""
    q_prev, q_last = chosen[-2:]
    r = sqrt_enclosure(Fraction(q_prev, q_last), _BITS)
    if r.hi >= 1:
        raise CertificationError("gap ratio enclosure must stay below 1")
    one_minus_r = Enclosure(1 - r.hi, 1 - r.lo)
    return half_pi * sqrt_enclosure(Fraction(1, q_last), _BITS) * r / one_minus_r


_BUDGET_CAP = Fraction(1024)


def flagship_series(
    alpha: QuadraticSurd, beta: QuadraticSurd, K: int, Q: int,
    ratio: Rational = 2.0, budget: Rational = 2.0,
) -> tuple[SparseFourierSeries, tuple[str, ...]]:
    """The flagship series f, f_hat(q_k) = ||q_k*beta|| at K frequencies q_k.

    Candidate denominators come from the certified simultaneous search up to
    Q; the greedy lacunary selection keeps sum q**-1/2 within the budget, so
    no approximation record is built. If the default budget yields fewer than
    K terms it is doubled (the budget only gates selection; certificates
    always bound the realized sums), and each escalation is recorded in the
    notes returned with f.
    """
    if K < 2:
        raise ConfigError("need at least two construction terms")
    qs = dirichlet_denominators(alpha, beta, Q)
    if len(qs) < K:
        raise ShortfallError(
            f"only {len(qs)} simultaneous Dirichlet denominators up to"
            f" {Q}, need {K}"
        )
    budget_f = Fraction(budget)
    notes: list[str] = []
    while True:
        selected = lacunary_denominators(qs, ratio, budget_f)
        if len(selected) >= K:
            break
        if budget_f >= _BUDGET_CAP:
            raise ShortfallError(
                f"selection yields {len(selected)} terms even at summability"
                f" budget {budget_f}; need {K}"
            )
        budget_f *= 2
        notes.append(f"summability budget escalated to {budget_f}")
    f = SparseFourierSeries(
        {q: WorkComplex.from_fraction(_tight_dist(beta, q).mid)
         for q in selected[:K]}
    )
    return f, tuple(notes)


def build_joint_not_double(
    alpha: QuadraticSurd, beta: QuadraticSurd, K: int, Q: int,
    ratio: Rational = 2.0, budget: Rational = 2.0,
) -> ConstructionResult:
    """The flagship construction: flagship_series's f, g and both certificates."""
    f, notes = flagship_series(alpha, beta, K, Q, ratio, budget)
    chosen = f.support
    pi = pi_enclosure(_BITS)
    half_pi = pi / 2

    dists_a = [_tight_dist(alpha, q) for q in chosen]
    dists_b = [_tight_dist(beta, q) for q in chosen]
    sines_b = [_half_sine(db) for db in dists_b]
    g = transfer_coefficients(f, alpha, beta)

    # summable side: per-term |g_hat| = ||q*beta|| * sin(pi*||q*alpha||) / sin(pi*||q*beta||)
    g_total = Enclosure.point(0)
    dist_a_total = Enclosure.point(0)
    inv_sqrt_total = Enclosure.point(0)
    for q, da, db, sb in zip(chosen, dists_a, dists_b, sines_b):
        g_total = g_total + db * _half_sine(da) / sb
        dist_a_total = dist_a_total + da
        inv_sqrt_total = inv_sqrt_total + sqrt_enclosure(Fraction(1, q), _BITS)

    mid_link = half_pi * dist_a_total
    right_link = half_pi * inv_sqrt_total
    tail = _geometric_tail(chosen, half_pi)

    joint_cert = require(
        Certificate(
            kind="joint-upper-bound",
            entries=(
                CertificateEntry(
                    "sum of |g_hat(q_k)| vs (pi/2) * sum of ||q_k*alpha||",
                    g_total,
                    "<=",
                    mid_link,
                ),
                CertificateEntry(
                    "(pi/2) * sum of ||q_k*alpha|| vs (pi/2) * sum of q_k**-1/2",
                    mid_link,
                    "<=",
                    right_link,
                ),
                CertificateEntry(
                    "sum of |g_hat(q_k)| vs (pi/2) * sum of q_k**-1/2",
                    g_total,
                    "<=",
                    right_link,
                ),
                CertificateEntry(
                    "discarded tail of sum |g_hat| under the geometric gap model",
                    tail,
                    "assumption",
                ),
            ),
        ),
        "joint upper bound",
    )

    lower = Enclosure.point(1) / (2 * pi)
    upper = Enclosure.point(Fraction(1, 4))
    double_entries = []
    for q, db, sb in zip(chosen, dists_b, sines_b):
        # |h_hat| = ||q*beta|| / (2*sin(pi*||q*beta||))
        h_mag = db / (2 * sb)
        double_entries.append(
            CertificateEntry(
                f"|h_hat({q})| vs 1/(2*pi)", h_mag, ">=", lower
            )
        )
        double_entries.append(
            CertificateEntry(f"|h_hat({q})| vs 1/4", h_mag, "<=", upper)
        )
    double_cert = require(
        Certificate(kind="double-lower-bound", entries=tuple(double_entries)),
        "double lower bound",
    )

    return ConstructionResult(
        alpha=alpha,
        beta=beta,
        f=f,
        g=g,
        q_sequence=chosen,
        certificates=(joint_cert, double_cert),
        tail_bound=tail,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# sufficient-condition checkers


def envelope_sum(a: Sequence[Rational]) -> Fraction:
    """Sum over k of k * a_k**2, exactly, for a nonempty, nonnegative and
    non-increasing envelope (validated exactly on the supplied rationals)."""
    if not a:
        raise ConfigError("envelope must be nonempty")
    vals = [Fraction(x) for x in a]
    if any(v < 0 for v in vals):
        raise ConfigError("envelope terms must be nonnegative")
    for prev, curr in zip(vals, vals[1:]):
        if curr > prev:
            raise ConfigError("envelope must be non-increasing")
    return sum((k * v * v for k, v in enumerate(vals, start=1)), Fraction(0))


def check_mur_envelope(a: Sequence[Rational], tail_bound: Rational) -> Certificate:
    """Monotone-envelope summability: envelope_sum(a) plus a caller-supplied
    analytic tail, recorded and added to the reported total."""
    partial = envelope_sum(a)
    tail = Fraction(tail_bound)
    if tail < 0:
        raise ConfigError("tail bound must be nonnegative")
    return Certificate(
        kind="membership",
        entries=(
            CertificateEntry(
                f"envelope of {len(a)} terms verified non-increasing",
                Enclosure.point(Fraction(len(a))),
            ),
            CertificateEntry(
                "partial sum of k * a_k**2 (exact)", Enclosure.point(partial)
            ),
            CertificateEntry(
                "caller-supplied analytic tail bound", Enclosure.point(tail)
            ),
            CertificateEntry(
                "partial plus tail", Enclosure(partial, partial + tail)
            ),
        ),
    )


def _log_power(k: int, gamma: Fraction, bits: int) -> Enclosure:
    """(log k)**gamma = exp(gamma * log(log k)) for integer k >= 2."""
    if k < 2:
        raise ValueError("log power needs k >= 2")
    base = log_enclosure(k, bits)
    inner_lo = log_enclosure(base.lo, bits).lo
    inner_hi = log_enclosure(base.hi, bits).hi
    args = sorted((gamma * inner_lo, gamma * inner_hi))
    return Enclosure(
        exp_enclosure(args[0], bits).lo, exp_enclosure(args[1], bits).hi
    )


# check_double_bad builds the envelope and an exact sum for every k up to the
# largest support frequency, so a larger one is refused. `check double-bad
# --K 12 --Q 100000` (frequency 12368) takes 7.9 s; the same series with that
# frequency moved to 20000 takes 14.7 s in process (2 cores, CPython 3.11).
_ENVELOPE_K_MAX = 20000


def check_double_bad(f: SparseFourierSeries, gamma: Rational) -> Certificate:
    """Decay evidence |f_hat(k)| <= M/(k**2 (log|k|)**gamma) with gamma > 1.

    Finds the smallest certified M over the support, then delegates the
    induced envelope a_k = M/(k (log k)**gamma) to the monotone-envelope
    check with the integral-test tail M**2 (log K)**(1-2*gamma)/(2*gamma-1).
    The largest support frequency is capped at 20000.
    """
    f.require_centered("decay data")
    gamma_f = Fraction(gamma)
    if gamma_f <= 1:
        raise ConfigError("gamma must exceed 1")
    if any(abs(n) < 2 for n in f.support):
        raise ConfigError("support must avoid |k| < 2 for the log-power envelope")
    k_max = max((abs(n) for n in f.support), default=0)
    if k_max > _ENVELOPE_K_MAX:
        raise ConfigError(
            f"largest support frequency {k_max} exceeds {_ENVELOPE_K_MAX}: "
            "the envelope visits every k up to it"
        )
    if not len(f):
        return Certificate(
            kind="membership",
            entries=(
                CertificateEntry("envelope constant M", Enclosure.point(0)),
                CertificateEntry(
                    "partial sum of k * a_k**2 (exact)", Enclosure.point(0)
                ),
            ),
        )
    m_enc = Enclosure.point(0)
    for n, c in f.items():
        k = abs(n)
        term = (
            coefficient_magnitude_enclosure(c)
            * (k * k)
            * _log_power(k, gamma_f, _BITS)
        )
        m_enc = max_enclosure(m_enc, term)
    m_entry = CertificateEntry(
        "envelope constant M = max |f_hat(k)| * k**2 * (log k)**gamma", m_enc
    )
    m_hi = m_enc.hi
    envelope = [
        (m_hi * Fraction(1, k)) * _log_power(k, -gamma_f, _BITS).hi
        for k in range(2, k_max + 1)
    ]
    tail_enc = (
        m_hi
        * m_hi
        * _log_power(k_max, 1 - 2 * gamma_f, _BITS).hi
        / (2 * gamma_f - 1)
    )
    delegated = check_mur_envelope(envelope, tail_bound=tail_enc)
    return Certificate(kind="membership", entries=(m_entry,) + delegated.entries)
