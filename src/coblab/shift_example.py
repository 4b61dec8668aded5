"""Shift operators on the quarter lattice and a certified divergence example.

On sequences indexed by pairs of positive integers, the horizontal and
vertical shifts U and V act by (Ux)_{j,k} = x_{j+1,k} and (Vx)_{j,k} =
x_{j,k+1}; both contract every l_p norm.  This module builds a function h
depending only on the diagonal s = j + k that lies in l_p, so that
f = (I - U)h is a coboundary for U, while the only formal solution of the
doubled equation f = (I - U)(I - V)x, namely q = sum_{n>=0} V^n h, falls
outside l_p: its first-row p-th powers decay exactly like a harmonic
series.

Everything is evaluated in certified interval arithmetic.  The convergent
side (h in l_p) returns an exact diagonal partial sum with an integral-test
tail bound, and the divergent side returns a certificate whose entries pin
the computed q between explicit integral brackets and bound its row sums
from below by a quantity that grows without bound.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat
from math import isqrt
from typing import NamedTuple, Optional, Union

from .certify import (
    Enclosure, Frozen, from_fixed, log_enclosure, log_fixed, pow_enclosure,
    sqrt_enclosure, to_fixed,
)
from .errors import ConfigError
from .report import Certificate, CertificateEntry, require

Rational = Union[int, Fraction]

# Slack factor applied to analytic lower bounds so every certified
# comparison has room; the first omitted series term already exceeds the
# slack at the leading diagonals, so nothing real is given away.
_EPS = Fraction(1, 1000)

# Dyadic grids (2**-_ACC_BITS, 2**-_GRID) for long directed-rounding sums.
_ACC_BITS = 120
_GRID = _ACC_BITS + 40

_TERM_BITS = 110
_BRACKET_BITS = 96  # the integral brackets of q and of its remainders

# The first n with (log n)**4 <= n past e**4, where x/(log x)**4 increases:
# the p = 1 divergence certificate requires the comparisons at _J0 and _J0 - 1.
_J0 = 5504


def _rational_pow(base: Fraction, expo: Fraction, bits: int) -> Enclosure:
    """Enclosure of base**expo for positive rational base and rational expo.

    Integer exponents are exact, half-integer exponents go through a single
    integer square root, and everything else is pow_enclosure.
    """
    base, expo = Fraction(base), Fraction(expo)
    if base <= 0:
        raise ValueError("base must be positive")
    if expo.denominator == 1 or base == 1:
        return Enclosure.point(base ** int(expo))
    if expo.denominator == 2:
        return sqrt_enclosure(base ** int(expo.numerator), bits)
    return pow_enclosure(base, expo, bits)


def _acc_sum(fractions) -> Enclosure:
    """sum of num/den over (num, den) pairs, den > 0, each term rounded
    outward onto the 2**-_ACC_BITS grid."""
    lo = hi = 0
    for num, den in fractions:
        num <<= _ACC_BITS
        lo += num // den
        hi -= -num // den
    return from_fixed(lo, hi, _ACC_BITS)


# The long sums round each partial sum outward onto the 2**-_GRID grid. A
# sum on the grid plus x rounds to that sum plus x rounded, so the partial
# sums are kept as pairs of ints: floor and ceiling times 2**_GRID.


def _grid_sum(pairs) -> Enclosure:
    lo = hi = 0
    for a, b in pairs:
        lo, hi = lo + a, hi + b
    return from_fixed(lo, hi, _GRID)


def _logpower_ends(s: int, bits: int) -> tuple[int, int, int, int]:
    """(a, b, c, d) with s**-2 * (log s)**-2 in [a/b, c/d], log s at bits:
    with log s in [lo, hi] * 2**-(bits+2), (lo, hi) from log_fixed, a/b and
    c/d are (2**(bits+2) / (s*hi))**2 and (2**(bits+2) / (s*lo))**2, the
    rationals log_enclosure gives, built without a Fraction."""
    lo, hi = log_fixed(s, 1, bits)
    one = 1 << (2 * bits + 4)
    return one, (s * hi) ** 2, one, (s * lo) ** 2


def _ratio_grid(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """Floor of a/b and ceiling of c/d, times 2**_GRID."""
    return (a << _GRID) // b, -((-c << _GRID) // d)


def _logpower_grid(s: int, num: int) -> tuple[int, int]:
    """num * s**-2 * (log s)**-2 on the grid, log s at _TERM_BITS."""
    a, b, c, d = _logpower_ends(s, _TERM_BITS)
    return _ratio_grid(num * a, b, num * c, d)


class LatticeFunction(Frozen):
    """The l_p member h of build_h, a function of s = j + k alone.

    For p > 1, kind "power": h = s**(-exponent) with exponent (p+1)/p. At
    p = 1, kind "logpower": h = s**(-2) * (log s)**(-2), the repair used
    where no pure power lands inside l_1; exponent is 2 there too.
    """

    __slots__ = ("p",)

    def __init__(self, p: Rational):
        p = Fraction(p)
        if p < 1:
            raise ConfigError("the construction needs p >= 1")
        object.__setattr__(self, "p", p)

    @property
    def kind(self) -> str:
        return "logpower" if self.p == 1 else "power"

    @property
    def exponent(self) -> Fraction:
        return (self.p + 1) / self.p

    def diagonal_value(self, s: int) -> Enclosure:
        return _diag_power(self, s, _TERM_BITS)


def _diag_power(f: LatticeFunction, s: int, bits: int) -> Enclosure:
    """Enclosure of f(s) along the diagonal."""
    if s < 2:
        raise ConfigError("diagonals start at s = 2")
    if f.kind == "power":
        return _rational_pow(Fraction(s), -f.exponent, bits)
    a, b, c, d = _logpower_ends(s, bits)
    return Enclosure(Fraction(a, b), Fraction(c, d))


def build_h(p: Rational) -> LatticeFunction:
    """The l_p member whose U-coboundary has no doubly-shifted solution.

    For p > 1 this is (j+k)**(-(p+1)/p); its p-th power sums like
    sum (s-1) s**(-p-1), which converges.  At p = 1 the same recipe would
    leave l_1, so a squared logarithm is inserted instead.
    """
    return LatticeFunction(p)


# ---------------------------------------------------------------------------
# l_p norms: exact diagonal partial sums plus integral tails


class LatticeSum(NamedTuple):
    """A certified bracket for an infinite lattice sum.

    partial covers every complete diagonal s <= diagonals; tail is an
    interval [0, T] bounding everything discarded, so total = partial + tail
    contains the exact infinite sum.
    """

    partial: Enclosure
    tail: Enclosure
    total: Enclosure
    diagonals: int


def lp_partial_norm(f: LatticeFunction, box: int) -> LatticeSum:
    """Certified bracket for sum of f(j,k)**p over all j, k >= 1, p = f.p.

    The partial sum runs over the complete diagonals s <= box + 1 (every
    lattice point with that diagonal lies inside the box x box square);
    each diagonal contributes (s-1) f(s)**p.  The discarded part is bounded
    by the integral test: for p > 1 the diagonal series is
    sum (s-1) s**(-kappa) with kappa = p + 1 > 2.
    """
    if box < 1:
        raise ConfigError("box dimensions must be positive")
    S = box + 1

    if f.kind == "power":
        kappa = f.p + 1
        if kappa.denominator == 1:
            partial = _acc_sum((s - 1, s ** int(kappa)) for s in range(2, S + 1))
        else:
            terms = ((s - 1) * _rational_pow(Fraction(s), -kappa, _TERM_BITS)
                     for s in range(2, S + 1))
            partial = _grid_sum(to_fixed(term, _GRID) for term in terms)
        # (s-1) s**-kappa <= s**(1-kappa), then integral comparison.
        tail_hi = _rational_pow(Fraction(S), 2 - kappa, 96).hi / (kappa - 2)
    else:
        partial = _grid_sum(_logpower_grid(s, s - 1) for s in range(2, S + 1))
        # sum_{s>S} (s-1) s**-2 (log s)**-2 <= int_S^inf dx/(x log^2 x).
        tail_hi = 1 / log_enclosure(S, 96).lo
    tail = Enclosure(Fraction(0), tail_hi)
    return LatticeSum(partial, tail, partial + tail, S)


# ---------------------------------------------------------------------------
# the formal solution q and its certified brackets


class ShiftGrid(NamedTuple):
    """Certified values of q = sum_{n>=0} V^n h on a J x K box.

    q inherits the diagonal structure of h, so one enclosure per diagonal
    covers the whole box.  The certificate pins sampled diagonals between
    integral lower and upper brackets.
    """

    J: int
    K: int
    diagonals: dict
    certificate: Certificate

    def rows(self):
        for j in range(1, self.J + 1):
            for k in range(1, self.K + 1):
                yield j, k, self.diagonals[j + k]


def _power_series_remainder(f: LatticeFunction, M: int) -> Enclosure:
    """Bracket for sum_{t>=M} f(t) by integral comparison from both sides."""
    if f.kind == "power":
        kappa = f.exponent
        lo = _integral_power(M, kappa).lo
        hi = _integral_power(M - 1, kappa).hi
        return Enclosure(lo, hi)
    # Logarithmic kind: freeze the log factor at each end of the range.
    # Lower: terms M..2M alone, with (log t)**-2 >= (log 2M)**-2 there and
    # sum t**-2 >= 1/M - 1/(2M+1).  Upper: (log t)**-2 <= (log M)**-2 and
    # sum_{t>=M} t**-2 <= 1/(M-1).
    if M < 3:
        raise ConfigError("logarithmic remainders need M >= 3")
    lo = (Fraction(1, M) - Fraction(1, 2 * M + 1)) / log_enclosure(
        2 * M, _BRACKET_BITS
    ).hi ** 2
    hi = Fraction(1, M - 1) / log_enclosure(M, _BRACKET_BITS).lo ** 2
    return Enclosure(lo, hi)


def _integral_power(M: int, kappa: Fraction) -> Enclosure:
    """int_M^inf x**-kappa dx = M**(1-kappa) / (kappa - 1)."""
    return _rational_pow(Fraction(M), 1 - kappa, _BRACKET_BITS) / (kappa - 1)


def _q_diagonal_upper(f: LatticeFunction, s: int) -> Enclosure:
    """Analytic upper bound on q(s) = sum_{t>=s} f(t), valid for s >= 2."""
    if f.kind == "power":
        return _integral_power(s - 1, f.exponent) if s >= 3 else (
            _diag_power(f, 2, _BRACKET_BITS)
            + _integral_power(2, f.exponent)
        )
    # q(s) <= f(s) + int_s^inf <= (log s)**-2 (s**-2 + s**-1), where
    # log s >= lo * 2**-(_BRACKET_BITS + 2) for the lower int of log_fixed
    lo = log_fixed(s, 1, _BRACKET_BITS)[0]
    return Enclosure.point(Fraction((s + 1) << (2 * _BRACKET_BITS + 4), s * s * lo * lo))


def _roll_down(
    f: LatticeFunction, remainder: Enclosure, M: int, bottom: int, keep: int
) -> dict:
    """q(t) = f(t) + q(t+1) on the grid for t = M-1, ..., bottom, from the
    remainder q(M); returns the values at t <= keep, where keep < M - 1."""
    lo, hi = to_fixed(f.diagonal_value(M - 1) + remainder, _GRID)
    values = {}
    for t in range(M - 2, bottom - 1, -1):
        a, b = to_fixed(f.diagonal_value(t), _GRID)
        lo, hi = lo + a, hi + b
        if t <= keep:
            values[t] = from_fixed(lo, hi, _GRID)
    return values


def build_q(
    f: LatticeFunction, J: int, K: int, tail_terms: int = 64
) -> ShiftGrid:
    """Evaluate the formal solution q(j,k) = sum_{n>=0} f(j, k+n).

    Each diagonal value is an explicit truncated sum plus an integral
    bracket for the remainder, computed once at the far end and rolled
    down by the exact recurrence q(s) = f(s) + q(s+1).  For the power
    kind the result is certified to lie between the integral bounds
    int_s^inf x**-kappa dx and int_{s-1}^inf x**-kappa dx.
    """
    if J < 1 or K < 1:
        raise ConfigError("box dimensions must be positive")
    if tail_terms < 2:
        raise ConfigError("need at least two explicit tail terms")
    s_max = J + K
    M = s_max + tail_terms

    remainder = _power_series_remainder(f, M)
    diagonals = _roll_down(f, remainder, M, 2, s_max)

    entries = [
        CertificateEntry(
            description=(
                f"remainder past t = {M} bracketed by integral comparison"
            ),
            value=remainder,
        )
    ]
    sample = sorted(
        s for s in {2, 3, max(2, s_max // 2), s_max} if s <= s_max
    )
    for s in sample:
        if f.kind == "power":
            lower = (1 - _EPS) * _integral_power(s, f.exponent)
        else:
            lower = (1 - _EPS) * _power_series_remainder(f, max(s, 3))
        upper = _q_diagonal_upper(f, s)
        enc = diagonals[s]
        entries.append(
            CertificateEntry(
                description=f"q on the diagonal j+k = {s} vs integral lower",
                value=enc,
                comparison=">=",
                threshold=Enclosure(lower.lo, lower.lo),
            )
        )
        entries.append(
            CertificateEntry(
                description=f"q on the diagonal j+k = {s} vs integral upper",
                value=enc,
                comparison="<=",
                threshold=Enclosure(upper.hi, upper.hi),
            )
        )
    cert = require(
        Certificate(kind="membership", entries=tuple(entries)),
        "formal solution brackets",
    )
    return ShiftGrid(J, K, diagonals, cert)


# ---------------------------------------------------------------------------
# the divergence certificate


class DivergenceReport(NamedTuple):
    """Both halves of the dichotomy for the formal solution q.

    row_sum_lower bounds sum_{k<=K} q(1,k)**p from below; for p > 1 it
    grows like p**p log K, so the first row alone expels q from l_p.  At
    p = 1 single rows stay summable and the divergence comes from the row
    totals decaying only like j**(-1/2); the certificate then bounds
    several rows from below.  lr_partial certifies that q still lies in
    l_r for the recorded exponent r > 2p: the doubled equation fails in
    l_p, not for lack of any decay.
    """

    row_sum_lower: Enclosure
    bounded_exponent: int
    lr_partial: Enclosure
    log_threshold: Optional[int]
    certificate: Certificate


def _isqrt_pow32_sum(m0: int, count: int, start: int, stop: int) -> Enclosure:
    """sum of m**(-3/2) over count copies of m0 and every m in
    range(start, stop), directed dyadic rounding; m0 is bracketed once."""
    lo = hi = 0
    runs = chain([(m0, count)], zip(range(start, stop), repeat(1)))
    for m, n in runs:  # u <= m**(3/2) * 2**80 < u + 1
        u = isqrt((m**3) << 160)
        lo += n * ((1 << 160) // (u + 1))
        hi -= n * ((-1 << 160) // u)
    return from_fixed(lo, hi, 80)


def _q_point(f: LatticeFunction, s: int) -> Enclosure:
    """q(s) = sum_{t>=s} f(t) from 48 explicit terms, without a full grid."""
    return _roll_down(f, _power_series_remainder(f, s + 48), s + 48, s, s)[s]


def _power_divergence(p: Fraction, K: int) -> DivergenceReport:
    f = build_h(p)
    kappa = f.exponent
    r = (2 * p).__floor__() + 1
    entries = []

    # Row 1: q(1,k) >= int_{1+k}^inf x**-kappa dx = p (1+k)**((1-kappa)),
    # and (1-kappa) p = -1 exactly, so p-th powers are harmonic.
    coef = _rational_pow((1 - _EPS) * p, p, 140)
    harmonic = _acc_sum((1, k + 1) for k in range(1, K + 1))  # sum 1/(1+k)
    row_sum_lower = coef * harmonic
    log_thr = (log_enclosure(K + 2, 96) - 1) * coef
    entries.append(
        CertificateEntry(
            description=(
                f"row 1 sum of q**{p} over k <= {K} vs its logarithmic "
                "growth floor"
            ),
            value=row_sum_lower,
            comparison=">=",
            threshold=log_thr,
        )
    )
    entries.append(
        CertificateEntry(
            description=(
                "slack 1/1000 in lower bounds; the first omitted series "
                "term exceeds it on every sampled diagonal"
            ),
            value=Enclosure.point(_EPS),
        )
    )
    for k in sorted({1, 7, K}):
        enc = _q_point(f, 1 + k)
        entries.append(
            CertificateEntry(
                description=f"q at row 1, column {k} vs integral lower",
                value=enc,
                comparison=">=",
                threshold=Enclosure.point(
                    ((1 - _EPS) * _integral_power(1 + k, kappa)).lo
                ),
            )
        )
        entries.append(
            CertificateEntry(
                description=f"q at row 1, column {k} vs integral upper",
                value=enc,
                comparison="<=",
                threshold=Enclosure.point(_q_diagonal_upper(f, 1 + k).hi),
            )
        )

    # l_r control: q(s) <= int_{s-1}^inf x**-kappa = p (s-1)**(-1/p), so
    # sum (s-1) q(s)**r <= p**r sum_m m**(1 - r/p) with m = s - 1, and
    # 1 - r/p < -1.  Partial sum plus integral tail, then a closed bound:
    # with g = r - 2p > 0, sum_{m > cap} m**(1 - r/p) <= p/g * cap**(-g/p)
    # and the whole sum is at most 1 + p/g.
    e_r = 1 - Fraction(r, p)
    gap = r - 2 * p
    cap = 1000 if e_r.denominator in (1, 2) else 200
    acc = _grid_sum(
        to_fixed(_rational_pow(Fraction(m), e_r, _TERM_BITS), _GRID)
        for m in range(1, cap + 1)
    )
    tail_hi = p / gap * _rational_pow(Fraction(cap), -gap / p, 96).hi
    coef_r = (
        Enclosure.point(p**r)
        if p.denominator == 1
        else _rational_pow(p, Fraction(r), 140)
    )
    lr_partial = coef_r * (acc + Enclosure(Fraction(0), tail_hi))
    closed = (coef_r * (1 + p / gap)).hi
    entries.append(
        CertificateEntry(
            description=(
                f"full lattice sum of q**{r} vs its closed convergence bound"
            ),
            value=lr_partial,
            comparison="<=",
            threshold=Enclosure.point(closed),
        )
    )
    cert = require(
        Certificate(kind="divergence-witness", entries=tuple(entries)),
        "divergence certificate",
    )
    return DivergenceReport(row_sum_lower, r, lr_partial, None, cert)


def _logpower_divergence(K: int) -> DivergenceReport:
    f = build_h(1)
    r = 3
    entries = [
        CertificateEntry(
            description=f"(log n)**4 at n = {_J0}",
            value=log_enclosure(_J0, 200).square().square(),
            comparison="<=",
            threshold=Enclosure.point(_J0),
        ),
        CertificateEntry(
            description=f"(log n)**4 at n = {_J0 - 1}",
            value=log_enclosure(_J0 - 1, 200).square().square(),
            comparison=">",
            threshold=Enclosure.point(_J0 - 1),
        ),
        CertificateEntry(
            description=(
                "x/(log x)**4 increases past e**4, so the power envelope "
                f"t**(-5/2) <= t**(-2)(log t)**(-2) holds for all t >= {_J0}"
            ),
            value=Enclosure.point(_J0),
        ),
    ]
    for t in (_J0, 2 * _J0):
        entries.append(
            CertificateEntry(
                description=f"series term vs power envelope at t = {t}",
                value=f.diagonal_value(t),
                comparison=">=",
                threshold=Enclosure.point(
                    _rational_pow(Fraction(t), Fraction(-5, 2), 120).hi
                ),
            )
        )

    # Row sums: q(j,k) >= sum_{t >= max(j+k, _J0)} t**(-5/2)
    #                  >= (2/3) max(j+k, _J0)**(-3/2).
    # Summed over k <= K this stays bounded for each fixed j, but the row
    # totals only decay like j**(-1/2): their sum over j diverges, which
    # is what expels q from l_1.
    row_lowers = {}
    for j in (1, 2, 4):
        # max(j + k, _J0), k <= K: min(K, _J0 - j) times _J0, then _J0 + 1, ..., j + K
        row_sum = _isqrt_pow32_sum(_J0, min(K, _J0 - j), _J0 + 1, j + K + 1)
        row_lowers[j] = Fraction(2, 3) * (1 - _EPS) * row_sum
        threshold = Fraction(2, 3) * (1 - _EPS) ** 2 * _row_integral_lower(
            j, K, _J0
        )
        entries.append(
            CertificateEntry(
                description=(
                    f"row {j} sum of q over k <= {K} vs integral lower"
                ),
                value=row_lowers[j],
                comparison=">=",
                threshold=Enclosure.point(threshold.lo),
            )
        )
    row_sum_lower = row_lowers[1]

    # l_3 control: q(s) <= (log s)**-2 (s**-2 + s**-1), so
    # (s-1) q**3 <= 8 s**-2 (log s)**-6 past the partial range.
    cap = 400

    def cube(s: int) -> tuple[int, int]:  # (s-1) q(s)**3 <= a/b, onto the grid
        u = _q_diagonal_upper(f, s).hi
        a, b = (s - 1) * u.numerator**3, u.denominator**3
        return _ratio_grid(a, b, a, b)

    acc = _grid_sum(map(cube, range(2, cap + 1)))
    log_cap = log_enclosure(cap, 96).lo
    tail_hi = 8 / (Fraction(cap) * log_cap**6)
    lr_partial = acc + Enclosure(Fraction(0), tail_hi)
    log2 = log_enclosure(2, 96).lo
    log3 = log_enclosure(3, 96).lo
    closed = (Fraction(3, 4) / log2**2) ** 3 + 8 / (2 * log3**6) + 1
    entries.append(
        CertificateEntry(
            description=(
                "full lattice sum of q**3 vs its closed convergence bound"
            ),
            value=lr_partial,
            comparison="<=",
            threshold=Enclosure.point(closed),
        )
    )
    cert = require(
        Certificate(kind="divergence-witness", entries=tuple(entries)),
        "divergence certificate",
    )
    return DivergenceReport(row_sum_lower, r, lr_partial, _J0, cert)


def _row_integral_lower(j: int, K: int, J0: int) -> Enclosure:
    """Integral lower bound for sum_{k<=K} max(j+k, J0)**(-3/2)."""
    flat = max(0, min(K, J0 - j - 1))
    total = Enclosure.point(flat) * _rational_pow(
        Fraction(J0), Fraction(-3, 2), 96
    )
    if j + K >= J0:
        start = max(j + 1, J0)
        sloped = 2 * (
            _rational_pow(Fraction(start), Fraction(-1, 2), 96)
            - _rational_pow(Fraction(j + K + 2), Fraction(-1, 2), 96)
        )
        total = total + sloped
    return total


# The row sums visit every k <= K: at K = 10**6, p = 1 takes 4.6-6.5 s and
# p = 2 0.6 s (2 cores, CPython 3.11), so a larger K is refused.
_K_MAX = 10**6


def divergence_certificate(p: Rational, K: int) -> DivergenceReport:
    """Certify that the formal solution q escapes l_p as K grows.

    For p > 1 the entries pin sampled first-row values of q between
    integral brackets, bound the row sum of p-th powers below by a
    logarithmically growing floor, and bound the whole-lattice l_r sum
    (r the smallest integer above 2p) above by a closed constant.  At
    p = 1 the power envelope threshold is certified first and the row
    totals are bounded below instead.  K is capped at 10**6.
    """
    p = Fraction(p)
    if p < 1:
        raise ConfigError("the construction needs p >= 1")
    if K < 8:
        raise ConfigError("need at least K = 8 columns")
    if K > _K_MAX:
        raise ConfigError(
            f"column bound K = {K} exceeds 10**6: the row sums visit every k"
        )
    if p == 1:
        return _logpower_divergence(K)
    return _power_divergence(p, K)
