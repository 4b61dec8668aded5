"""Sparse Fourier series on the circle under rotation operators.

A rotation by alpha acts on the n-th coefficient as multiplication by
e(n*alpha) = exp(2*pi*i*n*alpha). Coefficients are `dyadic.WorkComplex`
values: pairs of integer mantissas at WORK_PREC + 12 = 140 bits, each
operation rounded once to nearest. A phase is reduced exactly, in turns: the
residue t = (n * surd.fixed_point(alpha)) mod 2**192 lies within n + 1 units
of frac(n*alpha) * 2**192, and `dyadic.phase(t)` is e(t * 2**-192) correctly
rounded from certify's sine. So a phase is off from e(n*alpha) by its final
rounding plus at most 2*pi*(n + 1) * 2**-192, and the per-operation relative
error stays below 1e-30 throughout the supported desk scale. The certified
divisors |1 - e(n*alpha)| are divisor_enclosure's, which `spectral` prints;
the midpoint arithmetic here never feeds a certificate directly.
Exact masses and real parts are read from the mantissas: a Parseval mass
shifts every squared mantissa onto the finest exponent grid among the parts
and builds one Fraction from the integer sum. The phases e(n*alpha), n > 0,
and the divisors 1 - e(n*alpha), any n, are memoised per (rotation, n) in
two LRU caches of 65536 entries; an entry holds one WorkComplex, about
0.4 KB with its key, so each cache stays below 26 MB.

Ergodic-sum diagnostics evaluate the Dirichlet kernel
D(n, x) = |sin(pi*n*x)/sin(pi*x)| in float64 on exactly reduced arguments, a
relative error of a few 1e-15 against their 1e-9 tolerances. Per rotation x
and sorted distinct magnitudes k = |nu|, a table holds frac(k*x) * 2**192 and
sin(pi*||k*x||), about 0.13 KB per magnitude in each of at most 64 tables.
The residue of n*k*x is (n * frac(k*x)) mod 2**192, the same bits as
reducing n*k*x directly, and that of -n*k*x is 2**192 minus it, with the
same distance. So an LRU cache of rows D(n, k*x)**2 per (x, magnitudes, n)
serves both signs of nu and every series with those magnitudes: at most 8192
rows of about 0.25 KB plus 32 bytes per magnitude (4 MB for ten). Each series
memoises its float masses |f_hat(nu)|**2, each paired with the row position
of its |nu|, and sums in storage order, so every value equals the
term-by-term evaluation exactly. A rational x or an n*|nu| past
surd.FP_MAX_K is refused before a row is built, and a refused call stores
nothing.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .certify import Enclosure, sin_pi_enclosure, sqrt_enclosure
from .dyadic import ONE, ZERO, WorkComplex, phase, to_fraction
from .surd import FP_BITS, FP_HALF, FP_MAX_K, FP_ONE, QuadraticSurd
from .surd import dist_enclosure, fixed_point

_MASK = FP_ONE - 1
# pi * 2**-192 is exact, so pi_ulp * t rounds exactly as pi * ldexp(t, -192)
_PI_ULP = math.pi * 2.0**-FP_BITS


@lru_cache(maxsize=64)
def _residue_table(alpha: QuadraticSurd, mags: tuple[int, ...]) -> tuple:
    """Per magnitude k, (t, sin(pi*||k*alpha||)) for t the residue of k*alpha;
    None at k = 0."""
    X = fixed_point(alpha)

    def entry(k: int) -> tuple:
        t = (k * X) & _MASK
        return t, math.sin(math.pi * math.ldexp(float(min(t, FP_ONE - t)), -FP_BITS))

    return tuple(None if k == 0 else entry(k) for k in mags)


@lru_cache(maxsize=1 << 13)  # memory per row: see the module docstring
def _kernel_row(
    alpha: QuadraticSurd, label: str, mags: tuple[int, ...], n: int
) -> tuple:
    """D(n, k*alpha)**2 per magnitude k of mags, with D(n, 0)**2 = n**2.

    Refuses a rational alpha (named label in the error) or an n*max(mags)
    past the exact-reduction range. A refused call stores no row and so
    raises on every call; a stored row needs no check.
    """
    alpha.require_irrational(label)
    reach = n * mags[-1] if mags else 0
    if reach > FP_MAX_K:
        raise ValueError(f"n*|nu| = {reach} exceeds the exact-reduction range {FP_MAX_K}")
    sin, mask, half, one, pi_ulp = math.sin, _MASK, FP_HALF, FP_ONE, _PI_ULP
    row, at_zero = [], float(n)  # D(n, 0)
    for entry in _residue_table(alpha, mags):
        if entry is None:
            q = at_zero
        else:
            t, sin_k = entry
            t = (n * t) & mask  # the residue of n*k*alpha, exactly
            q = sin(pi_ulp * (t if t <= half else one - t)) / sin_k
        row.append(q * q)
    return tuple(row)


@lru_cache(maxsize=1 << 16)  # memory per entry: see the module docstring
def _phase(alpha: QuadraticSurd, n: int) -> WorkComplex:
    """e(n*alpha) at working precision for n > 0, from an exact residue."""
    return phase((n * fixed_point(alpha)) & _MASK)


def unit_phase(alpha: QuadraticSurd, n: int) -> WorkComplex:
    """e(n*alpha) as a working-precision complex number, any integer n."""
    if n == 0:
        return ONE
    if n > 0:
        return _phase(alpha, n)
    # conj is exact, so phases stay conjugate-symmetric
    return _phase(alpha, -n).conj()


@lru_cache(maxsize=1 << 16)  # memory per entry: see the module docstring
def _one_minus_phase(alpha: QuadraticSurd, n: int) -> WorkComplex:
    """The divisor 1 - e(n*alpha) at working precision, any integer n."""
    return 1 - unit_phase(alpha, n)


class SparseFourierSeries:
    """A finitely supported Fourier series, indexed by integer frequencies.

    Zero coefficients are dropped; when real_valued is set, conjugate
    symmetry coeff(-n) == conj(coeff(n)) is validated exactly (phase tables
    are built symmetrically, so the symmetry survives every operation here).
    """

    __slots__ = ("_coeffs", "real_valued", "_masses")

    def __init__(
        self,
        coefficients: Mapping[int, complex],
        real_valued: bool = False,
    ):
        data = {}
        for n, value in coefficients.items():
            # a WorkComplex is immutable, so it is kept as it is
            c = value if isinstance(value, WorkComplex) else WorkComplex(value)
            if c:
                data[int(n)] = c
        if real_valued:
            for n, c in data.items():
                if data.get(-n, ZERO) != c.conj():
                    raise ValueError(
                        f"real_valued series needs conjugate symmetry at n={n}"
                    )
        object.__setattr__(self, "_coeffs", data)
        object.__setattr__(self, "real_valued", real_valued)
        object.__setattr__(self, "_masses", None)

    def __setattr__(self, name, value):
        raise AttributeError("SparseFourierSeries is immutable")

    # -- access ---------------------------------------------------------------

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._coeffs))

    def coeff(self, n: int) -> WorkComplex:
        return self._coeffs.get(n, ZERO)

    def items(self):
        for n in sorted(self._coeffs):
            yield n, self._coeffs[n]

    def __len__(self) -> int:
        return len(self._coeffs)

    def is_centered(self) -> bool:
        return 0 not in self._coeffs

    def require_centered(self, what: str = "series") -> "SparseFourierSeries":
        if not self.is_centered():
            raise ValueError(f"{what} must have zero mean (no 0-frequency term)")
        return self

    # -- algebra ----------------------------------------------------------------

    def scale(self, factor) -> "SparseFourierSeries":
        s = WorkComplex(factor)
        data = {n: c * s for n, c in self._coeffs.items()}
        keeps_real = self.real_valued and s.im_man == 0
        return SparseFourierSeries(data, keeps_real)

    # -- norms ------------------------------------------------------------------

    def l2_norm_sq_exact(self) -> Fraction:
        """Exact Parseval mass: coefficients are dyadic, so this is a Fraction."""
        return _exact_mass(self._coeffs.values())

    def l2_norm(self) -> float:
        return math.sqrt(float(self.l2_norm_sq_exact()))

    def _float_masses(self) -> tuple:
        """(((|f_hat(nu)|**2, row index of |nu|) per nu, in storage order),
        sorted distinct |nu|)."""
        if self._masses is None:
            mags = tuple(sorted({abs(nu) for nu in self._coeffs}))
            slot = {k: i for i, k in enumerate(mags)}
            terms = tuple(
                (abs(complex(c)) ** 2, slot[abs(nu)]) for nu, c in self._coeffs.items()
            )
            object.__setattr__(self, "_masses", (terms, mags))
        return self._masses

    # -- serialization -------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "real_valued": self.real_valued,
            "coefficients": [[n, *c.to_strings()] for n, c in self.items()],
        }


# the distance tolerance of divisor_enclosure: its first 128-bit step meets it
_DIVISOR_TOL = Fraction(1, 10**15)


def divisor_enclosure(alpha: QuadraticSurd, n: int) -> Enclosure:
    """Certified |1 - e(n*alpha)| = 2*sin(pi*||n*alpha||) for n != 0."""
    if n == 0:
        raise ValueError("the zero frequency has no divisor")
    dist = dist_enclosure(alpha, abs(n), abs_tol=_DIVISOR_TOL / 8)
    return 2 * sin_pi_enclosure(dist, 192)


def coefficient_real(c: WorkComplex) -> Fraction:
    """Exact real part of a working-precision coefficient."""
    return to_fraction(c.re_man, c.re_exp)


def _exact_mass(coeffs) -> Fraction:
    """Exact sum of |c|**2 over working-precision coefficients.

    Every squared mantissa is shifted onto the finest exponent grid among
    the parts, so the sum is one int and one Fraction is built from it.
    """
    parts = [
        (man, exp)
        for c in coeffs
        for man, exp in ((c.re_man, c.re_exp), (c.im_man, c.im_exp))
        if man
    ]
    low = min((exp for _, exp in parts), default=0)
    total = sum(man * man << 2 * (exp - low) for man, exp in parts)
    return to_fraction(total, 2 * low)


def coefficient_mass(c: WorkComplex) -> Fraction:
    """Exact |c|**2 of a working-precision coefficient (its parts are dyadic)."""
    return _exact_mass((c,))


def coefficient_magnitude_enclosure(c: WorkComplex) -> Enclosure:
    """Certified |c| for a working-precision coefficient, taken as exact input."""
    return sqrt_enclosure(coefficient_mass(c), 160)


# ---------------------------------------------------------------------------
# rotation workflows


def apply_difference(f: SparseFourierSeries, alpha: QuadraticSurd) -> SparseFourierSeries:
    """(I - T_alpha) f, the coboundary of f under the rotation by alpha."""
    alpha.require_irrational("alpha")
    data = {n: c * _one_minus_phase(alpha, n) for n, c in f._coeffs.items()}
    return SparseFourierSeries(data, f.real_valued)


def transfer_coefficients(
    f: SparseFourierSeries, alpha: QuadraticSurd, beta: QuadraticSurd
) -> SparseFourierSeries:
    """g with g_hat(n) = f_hat(n) * (1 - e(n*alpha)) / (1 - e(n*beta)).

    When f = (I - T_alpha) u this is the transfer making (I - T_alpha) f_tilde
    match: it solves (I - T_beta) g = (I - T_alpha) f coefficientwise.
    """
    alpha.require_irrational("alpha")
    beta.require_irrational("beta")
    f.require_centered("transfer data")
    data = {
        n: c * _one_minus_phase(alpha, n) / _one_minus_phase(beta, n)
        for n, c in f._coeffs.items()
    }
    return SparseFourierSeries(data, f.real_valued)


# ---------------------------------------------------------------------------
# ergodic sums


def double_ergodic_sum_norm(
    f: SparseFourierSeries,
    alpha: QuadraticSurd,
    beta: QuadraticSurd,
    n: int,
    m: int,
) -> float:
    """L2 norm of sum_{k<n} sum_{j<m} T_alpha^k T_beta^j f.

    Parseval turns the double sum into Dirichlet kernel factors
    |f_hat(nu)|^2 * D(n, nu*alpha)^2 * D(m, nu*beta)^2 per frequency.
    """
    if n < 1 or m < 1:
        raise ValueError("sum lengths must be positive")
    terms, mags = f._float_masses()
    d_a = _kernel_row(alpha, "alpha", mags, n)
    d_b = _kernel_row(beta, "beta", mags, m)
    total = 0.0
    for w, i in terms:
        total += w * d_a[i] * d_b[i]
    return math.sqrt(total)


def browder_sum_norm(f: SparseFourierSeries, alpha: QuadraticSurd, n: int) -> float:
    """L2 norm of sum_{k<n} T_alpha^k f, the one-rotation ergodic sum."""
    if n < 1:
        raise ValueError("sum length must be positive")
    terms, mags = f._float_masses()
    d_a = _kernel_row(alpha, "alpha", mags, n)
    total = 0.0
    for w, i in terms:
        total += w * d_a[i]
    return math.sqrt(total)


# ---------------------------------------------------------------------------
# test and experiment inputs


def random_real_series(seed: int, max_freq: int) -> SparseFourierSeries:
    """Deterministic real-valued centered trigonometric polynomial of unit
    Parseval norm, supported on every n with 1 <= |n| <= max_freq.

    Coefficients for n = 1..max_freq are uniform in the unit square, mirrored
    conjugately, then scaled to unit norm.
    """
    rng = random.Random(seed)
    data: dict[int, complex] = {}
    for n in range(1, max_freq + 1):
        re = rng.uniform(-1.0, 1.0)
        im = rng.uniform(-1.0, 1.0)
        data[n] = complex(re, im)
        data[-n] = complex(re, -im)
    series = SparseFourierSeries(data, real_valued=True)
    return series.scale(1.0 / series.l2_norm())
