"""Diophantine approximation machinery for pairs of quadratic irrationals.

The central search asks for denominators q that approximate two rotation
numbers simultaneously: max(||q*alpha||, ||q*beta||) < q**(-1/2), the
two-dimensional pigeonhole guarantee evaluated here by exact arithmetic.
Three scans read one fixed-point fact, proven once in _bracket: for the odd
192-bit step X = fixed_point(x) | 1, the signed residue s of k*X is within
2k ulps of ||k*x||*2**192. The joint scans take both steps from _steps and
walk both rotations at once with _walk, in O(sqrt(Q)) steps, through
windows widened by that margin; the simultaneous search settles
q*||q*x||**2 < 1 on the bracket where it decides and by the exact surd sign
inside it, the badness scan by certified comparison. The square scan steps
n^2*X and settles ||n^2*beta||**b * n**a < 1 on the bracket of k = n^2.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence, Union

from .certify import (
    Enclosure,
    max_enclosure,
    pow_enclosure,
    refine,
    separate,
    sqrt_enclosure,
)
from .errors import ConfigError, PrecisionCapError
from .surd import FP_BITS, FP_HALF, FP_MAX_K, FP_ONE, QuadraticSurd
from .surd import dist_enclosure, fixed_point

Rational = Union[int, float, Fraction]

_FP_ONE_SQ = FP_ONE * FP_ONE


class ApproximationRecord(NamedTuple):
    """One simultaneous approximation denominator with certified intervals.

    quality encloses sqrt(q) * max(||q*alpha||, ||q*beta||) and sits strictly
    below 1 for every record produced by dirichlet_pair_search.
    """

    q: int
    dist_alpha: Enclosure
    dist_beta: Enclosure
    quality: Enclosure


def _as_fraction(value: Rational, name: str) -> Fraction:
    try:
        return Fraction(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot interpret {name}={value!r} as a rational") from exc


# ---------------------------------------------------------------------------
# continued fractions


def _quotients(x: QuadraticSurd, depth: int) -> Iterator[int]:
    """Partial quotients a_0, ..., a_depth of x, computed exactly, one at a
    time, by the integer recurrence on x = (P + sqrt(D))/Q with Q | D - P**2
    (Cohen, GTM 138, sec. 5.7): a = floor(x) as in QuadraticSurd.__floor__,
    one more inside the floor for Q < 0; P' = a*Q - P, Q' = (D - P'**2)/Q."""
    x.require_irrational("x")
    if depth < 0:
        raise ConfigError("depth must be nonnegative")
    # (a + b*sqrt(d))/c = (s*a*c + sqrt(D))/(s*c*c), with s the sign of b
    s = 1 if x.b > 0 else -1
    p, q, big_d = s * x.a * x.c, s * x.c * x.c, (x.b * x.c) ** 2 * x.d
    r = math.isqrt(big_d)
    for _ in range(depth + 1):
        a = (p + r + (q < 0)) // q
        yield a
        p = a * q - p
        q = (big_d - p * p) // q


# The `approx cf` report prints the convergents in decimal, and Python
# refuses to convert an int of more than 4300 digits to a string. So
# convergents stops at a q_k of CONVERGENT_DIGITS = 4000 digits: a parsed
# surd has |x| < 2**79 (see surd.parse_surd), so |p_k| <= |x|*q_k + 1 has at
# most 4024 digits.
CONVERGENT_DIGITS = 4000
_Q_LIMIT = 10**CONVERGENT_DIGITS


def convergents(x: QuadraticSurd, depth: int) -> Iterator[tuple[int, int, int]]:
    """Quotients and convergents (a_k, p_k, q_k) of x, k = 0..depth, lazily.

    A depth that reaches a q_k of more than CONVERGENT_DIGITS digits raises
    ConfigError, before the quotients past that k are computed.
    """
    p_prev, p_curr, q_prev, q_curr = 0, 1, 1, 0
    for k, a in enumerate(_quotients(x, depth)):
        p_prev, p_curr = p_curr, a * p_curr + p_prev
        q_prev, q_curr = q_curr, a * q_curr + q_prev
        if q_curr >= _Q_LIMIT:
            raise ConfigError(
                f"depth {depth}: q_{k} has more than {CONVERGENT_DIGITS} "
                "digits, past the largest convergent a report prints"
            )
        yield a, p_curr, q_curr


# ---------------------------------------------------------------------------
# exact enumeration of small multiples


# the walks cost O(sqrt(Q)) steps: `approx dirichlet` takes about 1.4 s
# at 10**12 and 4 s at this cap (2 cores, CPython 3.11)
_SCAN_CAP = 10**13


def _steps(alpha: QuadraticSurd, beta: QuadraticSurd, Q: int) -> tuple[int, int]:
    """(X, Y) = fixed_point(x) | 1 for alpha and beta, the odd steps of a joint
    scan of 1 <= q <= Q. A rational rotation, Q < 1, or Q past the proven
    range FP_MAX_K or the running-time cap 10**13 raises ConfigError."""
    alpha.require_irrational("alpha")
    beta.require_irrational("beta")
    if Q < 1:
        raise ConfigError(f"Q must be a positive integer, got {Q}")
    if Q > FP_MAX_K:
        raise ConfigError(f"scan bound {Q} exceeds the fixed-point range {FP_MAX_K}")
    if Q > _SCAN_CAP:
        raise ConfigError(f"scan bound {Q} exceeds the running-time cap 10**13")
    return fixed_point(alpha) | 1, fixed_point(beta) | 1


def _bracket(k: int, s: int) -> tuple[int, int]:
    """(max(|s| - 2k, 0), |s| + 2k), which holds m = ||k*x||*2**192 for s the
    signed residue of k*X, X = fixed_point(x) | 1, and k >= 0: fixed_point
    is within 1 of frac(x)*2**192 and | 1 adds at most 1, so k*X is within
    2k of k*frac(x)*2**192, and the distance to the nearest multiple of
    2**192, |s| at the one and m at the other, moves no more than its
    argument. Every scan reads this 2k-ulp margin: the windows of _walk and
    the square scan widen by it at the block's top, and the settles use it.
    """
    m, e = abs(s), 2 * k
    return max(m - e, 0), m + e


def _signed(residue: int) -> int:
    """residue mod 2**192 as an offset in [-2**191, 2**191)."""
    return (residue + FP_HALF) % FP_ONE - FP_HALF


def _first_returns(X: int, L: int, cap: int) -> tuple[int, int, int, int]:
    """(a, A, b, B): the least a >= 1 with A = a*X mod 2**192 < L and the
    least b >= 1 with B = -b*X mod 2**192 < L; a time at or past cap comes
    back as (cap, L). The one-sided minima of the residue are the intermediate
    fractions of X/2**192, which the subtractive Euclid recursion visits in
    order."""
    p, P, q, Q = 1, X, 0, FP_ONE  # p*X = P and q*X = -Q mod 2**192
    while (P >= L or Q >= L) and p < cap and q < cap:
        if P < Q:  # a run of subtractions, cut where it drops below L
            k = min(Q // P, (Q - L) // P + 1)
            q, Q = q + k * p, Q - k * P
        else:
            k = min(P // Q, (P - L) // Q + 1)
            p, P = p + k * q, P - k * Q
    a, A = (p, P) if P < L and p < cap else (cap, L)
    b, B = (q, Q) if Q < L and q < cap else (cap, L)
    return a, A, b, B


def _walk(X: int, E: int, Y: int, W: int, lo: int, hi: int) -> Iterator[tuple]:
    """(n, s, u), s and u the signed residues of n*X and n*Y, for every n in
    [lo, hi) with ||n*x||*2**192 < E and ||n*y||*2**192 < W, increasing; X
    and Y are the odd steps of x and y, and W = 2**192 passes every n.

    It yields the n with |s| < E + 2hi and |u| < W + 2hi, the windows
    widened by the margin of _bracket at hi (every n with the second when
    the first is a quarter turn or wider). It enters the block at its first
    hit, found by _first_entry, and each later hit follows the last after
    a, b or a+b steps (the three-gap theorem; Slater 1967): O(1) per hit.
    """
    E, W = _bracket(hi, E)[1], _bracket(hi, W)[1]
    if 4 * E >= FP_ONE:
        for n in range(lo, hi):
            u = _signed(n * Y)
            if abs(u) < W:
                yield n, _signed(n * X), u
        return
    W = min(W, FP_HALF + 1)  # then v - d is the signed residue of n*Y
    L, c = 2 * E - 1, E - 1  # t = (n*X + c) mod 2**192 is a hit when t < L
    M, d = 2 * W - 1, W - 1  # v = (n*Y + d) mod 2**192 is kept when v < M
    a, A, b, B = _first_returns(X, L, hi)
    N, LA, ab, AB = FP_ONE, L - A, a + b, A - B
    Ya, Yb, Yab = a * Y % N, b * Y % N, ab * Y % N
    n = lo + _first_entry((lo * X + c) % N, X, N, L)
    t, v = (n * X + c) % N, (n * Y + d) % N
    while n < hi:  # v stays below N by one conditional subtraction a step
        if v < M:
            yield n, t - c, v - d
        if t < LA:
            n += a
            t += A
            v += Ya
        elif t >= B:
            n += b
            t -= B
            v += Yb
        else:
            n += ab
            t += AB
            v += Yab
        if v >= N:
            v -= N


def _first_entry(t: int, X: int, m: int, L: int) -> int:
    """The least k >= 0 with (t + k*X) mod m < L, for 0 <= t < m and
    0 < X < m coprime to m. From t >= L the sequence grows until it wraps
    past m, so it can enter [0, L) only at a wrap; the j-th wrap lands on
    (t - j*m) mod X, which asks the same question modulo X, in j - 1 >= 0.
    Reflecting u -> (L - 1 - u) mod m, which maps [0, L) onto itself, keeps
    X <= m/2, so each level at least halves the modulus."""
    if t < L:
        return 0
    if 2 * X > m:
        X, t = m - X, L - 1 - t + m
    if L >= X:  # the first wrap lands in [0, X)
        return (m - t + X - 1) // X
    Xm = -m % X
    j = 1 + _first_entry((t + Xm) % X, Xm, X, L)
    return (j * m - t + X - 1) // X


def dyadic_blocks(Q: int) -> Iterator[tuple[int, int]]:
    """The blocks [2**j, 2**(j+1)) covering 1..Q, the last one cut at Q + 1."""
    return ((1 << j, min(2 << j, Q + 1)) for j in range(Q.bit_length()))


# ---------------------------------------------------------------------------
# simultaneous Dirichlet search


def _quality(q: int, da: QuadraticSurd, db: QuadraticSurd):
    """The producer bits -> enclosure of sqrt(q) * max(da, db), for da and db
    the exact distances ||q*alpha|| and ||q*beta||."""

    def producer(bits: int) -> Enclosure:
        return sqrt_enclosure(q, bits) * max_enclosure(
            da.enclosure(bits), db.enclosure(bits)
        )

    return producer


def _admissible(x: QuadraticSurd, q: int, s: int) -> bool:
    """Whether q*||q*x||**2 < 1, for s the signed residue of q*X, X the odd
    step of x.

    _bracket(q, s) = (low, high) holds m = ||q*x||*2**192, so q*high**2 <
    2**384 proves q*m*m < 2**384, and q*low**2 >= 2**384 proves the
    opposite. Only between the two does the exact sign of the surd
    q*||q*x||**2 - 1 run. The bound is used for 1 <= q <= 10**13, the scans'
    cap, and a signed residue |s| <= 2**191; outside, ValueError.
    """
    if not (1 <= q <= _SCAN_CAP and abs(s) <= FP_HALF):
        raise ValueError(f"fixed-point settle used outside its range: q={q}, s={s}")
    low, high = _bracket(q, s)
    if q * high**2 < _FP_ONE_SQ:
        return True
    if q * low**2 >= _FP_ONE_SQ:
        return False
    dist = (x * q).dist_to_int()
    return (dist * dist * q - 1).sign() < 0


def dirichlet_denominators(
    alpha: QuadraticSurd, beta: QuadraticSurd, Q: int
) -> list[int]:
    """All q <= Q with max(||q*alpha||, ||q*beta||) < q**(-1/2), increasing.

    Each dyadic block [lo, 2*lo) walks both rotations with _walk, in ulps:
    alpha within 2**192/isqrt(lo) >= 2**192/sqrt(q), beta within
    isqrt(2**384 // lo) + 1, at or past which q*||q*beta||**2 > 1. Each
    yielded q is settled for both rotations by _admissible. _steps refuses
    a rational rotation and a Q below 1 or past 10**13 with ConfigError.
    """
    X, Y = _steps(alpha, beta, Q)
    found = []
    for lo, hi in dyadic_blocks(Q):
        E = -(-FP_ONE // math.isqrt(lo))
        W = math.isqrt(_FP_ONE_SQ // lo) + 1
        for q, s, u in _walk(X, E, Y, W, lo, hi):
            if _admissible(beta, q, u) and _admissible(alpha, q, s):
                found.append(q)
    return found


def approximation_record(
    alpha: QuadraticSurd,
    beta: QuadraticSurd,
    q: int,
    tol: Rational = Fraction(1, 10**12),
) -> ApproximationRecord:
    """The certified record of a q from dirichlet_denominators: both
    distances to width tol, and the quality to width tol and, since the
    record's admissibility is proven, strictly below 1."""
    tol_f = _as_fraction(tol, "tol")
    da, db = (alpha * q).dist_to_int(), (beta * q).dist_to_int()
    dist_alpha = dist_enclosure(alpha, q, abs_tol=tol_f, exact=da)
    dist_beta = dist_enclosure(beta, q, abs_tol=tol_f, exact=db)
    quality = refine(
        _quality(q, da, db),
        lambda enc: enc.width <= tol_f and enc.hi < 1,
        what=f"quality of q = {q}",
    )
    return ApproximationRecord(q, dist_alpha, dist_beta, quality)


def dirichlet_pair_search(
    alpha: QuadraticSurd,
    beta: QuadraticSurd,
    Q: int,
    tol: Rational = Fraction(1, 10**12),
) -> list[ApproximationRecord]:
    """The approximation_record of every q from dirichlet_denominators."""
    tol_f = _as_fraction(tol, "tol")
    return [
        approximation_record(alpha, beta, q, tol_f)
        for q in dirichlet_denominators(alpha, beta, Q)
    ]


def lacunary_denominators(
    qs: Sequence[int], ratio: Rational = 2.0, budget: Rational = 2.0
) -> list[int]:
    """Greedy smallest-first subsequence with q_{k+1} >= ratio * q_k whose
    certified sum of q**-1/2 upper bounds stays at or below budget; it may
    hold fewer terms than a caller needs, even none.
    """
    ratio_f = _as_fraction(ratio, "ratio")
    budget_f = _as_fraction(budget, "budget")
    if ratio_f <= 1:
        raise ConfigError("ratio must exceed 1")
    if budget_f <= 0:
        raise ConfigError("budget must be positive")

    chosen: list[int] = []
    partial_hi = Fraction(0)
    for q in sorted(qs):
        if chosen and Fraction(q) < ratio_f * chosen[-1]:
            continue
        contribution = sqrt_enclosure(Fraction(1, q), 128).hi
        if partial_hi + contribution > budget_f:
            continue
        chosen.append(q)
        partial_hi += contribution
    return chosen


# ---------------------------------------------------------------------------
# badly approximable pairs


def bad_pair_constant(
    alpha: QuadraticSurd, beta: QuadraticSurd, Q: int
) -> tuple[Enclosure, int]:
    """Running minimum of sqrt(q)*max(||q*alpha||, ||q*beta||) for q <= Q.

    A finite-depth upper estimate of the pair's badness constant: the true
    infimum over all q can only be smaller. Returns (enclosure, argmin q).

    The upper bound c on the minimum starts at 1/2 (the bound at q = 1) and
    falls with each visited q. Block [lo, 2*lo) walks both rotations with
    _walk within c/sqrt(lo), in ulps, for the c at the block's start; q is
    kept while the low end of its _bracket can reach c, and the kept q are
    settled in increasing order by certified comparison, ties staying at the
    smaller q. Memory does not grow with Q for surds whose denominator is
    below 2**63, as parse_surd requires; a pair within ulps of a rational
    keeps its multiples: for (2**200 + 2*sqrt(d))/2**201 the kept q grow as Q/2.
    """
    X, Y = _steps(alpha, beta, Q)
    # c2 = (c * 2**192)**2, so with m = max(dist) * 2**192 in ulps,
    # sqrt(q) * max(dist) <= c exactly when q*m*m <= c2
    c2 = _FP_ONE_SQ // 4
    kept: list[tuple[int, int]] = []
    for lo, hi in dyadic_blocks(Q):
        r = math.isqrt(c2 // lo) + 1
        for q, s_alpha, s_beta in _walk(X, r, Y, r, lo, hi):
            m_lo, m_hi = _bracket(q, max(abs(s_alpha), abs(s_beta)))
            low = q * m_lo**2
            if low <= c2:
                c2 = min(c2, q * m_hi**2)
                kept = [(k, v) for k, v in kept if v <= c2] + [(q, low)]

    def producer_for(q: int):
        return _quality(q, (alpha * q).dist_to_int(), (beta * q).dist_to_int())

    best_q = kept[0][0]
    best_producer = producer_for(best_q)
    for q, _ in kept[1:]:
        contender = producer_for(q)
        try:
            if separate(contender, best_producer) < 0:
                best_q, best_producer = q, contender
        except PrecisionCapError:
            # ties are kept at the smaller q
            continue
    goal = Fraction(1, 10**30)
    return refine(best_producer, lambda enc: enc.width <= goal), best_q


# ---------------------------------------------------------------------------
# square denominators


_SQUARE_N_MAX = 10**6


def _power_bound(delta: Fraction, pick, rnd) -> tuple[int, int, int]:
    """(a, b, 2**(192*b)) for a/b = delta or, if b > 64, for the nearest
    fraction with denominator at most 64 above (pick=min, rnd=ceil) or below
    (max, floor) delta, which keeps a bracket's end**b below 2**12352."""
    if delta.denominator > 64:
        delta = pick(Fraction(rnd(delta * q), q) for q in range(1, 65))
    return delta.numerator, delta.denominator, 1 << (FP_BITS * delta.denominator)


def square_approximation_search(
    beta: QuadraticSurd, delta: Rational, N: int
) -> list[int]:
    """All n <= N with ||n^2 * beta|| < n**(-delta), each settled exactly.

    delta must sit in (1/2, 2/3); float inputs are taken at their exact
    binary value. N is capped at 10**6 because the scan visits every n.

    The residue r of n^2 * X, X = fixed_point(beta) | 1, is stepped exactly
    (r += s, s += 2X, mod 2**192), and the _bracket (low, high) of n^2 and
    its signed residue holds m = ||n^2 * beta|| * 2**192.
    - An integer window per dyadic block [lo, hi), widened by the margin of
      _bracket at hi^2, keeps every n with m <= isqrt(2**384 // lo); each n
      it drops has n*m*m > 2**384, so ||n^2 * beta|| > n**(-1/2) > n**(-delta).
    - For delta = a/b, ||n^2 * beta|| < n**(-delta) is exactly
      m**b * n**a < 2**(192*b). So high**b * n**a < 2**(192*b) proves a hit,
      and low**b * n**a >= 2**(192*b) proves a miss.
      A delta with b > 64 is first bracketed by the fractions
      delta- <= delta <= delta+ with denominators at most 64 next to it:
      a hit for delta+ is one for delta, since n**(-delta+) <= n**(-delta),
      and a miss for delta- is one for delta.
    The n that neither test decides are settled by certified comparison with
    n**(-delta).
    """
    beta.require_irrational("beta")
    delta_f = _as_fraction(delta, "delta")
    if not Fraction(1, 2) < delta_f < Fraction(2, 3):
        raise ConfigError(f"delta must lie in (1/2, 2/3), got {float(delta_f)}")
    if N < 1:
        raise ConfigError(f"N must be a positive integer, got {N}")
    if N > _SQUARE_N_MAX:
        raise ConfigError(
            f"square scan bound {N} exceeds 10**6: the scan visits every n"
        )

    a, b, one = _power_bound(delta_f, min, math.ceil)  # the hit test
    a_lo, b_lo, one_lo = _power_bound(delta_f, max, math.floor)  # the miss test
    X = fixed_point(beta) | 1
    mask, step = FP_ONE - 1, 2 * X
    accepted = [1]  # the threshold at n = 1 is 1; distances are <= 1/2
    for lo, hi in dyadic_blocks(N):
        E = _bracket(hi * hi, math.isqrt(_FP_ONE_SQ // lo) + 1)[1]
        L, c = 2 * E - 1, E - 1  # n is in the window when t < L
        t, s = (lo * lo * X + c) & mask, (2 * lo + 1) * X
        for n in range(lo, hi):
            if t < L and n > 1:
                e = n * n
                low, high = _bracket(e, _signed(t - c))
                if high**b * n**a < one:
                    accepted.append(n)
                elif low**b_lo * n**a_lo < one_lo:
                    dist = (beta * e).dist_to_int()
                    threshold = lambda bits, nv=n: pow_enclosure(nv, -delta_f, bits)
                    if separate(dist.enclosure, threshold) < 0:
                        accepted.append(n)
            t = (t + s) & mask
            s += step
    return accepted
