"""The two-rotation walk, the fixed-point settle, and the flagship selection
on bare denominators, each against an independent reference."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coblab.constructions import flagship_series
from coblab.diophantine import (
    _admissible,
    _first_entry,
    _steps,
    _walk,
    dirichlet_denominators,
    dirichlet_pair_search,
    lacunary_denominators,
)
from coblab.errors import ShortfallError
from coblab.surd import QuadraticSurd, parse_surd

ONE = 1 << 192
ALPHA = parse_surd("(-1+1*sqrt(2))/1", label="alpha")
BETA = parse_surd("(-1+1*sqrt(3))/1", label="beta")
PAIRS = [
    (ALPHA, BETA),
    (parse_surd("(-2+1*sqrt(5))/1", label="alpha"),
     parse_surd("(-2+1*sqrt(7))/1", label="beta")),
]


def signed(residue):
    return (residue + ONE // 2) % ONE - ONE // 2


# -- the two-rotation walk -----------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    a=st.integers(-20, 20),
    b=st.sampled_from([-3, -2, -1, 1, 2, 3]),
    c=st.integers(1, 30),
    d=st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13]),
    a2=st.integers(-20, 20),
    c2=st.integers(1, 30),
    d2=st.sampled_from([2, 3, 5, 7, 11, 13]),
    hi=st.one_of(st.integers(1, 64), st.integers(1, 2**40)),
    span=st.integers(0, 1500),
    hits=st.integers(1, 3000),
    wide=st.booleans(),
    y_eps=st.one_of(
        st.fractions(min_value=Fraction(1, 4), max_value=1),
        st.fractions(min_value=Fraction(1, 10**12), max_value=Fraction(1, 100)),
    ),
)
@example(a=0, b=1, c=1, d=2, a2=0, c2=1, d2=3, hi=16, span=15, hits=1,
         wide=True, y_eps=Fraction(1, 3))
@example(a=0, b=1, c=1, d=2, a2=0, c2=1, d2=3, hi=2**40, span=1500, hits=3000,
         wide=False, y_eps=Fraction(1, 2))
@example(a=-1, b=1, c=1, d=2, a2=0, c2=1, d2=3, hi=100, span=30, hits=3,
         wide=False, y_eps=Fraction(1, 2))  # lo = 70 is itself a hit
@example(a=-1, b=1, c=1, d=2, a2=-1, c2=1, d2=3, hi=2**20, span=1500,
         hits=3000, wide=False, y_eps=Fraction(1, 2))  # about 9 hits
def test_two_rotation_walk_is_the_brute_force_filter(
    a, b, c, d, a2, c2, d2, hi, span, hits, wide, y_eps
):
    x, y = QuadraticSurd(a, b, d, c), QuadraticSurd(a2, 1, d2, c2)
    lo = max(1, hi - span)
    # a quarter turn or more takes the every-q path; else about 2*hits steps
    eps = Fraction(2, 5) if wide else Fraction(hits, hi)
    X, Y = _steps(x, y, hi)
    E, W = math.ceil(eps * ONE), math.ceil(y_eps * ONE)
    got = list(_walk(X, E, Y, W, lo, hi))

    E2, W2 = E + 2 * hi, W + 2 * hi  # the windows widened by the 2q-ulp margin
    brute = [
        (q, signed(q * X), signed(q * Y))
        for q in range(lo, hi)
        if (4 * E2 >= ONE or abs(signed(q * X)) < E2) and abs(signed(q * Y)) < W2
    ]
    assert got == brute
    # one rotation: a second window of 2**192 ulps passes every q
    single = [(q, s) for q, s, _ in got]
    assert single == [
        (q, s) for q, s, _ in _walk(X, E, Y, ONE, lo, hi)
        if abs(signed(q * Y)) < W2
    ]
    qs = {q for q, _, _ in got}
    for q in range(lo, hi):
        if q not in qs and ((x * q).dist_to_int() - eps).sign() < 0:
            assert ((y * q).dist_to_int() - y_eps).sign() >= 0, q


@settings(max_examples=300, deadline=None)
@given(
    m=st.one_of(st.integers(2, 64), st.integers(2, 10**5),
                st.integers(1, 16).map(lambda k: 1 << k)),
    x=st.integers(1, 10**6),
    window=st.integers(1, 10**6),
    start=st.integers(0, 10**6),
)
@example(m=2**16, x=2**16 - 1, window=1, start=60000)  # deep without the reflection
def test_first_entry_is_the_first_brute_force_entry(m, x, window, start):
    X = 1 + (x - 1) % (m - 1)
    if math.gcd(X, m) != 1:
        X = 1
    L, t = 1 + (window - 1) % m, start % m
    k = next(k for k in range(m) if (t + k * X) % m < L)
    assert _first_entry(t, X, m, L) == k


# -- the fixed-point settle ----------------------------------------------------


def admissible_exactly(x, q):
    dist = (x * q).dist_to_int()
    return (dist * dist * q - 1).sign() < 0


@pytest.fixture
def sign_calls(monkeypatch):
    calls = []
    sign = QuadraticSurd.sign

    def counted(self):
        calls.append(self)
        return sign(self)

    monkeypatch.setattr(QuadraticSurd, "sign", counted)
    return calls


# (x, q) with q*||q*x||**2 >= 1, and with q*||q*x||**2 < 1
INADMISSIBLE, ADMISSIBLE = (ALPHA, 100), (ALPHA, 5)


def band(q):
    """(first m the settle proves admissible beyond, first m it refutes)."""
    top = math.isqrt((ONE * ONE - 1) // q)  # the largest m with q*m*m < 2**384
    return top - 2 * q, top + 2 * q + 1


def test_settle_cases_are_what_they_claim():
    assert not admissible_exactly(*INADMISSIBLE)
    assert admissible_exactly(*ADMISSIBLE)
    for q in (5, 100):
        top = math.isqrt((ONE * ONE - 1) // q)
        assert q * top * top < ONE * ONE <= q * (top + 1) ** 2


@pytest.mark.parametrize("sign_of_s", [1, -1])
def test_settle_decides_outside_the_band_without_the_exact_sign(sign_calls, sign_of_s):
    x, q = INADMISSIBLE
    proved, refuted = band(q)
    # the fixed-point bound wins over the truth outside the band
    assert _admissible(x, q, sign_of_s * proved) is True
    x, q = ADMISSIBLE
    proved, refuted = band(q)
    assert _admissible(x, q, sign_of_s * refuted) is False
    assert sign_calls == []


@pytest.mark.parametrize("sign_of_s", [1, -1])
def test_settle_runs_the_exact_sign_inside_the_band(sign_calls, sign_of_s):
    # one ulp inside each edge, with the truth opposite to the near verdict
    x, q = INADMISSIBLE
    proved, _ = band(q)
    assert _admissible(x, q, sign_of_s * (proved + 1)) is False
    assert sign_calls
    sign_calls.clear()
    x, q = ADMISSIBLE
    _, refuted = band(q)
    assert _admissible(x, q, sign_of_s * (refuted - 1)) is True
    assert sign_calls


def test_settle_refuses_calls_outside_its_range():
    for q, s in ((0, 0), (10**13 + 1, 0), (5, ONE // 2 + 1), (5, -(ONE // 2) - 1)):
        with pytest.raises(ValueError, match="outside its range"):
            _admissible(ALPHA, q, s)


@pytest.mark.parametrize("pair", [0, 1])
def test_denominators_are_the_search_records(pair):
    alpha, beta = PAIRS[pair]
    qs = dirichlet_denominators(alpha, beta, 10**5)
    assert qs == [rec.q for rec in dirichlet_pair_search(alpha, beta, 10**5)]
    assert qs == [q for q in range(1, 10**5 + 1) if q in set(qs)]
    assert all(admissible_exactly(alpha, q) and admissible_exactly(beta, q)
               for q in qs)


# -- the flagship selection on bare denominators -------------------------------


def reference_joint_not_double(alpha, beta, K, Q, ratio=2.0, budget=2.0):
    """The flagship selection on the full certified records of the search:
    the chosen q and the notes."""
    records = dirichlet_pair_search(alpha, beta, Q)
    if len(records) < K:
        raise ShortfallError(
            f"only {len(records)} simultaneous Dirichlet denominators up to"
            f" {Q}, need {K}"
        )
    budget_f = Fraction(budget)
    notes = []
    first = {}
    for rec in sorted(records, key=lambda r: r.q):
        first.setdefault(rec.q, rec)
    while True:
        chosen = lacunary_denominators([rec.q for rec in records], ratio, budget_f)
        selected = [first[q] for q in chosen]
        if len(selected) >= K:
            break
        if budget_f >= 1024:
            raise ShortfallError(
                f"selection yields {len(selected)} terms even at summability"
                f" budget {budget_f}; need {K}"
            )
        budget_f *= 2
        notes.append(f"summability budget escalated to {budget_f}")
    return [rec.q for rec in selected[:K]], tuple(notes)


@pytest.mark.parametrize(
    "pair, K, Q, ratio, budget",
    [
        (0, 4, 10**4, 2.0, 2.0),
        (1, 4, 10**4, 2.0, 2.0),
        (0, 10, 10**6, 2.0, 2.0),
        (1, 10, 10**6, 2.0, 2.0),
        (0, 6, 10**4, 1.5, 0.5),  # the budget escalates three times
    ],
)
def test_flagship_equals_the_reference_on_full_records(pair, K, Q, ratio, budget):
    # build_joint_not_double is a fixed function of (alpha, beta, f, notes),
    # so the selection is all there is to compare
    alpha, beta = PAIRS[pair]
    f, notes = flagship_series(alpha, beta, K, Q, ratio=ratio, budget=budget)
    qs, ref_notes = reference_joint_not_double(
        alpha, beta, K, Q, ratio=ratio, budget=budget
    )
    assert f.support == tuple(qs)
    assert notes == ref_notes
    if budget < 2:
        assert len(notes) == 3


@pytest.mark.parametrize(
    "K, Q, ratio",
    [(10, 5, 2.0), (4, 10**4, 100.0)],  # too few denominators; the budget cap
)
def test_flagship_shortfalls_match_the_reference(K, Q, ratio):
    with pytest.raises(ShortfallError) as got:
        flagship_series(ALPHA, BETA, K, Q, ratio=ratio)
    with pytest.raises(ShortfallError) as ref:
        reference_joint_not_double(ALPHA, BETA, K, Q, ratio=ratio)
    assert str(got.value) == str(ref.value)
