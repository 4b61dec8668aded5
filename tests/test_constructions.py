"""Tests for the certified constructions and sufficient-condition checkers.

Oracles are independent recomputations: distances to the nearest integer via
mpmath at 60 digits straight from the surd radical, partial sums by literal
term-by-term evaluation, and interval endpoints checked against exact rational
arithmetic. Frozen expected q-sequences were computed once by a standalone
float64 scan over all denominators and spot-confirmed with 50-digit mpmath.
"""

import json
import math
from fractions import Fraction

import mpmath
import pytest

from coblab.certify import Enclosure, pi_enclosure
from coblab.constructions import (
    Certificate,
    CertificateEntry,
    build_joint_not_double,
    check_double_bad,
    check_mur_envelope,
    envelope_sum,
    joint_summability_sums,
    kac_salem_series,
    large_coeff_witness,
    petersen_series,
)
from coblab.diophantine import convergents
from coblab.dyadic import WorkComplex
from coblab.errors import ConfigError, ShortfallError
from coblab.fourier import (
    SparseFourierSeries,
    apply_difference,
    random_real_series,
    unit_phase,
)
from coblab.surd import dist_enclosure, parse_surd
from mpbridge import from_mp, to_mp
from references import (
    Dependence,
    add,
    apply_rotation,
    common_generator,
    double_solve,
    integer_dependence_search,
    power_lift_joint,
    solve_coboundary,
)

ALPHA = parse_surd("(-1+1*sqrt(2))/1", label="alpha")
BETA = parse_surd("(-1+1*sqrt(3))/1", label="beta")

FLAGSHIP_Q = [1, 2, 4, 8, 19, 41, 82, 164, 1183, 2646]


def surd_mpf(s):
    return (mpmath.mpf(s.a) + mpmath.mpf(s.b) * mpmath.sqrt(s.d)) / s.c


def dist_oracle(x, q):
    """||q*x|| at 60 digits, recomputed from the radical."""
    with mpmath.workdps(60):
        t = mpmath.frac(q * surd_mpf(x))
        return min(t, 1 - t)


def in_enclosure(enc, value, slack=mpmath.mpf(0)):
    return mpmath.mpf(float(enc.lo)) - slack <= value <= mpmath.mpf(
        float(enc.hi)
    ) + slack


@pytest.fixture(scope="module")
def flagship():
    return build_joint_not_double(ALPHA, BETA, K=10, Q=10**6)


# ---------------------------------------------------------------------------
# certificate plumbing


def test_entry_info_never_fails():
    entry = CertificateEntry("just a number", Enclosure.point(Fraction(7)))
    assert entry.comparison == "info"
    assert entry.satisfied


def test_entry_assumption_never_fails():
    entry = CertificateEntry(
        "finite-depth evidence", Enclosure.point(1), "assumption"
    )
    assert entry.satisfied
    assert "noted" in entry.render()


def test_entry_entire_interval_comparison():
    value = Enclosure(Fraction(1), Fraction(2))
    touching = Enclosure(Fraction(2), Fraction(3))
    assert CertificateEntry("d", value, "<=", touching).satisfied
    assert not CertificateEntry("d", value, "<", touching).satisfied
    overlapping = Enclosure(Fraction(3, 2), Fraction(3))
    assert not CertificateEntry("d", value, "<=", overlapping).satisfied
    assert CertificateEntry("d", touching, ">=", value).satisfied
    assert not CertificateEntry("d", touching, ">", value).satisfied
    assert not CertificateEntry("d", overlapping, ">=", value).satisfied


def test_entry_nonstrict_accepts_equality():
    zero = Enclosure.point(0)
    assert CertificateEntry("d", zero, ">=", zero).satisfied
    assert not CertificateEntry("d", zero, ">", zero).satisfied


def test_entry_validation():
    with pytest.raises(ValueError):
        CertificateEntry("d", Enclosure.point(0), "~=", Enclosure.point(0))
    with pytest.raises(ValueError):
        CertificateEntry("d", Enclosure.point(0), "<=")
    with pytest.raises(ValueError):
        CertificateEntry("d", Enclosure.point(0), "info", Enclosure.point(0))


def test_certificate_kind_validated():
    with pytest.raises(ValueError):
        Certificate(kind="bogus", entries=())


def test_certificate_verdict_and_render():
    good = CertificateEntry(
        "holds", Enclosure.point(0), "<=", Enclosure.point(1)
    )
    bad = CertificateEntry(
        "fails", Enclosure.point(2), "<=", Enclosure.point(1)
    )
    cert = Certificate(kind="membership", entries=(good, bad))
    assert not cert.verdict
    text = cert.render()
    assert "FAIL" in text and "ok" in text and "FAILED" in text
    assert Certificate(kind="membership", entries=(good,)).verdict


def test_certificate_json_shape():
    entry = CertificateEntry(
        "holds", Enclosure.point(Fraction(1, 3)), "<=", Enclosure.point(1)
    )
    payload = Certificate(kind="membership", entries=(entry,)).to_json_dict()
    assert payload["kind"] == "membership"
    assert payload["verdict"] is True
    (e,) = payload["entries"]
    assert e["comparison"] == "<="
    assert Fraction(e["value"]["lo"]) <= Fraction(1, 3) <= Fraction(e["value"]["hi"])
    json.dumps(payload)


# ---------------------------------------------------------------------------
# main construction


def test_flagship_q_sequence(flagship):
    assert flagship.q_sequence == tuple(FLAGSHIP_Q)


def test_flagship_certificates_pass(flagship):
    kinds = [c.kind for c in flagship.certificates]
    assert kinds == ["joint-upper-bound", "double-lower-bound"]
    assert all(c.verdict for c in flagship.certificates)
    assert flagship.verdict


def test_flagship_budget_escalation_recorded(flagship):
    assert any("budget escalated" in note for note in flagship.notes)


def test_flagship_coefficients_are_dist_beta(flagship):
    for q in flagship.q_sequence:
        coeff = to_mp(flagship.f.coeff(q))
        assert mpmath.im(coeff) == 0
        oracle = dist_oracle(BETA, q)
        assert abs(mpmath.re(coeff) - oracle) < mpmath.mpf(10) ** -30 * oracle
    assert set(flagship.f.support) == set(FLAGSHIP_Q)


def test_flagship_distances_start_at_192_bits(flagship):
    # f_hat(q_k) and the sum of ||q_k*alpha|| come from the first enclosure
    # at 192 * 2**j bits of relative width 1e-32; a start at 128 bits gives
    # other bytes
    rel = Fraction(1, 10**32)
    half_pi = pi_enclosure(192) / 2
    total = Enclosure.point(0)
    moved = False
    for q in flagship.q_sequence:
        db = dist_enclosure(BETA, q, rel_tol=rel, start_bits=192)
        assert flagship.f.coeff(q) == WorkComplex.from_fraction(db.mid)
        da = dist_enclosure(ALPHA, q, rel_tol=rel, start_bits=192)
        total = total + da
        moved = moved or da != dist_enclosure(ALPHA, q, rel_tol=rel)
    assert moved
    mid_link = flagship.certificates[0].entries[1]
    assert mid_link.value == half_pi * total


def test_flagship_joint_identity(flagship):
    lhs = apply_difference(flagship.f, ALPHA)
    rhs = apply_difference(flagship.g, BETA)
    scale = max(abs(to_mp(lhs.coeff(n))) for n in lhs.support)
    for n in set(lhs.support) | set(rhs.support):
        diff = to_mp(lhs.coeff(n)) - to_mp(rhs.coeff(n))
        assert abs(diff) < mpmath.mpf(10) ** -30 * scale


def test_flagship_double_coefficients_bracketed(flagship):
    # the double solve applies to phi = (I - T_alpha) f, so each coefficient
    # reduces to f_hat(q) / (1 - e(q*beta)) with magnitude in [1/(2pi), 1/4]
    phi = apply_difference(flagship.f, ALPHA)
    h = double_solve(phi, ALPHA, BETA)
    lo = 1 / (2 * math.pi)
    for q in FLAGSHIP_Q:
        mag = abs(to_mp(h.coeff(q)))
        assert lo - 1e-12 <= float(mag) <= 0.25 + 1e-12


def test_flagship_joint_chain_values(flagship):
    cert = flagship.certificates[0]
    # the chain ends with sum q^{-1/2}; recompute it exactly enough
    inv_sqrt = sum(1 / math.sqrt(q) for q in FLAGSHIP_Q)
    last = cert.entries[-2] if cert.entries[-1].comparison == "assumption" else cert.entries[-1]
    # the final comparison threshold is (pi/2) * sum q^{-1/2}
    target = math.pi / 2 * inv_sqrt
    assert abs(float(last.threshold.lo) - target) < 1e-9


def test_flagship_tail_bound_matches_model(flagship):
    r = math.sqrt(FLAGSHIP_Q[-2] / FLAGSHIP_Q[-1])
    expected = math.pi / 2 / math.sqrt(FLAGSHIP_Q[-1]) * r / (1 - r)
    assert abs(float(flagship.tail_bound.mid) - expected) < 1e-9


def test_flagship_json_and_render(flagship):
    payload = json.loads(json.dumps(flagship.to_json_dict()))
    assert payload["q_sequence"] == FLAGSHIP_Q
    assert payload["verdict"] is True
    assert len(payload["certificates"]) == 2
    text = "\n".join(cert.render() for cert in flagship.certificates)
    assert "PASS" in text and "FAIL" not in text.replace("PASS", "")


def test_build_requires_two_terms():
    with pytest.raises(ConfigError):
        build_joint_not_double(ALPHA, BETA, K=1, Q=100)


def test_build_shortfall_when_window_too_small():
    with pytest.raises(ShortfallError):
        build_joint_not_double(ALPHA, BETA, K=10, Q=5)


# ---------------------------------------------------------------------------
# summability checkers


def test_bad_joint_single_mode():
    f = SparseFourierSeries({3: 0.1})
    value, _ = joint_summability_sums(f)
    assert abs(float(value.mid) - 0.3) < 1e-15
    assert float(value.width) < 1e-28


def test_bad_joint_inverse_cube_l2():
    coeffs = {k: from_mp(mpmath.mpf(1) / k**3) for k in range(1, 101)}
    f = SparseFourierSeries(coeffs)
    _, value = joint_summability_sums(f)
    oracle = sum(Fraction(1, k**4) for k in range(1, 101))
    assert value.lo == value.hi
    assert abs(float(value.mid) - float(oracle)) < 1e-12
    assert abs(float(oracle) - 1.0823) < 1e-4


def test_bad_joint_zero_function():
    for value in joint_summability_sums(SparseFourierSeries({})):
        assert value.lo == value.hi == 0


def test_bad_joint_requires_centered():
    f = SparseFourierSeries({0: 1})
    with pytest.raises(ValueError):
        joint_summability_sums(f)


def test_mur_envelope_exact_partial_sum():
    a = [Fraction(1, k * k) for k in range(1, 51)]
    oracle = sum(Fraction(k, k**4) for k in range(1, 51))
    assert envelope_sum(a) == oracle


def test_mur_envelope_rejects_nonmonotone():
    with pytest.raises(ConfigError):
        envelope_sum([Fraction(1), Fraction(2)])
    with pytest.raises(ConfigError):
        envelope_sum([Fraction(1), Fraction(-1)])
    with pytest.raises(ConfigError):
        envelope_sum([])


def test_mur_envelope_single_element():
    assert envelope_sum([Fraction(1, 7)]) == Fraction(1, 49)


def test_mur_envelope_with_tail_bound():
    cert = check_mur_envelope([Fraction(1, 2), Fraction(1, 4)], tail_bound=Fraction(1, 8))
    combined = [e for e in cert.entries if "plus tail" in e.description]
    exact = Fraction(1, 4) + 2 * Fraction(1, 16)
    assert combined[0].value.lo == exact
    assert combined[0].value.hi == exact + Fraction(1, 8)
    with pytest.raises(ConfigError):
        check_mur_envelope([Fraction(1)], tail_bound=-1)


def test_double_bad_exact_envelope_match():
    coeffs = {}
    for k in range(2, 51):
        coeffs[k] = from_mp(1 / (mpmath.mpf(k) ** 2 * mpmath.log(k) ** 2))
    cert = check_double_bad(SparseFourierSeries(coeffs), gamma=2)
    m_entry = cert.entries[0]
    assert "constant M" in m_entry.description
    assert abs(float(m_entry.value.mid) - 1.0) < 1e-12
    assert cert.verdict


def test_double_bad_single_mode_constant():
    f = SparseFourierSeries(
        {10: 1, -10: 1}, real_valued=True
    )
    cert = check_double_bad(f, gamma=2)
    oracle = 100 * math.log(10) ** 2
    assert abs(float(cert.entries[0].value.mid) - oracle) < 1e-9


def test_double_bad_zero_function():
    cert = check_double_bad(SparseFourierSeries({}), gamma=2)
    assert cert.verdict
    assert cert.entries[0].value.hi == 0


def test_double_bad_validation():
    f = SparseFourierSeries({10: 1})
    with pytest.raises(ConfigError):
        check_double_bad(f, gamma=1)
    with pytest.raises(ConfigError):
        check_double_bad(SparseFourierSeries({1: 1}), gamma=2)
    with pytest.raises(ValueError):
        check_double_bad(SparseFourierSeries({0: 1}), gamma=2)


@pytest.mark.xfail(
    strict=True,
    reason="check_double_bad's envelope starts at k = 2 but check_mur_envelope "
    "weights its terms from k = 1, so the partial sum is sum (k - 1) * a_k**2",
)
def test_double_bad_partial_sum_weights_each_term_by_its_frequency():
    f = SparseFourierSeries({n: 1 for n in (-7, -3, 3, 7)}, real_valued=True)
    cert = check_double_bad(f, gamma=2)
    (partial,) = [e for e in cert.entries if e.description.startswith("partial sum")]
    with mpmath.workdps(30):
        m, got = (mpmath.mpf(q.numerator) / q.denominator
                  for q in (cert.entries[0].value.hi, partial.value.mid))
        # the envelope a_k = M / (k (log k)**2) on 2 <= k <= 7
        want = mpmath.fsum(k * (m / (k * mpmath.log(k) ** 2)) ** 2 for k in range(2, 8))
        assert abs(got / want - 1) < mpmath.mpf("1e-20")


def test_double_bad_refuses_frequencies_past_the_bound(monkeypatch):
    import coblab.constructions as constructions_module

    def no_envelope(*args):
        raise AssertionError("the envelope was built before the refusal")

    # the refusal comes before any log power of M or of the envelope
    monkeypatch.setattr(constructions_module, "_log_power", no_envelope)
    with pytest.raises(ConfigError, match="20000"):
        check_double_bad(SparseFourierSeries({2: 1, 20001: 1}), gamma=2)
    # the bound itself is accepted: only the first log power is reached
    with pytest.raises(AssertionError, match="refusal"):
        check_double_bad(SparseFourierSeries({2: 1, 20000: 1}), gamma=2)


# ---------------------------------------------------------------------------
# obstruction witnesses


def _convergent_profile(depth):
    qs = sorted({q for _, _, q in convergents(ALPHA, depth) if q > 0})
    coeffs = {}
    for q in qs:
        coeffs[q] = from_mp(mpmath.mpf(1) / q)
        coeffs[-q] = from_mp(mpmath.mpf(1) / q)
    return SparseFourierSeries(coeffs, real_valued=True), qs


def test_large_coeff_witness_inverse_frequency():
    f, qs = _convergent_profile(8)
    cert = large_coeff_witness(f, ALPHA, depth=8)
    assert cert.verdict
    floor = 1 / (2 * math.pi)
    witnesses = [
        e for e in cert.entries if e.description.startswith("|h_hat")
    ]
    assert len(witnesses) == len(qs)
    for e in witnesses:
        assert float(e.value.lo) > floor - 1e-12


def test_large_coeff_witness_phase_invariance():
    f, _ = _convergent_profile(6)
    rotated = f.scale(1j)
    base = large_coeff_witness(f, ALPHA, depth=6)
    spun = large_coeff_witness(rotated, ALPHA, depth=6)
    for a, b in zip(base.entries, spun.entries):
        assert a.value.lo == b.value.lo and a.value.hi == b.value.hi


def test_large_coeff_witness_doubling():
    f, _ = _convergent_profile(6)
    doubled = large_coeff_witness(f.scale(2), ALPHA, depth=6)
    base = large_coeff_witness(f, ALPHA, depth=6)
    pairs = zip(base.entries, doubled.entries)
    for a, b in pairs:
        if a.description.startswith("|h_hat"):
            # enclosure endpoints round outward independently, so linearity
            # holds to enclosure width rather than bit-exactly
            ratio = b.value.mid / (2 * a.value.mid)
            assert abs(ratio - 1) < Fraction(1, 10**30)


def test_large_coeff_witness_threshold_can_fail():
    f, _ = _convergent_profile(6)
    # each witness is 1/(20*pi*n*||n*alpha||), below the floor 1/10 since
    # every n*||n*alpha|| here exceeds 1/(2*pi)
    cert = large_coeff_witness(f.scale(0.1), ALPHA, depth=6)
    assert not cert.verdict  # reported, not raised: witnesses may fall short


def test_large_coeff_witness_needs_hits():
    f = SparseFourierSeries({3: 1, 7: 1})
    with pytest.raises(ShortfallError):
        large_coeff_witness(f, ALPHA, depth=6)
    with pytest.raises(ConfigError):
        large_coeff_witness(f, ALPHA, depth=0)


# ---------------------------------------------------------------------------
# diagnostic series


def test_petersen_equal_angles_is_l2_norm():
    f = random_real_series(5, 8)
    ps = petersen_series(f, ALPHA, ALPHA)
    exact = f.l2_norm_sq_exact()
    assert ps.value.lo <= exact <= ps.value.hi
    assert float(ps.value.width) < 1e-25


def test_petersen_single_mode_ratio():
    f = SparseFourierSeries({7: 0.5})
    ps = petersen_series(f, ALPHA, BETA)
    with mpmath.workdps(40):
        da = dist_oracle(ALPHA, 7)
        db = dist_oracle(BETA, 7)
        oracle = mpmath.mpf("0.25") * mpmath.sinpi(db) ** 2 / mpmath.sinpi(da) ** 2
    assert abs(float(ps.value.mid) - float(oracle)) < 1e-12


def test_petersen_blows_up_on_convergent_denominators():
    # ||169*alpha|| is tiny while ||169*beta|| is generic, so the ratio is huge
    f = SparseFourierSeries({169: 1})
    ps = petersen_series(f, ALPHA, BETA)
    assert float(ps.value.lo) > 1000


def test_kac_salem_single_term():
    ps, entropy = kac_salem_series([(1, Fraction(1, 2))], ALPHA)
    with mpmath.workdps(40):
        oracle = mpmath.mpf("0.5") / mpmath.sinpi(dist_oracle(ALPHA, 1))
    assert abs(float(ps.value.mid) - float(oracle)) < 1e-12
    assert abs(float(ps.value.mid) - 0.5188) < 1e-3
    # a single magnitude 1/2 has entropy (1/2) log 2
    assert abs(float(entropy.mid) - 0.5 * math.log(2)) < 1e-12


def test_kac_salem_zero_magnitudes():
    ps, entropy = kac_salem_series([(1, 0), (2, 0)], ALPHA)
    assert ps.value.hi == 0
    assert entropy.hi == 0
    assert ps.terms == ()


def test_kac_salem_entropy_oracle():
    mags = [(k, Fraction(1, k)) for k in range(1, 6)]
    _, entropy = kac_salem_series(mags, ALPHA)
    oracle = sum(math.log(k) / k for k in range(1, 6))
    assert abs(float(entropy.mid) - oracle) < 1e-12


def test_kac_salem_log_regime():
    mags = []
    for k in range(2, 201):
        mags.append((k, 1 / (k * math.log(k) ** 3)))
    ps, entropy = kac_salem_series(mags, ALPHA)
    assert float(entropy.hi) < 2.0
    assert float(ps.value.lo) > 0


def test_kac_salem_validation():
    with pytest.raises(ConfigError):
        kac_salem_series([(0, Fraction(1, 2))], ALPHA)
    with pytest.raises(ConfigError):
        kac_salem_series([(1, -1)], ALPHA)


# ---------------------------------------------------------------------------
# dependence lift


def test_common_generator_flagship_dependence():
    beta = parse_surd("(-1+2*sqrt(2))/3")
    dep = integer_dependence_search(ALPHA, beta, 5)
    assert (dep.m, dep.n, dep.p) == (2, -3, 1)
    gamma, k, j = common_generator(ALPHA, dep)
    assert (k, j) == (3, 2)
    # k*gamma - alpha and j*gamma - beta must be integers: compare surd parts
    assert Fraction(k * gamma.b, gamma.c) == Fraction(ALPHA.b, ALPHA.c)
    assert (Fraction(k * gamma.a, gamma.c) - Fraction(ALPHA.a, ALPHA.c)).denominator == 1
    assert Fraction(j * gamma.b, gamma.c) == Fraction(beta.b, beta.c)
    assert (Fraction(j * gamma.a, gamma.c) - Fraction(beta.a, beta.c)).denominator == 1


def test_common_generator_normalizes_orientation():
    dep = Dependence(m=-2, n=3, p=-1)
    gamma, k, j = common_generator(ALPHA, dep)
    assert (k, j) == (3, 2)
    assert (gamma.a, gamma.b, gamma.d, gamma.c) == (1, 1, 2, 3)


def test_common_generator_rejects_degenerate():
    with pytest.raises(ConfigError):
        common_generator(ALPHA, Dependence(m=2, n=0, p=-1))


def _lift_setup():
    beta = parse_surd("(-1+2*sqrt(2))/3")
    dep = integer_dependence_search(ALPHA, beta, 5)
    gamma, k, j = common_generator(ALPHA, dep)
    u = random_real_series(31, 5)
    u_x = solve_coboundary(u, gamma)
    u_y = solve_coboundary(u, beta)  # j*gamma differs from beta by 1
    return beta, gamma, k, j, u_x, u_y


def test_power_lift_produces_joint_coboundary():
    beta, gamma, k, j, u_x, u_y = _lift_setup()
    v = power_lift_joint(u_x, u_y, gamma, k, j)
    lhs = apply_difference(u_x, ALPHA)
    for n in set(lhs.support) | set(v.support):
        assert abs(to_mp(lhs.coeff(n)) - to_mp(v.coeff(n))) < mpmath.mpf(10) ** -30
    # second representation: sum over n < k of T_gamma^n (I - T_beta) u_y
    acc = None
    term = apply_difference(u_y, beta)
    for _ in range(k):
        acc = term if acc is None else add(acc, term)
        term = apply_rotation(term, gamma)
    for n in set(acc.support) | set(v.support):
        assert abs(to_mp(acc.coeff(n)) - to_mp(v.coeff(n))) < mpmath.mpf(10) ** -30


def test_power_lift_k_one_is_identity():
    gamma = ALPHA
    u_x = random_real_series(3, 4)
    u = apply_difference(u_x, gamma)
    v = power_lift_joint(u_x, u_x, gamma, 1, 1)
    for n in set(u.support) | set(v.support):
        assert u.coeff(n) == v.coeff(n)


def test_power_lift_k_two_single_mode():
    gamma = ALPHA
    u_x = SparseFourierSeries({5: 1})
    u = apply_difference(u_x, gamma)
    v = power_lift_joint(u_x, u_x, gamma, 2, 1)
    with mpmath.workprec(150):
        expected = (1 + to_mp(unit_phase(gamma, 5))) * to_mp(u.coeff(5))
        assert abs(to_mp(v.coeff(5)) - expected) < mpmath.mpf(10) ** -35


def test_power_lift_precondition_enforced():
    beta, gamma, k, j, u_x, _ = _lift_setup()
    with pytest.raises(ValueError):
        power_lift_joint(u_x, random_real_series(99, 5), gamma, k, j)


def test_flagship_encloses_each_sine_once(monkeypatch):
    import coblab.constructions as constructions_module

    args = []
    sin_pi = constructions_module.sin_pi_enclosure

    def counted(x, bits):
        args.append(x)
        return sin_pi(x, bits)

    monkeypatch.setattr(constructions_module, "sin_pi_enclosure", counted)
    result = build_joint_not_double(ALPHA, BETA, K=10, Q=10**6)
    # one sine of ||q*alpha|| and one of ||q*beta|| per chosen q
    assert len(args) == len(set(args)) == 2 * len(FLAGSHIP_Q)
    assert result.verdict
