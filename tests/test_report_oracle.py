"""An independent oracle for what the reports print.

The golden digests of test_cli say that a report did not change, not that it
is right. These checks read the printed JSON alone: every comparison marked
satisfied must hold between its printed decimal endpoints, read as exact
fractions; every enclosure that `construct` and `spectral` print must
contain its value recomputed in mpmath at 400 bits from the printed
q_sequence and the rotation numbers of the config, every record of
`approx dirichlet` from its printed q and the `approx bad-pair` constant
from every q up to Q, never from a printed decimal; and every enclosure
that `shift` prints must contain its closed form or finite sum, computed in
mpmath at 400 bits from the config alone, or lie on the safe side of a bound
named on NO_CLOSED_FORM. A table maps every enclosure that the golden JSON
reports print to the test that checks it or to NO_ORACLE, and an enclosure
it does not name fails: 227 of the 232 have an oracle, and only the 5 of
`check double-bad` do not. No golden report fails
an entry, and only `check double-bad` prints a certificate that compares
nothing.
Only pytest, mpmath and the standard library do the checking.
"""

import contextlib
import io
import json
import re
from fractions import Fraction

import mpmath
import pytest
from test_cli import GOLDEN

from coblab.cli import main

JSON_GOLDEN = sorted(argv for argv in GOLDEN if argv.endswith("--format json"))

# the default construct config, and the second rotation pair of the scan
# benchmark at a size that runs in a fraction of a second
CONSTRUCT = [
    "construct --format json",
    "construct --K 4 --Q 10000 --alpha (-2+1*sqrt(5))/1 "
    "--beta (-2+1*sqrt(7))/1 --format json",
]

HOLDS = {
    "<=": lambda value, threshold: value["hi"] <= threshold["lo"],
    "<": lambda value, threshold: value["hi"] < threshold["lo"],
    ">=": lambda value, threshold: value["lo"] >= threshold["hi"],
    ">": lambda value, threshold: value["lo"] > threshold["hi"],
}

SURD = re.compile(r"\((-?\d+)([+-]\d+)\*sqrt\((\d+)\)\)/(\d+)")


def report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv.split()) == 0, argv
    return json.loads(out.getvalue())


def printed(interval):
    """A printed enclosure {"lo", "hi"} as exact fractions."""
    return {end: Fraction(interval[end]) for end in ("lo", "hi")}


def comparisons(node):
    """Every entry of a report tree that states a comparison."""
    if isinstance(node, dict):
        if node.get("comparison") in HOLDS:
            yield node
        for child in node.values():
            yield from comparisons(child)
    elif isinstance(node, list):
        for child in node:
            yield from comparisons(child)


def test_every_satisfied_comparison_holds_between_its_printed_decimals():
    checked = 0
    for argv in JSON_GOLDEN:
        for entry in comparisons(report(argv)["result"]):
            assert entry["satisfied"], (argv, entry)
            holds = HOLDS[entry["comparison"]]
            assert holds(printed(entry["value"]),
                         printed(entry["threshold"])), (argv, entry)
            checked += 1
    # construct, shift, shift --p 3/2 and shift --p 1 print 47 comparisons,
    # every one satisfied
    assert checked == 47


def certificates(node):
    """Every certificate of a report tree: a node with a verdict and entries."""
    if isinstance(node, dict):
        if {"verdict", "entries"} <= set(node):
            yield node
        else:
            for child in node.values():
                yield from certificates(child)
    elif isinstance(node, list):
        for child in node:
            yield from certificates(child)


# The one golden config whose certificate holds no comparison: the envelope
# of `check double-bad`, whose constant M grows without bound in K, is
# noted, not compared.
VACUOUS = {"check double-bad --K 3 --format json"}


def test_no_golden_report_fails_an_entry_or_prints_a_vacuous_certificate():
    vacuous = set()
    for argv in JSON_GOLDEN:
        for cert in certificates(report(argv)["result"]):
            assert cert["verdict"], argv
            assert all(e["satisfied"] for e in cert["entries"]), argv
            if not any(e["comparison"] in HOLDS for e in cert["entries"]):
                vacuous.add(argv)
    assert vacuous == VACUOUS


def rotation(text):
    """(a+b*sqrt(d))/c in mpmath at the working precision."""
    a, b, d, c = map(int, SURD.fullmatch(text).groups())
    return (a + b * mpmath.sqrt(d)) / c


def dist(q, x):
    """||q*x||, the distance of q*x to the nearest integer."""
    return abs(q * x - mpmath.nint(q * x))


def exact(x):
    """The exact rational value of a Fraction or a positive mpmath real."""
    if isinstance(x, Fraction):
        return x
    assert x > 0
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


def construct_oracle(result, alpha, beta):
    """Each construct entry's (value, threshold), from the q list and the
    rotation numbers alone; the threshold is None for an annotation."""
    qs = result["q_sequence"]
    dist_a = [dist(q, alpha) for q in qs]
    dist_b = [dist(q, beta) for q in qs]
    g_sum = mpmath.fsum(b * mpmath.sinpi(a) / mpmath.sinpi(b)
                        for a, b in zip(dist_a, dist_b))
    alpha_sum = mpmath.pi / 2 * mpmath.fsum(dist_a)
    root_sum = mpmath.pi / 2 * mpmath.fsum(1 / mpmath.sqrt(q) for q in qs)
    r = mpmath.sqrt(mpmath.mpf(qs[-2]) / qs[-1])
    tail = mpmath.pi / 2 / mpmath.sqrt(qs[-1]) * r / (1 - r)
    oracle = {
        "sum of |g_hat(q_k)| vs (pi/2) * sum of ||q_k*alpha||":
            (g_sum, alpha_sum),
        "(pi/2) * sum of ||q_k*alpha|| vs (pi/2) * sum of q_k**-1/2":
            (alpha_sum, root_sum),
        "sum of |g_hat(q_k)| vs (pi/2) * sum of q_k**-1/2": (g_sum, root_sum),
        "discarded tail of sum |g_hat| under the geometric gap model":
            (tail, None),
    }
    for q, b in zip(qs, dist_b):
        h = b / (2 * mpmath.sinpi(b))
        oracle[f"|h_hat({q})| vs 1/(2*pi)"] = (h, 1 / (2 * mpmath.pi))
        oracle[f"|h_hat({q})| vs 1/4"] = (h, mpmath.mpf(1) / 4)
    return oracle, tail


def inside(x, interval):
    bounds = printed(interval)
    return bounds["lo"] <= exact(x) <= bounds["hi"]


@pytest.mark.parametrize("argv", CONSTRUCT)
def test_construct_entries_contain_their_recomputed_values(argv):
    envelope = report(argv)
    result = envelope["result"]
    # 400 bits is about 90 digits finer than the 30 printed ones
    with mpmath.workprec(400):
        oracle, tail = construct_oracle(
            result, rotation(envelope["config"]["alpha"]),
            rotation(envelope["config"]["beta"]),
        )
        entries = [e for cert in result["certificates"] for e in cert["entries"]]
        assert sorted(e["description"] for e in entries) == sorted(oracle)
        for entry in entries:
            value, threshold = oracle[entry["description"]]
            assert inside(value, entry["value"]), (argv, entry)
            if threshold is not None:
                assert inside(threshold, entry["threshold"]), (argv, entry)
        assert inside(tail, result["tail_bound"])


def test_dirichlet_records_contain_their_recomputed_values():
    envelope = report("approx dirichlet --format json")
    records = envelope["result"]["records"]
    assert len(records) == envelope["result"]["count"] > 0
    with mpmath.workprec(400):
        alpha = rotation(envelope["config"]["alpha"])
        beta = rotation(envelope["config"]["beta"])
        for record in records:
            q = record["q"]
            dist_a, dist_b = dist(q, alpha), dist(q, beta)
            assert inside(dist_a, record["dist_alpha"]), record
            assert inside(dist_b, record["dist_beta"]), record
            quality = mpmath.sqrt(q) * max(dist_a, dist_b)
            assert inside(quality, record["quality"]), record


# the golden spectral config, and the second construct config above
SPECTRAL = ["spectral" + argv[len("construct"):] for argv in CONSTRUCT]


@pytest.mark.parametrize("argv", SPECTRAL)
def test_spectral_sums_contain_their_recomputed_values(argv):
    envelope = report(argv)
    result = envelope["result"]
    # one atom at each denominator that construct prints for the same config
    qs = report("construct" + argv[len("spectral"):])["result"]["q_sequence"]
    assert result["atoms"] == len(qs)
    with mpmath.workprec(400):
        alpha = rotation(envelope["config"]["alpha"])
        beta = rotation(envelope["config"]["beta"])
        # the mass |f_hat(q)|**2 = ||q*beta||**2 and the divisor squares
        # |1 - e(q*x)|**2 = 4*sin(pi*||q*x||)**2 of each atom
        atoms = [(dist(q, beta) ** 2, 4 * mpmath.sinpi(dist(q, alpha)) ** 2,
                  4 * mpmath.sinpi(dist(q, beta)) ** 2) for q in qs]
        oracle = {
            "alpha_integral": mpmath.fsum(m / da for m, da, _ in atoms),
            "beta_integral": mpmath.fsum(m / db for m, _, db in atoms),
            "joint_sum": mpmath.fsum(m * (da + db) / (da * db)
                                     for m, da, db in atoms),
            "double_sum": mpmath.fsum(m / (da * db) for m, da, db in atoms),
        }
        for key in ("alpha_integral", "beta_integral"):
            assert result[key]["divergent"] is False
            assert inside(oracle[key], result[key]["value"]), (argv, key)
        for key in ("joint_sum", "double_sum"):
            assert inside(oracle[key], result[key]), (argv, key)
        # the masses are squares of the 140-bit coefficients, so the exact
        # total differs from the sum of ||q*beta||**2 in the 42nd digit
        mass = exact(mpmath.fsum(m for m, _, _ in atoms))
        assert abs(Fraction(result["total_mass"]) - mass) <= mass / 10**30


# `shift` at p = 2 (the default), p = 3/2 and p = 1, K = 10. For p > 1,
# h(s) = s**-kappa with kappa = (p+1)/p, and q(1, k) = sum_{t >= 1+k} h(t) is
# the Hurwitz zeta value zeta(kappa, 1+k); at p = 1, h(s) = s**-2 (log s)**-2.
SHIFT = ["shift --format json", "shift --p 3/2 --format json",
         "shift --p 1 --format json"]

# The printed shift bounds that contain no closed form, each with the side of
# its bound that it lies on and the reason. Each threshold is a point at the
# safe end of a 96- or 120-bit enclosure of a bound, so it misses that bound
# by up to the enclosure's width, and the l_3 mass is a sum of bounds with
# their logarithms rounded down; the printed end on the safe side is checked
# to lie on that side of the bound's exact-log form, within 2**-80 of it.
NO_CLOSED_FORM = {
    "integral lower": ("below", "the lower end of (1 - 1/1000) * p * "
                                "(1+k)**(-1/p)"),
    "integral upper": ("above", "the upper end of p * k**(-1/p) for k > 1, "
                                "and of 2**-kappa + p * 2**(-1/p) at k = 1"),
    "power envelope": ("above", "the upper end of t**(-5/2)"),
    "row integral lower": ("below", "the lower end of (2/3) * (1 - 1/1000)**2 "
                                    "* K * 5504**(-3/2)"),
    "closed l_3 bound": ("above", "(3/(4 * log(2)**2))**3 + 4/log(3)**6 + 1, "
                                  "from lower ends of the logarithms"),
    "l_3 mass": ("above", "sum over s <= 400 of (s-1) * U(s)**3 plus the tail "
                          "8/(400 * log(400)**6), U(s) = (s+1)/(s**2 * "
                          "log(s)**2) from lower ends of the logarithms: it "
                          "bounds the l_3 mass of q, which has no closed form"),
}


def shift_oracle(exact_p, K):
    """The closed forms of a shift report, from p and K alone: a dict from
    the path of each enclosure outside the certificate to its value, and a
    dict from each certificate entry's description to its (value, threshold).
    A value (lo, hi) brackets the printed one. A value or threshold
    (name, bound) is on NO_CLOSED_FORM, and bound is the exact form it bounds;
    a threshold None marks an annotation."""
    if exact_p == 1:
        return logpower_oracle(K)
    eps = Fraction(1, 1000)
    p = mpmath.mpf(exact_p.numerator) / exact_p.denominator
    kappa = (p + 1) / p
    S = min(K, 2000) + 1  # the diagonals of lp_norm
    r = int(2 * exact_p) + 1  # the bounded exponent
    coef = ((1 - eps) * p) ** p
    row_sum = coef * mpmath.fsum(1 / mpmath.mpf(k + 1) for k in range(1, K + 1))
    lr = p**r * mpmath.zeta(r / p - 1)
    fields = {
        "lp_norm.partial": mpmath.fsum((s - 1) / mpmath.mpf(s) ** (p + 1)
                                       for s in range(2, S + 1)),
        "lp_norm.tail": mpmath.zeta(p, S + 1) - mpmath.zeta(p + 1, S + 1),
        "lp_norm.total": mpmath.zeta(p) - mpmath.zeta(p + 1),
        "row_sum_lower": row_sum,
        "lr_partial": lr,
    }
    entries = {
        f"row 1 sum of q**{exact_p} over k <= {K} vs its logarithmic "
        "growth floor": (row_sum, (mpmath.log(K + 2) - 1) * coef),
        "slack 1/1000 in lower bounds; the first omitted series term exceeds "
        "it on every sampled diagonal": (eps, None),
        f"full lattice sum of q**{r} vs its closed convergence bound":
            (lr, exact_p**r * (1 + exact_p / (r - 2 * exact_p))),
    }
    for k in sorted({1, 7, K}):
        q = mpmath.zeta(kappa, 1 + k)
        # int_{s-1}^inf x**-kappa dx at s = 1 + k, or h(2) + int_2^inf at s = 2
        upper = (p * mpmath.mpf(k) ** (-1 / p) if k > 1
                 else 2**-kappa + p * mpmath.mpf(2) ** (-1 / p))
        entries[f"q at row 1, column {k} vs integral lower"] = (
            q, ("integral lower", (1 - eps) * p * (1 + k) ** (-1 / p)))
        entries[f"q at row 1, column {k} vs integral upper"] = (
            q, ("integral upper", upper))
    return fields, entries


# h(s) = s**-2 (log s)**-2 is decreasing, so the diagonal terms
# (s-1) * h(s) are too, and their integral over [N, inf) is, with L = log N,
# int (x-1) / (x log x)**2 dx = 1/L - exp(-L)/L + E1(L)
def logpower_integral(N):
    L = mpmath.log(N)
    return 1 / L - mpmath.exp(-L) / L + mpmath.e1(L)


def envelope_start():
    """The least n past e**4 with (log n)**4 <= n."""
    return int(mpmath.findroot(lambda x: mpmath.log(x) ** 4 - x, 5500)) + 1


def logpower_oracle(K):
    """shift_oracle at p = 1."""
    eps = Fraction(1, 1000)
    S = min(K, 2000) + 1  # the diagonals of lp_norm
    partial = mpmath.fsum((s - 1) / (s * mpmath.log(s)) ** 2 for s in range(2, S + 1))
    # the discarded sum over s > S lies between the integrals from S+1 and S
    tail = (logpower_integral(S + 1), logpower_integral(S))
    J0 = envelope_start()
    # for K < J0 - 4 every row j in (1, 2, 4) has j + k < J0 for all k <= K,
    # so its integral lower bound is K copies of J0**(-3/2)
    assert K < J0 - 4
    rows = {j: 2 * (1 - eps) / 3 * mpmath.fsum(max(j + k, J0) ** mpmath.mpf(-1.5)
                                               for k in range(1, K + 1))
            for j in (1, 2, 4)}
    row_floor = 2 * (1 - eps) ** 2 / 3 * K * mpmath.mpf(J0) ** -1.5
    cap = 400  # the partial range of the l_3 mass
    l3_mass = ("l_3 mass", mpmath.fsum(
        (s - 1) * ((s + 1) / (s**2 * mpmath.log(s) ** 2)) ** 3
        for s in range(2, cap + 1)) + 8 / (cap * mpmath.log(cap) ** 6))
    fields = {
        "lp_norm.partial": partial,
        "lp_norm.tail": tail,
        "lp_norm.total": (partial + tail[0], partial + tail[1]),
        "row_sum_lower": rows[1],
        "lr_partial": l3_mass,
    }
    entries = {
        f"(log n)**4 at n = {n}": (mpmath.log(n) ** 4, Fraction(n))
        for n in (J0, J0 - 1)
    }
    entries["x/(log x)**4 increases past e**4, so the power envelope "
            f"t**(-5/2) <= t**(-2)(log t)**(-2) holds for all t >= {J0}"] = (
        Fraction(J0), None)
    for t in (J0, 2 * J0):
        entries[f"series term vs power envelope at t = {t}"] = (
            1 / (t * mpmath.log(t)) ** 2,
            ("power envelope", mpmath.mpf(t) ** -2.5))
    for j, row in rows.items():
        entries[f"row {j} sum of q over k <= {K} vs integral lower"] = (
            row, ("row integral lower", row_floor))
    entries["full lattice sum of q**3 vs its closed convergence bound"] = (
        l3_mass,
        ("closed l_3 bound", (3 / (4 * mpmath.log(2) ** 2)) ** 3
         + 4 / mpmath.log(3) ** 6 + 1))
    return fields, entries


def on_safe_side(interval, bound):
    """The printed end of interval on the safe side of a NO_CLOSED_FORM bound
    (name, value) lies on that side of value, within 2**-80 of it."""
    name, value = bound
    side, _ = NO_CLOSED_FORM[name]
    point, value = printed(interval), exact(value)
    gap = value - point["lo"] if side == "below" else point["hi"] - value
    return 0 <= gap <= value / 2**80


def contains(interval, value):
    """A printed interval holds value, or both ends of a bracket (lo, hi)
    around it, or holds a NO_CLOSED_FORM bound (name, value) on its safe
    side."""
    if isinstance(value, tuple) and isinstance(value[0], str):
        return on_safe_side(interval, value) and inside(value[1], interval)
    return all(inside(x, interval)
               for x in (value if isinstance(value, tuple) else (value,)))


def printed_enclosures(node, path=""):
    """(path, interval) of every enclosure in a report tree, certificates
    left out."""
    if isinstance(node, dict):
        if set(node) == {"lo", "hi"}:
            yield path, node
        elif "entries" not in node:
            for key, child in node.items():
                yield from printed_enclosures(child, f"{path}.{key}".lstrip("."))


@pytest.mark.parametrize("argv", SHIFT)
def test_shift_enclosures_contain_their_closed_forms(argv):
    envelope = report(argv)
    result, config = envelope["result"], envelope["config"]
    with mpmath.workprec(400):
        p = Fraction(config["p"])
        fields, entries = shift_oracle(p, config["K"])
        assert result["log_threshold"] == (envelope_start() if p == 1 else None)
        found = dict(printed_enclosures(result))
        assert sorted(found) == sorted(fields)
        for path, interval in found.items():
            assert contains(interval, fields[path]), (argv, path)
        printed_entries = result["certificate"]["entries"]
        assert sorted(e["description"] for e in printed_entries) == sorted(entries)
        for entry in printed_entries:
            value, threshold = entries[entry["description"]]
            assert contains(entry["value"], value), (argv, entry)
            if isinstance(threshold, tuple):
                assert on_safe_side(entry["threshold"], threshold), (argv, entry)
            elif threshold is not None:
                assert inside(threshold, entry["threshold"]), (argv, entry)


def test_bad_pair_constant_is_the_first_minimum_over_every_q():
    envelope = report("approx bad-pair --format json")
    result = envelope["result"]
    argmin = result["argmin"]
    with mpmath.workprec(400):
        alpha = rotation(envelope["config"]["alpha"])
        beta = rotation(envelope["config"]["beta"])
        quality = [mpmath.sqrt(q) * max(dist(q, alpha), dist(q, beta))
                   for q in range(1, result["Q"] + 1)]
        best = quality[argmin - 1]
        assert inside(best, result["constant"])
        # no q <= Q does better, and none before argmin does as well
        assert all(value > best for value in quality[:argmin - 1])
        assert min(quality) == best


# The printed enclosures of `check double-bad` with no oracle, with the reason.
NO_ORACLE = {
    "double-bad envelope": "the envelope constant M, the partial sum and the "
                           "tail allowance of `check double-bad` are replaced "
                           "by ROADMAP item 15's envelope; an oracle for the "
                           "present one would check bytes about to change",
}

# What checks each enclosure that a golden JSON report prints, by config
# and label: the oracle test that recomputes it, the name of a NO_CLOSED_FORM
# bound that the shift test holds it to, or a NO_ORACLE name. A label is the
# enclosure's path in the result with the list indices dropped, or "value of"
# or "threshold of" an entry's description; "{n}" stands for an integer.
CONSTRUCT_ENTRIES = (
    "sum of |g_hat(q_k)| vs (pi/2) * sum of ||q_k*alpha||",
    "(pi/2) * sum of ||q_k*alpha|| vs (pi/2) * sum of q_k**-1/2",
    "sum of |g_hat(q_k)| vs (pi/2) * sum of q_k**-1/2",
    "|h_hat({n})| vs 1/(2*pi)",
    "|h_hat({n})| vs 1/4",
)


def shift_power_checkers(p, r):
    """The checkers of a shift report at a power p > 1, whose l_r mass has a
    closed convergence bound."""
    entries = (
        f"row 1 sum of q**{p} over k <= {{n}} vs its logarithmic growth floor",
        f"full lattice sum of q**{r} vs its closed convergence bound",
    )
    return {
        test_shift_enclosures_contain_their_closed_forms: (
            "lp_norm.partial", "lp_norm.tail", "lp_norm.total",
            "row_sum_lower", "lr_partial",
            "value of slack 1/1000 in lower bounds; the first omitted series "
            "term exceeds it on every sampled diagonal",
            "value of q at row 1, column {n} vs integral lower",
            "value of q at row 1, column {n} vs integral upper",
            *(f"{role} of {d}" for role in ("value", "threshold")
              for d in entries)),
        "integral lower": ("threshold of q at row 1, column {n} vs integral "
                           "lower",),
        "integral upper": ("threshold of q at row 1, column {n} vs integral "
                           "upper",),
    }


ENCLOSURE_CHECKERS = {
    "approx bad-pair --format json": {
        test_bad_pair_constant_is_the_first_minimum_over_every_q: ("constant",),
    },
    "approx dirichlet --format json": {
        test_dirichlet_records_contain_their_recomputed_values: (
            "records[].dist_alpha", "records[].dist_beta", "records[].quality"),
    },
    "check double-bad --K 3 --format json": {
        "double-bad envelope": tuple(f"value of {d}" for d in (
            "envelope constant M = max |f_hat(k)| * k**2 * (log k)**gamma",
            "envelope of {n} terms verified non-increasing",
            "partial sum of k * a_k**2 (exact)",
            "caller-supplied analytic tail bound",
            "partial plus tail")),
    },
    "construct --format json": {
        test_construct_entries_contain_their_recomputed_values: (
            "tail_bound",
            "value of discarded tail of sum |g_hat| under the geometric gap "
            "model",
            *(f"{role} of {d}" for role in ("value", "threshold")
              for d in CONSTRUCT_ENTRIES)),
    },
    "spectral --format json": {
        test_spectral_sums_contain_their_recomputed_values: (
            "alpha_integral.value", "beta_integral.value", "double_sum",
            "joint_sum"),
    },
    "shift --format json": shift_power_checkers("2", 5),
    "shift --p 3/2 --format json": shift_power_checkers("3/2", 4),
    "shift --p 1 --format json": {
        test_shift_enclosures_contain_their_closed_forms: (
            "lp_norm.partial", "lp_norm.tail", "lp_norm.total",
            "row_sum_lower",
            "value of (log n)**4 at n = {n}",
            "threshold of (log n)**4 at n = {n}",
            "value of x/(log x)**4 increases past e**4, so the power envelope "
            "t**(-5/2) <= t**(-2)(log t)**(-2) holds for all t >= {n}",
            "value of series term vs power envelope at t = {n}",
            "value of row {n} sum of q over k <= {n} vs integral lower"),
        "power envelope": ("threshold of series term vs power envelope at "
                           "t = {n}",),
        "row integral lower": ("threshold of row {n} sum of q over k <= {n} vs "
                               "integral lower",),
        "closed l_3 bound": ("threshold of full lattice sum of q**3 vs its "
                             "closed convergence bound",),
        "l_3 mass": ("lr_partial", "value of full lattice sum of q**3 vs its "
                                   "closed convergence bound"),
    },
}


def label_pattern(template):
    """A label template as a regular expression, "{n}" matching an integer."""
    return re.escape(template).replace(re.escape("{n}"), r"\d+")


def labelled_enclosures(node, path=""):
    """The label of every enclosure in a report tree."""
    if isinstance(node, dict):
        if set(node) == {"lo", "hi"}:
            yield path
        elif "description" in node:
            yield from (f"{role} of {node['description']}"
                        for role in ("value", "threshold") if role in node)
        else:
            for key, child in node.items():
                yield from labelled_enclosures(child, f"{path}.{key}".lstrip("."))
    elif isinstance(node, list):
        for child in node:
            yield from labelled_enclosures(child, f"{path}[]")


def test_every_printed_enclosure_has_an_oracle_or_a_reason():
    used, checked = set(), []
    for argv in JSON_GOLDEN:
        for label in labelled_enclosures(report(argv)["result"]):
            found = [(checker, template)
                     for checker, templates in ENCLOSURE_CHECKERS.get(argv, {}).items()
                     for template in templates
                     if re.fullmatch(label_pattern(template), label)]
            assert len(found) == 1, (argv, label, found)
            used.add((argv, *found[0]))
            checked.append(found[0][0])
    # every template matches, and a name is a known bound or reason
    assert used == {(argv, checker, template)
                    for argv, checkers in ENCLOSURE_CHECKERS.items()
                    for checker, templates in checkers.items()
                    for template in templates}
    for checker in {c for checkers in ENCLOSURE_CHECKERS.values() for c in checkers}:
        assert callable(checker) or checker in NO_CLOSED_FORM.keys() | NO_ORACLE.keys()
    assert len(checked) == 232
    assert sum(checker in NO_ORACLE for checker in checked) == 5
