"""An independent oracle for what the reports print.

The golden digests of test_cli say that a report did not change, not that it
is right. These checks read the printed JSON alone: every comparison marked
satisfied must hold between its printed decimal endpoints, read as exact
fractions, and every enclosure that `construct` prints must contain its
value recomputed in mpmath at 400 bits from the printed q_sequence and the
rotation numbers of the config, never from a printed decimal. Only pytest,
mpmath and the standard library do the checking.
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
            if entry["satisfied"]:
                holds = HOLDS[entry["comparison"]]
                assert holds(printed(entry["value"]),
                             printed(entry["threshold"])), (argv, entry)
                checked += 1
    # construct, check large-coeff, shift and shift --p 1 print 48
    # comparisons, 45 of them satisfied
    assert checked >= 45


def rotation(text):
    """(a+b*sqrt(d))/c in mpmath at the working precision."""
    a, b, d, c = map(int, SURD.fullmatch(text).groups())
    return (a + b * mpmath.sqrt(d)) / c


def exact(x):
    """The exact rational value of a positive mpmath real."""
    assert x > 0
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


def construct_oracle(result, alpha, beta):
    """Each construct entry's (value, threshold), from the q list and the
    rotation numbers alone; the threshold is None for an annotation."""
    qs = result["q_sequence"]
    dist_a = [abs(q * alpha - mpmath.nint(q * alpha)) for q in qs]
    dist_b = [abs(q * beta - mpmath.nint(q * beta)) for q in qs]
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
