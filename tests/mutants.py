"""Soundness mutants: each row breaks one certified step of src/coblab, or
of a test reference in tests/references.py, and names the tests that must
fail on it.

A row gives the file, the exact old text (it occurs once among src/ and
tests/references.py, which test_mutants checks), the new text and the tests
expected to kill it, as pytest node ids. run_mutants.py applies each row in a temporary copy of the
tree and runs its tests. A test named by WEAK compares a digest or another
implementation's output: it would fail on a sound rewrite too, so a mutant
that only such tests kill is weakly killed.
"""

import re
from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


WEAK = re.compile(r"digest|identical|_reference|loops_it_replaced")

CERTIFY = "src/coblab/certify.py"
DIOPHANTINE = "src/coblab/diophantine.py"
REPORT = "src/coblab/report.py"
REFERENCES = "tests/references.py"
ENTRY = "tests/test_constructions.py::test_entry_entire_interval_comparison"
LOG_3000 = ("tests/test_certify.py::"
            "test_log_enclosure_contains_the_3000_bit_log_at_small_bits")
SIN_GRID = ("tests/test_certify.py::"
            "test_sin_pi_enclosure_contains_the_sine_next_to_a_grid_point")
DEPENDENCE = ("tests/test_diophantine.py::"
              "test_dependence_matches_the_exhaustive_search")

MUTANTS = (
    Mutant(
        "atanh remainder dropped from the upper sum", CERTIFY,
        "            hi -= -(pw_hi << p) // (k * one_minus)\n", "",
        (LOG_3000,),
    ),
    Mutant(
        "atanh power ceiling floored", CERTIFY,
        "-(-pw_hi * sq_hi >> p)", "pw_hi * sq_hi >> p",
        (LOG_3000,),
    ),
    Mutant(
        "exp tail bound halved", CERTIFY,
        "            hi += 2 * a_hi\n", "            hi += a_hi\n",
        ("tests/test_certify.py::test_exp_enclosure_random",),
    ),
    # Weakly killed: the tail bound 2 * a_hi leaves a margin of thousands of
    # units of 2**-p on the upper end, which a floor per squaring never
    # uses up, so only the Fraction reference sees the changed rounding.
    Mutant(
        "exp squaring floors the upper end", CERTIFY,
        "        lo, hi = lo * lo >> p, -(-hi * hi >> p)\n",
        "        lo, hi = lo * lo >> p, hi * hi >> p\n",
        ("tests/test_certify.py::test_exp_matches_fraction_reference",),
    ),
    Mutant(
        "to_fixed floors the upper end", CERTIFY,
        "    return (lo.numerator << p) // lo.denominator, -(\n"
        "        (-hi.numerator << p) // hi.denominator\n    )\n",
        "    return (lo.numerator << p) // lo.denominator, (\n"
        "        (hi.numerator << p) // hi.denominator\n    )\n",
        ("tests/test_certify.py::test_enclosure_rounding_is_outward",),
    ),
    Mutant(
        "sin_pi lower end from the upper end of pi", CERTIFY,
        "_sin_fixed(pi_lo * lo_n,", "_sin_fixed(pi_hi * lo_n,",
        ("tests/test_certify.py::test_sin_pi_on_wide_interval",
         "tests/test_certify.py::test_sin_pi_enclosure_near_half"),
    ),
    Mutant(
        "sin_pi lower end rounded up onto its grid", CERTIFY,
        "return lo >> (GUARD_BITS + 4), ", "return -(-lo >> (GUARD_BITS + 4)), ",
        ("tests/test_certify.py::test_sin_pi_enclosure",
         SIN_GRID),
    ),
    Mutant(
        "sin Taylor tail term dropped", CERTIFY,
        "            lo, hi = _alternate(lo, hi, k, 0, a_hi)\n", "",
        (SIN_GRID,),
    ),
    Mutant(
        "decimal_str rounds the lower endpoint up", REPORT,
        'decimal_str(enc.lo, "down", digits)', 'decimal_str(enc.lo, "up", digits)',
        ("tests/test_report_oracle.py::"
         "test_dirichlet_records_contain_their_recomputed_values",),
    ),
    Mutant(
        "a <= entry compares the lower ends", REPORT,
        "            return self.value.hi <= self.threshold.lo\n",
        "            return self.value.lo <= self.threshold.lo\n",
        (ENTRY,),
    ),
    Mutant(
        "a >= entry compares the upper ends", REPORT,
        "            return self.value.lo >= self.threshold.hi\n",
        "            return self.value.hi >= self.threshold.hi\n",
        (ENTRY,),
    ),
    Mutant(
        "_acc_sum floors the upper end", "src/coblab/shift_example.py",
        "        hi -= -num // den\n", "        hi += num // den\n",
        ("tests/test_shift_example.py::TestLpPartialNorm::"
         "test_partial_matches_direct_box_summation",),
    ),
    Mutant(
        "dist_enclosure accepts a zero lower end", "src/coblab/surd.py",
        "        return enc.lo > 0 and enc.width", "        return enc.width",
        ("tests/test_surd.py::"
         "test_dist_enclosure_refines_until_the_lower_end_is_positive",),
    ),
    Mutant(
        "bad-pair settle keeps the larger candidate", DIOPHANTINE,
        "if separate(contender, best_producer) < 0:",
        "if separate(contender, best_producer) > 0:",
        ("tests/test_diophantine.py::"
         "test_bad_pair_settles_near_ties_by_certified_comparison",),
    ),
    Mutant(
        "_bracket margin cut from 2k to k", DIOPHANTINE,
        "    m, e = abs(s), 2 * k\n", "    m, e = abs(s), k\n",
        ("tests/test_diophantine.py::test_walk_yields_every_exact_hit_in_order",),
    ),
    Mutant(
        "dependence not scaled by t.denominator", REFERENCES,
        "    m, n, p = m * t.denominator, n * t.denominator, t.numerator\n",
        "    p = t.numerator\n",
        (DEPENDENCE,),
    ),
    Mutant(
        "dependence sign not normalised to m > 0", REFERENCES,
        "    if m < 0:\n        m, n, p = -m, -n, -p\n", "",
        (DEPENDENCE,),
    ),
    Mutant(
        "doubling/tripling frequencies all powers of two",
        "src/coblab/spectral.py",
        "Counter(2**i * 3**j for", "Counter(2**i * 2**j for",
        ("tests/test_acceptance.py::test_criterion_05_doubling_tripling_exactness",
         "tests/test_spectral.py::test_variance_small_cases"),
    ),
)
