"""The mutant table cannot rot: each row still names a live line of src/ or
of tests/references.py.

run_mutants.py applies the rows; this only checks that each would apply.
"""

import glob
import os

import pytest
from mutants import MUTANTS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def source(path):
    with open(os.path.join(ROOT, path)) as fh:
        return fh.read()


# the library and the one test module that mutant rows may target
SOURCES = {path: source(path) for path in [
    *glob.glob("src/**/*.py", root_dir=ROOT, recursive=True),
    "tests/references.py"]}


def test_mutant_names_are_unique_and_the_table_has_ten_rows():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS) >= 10


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_once_in_src(mutant):
    assert mutant.file in SOURCES
    assert sum(text.count(mutant.old) for text in SOURCES.values()) == 1
    assert mutant.old in SOURCES[mutant.file]
    assert mutant.old != mutant.new and mutant.tests
    for test in mutant.tests:
        assert os.path.isfile(os.path.join(ROOT, test.split("::")[0])), test
