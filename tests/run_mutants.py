"""Run the soundness mutants of tests/mutants.py.

    python tests/run_mutants.py

Each row is applied to a temporary copy of src/ and tests/, and the row's
tests run there under pytest with a fixed hypothesis seed. A row whose tests
all pass survived; a row that only WEAK tests kill is weakly killed. Before
the rows, every test that a row names must pass on an unmutated copy. Exits
1 when that fails or a mutant survives. The runner itself needs only the
standard library; the tests it runs need the test extras.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))
from mutants import MUTANTS, WEAK  # noqa: E402


def failures(tests, mutant=None):
    """The ids of the tests that fail or error on a copy of the tree, with
    mutant applied if one is given."""
    with tempfile.TemporaryDirectory() as tree:
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(tree, part),
                            ignore=ignore)
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tree)
        if mutant is not None:
            path = os.path.join(tree, mutant.file)
            with open(path) as fh:
                text = fh.read()
            assert text.count(mutant.old) == 1, mutant.name
            with open(path, "w") as fh:
                fh.write(text.replace(mutant.old, mutant.new))
        report = os.path.join(tree, "report.xml")
        env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", f"--junitxml={report}", *tests],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if done.returncode not in (0, 1):
            sys.exit(f"pytest exited {done.returncode} on {' '.join(tests)}")
        return [f"{case.get('classname')}::{case.get('name')}"
                for case in ET.parse(report).iter("testcase")
                if case.find("failure") is not None
                or case.find("error") is not None]


def main() -> int:
    named = sorted({test for mutant in MUTANTS for test in mutant.tests})
    failed = failures(named)
    if failed:
        print("the unmutated tree fails:", *failed, sep="\n  ")
        return 1
    survived = 0
    for mutant in MUTANTS:
        failed = failures(mutant.tests, mutant)
        strong = [test for test in failed if not WEAK.search(test)]
        if strong:
            more = f" and {len(strong) - 1} more" if len(strong) > 1 else ""
            status = f"killed by {strong[0]}{more}"
        elif failed:
            status = f"WEAKLY killed, only by {', '.join(failed)}"
        else:
            status = "SURVIVED"
            survived += 1
        print(f"{mutant.name}: {status}", flush=True)
    print(f"{len(MUTANTS)} mutants, {survived} survived")
    return int(survived > 0)


if __name__ == "__main__":
    sys.exit(main())
