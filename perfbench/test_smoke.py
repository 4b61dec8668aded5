"""Tests of the benchmark itself; run with `python -m pytest perfbench`."""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
run = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_smoke_checks_every_workload_and_prints_every_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _result(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 2 * sum(
        len(run.workload_calls(w, 0, smoke=True)) for w in run.WORKLOADS
    )
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for workload in run.WORKLOADS:
        printed = {
            key.split("/", 1)[1]: entry["unit"]
            for key, entry in result["metrics"].items()
            if key.startswith(workload + "/")
        }
        assert printed == declared, workload


def _outcome(stdout: bytes, code: int = 0):
    return run.Outcome(seconds=1.0, rss_mb=1.0, code=code, stdout=stdout, stderr=b"boom\n")


def test_check_rejects_changed_reports_and_failed_calls():
    expected = run.load_expected()
    call = run.workload_calls("scan", 0, smoke=True)[0]
    assert call.key in expected[0]
    assert run.check(call, _outcome(b"{}\n"), expected, 0).startswith("report sha256")
    assert run.check(call, _outcome(b"", code=4), expected, 0).startswith("exit code 4")
    unrecorded = run.Call("dirichlet_s", call.argv + ("--depth", "7"))
    assert run.check(unrecorded, _outcome(b"{}\n"), expected, 0) == (
        "no recorded digest for this call"
    )


def test_check_holds_ergodic_values_to_bound_and_record():
    expected = run.load_expected()
    call = run.workload_calls("ergodic", 0, smoke=True)[0]
    ref = expected[1][run._ref_name(call.key)]
    bounds = [float(ref.max()) + 1.0] * ref.shape[0]

    def outcome(values, bounds=bounds):
        return _outcome(json.dumps({"bounds": bounds, "values": values}).encode())

    assert run.check(call, outcome(ref.tolist()), expected, 0) is None
    nudged = (ref * (1 + 1e-10)).tolist()
    assert "off the record" in run.check(call, outcome(nudged), expected, 0)
    # other seeds have no record; only the bound applies
    assert run.check(call, outcome(nudged), expected, 1) is None
    low = [float(ref.max()) / 2] * ref.shape[0]
    assert "above their bound" in run.check(call, outcome(ref.tolist(), low), expected, 1)
    with_nan = ref.copy()
    with_nan[0, 0] = float("nan")
    assert "not a number" in run.check(call, outcome(with_nan.tolist()), expected, 1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "scan",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
