"""Closed-loop benchmark of the coblab command line.

    python3 perfbench/run.py --workload {envelope,scan,ergodic} --seed N \\
        --seconds S --trace {0,1}
    python3 perfbench/run.py --smoke      # every workload at tiny sizes

One client in one process issues calls one after another.  Every call runs in
a fresh child: `python -m coblab.cli ...` for a CLI call, `perfbench/child.py
sweep ...` for an ergodic sweep, with `src/` of this checkout on PYTHONPATH.
A pass runs each call of the workload once; passes repeat until --seconds
have elapsed (the last pass may run over), and each timing is the median
over passes, scaled to the reference host speed that host_gauge() measures.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced pass
and one traced pass (`child.py --trace`, see tracer.py) and prints the layer
metrics.  Every call is checked: exit code 0, the report's sha256 against
expected.json, and each ergodic sweep value against its bound and, at seed 0,
against ergodic_seed0.npz.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
ERGODIC_REF = HERE / "ergodic_seed0.npz"

# Surd pairs of equal scan cost; seed 0 picks the CLI default pair.
PAIRS = (
    ("(-1+1*sqrt(2))/1", "(-1+1*sqrt(3))/1"),
    ("(-2+1*sqrt(5))/1", "(-2+1*sqrt(7))/1"),
)
SWEEP_SEEDS = 8
SETUP_PER_PASS = 2
CALL_TIMEOUT_S = 150.0
ERGODIC_RTOL = 1e-12
# The host gauge: a fixed loop of big-integer steps, and its median time on
# the reference host (2 vCPUs, CPython 3.11).
GAUGE_STEPS = 60000
GAUGE_MODULUS = (1 << 521) - 1
GAUGE_REF_S = 0.1077


@dataclass(frozen=True)
class Call:
    metric: str
    argv: tuple  # arguments after `child.py`: ("cli", ...) or ("sweep", ...)

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _cli(metric: str, *args) -> Call:
    return Call(metric, ("cli", *map(str, args), "--format", "json"))


def workload_calls(name: str, seed: int, smoke: bool) -> list[Call]:
    """The calls of one pass; the same (name, seed, smoke) gives the same calls."""
    if name == "envelope":
        return [
            _cli("double_bad_s", "check", "double-bad", "--K", 3 if smoke else 5),
            _cli("squares_s", "approx", "squares", "--N", 1000 if smoke else 30000),
            _cli("shift_s", "shift", "--p", 1, "--K", 100 if smoke else 1000),
        ]
    if name == "scan":
        alpha, beta = PAIRS[seed % len(PAIRS)]
        pair = ("--alpha", alpha, "--beta", beta)
        return [
            _cli("dirichlet_s", "approx", "dirichlet",
                 "--Q", 100000 if smoke else 30000000, *pair),
            _cli("bad_pair_s", "approx", "bad-pair",
                 "--Q", 100000 if smoke else 20000000, *pair),
            _cli("construct_s", "construct", "--K", 4 if smoke else 10,
                 "--Q", 10000 if smoke else 1000000, *pair),
        ]
    if name == "ergodic":
        count, nmax = (2, 50) if smoke else (SWEEP_SEEDS, 1000)
        first = seed * count
        q = 10000 if smoke else 1000000
        return [
            Call("ergodic_double_s", ("sweep", "double", str(first), str(count), str(nmax))),
            Call("ergodic_single_s", ("sweep", "single", str(first), str(count), str(nmax))),
            _cli("rates_s", "rates", "--N", 16 if smoke else 1024, "--Q", q),
            _cli("spectral_s", "spectral", "--Q", q),
        ]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("envelope", "scan", "ergodic")
SETUP_CALL = Call("setup_s", ("cli", "--help"))


# ---------------------------------------------------------------------------
# running one call


@dataclass
class Outcome:
    seconds: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes
    trace: dict | None = None


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["COLUMNS"] = "80"  # argparse wraps --help output to the terminal width
    return env


def host_gauge() -> float:
    """Seconds the host takes for a fixed loop that runs no coblab code.

    A shared host runs the same code up to 1.8 times slower for minutes at a
    time, on every kind of work at once.  The gauge is sampled between the
    calls of a run, and the run's times are scaled by GAUGE_REF_S over the
    gauge's median, so that runs made minutes apart compare.
    """
    start = time.perf_counter()
    x = 3
    for i in range(GAUGE_STEPS):
        x = (x * x + i) % GAUGE_MODULUS
    return time.perf_counter() - start


def run_call(call: Call, workdir: Path, trace: bool = False) -> Outcome:
    """Run one call in a fresh child; wall time and peak RSS come from wait4."""
    trace_file = workdir / "trace.json"
    if call.argv[0] == "cli" and not trace:
        cmd = [sys.executable, "-m", "coblab.cli", *call.argv[1:]]
    else:
        cmd = [sys.executable, str(HERE / "child.py")]
        if trace:
            trace_file.unlink(missing_ok=True)
            cmd += ["--trace", str(trace_file)]
        cmd += list(call.argv)
    with tempfile.TemporaryFile(dir=workdir) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=err, env=_child_env(), cwd=ROOT
        )
        watchdog = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
            proc.stdout.close()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    summary = None
    if trace and proc.returncode == 0:
        summary = json.loads(trace_file.read_text())
    return Outcome(seconds, usage.ru_maxrss / 1024.0, proc.returncode, stdout,
                   stderr, summary)


# ---------------------------------------------------------------------------
# correctness


def load_expected() -> tuple[dict, dict]:
    reports = json.loads(EXPECTED.read_text())["reports"]
    with np.load(ERGODIC_REF, allow_pickle=False) as data:
        ergodic = {key: data[key] for key in data.files}
    return reports, ergodic


def _ref_name(key: str) -> str:
    return key.replace(" ", "_")


def check(call: Call, outcome: Outcome, expected: tuple[dict, dict], seed: int) -> str | None:
    """The reason this call's output is wrong, or None when it is right."""
    if outcome.code != 0:
        tail = outcome.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return f"exit code {outcome.code}: {' '.join(tail)}"
    reports, ergodic = expected
    if call.argv[0] == "cli":
        if call is SETUP_CALL:
            return None if outcome.stdout.startswith(b"usage: coblab") else "no usage text"
        want = reports.get(call.key)
        if want is None:
            return "no recorded digest for this call"
        got = hashlib.sha256(outcome.stdout).hexdigest()
        return None if got == want else f"report sha256 {got[:16]} != recorded {want[:16]}"
    result = json.loads(outcome.stdout)
    values = np.asarray(result["values"], dtype=np.float64)
    bounds = np.asarray(result["bounds"], dtype=np.float64)
    count, nmax = int(call.argv[3]), int(call.argv[4])
    if values.shape != (count, nmax) or bounds.shape != (count,):
        return f"sweep shape {values.shape} != {(count, nmax)}"
    over = int((~(values <= bounds[:, None])).sum())  # NaN counts as over
    if over:
        return f"{over} ergodic values above their bound or not a number"
    if seed == 0:
        ref = ergodic.get(_ref_name(call.key))
        if ref is None:
            return "no recorded ergodic values for this call"
        rel = np.abs(values - ref) / np.maximum(np.abs(ref), np.finfo(float).tiny)
        if not (rel <= ERGODIC_RTOL).all():
            return f"ergodic value off the record by {float(rel.max()):.3e} relative"
    return None


# ---------------------------------------------------------------------------
# passes and metrics


@dataclass
class Pass:
    times: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    report_bytes: int = 0
    traces: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.times.values())


def run_pass(calls, expected, seed, workdir, trace=False) -> Pass:
    result = Pass()
    for call in calls:
        outcome = run_call(call, workdir, trace=trace)
        result.times[call.metric] = outcome.seconds
        result.peak_rss_mb = max(result.peak_rss_mb, outcome.rss_mb)
        result.attempted += 1
        result.report_bytes += len(outcome.stdout) if call.argv[0] == "cli" else 0
        problem = check(call, outcome, expected, seed)
        if problem is not None:
            result.failed += 1
            print(f"FAILED {call.key}: {problem}", file=sys.stderr)
        if outcome.trace is not None:
            result.traces.append((call.metric, outcome.trace))
    return result


def end_to_end(calls, expected, seed, seconds, workdir):
    """Passes, each after SETUP_PER_PASS set-up calls, until `seconds` have passed.

    Set-up calls and host gauge samples are spread over the run so that their
    medians sample the same machine conditions as the passes.  Times are
    medians scaled to the reference host speed (see host_gauge); the raw
    samples are printed on the text lines.
    """
    gauge, setup, passes = [], [], []
    start = time.perf_counter()
    while True:
        for _ in range(SETUP_PER_PASS):
            gauge.append(host_gauge())
            setup.append(run_call(SETUP_CALL, workdir))
        gauge.append(host_gauge())
        passes.append(run_pass(calls, expected, seed, workdir))
        if time.perf_counter() - start >= seconds:
            break
    attempted = len(setup) + sum(p.attempted for p in passes)
    failed = sum(check(SETUP_CALL, o, expected, seed) is not None for o in setup)
    failed += sum(p.failed for p in passes)
    scale = GAUGE_REF_S / statistics.median(gauge)

    def scaled_median(values):
        return (scale * statistics.median(values), "s")

    metrics = {
        "wall_s": scaled_median(p.wall_s for p in passes),
        "setup_s": scaled_median(o.seconds for o in setup),
        "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in passes), "MB"),
    }
    per_call = {
        call.metric: scaled_median(p.times[call.metric] for p in passes) for call in calls
    }
    text = [
        f"host gauge: median {statistics.median(gauge):.4f} s of {len(gauge)} samples, "
        f"reference {GAUGE_REF_S} s; times below are scaled by {scale:.4f}",
        f"raw pass walls ({len(passes)} passes): "
        + " ".join(f"{p.wall_s:.3f}" for p in passes) + " s",
        f"raw set-up calls ({len(setup)}): " + " ".join(f"{o.seconds:.3f}" for o in setup) + " s",
    ]
    text += [
        f"raw {call.metric} by pass: "
        + " ".join(f"{p.times[call.metric]:.3f}" for p in passes) + " s"
        for call in calls
    ]
    text += _lines(metrics) + _lines(per_call)
    text.append(f"failed_ratio = {failed / attempted:.4f} 1 ({failed}/{attempted} calls)")
    return metrics, attempted, failed, text


def _merge_traces(traces) -> dict:
    functions: dict = {}
    counts: dict = {}
    for t in traces:
        for name, entry in t["functions"].items():
            acc = functions.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += entry["calls"]
            acc["self_s"] += entry["self_s"]
        for name, value in t["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return {
        "functions": functions,
        "counts": counts,
        "max_bits": max((t["max_bits"] for t in traces), default=0),
        "peak_alloc_bytes": max((t["peak_alloc_bytes"] for t in traces), default=0),
        "spans": sum(t["spans"] for t in traces),
    }


def layer_metrics(merged: dict, untraced: Pass, traced: Pass) -> dict:
    """Every layer metric by name, from the traced pass."""
    functions, counts = merged["functions"], merged["counts"]

    def calls(name):
        return (functions.get(name, {}).get("calls", 0), "count")

    def self_s(name):
        return (functions.get(name, {}).get("self_s", 0.0), "s")

    def rate(num, den):
        return num / den if den > 0 else 0.0

    m = {}
    for kernel in ("log", "exp", "pow", "sin_pi", "sqrt"):
        name = f"certify.{kernel}_enclosure"
        m[name + ".calls"] = calls(name)
        m[name + ".self_s"] = self_s(name)
    for name in ("certify.refine", "certify.separate"):
        m[name + ".calls"] = calls(name)
        m[name + ".producer_calls"] = (counts.get(name + ".producer_calls", 0), "count")
    m["certify.separate.cap_hits"] = (counts.get("certify.separate.cap_hits", 0), "count")
    m["certify.max_bits"] = (merged["max_bits"], "bits")
    m["surd.enclosure.calls"] = calls("surd.enclosure")
    m["surd.enclosure.self_s"] = self_s("surd.enclosure")
    m["surd.sign.calls"] = calls("surd.sign")
    search = "diophantine.dirichlet_pair_search"
    m[search + ".self_s"] = self_s(search)
    m[search + ".records"] = (counts.get(search + ".records", 0), "count")
    m["diophantine.scan_q_per_s"] = (
        rate(counts.get(search + ".q_scanned", 0), self_s(search)[0]), "1/s")
    m["diophantine.bad_pair_constant.self_s"] = self_s("diophantine.bad_pair_constant")
    m["diophantine.bad_pair_constant.peak_alloc_mb"] = (
        merged["peak_alloc_bytes"] / 2**20, "MB")
    squares = "diophantine.square_approximation_search"
    m[squares + ".self_s"] = self_s(squares)
    m[squares + ".hits"] = (counts.get(squares + ".hits", 0), "count")
    ergodic_self = 0.0
    for name in ("fourier.double_ergodic_sum_norm", "fourier.browder_sum_norm"):
        m[name + ".calls"] = calls(name)
        m[name + ".self_s"] = self_s(name)
        ergodic_self += self_s(name)[0]
    pairs = counts.get("fourier.kernel_pairs", 0)
    m["fourier.kernel_pairs"] = (pairs, "count")
    m["fourier.kernel_pairs_per_s"] = (rate(pairs, ergodic_self), "1/s")
    for name in ("spectral.cesaro_rate_profile", "spectral.spectral_measure",
                 "shift_example.divergence_certificate", "shift_example.lp_partial_norm",
                 "constructions.build_joint_not_double", "constructions.check_double_bad"):
        m[name + ".self_s"] = self_s(name)
    m["constructions.entries"] = (counts.get("constructions.entries", 0), "count")
    m["cli.run.self_s"] = self_s("cli.run")
    m["cli.report_bytes"] = (traced.report_bytes, "B")
    for layer in LAYERS:
        m[layer + ".self_s"] = (
            sum(e["self_s"] for n, e in functions.items() if n.split(".")[0] == layer), "s")
    m["trace.traced_wall_s"] = (traced.wall_s, "s")
    m["trace.overhead_ratio"] = (traced.wall_s / untraced.wall_s, "1")
    return m


def traced_run(calls, expected, seed, workdir):
    untraced = run_pass(calls, expected, seed, workdir)
    traced = run_pass(calls, expected, seed, workdir, trace=True)
    merged = _merge_traces([trace for _, trace in traced.traces])
    metrics = layer_metrics(merged, untraced, traced)
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    layer_self = {layer: metrics[layer + ".self_s"][0] for layer in LAYERS}
    top = max(layer_self, key=layer_self.get)
    text = [
        f"untraced pass {untraced.wall_s:.3f} s, traced pass {traced.wall_s:.3f} s, "
        f"{merged['spans']} spans",
        f"dominant layer: {top} ({layer_self[top]:.3f} s self, "
        f"{layer_self[top] / traced.wall_s:.1%} of the traced pass)",
    ]
    for metric, trace in traced.traces:
        wall = traced.times[metric]
        by_layer: dict = {}
        for name, entry in trace["functions"].items():
            layer = name.split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + entry["self_s"]
        layer = max(by_layer, key=by_layer.get)
        top = sorted(
            ((e["self_s"], n) for n, e in trace["functions"].items()
             if n.startswith(layer + ".")),
            reverse=True,
        )[:2]
        text.append(
            f"{metric} {wall:.3f} s: {layer} {by_layer[layer] / wall:.1%} self ("
            + ", ".join(f"{n} {t / wall:.1%}" for t, n in top) + ")"
        )
    ranked = sorted(merged["functions"].items(), key=lambda kv: -kv[1]["self_s"])
    text += [
        f"  {name:<48} {entry['calls']:>9d} calls {entry['self_s']:10.4f} s self"
        for name, entry in ranked[:12]
    ]
    text += _lines(metrics)
    return metrics, attempted, failed, text


def _lines(metrics: dict) -> list[str]:
    return [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]


def environment_stamp() -> str:
    import mpmath
    import mpmath.libmp

    return (
        f"nproc={os.cpu_count()} python={platform.python_implementation()}-"
        f"{platform.python_version()} numpy={np.__version__} "
        f"mpmath={mpmath.__version__} mpmath_backend={mpmath.libmp.BACKEND}"
    )


def _result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


# ---------------------------------------------------------------------------
# entry points


def smoke(workdir: Path, expected) -> int:
    """Every workload at tiny sizes: one untraced and one traced pass each."""
    attempted = failed = 0
    metrics = {}
    for name in WORKLOADS:
        calls = workload_calls(name, 0, smoke=True)
        for found, n_attempted, n_failed, text in (
            end_to_end(calls, expected, 0, 0, workdir),
            traced_run(calls, expected, 0, workdir),
        ):
            attempted += n_attempted
            failed += n_failed
            metrics.update({f"{name}/{k}": v for k, v in found.items()})
            print("\n".join(f"{name} {line}" for line in text))
    print(_result_line(failed == 0, attempted, failed, metrics))
    return 0 if failed == 0 else 1


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds: the running child is killed and reaped


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "coblab" / "cli.py").is_file():
        print(f"error: no coblab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        expected = load_expected()
        print(f"env {environment_stamp()}")
        if args.smoke:
            return smoke(workdir, expected)
        if args.workload is None:
            parser.error("--workload is required")
        calls = workload_calls(args.workload, args.seed, smoke=False)
        if args.trace:
            metrics, attempted, failed, text = traced_run(calls, expected, args.seed, workdir)
        else:
            metrics, attempted, failed, text = end_to_end(
                calls, expected, args.seed, args.seconds, workdir)
        print("\n".join(f"{args.workload} {line}" for line in text))
        print(_result_line(failed == 0, attempted, failed, metrics))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
