"""Tests for the experiment driver: configs, reports, and exit codes.

These exercise the public entry points (ExperimentConfig, run, main) the way
a shell user would, with small search bounds so the whole file stays fast.
Determinism checks compare raw report bytes; error-path checks parse the
machine-readable JSON written to stderr.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coblab
from coblab.cli import (
    _ACTIONS,
    ExperimentConfig,
    build_parser,
    config_from_namespace,
    main,
    run,
)
from coblab.errors import ConfigError

SCHEMA = "coblab-report-v1"


def run_report(**kwargs):
    """Run one config against an in-memory stream."""
    stream = io.StringIO()
    code = run(ExperimentConfig(**kwargs), stream=stream)
    return code, stream.getvalue()


def run_fresh(script):
    """Run a Python script in a fresh interpreter that imports this coblab."""
    src = os.path.dirname(os.path.dirname(coblab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)


def data_rows(report):
    return [line for line in report.splitlines() if not line.startswith("#")]


class TestExperimentConfig:
    def test_defaults_are_valid(self):
        config = ExperimentConfig("selftest")
        assert config.format == "text"
        assert config.threads == 1
        assert config.action is None

    def test_rational_fields_normalize_to_canonical_fractions(self):
        config = ExperimentConfig("selftest", delta="0.6", gamma="4/2", p="2.5")
        assert config.delta == "3/5"
        assert config.gamma == "2"
        assert config.p == "5/2"

    def test_json_round_trip_is_exact(self):
        config = ExperimentConfig(
            "check", action="mur", delta="0.6", Q=123, seed=7
        )
        clone = ExperimentConfig.from_json_dict(config.to_json_dict())
        assert clone == config

    def test_round_trip_through_json_text(self):
        config = ExperimentConfig("approx", action="cf", depth=9)
        payload = json.loads(json.dumps(config.to_json_dict()))
        assert ExperimentConfig.from_json_dict(payload) == config

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            ExperimentConfig.from_json_dict(
                {"subcommand": "selftest", "mystery": 1}
            )

    def test_missing_subcommand_rejected(self):
        with pytest.raises(ConfigError, match="needs a subcommand"):
            ExperimentConfig.from_json_dict({"Q": 10})

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(ConfigError, match="unknown subcommand"):
            ExperimentConfig("dance")

    def test_action_required_where_defined(self):
        with pytest.raises(ConfigError, match="needs an action"):
            ExperimentConfig("approx")
        with pytest.raises(ConfigError, match="needs an action"):
            ExperimentConfig("check", action="cf")

    def test_action_forbidden_elsewhere(self):
        with pytest.raises(ConfigError, match="takes no action"):
            ExperimentConfig("spectral", action="dirichlet")

    def test_format_validated(self):
        with pytest.raises(ConfigError, match="format"):
            ExperimentConfig("selftest", format="xml")

    @pytest.mark.parametrize("field", ["Q", "K", "N", "depth"])
    def test_positive_integer_knobs(self, field):
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig("selftest", **{field: 0})

    def test_seed_and_threads_bounds(self):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig("selftest", seed=-1)
        with pytest.raises(ConfigError, match="threads"):
            ExperimentConfig("selftest", threads=0)

    @pytest.mark.parametrize(
        "field,bad",
        [
            ("tol", "2"),
            ("tol", "0"),
            ("delta", "1"),
            ("gamma", "-1"),
            ("p", "1/2"),
            ("ratio", "1"),
            ("budget", "0"),
        ],
    )
    def test_range_checks_on_rational_knobs(self, field, bad):
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig("selftest", **{field: bad})

    def test_non_rational_knob_rejected(self):
        with pytest.raises(ConfigError, match="not a rational"):
            ExperimentConfig("selftest", tol="tiny")

    def test_rational_accessor(self):
        from fractions import Fraction

        config = ExperimentConfig("selftest", delta="0.6")
        assert config.rational("delta") == Fraction(3, 5)
        with pytest.raises(ConfigError):
            config.rational("Q")


class TestSubcommands:
    """Each pipeline runs end to end on small bounds and exits 0."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(subcommand="approx", action="dirichlet", Q=300),
            dict(subcommand="approx", action="bad-pair", Q=300),
            dict(subcommand="approx", action="squares", N=400),
            dict(subcommand="approx", action="cf", depth=8),
            dict(subcommand="construct", K=4, Q=300),
            dict(subcommand="spectral", K=4, Q=300),
            dict(subcommand="rates", K=4, Q=300, N=16),
            dict(subcommand="rates", doubling_tripling=True, N=16),
            dict(subcommand="shift", K=10, N=4),
            dict(subcommand="shift", p="1", K=10, N=4),
            dict(subcommand="selftest", K=6, Q=300),
        ],
    )
    def test_text_report_succeeds(self, kwargs):
        code, report = run_report(**kwargs)
        assert code == 0
        assert report.startswith(f"# {SCHEMA}")

    @pytest.mark.parametrize(
        "action",
        ["bad-joint", "mur", "double-bad", "kac-salem", "large-coeff",
         "petersen"],
    )
    def test_every_checker_runs(self, action):
        code, report = run_report(
            subcommand="check", action=action, K=4, Q=300, depth=12
        )
        assert code == 0
        assert report

    def test_construct_text_reports_pass_verdict(self):
        code, report = run_report(subcommand="construct", K=4, Q=300)
        assert code == 0
        assert "overall verdict: PASS" in report

    def test_selftest_lists_every_check_ok(self):
        code, report = run_report(subcommand="selftest", K=6, Q=300)
        assert code == 0
        body = data_rows(report)
        assert any(line.endswith("checks passed") for line in body)
        assert not any(line.startswith("FAIL") for line in body)


class TestReportFormat:
    def test_header_lines_carry_schema_version_and_config(self):
        code, report = run_report(
            subcommand="approx", action="cf", depth=8, format="csv"
        )
        assert code == 0
        lines = report.splitlines()
        assert lines[0] == f"# {SCHEMA}"
        assert lines[1].startswith("# version: ")
        assert lines[2].startswith("# precision: ")
        assert lines[3] == "# seed: 0"
        embedded = json.loads(lines[4][len("# config: "):])
        config = ExperimentConfig.from_json_dict(embedded)
        assert config.action == "cf"
        assert config.depth == 8

    def test_json_envelope_structure(self):
        code, report = run_report(
            subcommand="spectral", K=4, Q=300, format="json"
        )
        assert code == 0
        envelope = json.loads(report)
        assert envelope["schema"] == SCHEMA
        assert set(envelope) == {
            "schema", "version", "precision", "seed", "config", "result"
        }
        restored = ExperimentConfig.from_json_dict(envelope["config"])
        assert restored.subcommand == "spectral"
        assert "joint_sum" in envelope["result"]

    def test_doubling_tripling_rows_are_exact_ones(self):
        code, report = run_report(
            subcommand="rates", doubling_tripling=True, N=16, format="csv"
        )
        assert code == 0
        rows = data_rows(report)
        assert rows[0] == "n,value_lo,value_hi"
        assert rows[1:] == [f"{n},1,1" for n in range(1, 17)]

    def test_csv_refused_where_no_series_exists(self):
        code, report = run_report(
            subcommand="selftest", K=6, Q=300, format="csv"
        )
        assert code == 2
        assert report == ""

    def test_dirichlet_csv_has_denominator_column(self):
        code, report = run_report(
            subcommand="approx", action="dirichlet", Q=300, format="csv"
        )
        assert code == 0
        rows = data_rows(report)
        assert rows[0].split(",")[0] == "q"
        assert rows[1].split(",")[0] == "1"


class TestDeterminism:
    def test_identical_configs_render_identical_json(self):
        first = run_report(subcommand="spectral", K=4, Q=300, format="json")
        second = run_report(subcommand="spectral", K=4, Q=300, format="json")
        assert first == second

    def test_identical_configs_render_identical_text(self):
        first = run_report(subcommand="selftest", K=6, Q=300)
        second = run_report(subcommand="selftest", K=6, Q=300)
        assert first == second

    def test_thread_count_does_not_change_data_rows(self):
        _, serial = run_report(
            subcommand="rates", doubling_tripling=True, N=32, format="csv",
            threads=1,
        )
        _, threaded = run_report(
            subcommand="rates", doubling_tripling=True, N=32, format="csv",
            threads=4,
        )
        assert data_rows(serial) == data_rows(threaded)


class TestExitCodes:
    def test_malformed_rotation_number_is_a_config_error(self, capsys):
        code, report = run_report(
            subcommand="approx", action="cf", alpha="(1+2*sqrt(4))/3"
        )
        assert code == 2
        assert report == ""
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "config"
        assert err["error"]["type"] == "ConfigError"

    def test_search_shortfall_exits_three(self, capsys):
        code, report = run_report(subcommand="construct", K=10, Q=5)
        assert code == 3
        assert report == ""
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "shortfall"

    def test_failed_guarantee_exits_four(self, capsys, monkeypatch):
        from coblab import spectral

        monkeypatch.setattr(
            spectral, "doubling_tripling_variance", lambda n: 0
        )
        code, report = run_report(subcommand="selftest", K=6, Q=300)
        assert code == 4
        assert report == ""
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "certification"
        assert "doubling/tripling" in err["error"]["message"]

    def test_unwritable_output_path_is_a_config_error(self, capsys):
        code, _ = run_report(
            subcommand="approx", action="cf", depth=8,
            out="/nonexistent-directory/report.txt",
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "config"

    def test_out_writes_the_report_to_disk(self, tmp_path):
        target = tmp_path / "report.csv"
        stream = io.StringIO()
        config = ExperimentConfig(
            "approx", action="cf", depth=8, format="csv", out=str(target)
        )
        assert run(config, stream=stream) == 0
        assert stream.getvalue() == ""
        written = target.read_text()
        assert written.startswith(f"# {SCHEMA}")
        assert "k,a_k,p_k,q_k" in written


class TestMain:
    def test_parser_covers_every_subcommand(self):
        parser = build_parser()
        ns = parser.parse_args(
            ["approx", "cf", "--depth", "8", "--format", "json"]
        )
        config = config_from_namespace(ns)
        assert config.subcommand == "approx"
        assert config.action == "cf"
        assert config.depth == 8

    @pytest.mark.parametrize("command", [
        (sub, act) for sub, acts in _ACTIONS.items() for act in acts or (None,)
    ])
    def test_parser_defaults_are_the_config_defaults(self, command):
        sub, act = command
        ns = build_parser().parse_args([sub] + ([act] if act else []))
        assert config_from_namespace(ns) == ExperimentConfig(sub, act)

    def test_main_refuses_a_tol_below_the_cap_floor(self, capsys):
        argv = ["approx", "dirichlet", "--Q", "100", "--tol", f"1/{10**3000}"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        error = json.loads(line)["error"]
        assert error["kind"] == "config"
        assert "8192-bit" in error["message"]

    def test_main_runs_a_fine_tol_above_the_cap_floor(self, capsys):
        argv = ["approx", "dirichlet", "--Q", "100", "--tol", f"1/{10**40}",
                "--format", "json"]
        assert main(argv) == 0
        records = json.loads(capsys.readouterr().out)["result"]["records"]
        assert records

    def test_main_runs_and_prints_a_report(self, capsys):
        assert main(
            ["rates", "--doubling-tripling", "--N", "8", "--format", "csv"]
        ) == 0
        out = capsys.readouterr().out
        assert data_rows(out)[1:] == [f"{n},1,1" for n in range(1, 9)]

    def test_main_rejects_bad_flag_values(self, capsys):
        assert main(["selftest", "--tol", "2"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "config"

    def test_main_rejects_zero_surd_denominator(self, capsys):
        assert main(["approx", "cf", "--alpha", "(1+sqrt(2))/0"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "config"
        assert err["error"]["type"] == "ConfigError"
        assert "zero denominator" in err["error"]["message"]

    def test_main_scans_dirichlet_to_1e10(self, capsys):
        assert main(
            ["approx", "dirichlet", "--Q", "10000000000", "--format", "json"]
        ) == 0
        records = json.loads(capsys.readouterr().out)["result"]["records"]
        qs = [r["q"] for r in records]
        assert qs[:5] == [1, 2, 3, 4, 5]
        assert qs == sorted(qs) and qs[-1] <= 10**10

    @pytest.mark.parametrize("action", ["dirichlet", "bad-pair"])
    def test_main_rejects_q_past_the_fixed_point_range(self, capsys, action):
        assert main(["approx", action, "--Q", str(2**112 + 1)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "config"
        assert err["error"]["type"] == "ConfigError"
        assert "fixed-point range" in err["error"]["message"]

    @pytest.mark.parametrize("action", ["dirichlet", "bad-pair"])
    def test_main_rejects_q_past_the_running_time_cap(self, capsys, action):
        assert main(["approx", action, "--Q", str(10**13 + 1)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "config"
        assert err["error"]["type"] == "ConfigError"
        assert "running-time cap" in err["error"]["message"]

    def test_main_never_imports_numpy(self):
        # numpy is a test dependency only; a fresh interpreter shows whether
        # the CLI path pulls it in
        done = run_fresh(
            "import sys\n"
            "from coblab.cli import main\n"
            "assert main(['approx', 'squares', '--N', '1000']) == 0\n"
            "try:\n"
            "    main(['--help'])\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0\n"
            "sys.exit('numpy' in sys.modules)\n"
        )
        assert done.returncode == 0, done.stderr

    # Every subcommand, then a Fourier build outside the CLI; run with a
    # redirected stdout, so the reports stay out of the pipe. Neither mpmath
    # (a test extra) nor dataclasses (its start-up cost) is ever loaded, and
    # --help loads no json or fractions either.
    NO_MPMATH_SCRIPT = (
        "import contextlib, io, sys\n"
        "from coblab.cli import main\n"
        "def absent(*names):\n"
        "    return not any(name in sys.modules for name in names)\n"
        "try:\n"
        "    main(['--help'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0\n"
        "assert absent('mpmath', 'dataclasses', 'json', 'fractions'), '--help'\n"
        "for argv in (['approx', 'dirichlet', '--Q', '1000'],\n"
        "             ['approx', 'squares', '--N', '1000'],\n"
        "             ['shift', '--p', '1', '--K', '100'],\n"
        "             ['rates', '--doubling-tripling', '--N', '8'],\n"
        "             ['construct', '--K', '4', '--Q', '10000'],\n"
        "             ['check', 'double-bad', '--K', '3'],\n"
        "             ['spectral', '--Q', '10000'],\n"
        "             ['rates', '--N', '16', '--Q', '10000'],\n"
        "             ['selftest']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "    assert absent('mpmath', 'dataclasses'), argv\n"
        "from coblab import fourier\n"
        "from coblab.surd import parse_surd\n"
        "base = fourier.random_real_series(0, 10)\n"
        "alpha = parse_surd('(-1+1*sqrt(2))/1')\n"
        "fourier.apply_difference(base, alpha).to_json()\n"
        "assert absent('mpmath', 'dataclasses'), 'apply_difference'\n"
    )

    def test_scans_and_shift_never_import_mpmath(self):
        # no subcommand and no series build imports mpmath, a test extra
        done = run_fresh(self.NO_MPMATH_SCRIPT)
        assert done.returncode == 0, done.stderr

    def test_cli_runs_with_mpmath_import_blocked(self):
        # a finder that refuses mpmath, so a lazy import cannot hide either
        blocker = (
            "import sys\n"
            "class Refuse:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'mpmath':\n"
            "            raise ImportError('mpmath is blocked')\n"
            "sys.meta_path.insert(0, Refuse())\n"
        )
        done = run_fresh(blocker + self.NO_MPMATH_SCRIPT)
        assert done.returncode == 0, done.stderr
        probe = run_fresh(blocker + "import mpmath\n")
        assert "mpmath is blocked" in probe.stderr

    def test_importing_the_cli_registers_every_layer(self):
        # an external tracer patches these modules right after importing
        # coblab.cli, so each must already be in sys.modules
        layers = ("certify", "surd", "diophantine", "fourier", "spectral",
                  "shift_example", "constructions", "cli")
        done = run_fresh(
            "import sys\n"
            "import coblab.cli\n"
            f"missing = [m for m in {layers!r}\n"
            "           if 'coblab.' + m not in sys.modules]\n"
            "assert not missing, missing\n"
        )
        assert done.returncode == 0, done.stderr

    def test_main_rejects_unknown_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["juggle"])
        assert excinfo.value.code == 2

    def test_main_and_run_agree_byte_for_byte(self, capsys):
        argv = ["approx", "cf", "--depth", "8", "--format", "json"]
        assert main(argv) == 0
        from_main = capsys.readouterr().out
        _, from_run = run_report(
            subcommand="approx", action="cf", depth=8, format="json"
        )
        assert from_main == from_run


def test_every_public_name_imports_from_the_package():
    listed = dir(coblab)
    for name in coblab.__all__:
        namespace = {}
        exec(f"from coblab import {name}", namespace)
        assert namespace[name] is getattr(coblab, name), name
        assert name in listed, name


# every (subcommand, action) pair, rotation numbers with two invalid ones, and
# rational knobs on both sides of their ranges; Q, K and N stay small so each
# run is quick (shift needs K >= 8, so K reaches 10)
COMMANDS = [(sub, act) for sub, acts in _ACTIONS.items() for act in acts or (None,)]
ROTATIONS = ["(-1+1*sqrt(2))/1", "(-1+1*sqrt(3))/1", "(-2+1*sqrt(5))/1",
             "(1+sqrt(5))/2", "(3-2*sqrt(2))/5", "sqrt(4)", "x"]


@settings(max_examples=40, deadline=None)
@given(
    command=st.sampled_from(COMMANDS),
    alpha=st.sampled_from(ROTATIONS),
    beta=st.sampled_from(ROTATIONS),
    Q=st.integers(1, 10**4),
    K=st.integers(1, 10),
    N=st.integers(1, 64),
    depth=st.integers(1, 40),
    delta=st.sampled_from(["1/10", "1/2", "3/5", "7/10"]),
    gamma=st.sampled_from(["1", "3/2", "2"]),
    p=st.sampled_from(["1", "4/3", "3/2", "2"]),
    ratio=st.sampled_from(["3/2", "2", "4"]),
    budget=st.sampled_from(["1/2", "2", "8"]),
    tol=st.sampled_from(["1/1000", "1/1000000000000", f"1/{10**40}"]),
    fmt=st.sampled_from(["csv", "json", "text"]),
    seed=st.integers(0, 3),
    doubling_tripling=st.booleans(),
)
def test_every_config_runs_or_exits_with_a_json_error(command, fmt, **fields):
    config = ExperimentConfig(*command, format=fmt, **fields)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(config, stream=io.StringIO())
    assert code in (0, 2, 3)
    if code:
        (line,) = err.getvalue().splitlines()
        error = json.loads(line)["error"]
        assert error["kind"] and error["message"]
