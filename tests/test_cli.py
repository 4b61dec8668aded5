"""Tests for the experiment driver: configs, reports, and exit codes.

These exercise the public entry points (ExperimentConfig, run, main) the way
a shell user would, with small search bounds so the whole file stays fast.
Determinism checks compare raw report bytes; error-path checks parse the
machine-readable JSON written to stderr.
"""

import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import pickle
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coblab
from coblab import cli, constructions
from coblab.cli import (
    _COMMANDS,
    _KINDS,
    _OUTPUT,
    ExperimentConfig,
    build_parser,
    config_from_namespace,
    main,
    run,
)
from coblab.errors import ConfigError

SCHEMA = "coblab-report-v1"

# every (subcommand, action) pair of the command table
COMMANDS = [(sub, act) for sub, command in _COMMANDS.items()
            for act in command.actions or (None,)]


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
        "payload",
        [
            {"subcommand": "approx", "action": "cf", "depth": "8"},
            {"subcommand": "approx", "action": "dirichlet", "Q": 1.5},
            {"subcommand": "approx", "action": "cf", "depth": True},
            {"subcommand": "selftest", "seed": "0"},
            {"subcommand": "selftest", "threads": "1"},
        ],
        ids=["depth-str", "Q-float", "depth-bool", "seed-str", "threads-str"],
    )
    def test_integer_fields_refuse_other_types(self, payload):
        # a config read from JSON is a ConfigError (exit 2), not a traceback
        # in run or a report that prints the wrong type
        with pytest.raises(ConfigError, match="must be an integer"):
            ExperimentConfig.from_json_dict(payload)

    @pytest.mark.parametrize(
        "field,bad",
        [
            ("tol", "2"),
            ("tol", "0"),
            ("delta", "1"),
            ("gamma", "-1"),
            ("gamma", "1001"),
            ("p", "1/2"),
            ("p", "1001"),
            ("ratio", "1"),
            ("budget", "0"),
        ],
    )
    def test_range_checks_on_rational_knobs(self, field, bad):
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig("selftest", **{field: bad})

    def test_first_bad_field_in_table_order_is_reported(self):
        with pytest.raises(ConfigError, match="^--Q "):
            ExperimentConfig("selftest", format="xml", tol="2", Q=0)

    def test_rational_too_long_to_print_is_a_config_error(self):
        # str of a fraction of over 4300 digits raises ValueError
        with pytest.raises(ConfigError, match="not a rational"):
            ExperimentConfig("selftest", tol="1e-5000")

    # Fraction built 10**e for these before str refused the result: each took
    # 13-14 s to exit 2 with the same error line
    @pytest.mark.parametrize("argv", [
        ["approx", "dirichlet", "--tol", "1e-10000000"],
        ["shift", "--p", "1e-10000000"],
    ])
    def test_huge_decimal_exponents_are_refused_unbuilt(self, argv, capsys):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": {"kind": "config", "type": "ConfigError",
                      "message": f"{argv[-2]}: not a rational: '1e-10000000'"},
            "schema": SCHEMA, "version": coblab.__version__,
        }

    # Fraction built 10**|e| for a zero mantissa too, in 0.2-0.35 s at
    # |e| = 10**6, before the range check refused the 0; at an exponent of
    # 4300 digits it could not finish. Past 4300 digits Fraction refuses it.
    @pytest.mark.parametrize("name, text, message", [
        ("tol", "0e-1000000", "--tol must lie strictly between 0 and 1"),
        ("tol", "0.000e-1000000", "--tol must lie strictly between 0 and 1"),
        ("tol", "-0e+1000000", "--tol must lie strictly between 0 and 1"),
        ("p", "0e-1000000", "--p must be at least 1"),
        ("tol", "0e-" + "9" * 4300, "--tol must lie strictly between 0 and 1"),
        ("tol", "0e-" + "9" * 4301, "--tol: not a rational: '0e-" + "9" * 4301 + "'"),
    ], ids=["tol", "point", "signed", "p", "4300-digits", "4301-digits"])
    def test_zero_mantissas_are_parsed_without_their_exponent(
        self, name, text, message
    ):
        start = time.perf_counter()
        with pytest.raises(ConfigError) as info:
            ExperimentConfig("selftest", **{name: text})
        assert time.perf_counter() - start < 0.05
        assert str(info.value) == message

    # exponents on both sides of where the refusal before Fraction starts,
    # about 4300 + len(text), and past Fraction's 4300 digits, for zero and
    # nonzero mantissas: it refuses exactly what str(Fraction) refuses
    @settings(max_examples=120, deadline=None)
    @given(mantissa=st.sampled_from(["0", "0.00", "-0", "+0.", ".0", "0_0",
                                     "0/7", "1", "2.5", "0.001", "7.", ".5",
                                     "12_5.0_1", "x1"]),
           sign=st.sampled_from(["", "-", "+"]),
           e=st.one_of(st.integers(4250, 4350).map(str),
                       st.sampled_from(["1" * 4301, "1_" + "0" * 4300])),
           mark=st.sampled_from("eE"))
    def test_exponent_refusal_agrees_with_fraction_and_str(
        self, mantissa, sign, e, mark
    ):
        text = f"{mantissa}{mark}{sign}{e}"
        try:
            str(Fraction(text))
            refused = False
        except ValueError:
            refused = True
        try:
            ExperimentConfig("selftest", tol=text)
        except ConfigError as exc:
            assert ("not a rational" in str(exc)) == refused, text
        else:
            assert not refused, text

    def test_copy_deepcopy_and_pickle_give_an_equal_config(self):
        config = ExperimentConfig("rates", doubling_tripling=True, K=5,
                                  tol="0.001", out="rates.txt")
        for clone in (copy.copy(config), copy.deepcopy(config),
                      pickle.loads(pickle.dumps(config))):
            assert clone == config
            assert type(clone) is ExperimentConfig
        # each goes through __new__, so the checks run again
        with pytest.raises(ConfigError, match="^--K "):
            copy.copy(config._replace(K=0))

    def test_exponent_knobs_accept_their_bound(self):
        config = ExperimentConfig("selftest", gamma="1000", p="1000")
        assert (config.gamma, config.p) == ("1000", "1000")

    def test_non_rational_knob_rejected(self):
        with pytest.raises(ConfigError, match="not a rational"):
            ExperimentConfig("selftest", tol="tiny")

    # values of the wrong type for a str field, the report path and the
    # doubling-tripling flag; each ended in a traceback in run, or ran the
    # doubling-tripling table, before the str and flag rows had checks
    WRONG_TYPES = [
        {"subcommand": "approx", "action": "cf", "alpha": 5},
        {"subcommand": "approx", "action": "cf", "beta": None},
        {"subcommand": "approx", "action": "cf", "out": ["x"]},
        {"subcommand": "rates", "doubling_tripling": "no"},
    ]

    @pytest.mark.parametrize("payload", WRONG_TYPES,
                             ids=["alpha-int", "beta-null", "out-list", "flag-str"])
    def test_str_and_flag_fields_refuse_other_types(self, payload, monkeypatch,
                                                    capsys):
        with pytest.raises(ConfigError, match="must be"):
            ExperimentConfig.from_json_dict(payload)
        # main turns the refusal into exit 2 and the JSON error line
        parser = build_parser()
        monkeypatch.setattr(parser, "parse_args",
                            lambda argv: argparse.Namespace(**payload))
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        assert main([]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert json.loads(line)["error"]["type"] == "ConfigError"

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

    def test_large_coeff_walk_stops_at_the_largest_support_frequency(
        self, capsys
    ):
        # past the convergent digit bound of `approx cf`, the witness is the
        # one every depth from 46 on gives: only the config line differs
        reports = []
        for depth in ("46", "20000"):
            assert main(["check", "large-coeff", "--depth", depth]) == 0
            out, err = capsys.readouterr()
            assert err == ""
            reports.append(out.splitlines())
        shallow, deep = reports
        assert len(shallow) == len(deep)
        differing = [(a, b) for a, b in zip(shallow, deep) if a != b]
        ((old, new),) = differing
        assert old.startswith("# config: ") and '"depth": 46' in old
        assert new == old.replace('"depth": 46', '"depth": 20000')
        assert any("n*||n*beta||" in line for line in shallow)

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["approx", "cf", "--depth", "50000"],
            ["approx", "cf", "--alpha", f"(0+{10**2500}*sqrt(2))/1"],
            ["approx", "dirichlet", "--alpha", f"(1+sqrt(2))/{10**3000}"],
            ["approx", "dirichlet", "--beta", "(-1+sqrt(999999999989))/1"],
            ["shift", "--p", "100000", "--K", "8"],
            ["check", "double-bad", "--gamma", "100000"],
            # the running-time caps: shift's K and double-bad's frequencies
            # (the flagship series at K = 14 reaches frequency 134421)
            ["shift", "--p", "2", "--K", "100000000"],
            ["shift", "--p", "1", "--K", "1000001"],
            ["check", "double-bad", "--K", "14", "--Q", "1000000"],
        ],
    )
    def test_inputs_past_the_bounds_exit_two(self, argv, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["error"]["kind"] == "config"

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

    @pytest.mark.parametrize("command", COMMANDS)
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
        assert main(["approx", "dirichlet", "--tol", "2"]) == 2
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

    # Every (subcommand, action) pair at sizes that run in well under a
    # second, each given only the sizes it takes, plus the two flagged
    # variants, then a Fourier build outside the CLI; run with a redirected
    # stdout, so the reports stay out of the pipe.
    # Neither mpmath nor numpy (test extras) nor dataclasses (its start-up
    # cost) is ever loaded, and --help loads no json or fractions either, and
    # executes no library module: each stays a lazy module until a
    # subcommand first uses it.
    NO_MPMATH_SCRIPT = (
        "import contextlib, io, sys, types\n"
        "from coblab.cli import _COMMANDS, main\n"
        "def absent(*names):\n"
        "    return not any(name in sys.modules for name in names)\n"
        "try:\n"
        "    main(['--help'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0\n"
        "assert absent('mpmath', 'dataclasses', 'json', 'fractions'), '--help'\n"
        "executed = [name for name, module in sys.modules.items()\n"
        "            if name.startswith('coblab.')\n"
        "            and name not in ('coblab.cli', 'coblab.errors')\n"
        "            and type(module) is types.ModuleType]\n"
        "assert not executed, f'--help executes {executed}'\n"
        "small = {'Q': 10000, 'K': 8, 'N': 16, 'depth': 10}\n"
        "argvs = [[sub, *([action] if action else []),\n"
        "          *(f'--{k}={v}' for k, v in small.items()\n"
        "            if k in command.options)]\n"
        "         for sub, command in _COMMANDS.items()\n"
        "         for action in command.actions or (None,)]\n"
        "argvs += [['rates', '--doubling-tripling', '--N', '8'],\n"
        "          ['shift', '--p', '1', '--K', '100']]\n"
        "for argv in argvs:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "    assert absent('mpmath', 'dataclasses'), argv\n"
        "from coblab import fourier\n"
        "from coblab.surd import parse_surd\n"
        "base = fourier.random_real_series(0, 10)\n"
        "alpha = parse_surd('(-1+1*sqrt(2))/1')\n"
        "import json\n"
        "json.dumps(fourier.apply_difference(base, alpha).to_json_dict())\n"
        "assert absent('mpmath', 'dataclasses'), 'apply_difference'\n"
        "assert absent('numpy'), 'the CLI imports numpy'\n"
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


LAYERS = ("certify", "report", "constructions", "diophantine", "errors",
          "fourier", "shift_example", "spectral", "surd")


def test_every_layer_imports_from_the_package():
    for layer in LAYERS:
        namespace = {}
        exec(f"from coblab import {layer}", namespace)
        assert namespace[layer] is sys.modules[f"coblab.{layer}"], layer
    # importing the package registers the layers but executes none of them
    done = run_fresh(
        "import sys, types\n"
        "import coblab\n"
        f"layers = {LAYERS!r}\n"
        "executed = [m for m in layers\n"
        "            if type(sys.modules['coblab.' + m]) is types.ModuleType]\n"
        "assert not executed, executed\n"
    )
    assert done.returncode == 0, done.stderr


# every (subcommand, action) pair as a command line through main, given the
# options its subcommand takes: rotation numbers with two invalid ones, and
# rational knobs on both sides of their ranges (--gamma and --p also past the
# upper bound that the config refuses); Q, K and N stay small so each run is
# quick (shift needs K >= 8, so K reaches 10), and K also crosses shift's cap
# of 10**6, past which shift refuses it and the flagship searches fall short,
# both at once
ROTATIONS = ["(-1+1*sqrt(2))/1", "(-1+1*sqrt(3))/1", "(-2+1*sqrt(5))/1",
             "(1+sqrt(5))/2", "(3-2*sqrt(2))/5", "sqrt(4)", "x"]


@settings(max_examples=40, deadline=None)
@given(
    command=st.sampled_from(COMMANDS),
    alpha=st.sampled_from(ROTATIONS),
    beta=st.sampled_from(ROTATIONS),
    Q=st.integers(1, 10**4),
    K=st.one_of(st.integers(1, 10), st.integers(10**6 + 1, 10**9)),
    N=st.integers(1, 64),
    depth=st.integers(1, 40),
    delta=st.sampled_from(["1/10", "1/2", "3/5", "7/10"]),
    gamma=st.sampled_from(["1", "3/2", "2", "100000"]),
    p=st.sampled_from(["1", "4/3", "3/2", "2", "100000"]),
    ratio=st.sampled_from(["3/2", "2", "4"]),
    budget=st.sampled_from(["1/2", "2", "8"]),
    tol=st.sampled_from(["1/1000", "1/1000000000000", f"1/{10**40}"]),
    fmt=st.sampled_from(["csv", "json", "text"]),
    seed=st.integers(0, 3),
    doubling_tripling=st.booleans(),
)
def test_every_config_runs_or_exits_with_a_json_error(
    command, fmt, doubling_tripling, **fields
):
    subcommand, action = command
    options = _COMMANDS[subcommand].options
    argv = [subcommand, *([action] if action else []), f"--format={fmt}"]
    argv += [f"--{name}={value}" for name, value in fields.items()
             if name in options or name == "seed"]
    if doubling_tripling and "doubling_tripling" in options:
        argv.append("--doubling-tripling")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    if code:
        (line,) = err.getvalue().splitlines()
        error = json.loads(line)["error"]
        assert error["kind"] and error["message"]


# values of every JSON type for any config field but the subcommand and
# action, valid ones among them
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8),
    st.lists(st.integers(), max_size=2),
    st.sampled_from([1, 10, "3/5", "2", "0.5", "json", ROTATIONS[0]]),
)


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(COMMANDS),
       fields=st.fixed_dictionaries(
           {}, optional={name: JSON_VALUES for name in _KINDS}))
def test_every_json_config_is_refused_or_has_fields_of_their_kinds(command, fields):
    from fractions import Fraction

    subcommand, action = command
    try:
        config = ExperimentConfig.from_json_dict(
            {"subcommand": subcommand, "action": action, **fields}
        )
    except ConfigError:
        return
    for name, kind in _KINDS.items():
        value = getattr(config, name)
        if kind in ("count", "int"):
            assert type(value) is int and value >= (kind == "count"), name
        elif kind == "rational":
            assert type(value) is str and str(Fraction(value)) == value, name
        elif kind == "flag":
            assert type(value) is bool, name
        else:
            assert type(value) is str or name == "out" and value is None, name


# Golden reports: the sha256 of stdout for every (subcommand, action) pair in
# each format at its defaults, plus the two flagged variants. A refactor that
# claims byte-identical reports must leave this table as it is. check
# double-bad runs at --K 3, since at defaults it takes seconds.
NO_SERIES = (
    '{"error": {"kind": "config", "message": "no series output defined for '
    'this subcommand; use --format json or text", "type": "ConfigError"}, '
    '"schema": "coblab-report-v1", "version": "0.1.0"}\n'
)
GOLDEN = {
    "approx dirichlet --format csv":
        "b7e4d4adbaf507e065ba150cf3b368db0aabbb068064d6761d9ddcd3744062f4",
    "approx dirichlet --format json":
        "6d192f60236dd808116a7f3ff96b8517a2090411e0138a80694e6bbc02f73072",
    "approx dirichlet --format text":
        "7a5247e94d15d6a3c4ef9228745d358cd9ae53c0a4f93496e0eb46d4bded7edf",
    "approx bad-pair --format csv": NO_SERIES,
    "approx bad-pair --format json":
        "68ffce0b81ab9f04ed68f4299a0848a3875edb4af83e1e50c3bf8743a796cbc5",
    "approx bad-pair --format text":
        "cfc77bde300c03f7a8a6cbcbeec899560ea3b0ac36882799907f5bd8e24b340f",
    "approx squares --format csv":
        "aafe79fedd1d39c6c8970e71c2fb64cc5500f21a0dbf23f79813b887215502e2",
    "approx squares --format json":
        "a2eb9eba7d64de9b19c9d9c161e0ceab6c5f0ea499dae64f892f64975567eaf9",
    "approx squares --format text":
        "dd2baf393baf96e6116ac90f8fbec7f799134880457d0f610e64ba4c21380b61",
    "approx cf --format csv":
        "041f7b5d3e7323aa993881aec225ceabff3536e7b8fbce667cb9b86a60f40bcb",
    "approx cf --format json":
        "c17fe0e73bcca05bc81a6682e122cae9913b712aaf523e42bdf7c0f48558119b",
    "approx cf --format text":
        "4c73e628431cf28878c73f15b6277ffe5902ddfed334346ceece770a644925a5",
    "construct --format csv":
        "3ce453f68633ae7142cac9d50ddd22857157a9c9e94eae2a074bca04bb0ced7c",
    "construct --format json":
        "d1fd1f6b71497747966b4facc807d4fb8bbae3aec0723e03c573ae33526bc0c1",
    "construct --format text":
        "0ed6ee8f6f610b040c27df1b20653ec7f83ce1c9633005da690b951b6ff82938",
    "check bad-joint --format csv": NO_SERIES,
    "check bad-joint --format json":
        "331b62b6a7c10b8d55302cb39a235275d9e6411cd69f5d3a1dae71f518cf6a0c",
    "check bad-joint --format text":
        "9174f94665b995fd7df8604e434f215f8fa6af1420d6e41dadb0fea34261547b",
    "check mur --format csv": NO_SERIES,
    "check mur --format json":
        "1877d187f3a23cc5f17b83be0a203fcfe4ebfe34c7893ee146c10d475c1df8e6",
    "check mur --format text":
        "048d013fe924018b445438863c60732bbe87cff772157d6f474037ecc08845f8",
    "check double-bad --K 3 --format csv":
        "f085b2deba87df63828a9a189102a90fb0576a37b5866376119b212034280a55",
    "check double-bad --K 3 --format json":
        "d5bc8f71cd22fe99095a38b13900b5e946cd684153426d9b443ec0149e050bd5",
    "check double-bad --K 3 --format text":
        "6d85a61c579bf0647ffee86bc1c1028d5c0e765bed59368801d1248033015d5f",
    "check kac-salem --format csv": NO_SERIES,
    "check kac-salem --format json":
        "8509eb76dc382ae719c0162eeb4717c7d21290a364f85e67c43fbaa9571219e2",
    "check kac-salem --format text":
        "24bef6f712dd0c9ace41bb935b63e46c7ed4c795e9902d8bab75eaf771680d32",
    "check large-coeff --format csv":
        "d59d337b36f556180a6f764367250d1b0a1411b334b1d8f9aabff0bff786db55",
    "check large-coeff --format json":
        "fa542bf757f416f0adbaa92d27af2158b332ac5654acfefd35692a40685e0ea9",
    "check large-coeff --format text":
        "8712f9747188c64634cdb8dc4c14d50d543c13e81a2bd9df019c0f6b6713abb0",
    "check petersen --format csv": NO_SERIES,
    "check petersen --format json":
        "c9752f1f0b370f28f5f0fc3a0d1ded2c7fbe7c7f24d6b8638c871484bcb413f2",
    "check petersen --format text":
        "6ffe6acb32deae771169a3b5352d58dd4fcdc40c469b21a2b7492555a4797d32",
    "spectral --format csv":
        "3de3572e30eb75bcab6a5c5231f8bf4809c6cd7bc3582a79a649252b7dc4197c",
    "spectral --format json":
        "08a09d88573e8c21e2d086e60158b8f15e3ade0b4ec94b85ecb647fa1b89667d",
    "spectral --format text":
        "039b33ab78868f76e4e375b56db4636726675246b7e5b8ec903b500bedff42af",
    "rates --format csv":
        "5344cc30d3c8fe109b779ffca234f87c878b9a9f2639e183a626cbf72224ebfc",
    "rates --format json":
        "038c941212533111aeacc21dea44c88754db78297eb4829f64c721c67fe6b47d",
    "rates --format text":
        "da00e4beb08c0e21921de3fe5ada0f0b38e5af8e66da982eead043594aaebf85",
    "shift --format csv":
        "7b804a15b648d93ea580da621104f838b7a2e6f60575430df1607478fdd86b87",
    "shift --format json":
        "32e859e0bd07a7d8739c47b255211e7c7c5694e8d9866e5922673d6c9adf98d5",
    "shift --format text":
        "40014e4fac3eef39849347ba8a01f52c78f6f6e285d455cb66ebad2fb06e8f90",
    "shift --p 3/2 --format json":
        "2a4499ca43f4b0041968fd23c68341cddccb2bba69f03e514b72db350329e5c0",
    "selftest --format csv": NO_SERIES,
    "selftest --format json":
        "3da308dafcc96e4f00ee67c9af72f420d75889df50931c5044662f4e6e59895e",
    "selftest --format text":
        "7aa3a0f3e1dd22a711f1a60201d74bd9fa32d289cbafeeded56b67ac15d46d90",
    "rates --doubling-tripling --format csv":
        "12c91977b742576f864861828318e4bd17b251a64c86d468ea6062169857e6a4",
    "rates --doubling-tripling --format json":
        "72317308225e291ad51372aada8d7fef070bb1bd5a28d004c41a1840fa564fcd",
    "rates --doubling-tripling --format text":
        "0d6fd679ec260f872ce0de6c10004bc950f08c0bfcaa56226a566fb96c575feb",
    "shift --p 1 --format csv":
        "cb80206ec7ab65bc102d416cd884a68e2b82bd7f3638e847a60177b96f3b7131",
    "shift --p 1 --format json":
        "702164ab2320b051d8ca2a70563f63aac83a2cd8d714e798d48fc50d71fc308c",
    "shift --p 1 --format text":
        "aa4fac31ce8e1ab81c751f4d3e4eddd59636fd0dc0872032be010c4dca80325e",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_report_bytes_match_the_golden_digest(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv.split())
    if GOLDEN[argv] is NO_SERIES:
        assert (code, out.getvalue(), err.getvalue()) == (2, "", NO_SERIES)
    else:
        assert (code, err.getvalue()) == (0, "")
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDEN[argv]


def fields_read(argv):
    """The config fields that the handler of argv reads, format, out and
    seed aside, traced on a config subclass that records its attribute
    reads; the printed config is the tuple itself, not a read."""
    reads = set()

    class Traced(ExperimentConfig):
        __slots__ = ()

        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    config = config_from_namespace(build_parser().parse_args(argv.split()))
    with contextlib.redirect_stderr(io.StringIO()):
        run(Traced(**config.to_json_dict()), stream=io.StringIO())
    return reads & set(_KINDS) - set(_OUTPUT)


# Each golden config reads only options of its subcommand's row, and its
# golden configs together read all of them, so the parser offers no option
# that no handler reads, and no handler reads a field it is not offered.
@pytest.mark.parametrize("subcommand", list(_COMMANDS))
def test_golden_configs_read_exactly_the_options_of_their_row(subcommand):
    options = set(_COMMANDS[subcommand].options)
    reads = {argv: fields_read(argv) for argv in sorted(GOLDEN)
             if argv.split()[0] == subcommand}
    for argv, fields in reads.items():
        assert fields <= options, (argv, fields - options)
    assert set().union(*reads.values()) == options


# rates, spectral and every check action read the flagship series f alone, so
# they print their golden bytes while the transfer to g fails; construct and
# selftest build g and both certificates
SERIES_READERS = [argv for argv in sorted(GOLDEN)
                  if argv.split()[0] in ("check", "rates", "spectral")
                  and argv.endswith("--format json")
                  and "--doubling-tripling" not in argv]


class Refused(Exception):
    pass


@pytest.fixture
def no_transfer(monkeypatch):
    def refuse(*args, **kwargs):
        raise Refused

    monkeypatch.setattr(constructions, "transfer_coefficients", refuse)


@pytest.mark.parametrize("argv", SERIES_READERS)
def test_series_readers_build_neither_g_nor_certificates(argv, no_transfer):
    stream = io.StringIO()
    config = config_from_namespace(build_parser().parse_args(argv.split()))
    assert run(config, stream=stream) == 0
    assert hashlib.sha256(stream.getvalue().encode()).hexdigest() == GOLDEN[argv]


@pytest.mark.parametrize("subcommand", ["construct", "selftest"])
def test_construct_and_selftest_build_g(subcommand, no_transfer):
    with pytest.raises(Refused):
        run(ExperimentConfig(subcommand, format="json"), stream=io.StringIO())


# The sha256 of every --help page at an 80-column terminal. The parser is
# built from the option and command tables; these pin the text it prints.
HELP = {
    "--help":
        "19c70268b385b01fdd2db5c8f4bc724eda875417939b91683c60731d5df6e484",
    "approx --help":
        "dbfad5b04c12cd79696bc19104b83079389dfa11199aff385716ac7709739c28",
    "construct --help":
        "6b1916e33ef2cbceccc422379439ce3e280c0aa94803194b1104fa080ac2e0cc",
    "check --help":
        "faf02bbb7341dcea4ade8c1bcdd473f37765e467af38c1d3b0c292f872ed625f",
    "spectral --help":
        "e41546f666c7130d5a8897468bfd581236a6b200d7721321e04eab7c9f55aefe",
    "rates --help":
        "01d0bb495e6c5ba6c80780f87e3d9d8c1a33c48737871fac1010bb6c1a6e68e4",
    "shift --help":
        "928ba940edf356f7da6f0409af5b9e48db61ac25c0c6f0f6ae349d679ba6ca70",
    "selftest --help":
        "cb5177cac3baed402cf4603f49ec07c349c89f0c0999490b3220ab3d7856e97d",
}


@pytest.mark.parametrize("argv", sorted(HELP))
def test_help_bytes_match_the_pinned_digest(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        main(argv.split())
    assert excinfo.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == HELP[argv]


# The sha256 of the stderr of two refused command lines at an 80-column
# terminal: a value argparse cannot convert and an option no subcommand has.
# Each prints its parser's usage and then the JSON error line, and exits 2.
ARGPARSE_ERRORS = {
    "construct --K x":
        "1c6ab9dc5af38ad29779f6106ef33e615adab44a630b0014e50c0c64dc4c7049",
    "construct --bogus 1":
        "b4ebde61c1492316660c06b15219aa1f04e23867e46af1d7c6e1927d6823612d",
}


@pytest.mark.parametrize("argv", sorted(ARGPARSE_ERRORS))
def test_argparse_error_bytes_match_the_golden_digest(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        main(argv.split())
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    usage, line = err.rstrip("\n").rsplit("\n", 1)
    assert usage.startswith("usage: coblab")
    error = json.loads(line)["error"]
    assert (error["kind"], error["type"]) == ("config", "ConfigError")
    assert argv.split()[-2] in error["message"]
    assert hashlib.sha256(err.encode()).hexdigest() == ARGPARSE_ERRORS[argv]


# Each subcommand --help lists exactly the options of its row and _OUTPUT.
@pytest.mark.parametrize("subcommand", list(_COMMANDS))
def test_each_help_page_lists_the_options_of_its_row(subcommand, capsys):
    with pytest.raises(SystemExit):
        main([subcommand, "--help"])
    listed = re.findall(r"^  --([\w-]+)", capsys.readouterr().out, re.M)
    assert [name.replace("-", "_") for name in listed] == [
        name for name in _KINDS
        if name in _COMMANDS[subcommand].options or name in _OUTPUT]


# One option that its subcommand's row lacks, for each subcommand: argparse
# refuses it like any other bad command line, with the usage text and the
# JSON error line, and exit 2.
STRAY_OPTIONS = [
    "approx cf --threads 2",
    "approx dirichlet --gamma 3",
    "construct --gamma 3",
    "check mur --N 5",
    "check double-bad --tol 1/2",
    "spectral --depth 5",
    "rates --p 2",
    "shift --alpha (-1+1*sqrt(2))/1",
    "selftest --tol 1/2",
    "selftest --doubling-tripling",
]


@pytest.mark.parametrize("argv", STRAY_OPTIONS)
def test_an_option_outside_the_row_exits_two(argv, capsys):
    subcommand, stray = argv.split()[0], argv[argv.index(" --") + 1:]
    option = stray.split()[0][2:].replace("-", "_")
    assert option in _KINDS
    assert option not in _COMMANDS[subcommand].options + _OUTPUT
    with pytest.raises(SystemExit) as excinfo:
        main(argv.split())
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    usage, line = err.rstrip("\n").rsplit("\n", 1)
    assert usage.startswith("usage: coblab")
    assert json.loads(line) == {
        "error": {"kind": "config", "type": "ConfigError",
                  "message": f"coblab: unrecognized arguments: {stray}"},
        "schema": SCHEMA, "version": coblab.__version__,
    }


def test_golden_table_covers_every_action_and_format():
    for sub, action in COMMANDS:
        for fmt in ("csv", "json", "text"):
            base = [sub] + ([action] if action else [])
            if (sub, action) == ("check", "double-bad"):
                base += ["--K", "3"]
            assert " ".join(base + ["--format", fmt]) in GOLDEN
    assert len(GOLDEN) == 3 * len(COMMANDS) + 7
    assert len(SERIES_READERS) == 8
    assert set(HELP) == {"--help", *(f"{sub} --help" for sub in _COMMANDS)}
    assert {argv.split()[0] for argv in STRAY_OPTIONS} == set(_COMMANDS)
