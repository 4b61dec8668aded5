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
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coblab
from coblab import cli, commands, constructions
from coblab.cli import (
    _COMMANDS,
    _FORMATS,
    _KINDS,
    _OPTIONS,
    _OUTPUT,
    ExperimentConfig,
    build_parser,
    main,
    run,
)
from coblab.errors import ConfigError
from references import eager_parser

SCHEMA = "coblab-report-v1"

# every (subcommand, action) pair of the command table
COMMANDS = [(sub, act) for sub, command in _COMMANDS.items()
            for act in command.reads]


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
            "check", action="double-bad", delta="0.6", Q=123, seed=7
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
        config = ExperimentConfig("rates", K=5, tol="0.001", out="rates.txt")
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

    def test_doubling_tripling_must_be_false(self):
        # the field stays in every report until schema 2, but the table it
        # switched on is gone, and a report must not name a table it did not
        # print
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_json_dict(
                {"subcommand": "rates", "doubling_tripling": True})
        assert str(info.value) == (
            "--doubling_tripling must be false, got True: the doubling/tripling "
            "variance table was removed")
        assert ExperimentConfig("rates", doubling_tripling=False) == (
            ExperimentConfig("rates"))

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
            dict(subcommand="rates", K=4, Q=300, N=1),
            dict(subcommand="shift", K=10, N=4),
            dict(subcommand="shift", p="1", K=10, N=4),
            dict(subcommand="selftest", K=6, Q=300),
        ],
    )
    def test_text_report_succeeds(self, kwargs):
        code, report = run_report(**kwargs)
        assert code == 0
        assert report.startswith(f"# {SCHEMA}")

    @pytest.mark.parametrize("action", ["double-bad"])
    def test_every_checker_runs(self, action):
        code, report = run_report(subcommand="check", action=action, K=4, Q=300)
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
            subcommand="rates", K=4, Q=300, N=32, format="csv", threads=1
        )
        _, threaded = run_report(
            subcommand="rates", K=4, Q=300, N=32, format="csv", threads=4
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
        from coblab.certify import Enclosure

        # a criterion sum that holds no mass fails the change-of-variables check
        monkeypatch.setattr(
            spectral, "criterion_sum",
            lambda m, s, t: spectral.CriterionSum(Enclosure.point(-1), False, ()),
        )
        code, report = run_report(subcommand="selftest", K=6, Q=300)
        assert code == 4
        assert report == ""
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "certification"
        assert err["error"]["message"] == (
            "selftest failures: spectral change of variables recovers the "
            "solution mass")

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
        config = ExperimentConfig(**vars(ns))
        assert config.subcommand == "approx"
        assert config.action == "cf"
        assert config.depth == 8
        # an option of an approx action may precede it, and selftest, which
        # seeds its random series, takes --seed
        assert vars(parser.parse_args(["approx", "--Q", "5", "dirichlet"])) == {
            "subcommand": "approx", "Q": 5, "action": "dirichlet"}
        assert vars(parser.parse_args(["selftest", "--seed", "1"])) == {
            "subcommand": "selftest", "seed": 1}

    @pytest.mark.parametrize("command", COMMANDS,
                             ids=[" ".join(filter(None, c)) for c in COMMANDS])
    def test_parser_defaults_are_the_config_defaults(self, command):
        sub, act = command
        ns = build_parser().parse_args([sub] + ([act] if act else []))
        assert ExperimentConfig(**vars(ns)) == ExperimentConfig(sub, act)

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
            ["rates", "--N", "8", "--K", "4", "--Q", "300", "--format", "csv"]
        ) == 0
        rows = [row.split(",") for row in data_rows(capsys.readouterr().out)]
        assert rows[0] == ["n", "value_lo", "value_hi"]
        assert [int(n) for n, _, _ in rows[1:]] == [1, 2, 4, 8]
        assert all(lo == hi for _, lo, hi in rows[1:])

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
    # second, each given only the sizes its action reads, plus shift --p 1,
    # then a Fourier build outside the CLI; run with a redirected
    # stdout, so the reports stay out of the pipe.
    # Neither mpmath nor numpy (test extras) nor dataclasses (its start-up
    # cost) is ever loaded. The top-level and a subcommand --help load no
    # json or fractions either, a command line that argparse refuses no
    # fractions, and none of the three executes a module but cli and errors,
    # the handler module commands included: each stays a lazy module until a
    # run first uses it.
    NO_MPMATH_SCRIPT = (
        "import contextlib, io, sys, types\n"
        "from coblab.cli import _COMMANDS, main\n"
        "def absent(*names):\n"
        "    return not any(name in sys.modules for name in names)\n"
        "for argv, code in [(['--help'], 0), (['construct', '--help'], 0),\n"
        "                   (['construct', '--K', 'x'], 2)]:\n"
        "    try:\n"
        "        with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "                contextlib.redirect_stderr(io.StringIO()):\n"
        "            main(argv)\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == code, argv\n"
        "    else:\n"
        "        raise AssertionError(f'{argv} did not exit')\n"
        "    assert absent('mpmath', 'dataclasses', 'fractions'), argv\n"
        "    assert code or absent('json'), argv  # the error line is JSON\n"
        "    executed = [name for name, module in sys.modules.items()\n"
        "                if name.startswith('coblab.')\n"
        "                and name not in ('coblab.cli', 'coblab.errors')\n"
        "                and type(module) is types.ModuleType]\n"
        "    assert not executed, f'{argv} executes {executed}'\n"
        "small = {'Q': 10000, 'K': 8, 'N': 16, 'depth': 10}\n"
        "argvs = [[sub, *([action] if action else []),\n"
        "          *(f'--{k}={v}' for k, v in small.items() if k in reads)]\n"
        "         for sub, command in _COMMANDS.items()\n"
        "         for action, reads in command.reads.items()]\n"
        "argvs += [['shift', '--p', '1', '--K', '100']]\n"
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

    # python -m coblab.cli runs cli.py as __main__; a module that imported
    # coblab.cli would compile it a second time, with a second
    # ExperimentConfig class. runpy with alter_sys runs it the way -m does.
    @pytest.mark.parametrize("argv", [["--help"], ["shift", "--p", "1", "--K", "10"]])
    def test_python_m_never_imports_coblab_cli(self, argv):
        done = run_fresh(
            "import contextlib, io, runpy, sys\n"
            f"sys.argv = ['coblab', *{argv!r}]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            "        runpy.run_module('coblab.cli', run_name='__main__',\n"
            "                         alter_sys=True)\n"
            "    except SystemExit as exc:\n"
            "        assert exc.code == 0, exc.code\n"
            "assert 'coblab.cli' not in sys.modules\n"
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


LAYERS = ("certify", "report", "commands", "constructions", "diophantine",
          "errors", "fourier", "shift_example", "spectral", "surd")


# run finds the handler of a config's subcommand in commands.HANDLERS
def test_the_handler_module_serves_exactly_the_subcommands():
    assert list(commands.HANDLERS) == list(_COMMANDS)


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
# options its action reads: rotation numbers with two invalid ones, and
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
)
def test_every_config_runs_or_exits_with_a_json_error(command, fmt, **fields):
    subcommand, action = command
    reads = _COMMANDS[subcommand].reads[action]
    argv = [subcommand, *([action] if action else []), f"--format={fmt}"]
    argv += [f"--{name}={value}" for name, value in fields.items()
             if name in reads]
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
# each format at its defaults, plus shift at two more powers. A refactor that
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
    "check double-bad --K 3 --format csv":
        "f085b2deba87df63828a9a189102a90fb0576a37b5866376119b212034280a55",
    "check double-bad --K 3 --format json":
        "d5bc8f71cd22fe99095a38b13900b5e946cd684153426d9b443ec0149e050bd5",
    "check double-bad --K 3 --format text":
        "6d85a61c579bf0647ffee86bc1c1028d5c0e765bed59368801d1248033015d5f",
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
        "3e52bc4c14e215c04e24c0327a823afebb4f6d51de5d7b08d04482757a89188a",
    "selftest --format text":
        "176f4c6d7a13dacd7a0e3b986ff4a1b27ccec14ee53e4b0f9b4b019e2bdfea3c",
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
    """The config fields that the handler of argv reads, its rows included,
    traced on a config subclass that records its attribute reads. The report
    around them reads only the printed fields format, out and seed, so the
    handler runs alone."""
    reads = set()

    class Traced(ExperimentConfig):
        __slots__ = ()

        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    config = ExperimentConfig(**vars(build_parser().parse_args(argv.split())))
    body = commands.HANDLERS[config.subcommand](Traced(**config.to_json_dict()))
    list(body.rows)  # some rows are built only when the CSV is written
    return reads & set(_KINDS)


# Each golden config reads only options of its action's row, and the golden
# configs of each action together read all of them, so the parser offers no
# action an option that its handler does not read, and no handler reads a
# field it is not offered.
@pytest.mark.parametrize("subcommand", list(_COMMANDS))
def test_golden_configs_read_exactly_the_options_of_their_row(subcommand):
    for action, options in _COMMANDS[subcommand].reads.items():
        prefix = [subcommand, action] if action else [subcommand]
        reads = {argv: fields_read(argv) for argv in sorted(GOLDEN)
                 if argv.split()[:len(prefix)] == prefix}
        assert reads, (subcommand, action)
        for argv, fields in reads.items():
            assert fields <= set(options), (argv, fields - set(options))
        assert set().union(*reads.values()) == set(options), action


# rates, spectral and check double-bad read the flagship series f alone, so
# they print their golden bytes while the transfer to g fails; construct and
# selftest build g and both certificates
SERIES_READERS = [argv for argv in sorted(GOLDEN)
                  if argv.split()[0] in ("check", "rates", "spectral")
                  and argv.endswith("--format json")]


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
    config = ExperimentConfig(**vars(build_parser().parse_args(argv.split())))
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
        "5d9cecc3afb59829b0a3ca5e801184711bd1cf3b28a85c3bb8c3d355084b9698",
    "approx --help":
        "b96229fbd5878006ecc0640cb096b4c410346f34e0c873e2832cdbf8812268d8",
    "construct --help":
        "8b905a45f1930855172d0118abad7c944dcffba1a87d7d460271142e3e76a635",
    "check --help":
        "2f18dd9215b9b61d463db46557d49746ab7ebed286fbf7ad865aff10646110e8",
    "spectral --help":
        "40798bbf9615b65ef94ff031cbe9cb36a976eaf5292da0b2928e164428856780",
    "rates --help":
        "071d246e79664e83c2117c2d775562e6bddfe0af63ab77f661d27ce841d021e6",
    "shift --help":
        "bea3ef03497c8cb9b6cd25ff4a91bcd71f1ce09f18605ca23ea9c0f736499cd6",
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
# Each prints its subcommand's usage and then the JSON error line, and exits 2.
ARGPARSE_ERRORS = {
    "construct --K x":
        "2b7b3ed24399bb77c2c6b97315008eac8d7879f1fadbeed442018aa180c8fe9e",
    "construct --bogus 1":
        "b865fb06b270a90163be5b55b730a239a050f4f8582d0f44a9674c1dd4760cf4",
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


def offered(subcommand):
    """The options that the parser of subcommand takes, those of _OUTPUT
    aside: the options of all its actions."""
    return {name for reads in _COMMANDS[subcommand].reads.values()
            for name in reads}


# Each subcommand --help lists exactly the options of its actions and _OUTPUT.
@pytest.mark.parametrize("subcommand", list(_COMMANDS))
def test_each_help_page_lists_the_options_of_its_row(subcommand, capsys):
    with pytest.raises(SystemExit):
        main([subcommand, "--help"])
    listed = re.findall(r"^  --([\w-]+)", capsys.readouterr().out, re.M)
    assert [name.replace("-", "_") for name in listed] == [
        name for name in _KINDS if name in offered(subcommand) or name in _OUTPUT]


# One option that its action's row lacks, for each subcommand: its
# subparser refuses it like any other bad command line, with its usage text
# and the JSON error line, and exit 2. An option of another action of the
# same subcommand is refused as one that the action does not read.
STRAY_OPTIONS = [
    "approx cf --threads 2",
    "approx dirichlet --gamma 3",
    "approx cf --Q 5",
    "approx squares --alpha (-1+1*sqrt(5))/1",
    "approx bad-pair --tol 1/10",
    "construct --gamma 3",
    "construct --seed 1",
    "check double-bad --N 5",
    "check double-bad --tol 1/2",
    "spectral --depth 5",
    "rates --p 2",
    "shift --alpha (-1+1*sqrt(2))/1",
    "selftest --tol 1/2",
    "selftest --doubling-tripling",
    "rates --doubling-tripling",
]


@pytest.mark.parametrize("argv", STRAY_OPTIONS)
def test_an_option_outside_the_row_exits_two(argv, capsys):
    subcommand, *action = argv[:argv.index(" --")].split()
    stray = argv[argv.index(" --") + 1:]
    option = stray.split()[0][2:].replace("-", "_")
    assert option in _KINDS
    assert option not in _COMMANDS[subcommand].reads[action[0] if action else None]
    assert option not in _OUTPUT
    if option in offered(subcommand):
        message = f"{action[0]} takes no --{option}"
    else:
        message = f"unrecognized arguments: {stray}"
    with pytest.raises(SystemExit) as excinfo:
        main(argv.split())
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    usage, line = err.rstrip("\n").rsplit("\n", 1)
    assert usage.startswith(f"usage: coblab {subcommand} [-h]")
    assert json.loads(line) == {
        "error": {"kind": "config", "type": "ConfigError",
                  "message": f"coblab {subcommand}: {message}"},
        "schema": SCHEMA, "version": coblab.__version__,
    }


# Every option that approx takes but one of its actions does not read, given
# after the action or before it: the approx subparser parses the options of
# all four actions, then refuses this one with its usage and one JSON error
# line that names the action and the option, and exit 2.
MISREAD = [(action, option) for action, reads in _COMMANDS["approx"].reads.items()
           for option in _KINDS if option in offered("approx") - set(reads)]


@pytest.mark.parametrize("action, option", MISREAD,
                         ids=[f"{action} --{option}" for action, option in MISREAD])
@pytest.mark.parametrize("before", [False, True], ids=["after", "before"])
def test_an_option_that_its_action_does_not_read_exits_two(
        action, option, before, capsys):
    given = ["--" + option, VALID_VALUES[_KINDS[option]]]
    argv = ["approx", *given, action] if before else ["approx", action, *given]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    *usage, line = err.splitlines()
    assert usage[0].startswith("usage: coblab approx [-h]")
    assert not any(text.startswith("{") for text in usage)
    assert json.loads(line) == {
        "error": {"kind": "config", "type": "ConfigError",
                  "message": f"coblab approx: {action} takes no --{option}"},
        "schema": SCHEMA, "version": coblab.__version__,
    }


# An action that check does not offer is refused like any bad command line,
# with the check usage and the JSON error line, and exit 2.
@pytest.mark.parametrize(
    "action", ["bad-joint", "mur", "kac-salem", "petersen", "large-coeff"])
def test_a_deleted_check_action_exits_two(action, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["check", action])
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    usage, line = err.rstrip("\n").rsplit("\n", 1)
    assert usage.startswith("usage: coblab check [-h]")
    assert "Traceback" not in err
    payload = json.loads(line)
    assert (payload["schema"], payload["version"]) == (SCHEMA, coblab.__version__)
    error = payload["error"]
    assert (error["kind"], error["type"]) == ("config", "ConfigError")
    # argparse words the list of choices differently across versions
    assert error["message"].startswith(
        f"coblab check: argument action: invalid choice: '{action}'")


# The config fields that no subcommand offers as an option. Every report
# prints them until schema 2; every other row of _OPTIONS is an option of some
# subcommand, so an option row that no parser offers fails here.
REPORT_ONLY_FIELDS = {"threads", "doubling_tripling"}


def test_every_option_row_but_the_report_only_fields_is_offered():
    every = set().union(*map(offered, _COMMANDS))
    assert set(_KINDS) - every - set(_OUTPUT) == REPORT_ONLY_FIELDS


def test_golden_table_covers_every_action_and_format():
    for sub, action in COMMANDS:
        for fmt in ("csv", "json", "text"):
            base = [sub] + ([action] if action else [])
            if (sub, action) == ("check", "double-bad"):
                base += ["--K", "3"]
            assert " ".join(base + ["--format", fmt]) in GOLDEN
    assert len(GOLDEN) == 3 * len(COMMANDS) + 4
    assert len(SERIES_READERS) == 3
    assert set(HELP) == {"--help", *(f"{sub} --help" for sub in _COMMANDS)}
    assert {argv.split()[0] for argv in STRAY_OPTIONS} == set(_COMMANDS)


# The parser oracle: build_parser's subparsers add their options the first
# time a command line reaches them, and refuse their own leftovers. Every
# drawn command line must fare the same under the eager parser of
# tests/references.py, which builds every subparser whole, with each
# subparser refusing its leftovers the same way: the same namespace, or the
# same exit code, stdout and stderr.
class StrictParser(cli._Parser):
    """The oracle's parser class: it refuses what it leaves unparsed, so that a
    stray option after a subcommand prints that subcommand's usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras


# option values of every kind: valid ones and ones of the wrong type
VALID_VALUES = {"count": "7", "int": "0", "rational": "3/5", "str": "json"}
OPTION_VALUES = st.sampled_from(
    ["7", "0", "-3", "x", "1.5", "3/5", "2", "json", "xml", "", ROTATIONS[0]])


@st.composite
def command_lines(draw):
    """A command line drawn from _COMMANDS x _OPTIONS: a subcommand (now and
    then an unknown one, or none) with or without an action, options of its
    row or another's, with valid or wrongly typed values, abbreviated,
    repeated or in --name=value form, and -h at either level."""
    subcommand = draw(st.sampled_from(list(_COMMANDS)))
    if draw(st.integers(0, 9)) == 0:
        subcommand = draw(st.sampled_from(["juggle", None]))
    command = _COMMANDS.get(subcommand)
    actions = tuple(filter(None, command.reads)) if command else ()
    groups = []
    with_action = draw(st.integers(0, 3)) if actions else draw(st.booleans())
    if with_action:
        # mostly its own action, else another subcommand's or none at all
        own_action = actions and draw(st.integers(0, 3))
        others = st.sampled_from(["cf", "dirichlet", "nope"])
        groups.append([draw(st.sampled_from(actions) if own_action else others)])
    own = [row for row in _OPTIONS
           if command and (row[0] in offered(subcommand) or row[0] in _OUTPUT)]
    for _ in range(draw(st.integers(0, 4))):
        name, kind, *_ = draw(st.sampled_from(
            own if own and draw(st.integers(0, 3)) else _OPTIONS))
        option = "--" + name.replace("_", "-")
        if draw(st.booleans()):
            option = option[:draw(st.integers(3, len(option)))]
        # a valid value for its kind two times in three (a flag has none)
        value = VALID_VALUES.get(kind)
        if value is None or not draw(st.integers(0, 2)):
            value = draw(OPTION_VALUES)
        if kind == "flag" and draw(st.integers(0, 3)):
            groups.append([option])
        elif draw(st.booleans()):
            groups.append([f"{option}={value}"])
        else:
            groups.append([option, value])
    if draw(st.integers(0, 4)) == 0:
        groups.append([draw(st.sampled_from(["-h", "--help", "--he"]))])
    groups = draw(st.permutations(groups))
    top = [draw(st.sampled_from(["-h", "--help", "--K"]))] if draw(
        st.integers(0, 9)) == 0 else []
    return [*top, *([subcommand] if subcommand else []),
            *(arg for group in groups for arg in group)]


def parse_outcome(parser, argv):
    """The namespace that parser makes of argv, as the repr of each value (so
    that True and 1 differ), or its exit code, with the bytes it writes to
    stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = {name: repr(value)
                      for name, value in vars(parser.parse_args(argv)).items()}
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(argv=command_lines())
@example(argv=["rates", "--doubling-tripling", "--N", "8"])
@example(argv=["shift", "--form", "json", "--p", "1", "--p", "3/2"])
@example(argv=["approx", "--Q", "x", "cf"])
@example(argv=["construct", "--gamma", "3"])
@example(argv=["construct", "--seed", "1"])
@example(argv=["selftest", "--seed", "1"])
@example(argv=["approx", "cf", "--Q", "5", "--tol", "x"])
@example(argv=["approx", "--Q", "5", "dirichlet"])
@example(argv=["check", "-h"])
@example(argv=["-h"])
def test_the_lazy_parser_agrees_with_the_eager_oracle(argv):
    eager = eager_parser(StrictParser, _COMMANDS, _OPTIONS, _OUTPUT, _FORMATS)
    assert parse_outcome(build_parser(), argv) == parse_outcome(eager, argv)


def test_one_command_line_builds_the_options_of_its_subcommand_only(
        monkeypatch):
    parser = build_parser()
    built = []
    add_argument = argparse.ArgumentParser.add_argument

    def recording(self, *args, **kwargs):
        built.append((self.prog, args[0]))
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", recording)
    assert parse_outcome(parser, ["--help"])[0] == 0
    assert built == []
    parser.parse_args(["shift", "--p", "1"])
    assert built == [("coblab shift", name) for name in
                     ("--K", "--N", "--p", "--out", "--format")]
    parser.parse_args(["shift", "--K", "9"])
    assert len(built) == 5
    parser.parse_args(["approx", "cf"])
    assert {prog for prog, _ in built[5:]} == {"coblab approx"}
