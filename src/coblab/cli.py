"""Batch experiment driver: every pipeline behind one reproducible command.

Each subcommand wraps a module pipeline with a serializable configuration,
so identical configs on identical versions produce byte-identical reports.
Structured results go out as JSON, series as CSV, and the human-readable
view as text. The handler of each subcommand, in coblab.commands, lays out
its data, text lines and CSV rows; this module renders them in the config's
format and writes the report, and no other module writes one. Every report
embeds the config, the tool version, and the precision policy, and never a
timestamp.

This module is the command-line surface: the option and subcommand tables,
the config, the parser, the rendering and the exit codes. --help and a
command line that argparse refuses execute no coblab module but this one
and errors, so they compile neither the handlers nor the layers.

Exit codes: 0 success, 2 configuration problem, 3 a search came up short,
4 a mathematically guaranteed inequality failed to certify (a bug).
"""

from __future__ import annotations

import argparse
import io
import sys
from collections import namedtuple

# The package registers its submodules lazily; calling them by qualified name
# means each call executes only the modules it uses: a run the handler module
# commands and the layers its handler calls, --help and a refused command
# line none of them.
from . import __version__, certify, commands, report
from .errors import (
    CertificationError,
    ConfigError,
    PrecisionCapError,
    ShortfallError,
)

_SCHEMA = "coblab-report-v1"

_FORMATS = ("csv", "json", "text")

# --tol is refused below 2**-(HARD_CAP_BITS - _TOL_MARGIN_BITS) = 2**-8000.
# At the cap a rotation (a+b*sqrt(d))/c encloses ||q*x|| to width
# |b|*q/(c*2**8192), and every scan refuses q past 10**13 < 2**44.
# surd.parse_surd refuses |b| >= 2**63 and d > 10**9, so the stored |b|/c,
# which takes in the square part of d, stays below 2**78 <= 2**120. --tol
# reaches only the approx dirichlet records, and for |b|/c <= 2**120 each
# meets any tol above the floor: a distance needs |b|*q/c <= 2**192, and
# the quality sqrt(q)*max(dist), with sqrt(q) < 2**22 enclosed to width
# 2**-8192, has width below (2**22*|b|*q/c + 1) * 2**-8192 <= 2**-8000.
_TOL_MARGIN_BITS = 192

# --p and --gamma are refused above this (2 cores, CPython 3.11): shift --p
# takes 1.9 s at 10**4 and ends in a decimal overflow after 34 s at 10**5;
# check double-bad takes 2.1 s at --gamma 1000 and 6.6 s at 10**4.
_EXPONENT_LIMIT = 1000

# Checks that several option rows share, each a (test, message) pair; a
# message may name the value as {value!r}.
_INTEGER = (lambda v: type(v) is int, "must be an integer, got {value!r}")
_POSITIVE_INT = (lambda v: v >= 1, "must be a positive integer")
_TEXT = (lambda v: type(v) is str, "must be a string, got {value!r}")
_POSITIVE = (lambda v: v > 0, "must be positive")
_AT_LEAST_1 = (lambda v: v >= 1, "must be at least 1")
_UNIT = (lambda v: 0 < v < 1, "must lie strictly between 0 and 1")
_EXPONENT = (lambda v: v <= _EXPONENT_LIMIT, f"must be at most {_EXPONENT_LIMIT}")

# Every config field but the subcommand and action, in --help order: the
# name of its option and field, its kind, its default, its help and the
# checks its value must pass. A "count" is an int of at least 1, a "flag" a
# bool that no option sets, and a "rational" is held as its canonical
# fraction string ("3/5"), so that a config survives any number of
# serialization round trips unchanged and two equal configs render
# byte-identical reports; its checks test it as a Fraction.
_OPTIONS = (
    ("alpha", "str", "(-1+1*sqrt(2))/1",
     "first rotation number, (a+b*sqrt(d))/c", (_TEXT,)),
    ("beta", "str", "(-1+1*sqrt(3))/1",
     "second rotation number, (a+b*sqrt(d))/c", (_TEXT,)),
    ("Q", "count", 10000, "denominator search bound", (_INTEGER, _POSITIVE_INT)),
    ("K", "count", 10, "number of construction terms / lattice columns",
     (_INTEGER, _POSITIVE_INT)),
    ("N", "count", 64, "range bound for searches, rates, and grids",
     (_INTEGER, _POSITIVE_INT)),
    ("depth", "count", 30, "continued-fraction depth",
     (_INTEGER, _POSITIVE_INT)),
    ("delta", "rational", "3/5", "exponent of approx squares, in (0, 1)", (_UNIT,)),
    ("gamma", "rational", "2", "logarithmic decay exponent", (_POSITIVE, _EXPONENT)),
    ("p", "rational", "2", "lattice space exponent, at least 1",
     (_AT_LEAST_1, _EXPONENT)),
    ("ratio", "rational", "2", "lacunarity ratio, above 1",
     ((lambda v: v > 1, "must exceed 1"),)),
    ("budget", "rational", "2", "summability budget for term selection", (_POSITIVE,)),
    ("tol", "rational", "1/1000000000000", "numeric tolerance in (0, 1)", (_UNIT,)),
    ("out", "str", None, "report file path",
     ((lambda v: v is None or type(v) is str,
       "must be a string or null, got {value!r}"),)),
    ("format", "str", "text", None,
     ((lambda v: v in _FORMATS, f"must be one of {_FORMATS}"),)),
    ("seed", "int", 0, "seed for randomized property checks",
     (_INTEGER, (lambda v: v >= 0, "must be nonnegative"))),
    ("threads", "int", 1, "recorded in every report; has no effect",
     (_INTEGER, _AT_LEAST_1)),
    ("doubling_tripling", "flag", False, "recorded in every report as false",
     ((lambda v: v is False, "must be false, got {value!r}: the "
       "doubling/tripling variance table was removed"),)),
)
_KINDS = {name: kind for name, kind, *_ in _OPTIONS}


class ExperimentConfig(
    namedtuple("ExperimentConfig", ("subcommand", "action", *_KINDS))
):
    """Everything a run needs, in JSON-friendly primitives.

    The fields are the subcommand, its action and every row of _OPTIONS,
    also those whose option the subcommand lacks; a field not given takes
    its default, and each is checked against its row. A collections
    namedtuple, so that --help loads neither certify nor fractions; its
    _make and _replace skip the checks, and nothing calls them.
    """

    __slots__ = ()

    def __new__(cls, subcommand: str, action: str | None = None, **options):
        from fractions import Fraction

        unknown = set(options).difference(_KINDS)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if type(subcommand) is not str or subcommand not in _COMMANDS:
            raise ConfigError(f"unknown subcommand {subcommand!r}")
        reads = _COMMANDS[subcommand].reads
        if action not in reads:
            if None in reads:
                raise ConfigError(f"subcommand {subcommand!r} takes no action")
            raise ConfigError(
                f"subcommand {subcommand!r} needs an action "
                f"from {tuple(reads)}, got {action!r}"
            )
        values = {}
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0 is none
        for name, kind, default, _, checks in _OPTIONS:
            value = values[name] = options.get(name, default)
            if kind == "rational":
                # The text is parsed first with its exponent's digits zeroed,
                # which keeps the syntax and the digit count that Fraction
                # checks: a zero mantissa is 0 at any exponent, so 10**|e| is
                # never built for it. str refuses a fraction of over limit
                # (4300) digits with ValueError. A nonzero mantissa of L
                # digits, D after the point, gets there with an exponent
                # |e| >= limit + len(text), as e - D or |e| + D - L >= limit:
                # it is refused unbuilt.
                try:
                    text = str(value)
                    mantissa, mark, e = text.lower().partition("e")
                    value = Fraction(mantissa + mark + "".join(
                        "0" if c.isdecimal() else c for c in e))
                    if value and mark:
                        if limit and abs(int(e)) >= limit + len(text):
                            raise ValueError(text)
                        value = Fraction(text)
                    values[name] = str(value)
                except (ValueError, ZeroDivisionError) as exc:
                    raise ConfigError(
                        f"--{name}: not a rational: {values[name]!r}"
                    ) from exc
            for test, message in checks:
                if not test(value):
                    raise ConfigError(f"--{name} " + message.format(value=value))
        floor_bits = certify.HARD_CAP_BITS - _TOL_MARGIN_BITS
        if Fraction(values["tol"]) < Fraction(1, 1 << floor_bits):
            raise ConfigError(
                f"--tol must be at least 2**-{floor_bits}, the finest width "
                f"met under the {certify.HARD_CAP_BITS}-bit precision cap"
            )
        return super().__new__(cls, subcommand, action, **values)

    def __getnewargs_ex__(self):
        # copy and pickle rebuild a config through __new__, checks and all
        return tuple(self[:2]), dict(zip(_KINDS, self[2:]))

    def rational(self, name: str):
        from fractions import Fraction

        if _KINDS.get(name) != "rational":
            raise ConfigError(f"{name} is not a rational-valued field")
        return Fraction(getattr(self, name))

    def to_json_dict(self) -> dict:
        return self._asdict()

    @classmethod
    def from_json_dict(cls, payload: dict) -> "ExperimentConfig":
        if "subcommand" not in payload:
            raise ConfigError("config needs a subcommand")
        return cls(**payload)


# ---------------------------------------------------------------------------
# report assembly


# body is what a handler of coblab.commands returns: a commands._Body.
def _render(config: ExperimentConfig, body) -> str:
    import json

    policy = {
        "working_bits": certify.WORK_PREC,
        "enclosures": "rational intervals with outward dyadic rounding",
        "enclosure_cap_bits": certify.HARD_CAP_BITS,
    }
    if config.format == "json":
        envelope = {
            "schema": _SCHEMA,
            "version": __version__,
            "precision": policy,
            "seed": config.seed,
            "config": config.to_json_dict(),
            "result": body.data,
        }
        return json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    header = [
        f"# {_SCHEMA}",
        f"# version: {__version__}",
        f"# precision: {policy['working_bits']}-bit working precision; "
        f"{policy['enclosures']} (cap {policy['enclosure_cap_bits']} bits)",
        f"# seed: {config.seed}",
        f"# config: {json.dumps(config.to_json_dict(), sort_keys=True)}",
    ]
    if config.format == "csv":
        if body.header is None:
            raise ConfigError(
                "no series output defined for this subcommand; "
                "use --format json or text"
            )
        buffer = io.StringIO()
        report.write_rows(buffer, body.header, body.rows)
        return "\n".join(header) + "\n" + buffer.getvalue()
    return "\n".join(header + [""] + [str(line) for line in body.text]) + "\n"


def _emit(config: ExperimentConfig, body, stream) -> None:
    rendered = _render(config, body)
    if config.out is None:
        stream.write(rendered)
    else:
        try:
            with open(config.out, "w", newline="") as handle:
                handle.write(rendered)
        except OSError as exc:
            raise ConfigError(f"cannot write {config.out!r}: {exc}") from exc


# Every subcommand, in --help order: the options that its handler in
# coblab.commands reads under each of its actions (under None if it takes
# none), and its help line. Its parser offers the options of all its actions
# and those of _OUTPUT, which every report prints, and refuses an option that
# the action it is given does not read.
_Command = namedtuple("_Command", ("reads", "help"))
_OUTPUT = ("out", "format")
# what commands._flagship reads
_SERIES = ("alpha", "beta", "K", "Q", "ratio", "budget")
_COMMANDS = {
    "approx": _Command({"dirichlet": ("alpha", "beta", "Q", "tol"),
                        "bad-pair": ("alpha", "beta", "Q"),
                        "squares": ("beta", "N", "delta"),
                        "cf": ("alpha", "depth")},
                       "Diophantine searches: simultaneous denominators, pair "
                       "constants, square powers, continued fractions"),
    "construct": _Command({None: _SERIES},
                          "build the certified joint-not-double series"),
    "check": _Command({"double-bad": (*_SERIES, "gamma")},
                      "certificates about the constructed series"),
    "spectral": _Command({None: _SERIES},
                         "atomic spectral measure and membership integrals"),
    "rates": _Command({None: (*_SERIES, "N")},
                      "ergodic averaging rate profiles"),
    "shift": _Command({None: ("K", "N", "p")},
                      "lattice shift example: norms, the formal solution, "
                      "and its divergence certificate"),
    "selftest": _Command({None: ("alpha", "beta", "K", "Q", "seed")},
                         "run the deterministic property suite"),
}


# ---------------------------------------------------------------------------
# entry points


def run(config: ExperimentConfig, stream=None) -> int:
    """Execute one configured experiment and write its report.

    Returns the process exit code instead of raising, so the command-line
    wrapper and programmatic callers share one error policy.
    """
    stream = stream if stream is not None else sys.stdout
    try:
        body = commands.HANDLERS[config.subcommand](config)
        _emit(config, body, stream)
        return 0
    except ConfigError as exc:
        _error_report("config", exc)
        return 2
    except ShortfallError as exc:
        _error_report("shortfall", exc)
        return 3
    except (CertificationError, PrecisionCapError) as exc:
        _error_report("certification", exc)
        return 4


def _error_report(kind: str, exc: Exception) -> None:
    import json

    payload = {
        "schema": _SCHEMA,
        "version": __version__,
        "error": {"kind": kind, "type": type(exc).__name__,
                  "message": str(exc)},
    }
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """argparse under the error policy of run: a refused command line prints
    its usage and the JSON error line, then exits 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        _error_report("config", ConfigError(f"{self.prog}: {message}"))
        sys.exit(2)


class _Subparser(_Parser):
    """The parser of one subcommand, made with its help line only.

    The first command line that reaches it adds the action and options of its
    row of _COMMANDS, so a run builds the options of one subcommand and the
    top-level --help none. It refuses what it leaves unparsed itself, with
    its own usage, where argparse would hand it up to the top-level parser,
    and then an option that the action given, before or after it, does not
    read.
    """

    def __init__(self, *, command: _Command, **kwargs):
        # No option states a default here: an option left out is left out of
        # the namespace, so the defaults of _OPTIONS are the only ones.
        super().__init__(argument_default=argparse.SUPPRESS, **kwargs)
        self._reads, self._unfilled = command.reads, True

    def parse_known_args(self, args=None, namespace=None):
        # argparse hands each subparser its part of the command line here
        if self._unfilled:
            self._unfilled = False
            if None not in self._reads:
                self.add_argument("action", choices=tuple(self._reads))
            offered = {name for names in self._reads.values() for name in names}
            for option, kind, _, text, _ in _OPTIONS:
                if option in offered or option in _OUTPUT:
                    self.add_argument(
                        "--" + option, help=text,
                        type=int if kind in ("count", "int") else None,
                        choices=_FORMATS if option == "format" else None)
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        action = getattr(namespace, "action", None)
        for name in vars(namespace):
            if name in _KINDS and name not in self._reads[action] + _OUTPUT:
                self.error(f"{action} takes no --{name}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coblab",
        description=(
            "Certified constructions, searches, and diagnostics for joint "
            "and double coboundaries of commuting circle rotations."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Subparser)
    for name, command in _COMMANDS.items():
        sub.add_parser(name, help=command.help, command=command)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        config = ExperimentConfig(**vars(ns))
    except ConfigError as exc:
        _error_report("config", exc)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
