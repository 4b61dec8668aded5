"""Batch experiment driver: every pipeline behind one reproducible command.

Each subcommand wraps a module pipeline with a serializable configuration,
so identical configs on identical versions produce byte-identical reports.
Structured results go out as JSON, series as CSV, and the human-readable
view as text; the handler of each subcommand lays out all three, and no
other module writes a report. Every report embeds the config, the tool
version, and the precision policy, and never a timestamp.

Exit codes: 0 success, 2 configuration problem, 3 a search came up short,
4 a mathematically guaranteed inequality failed to certify (a bug).
"""

from __future__ import annotations

import argparse
import io
import sys
from collections import namedtuple

# The package registers its submodules lazily; calling them by qualified name
# means each subcommand executes only the modules it uses.
from . import (
    __version__,
    certify,
    constructions,
    diophantine,
    fourier,
    report,
    shift_example,
    spectral,
    surd,
)
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
# bool that its option sets, and a "rational" is held as its canonical
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
    ("depth", "count", 30, "continued-fraction / witness search depth",
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
    ("doubling_tripling", "flag", False,
     "emit the exact unit-variance table for the commuting endomorphism "
     "square average",
     ((lambda v: type(v) is bool, "must be true or false, got {value!r}"),)),
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
        allowed = _COMMANDS[subcommand].actions
        if allowed and action not in allowed:
            raise ConfigError(
                f"subcommand {subcommand!r} needs an action "
                f"from {allowed}, got {action!r}"
            )
        if not allowed and action is not None:
            raise ConfigError(f"subcommand {subcommand!r} takes no action")
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


# What a handler produces before formatting: data, prose, and the CSV header
# and rows, the header None when the subcommand has no CSV form. A
# collections namedtuple, so that --help loads no typing.
_Body = namedtuple("_Body", ("data", "text", "header", "rows"), defaults=(None, ()))

# the header of the n,value_lo,value_hi table that spectral and rates print
_VALUE_HEADER = ["n", "value_lo", "value_hi"]


def _render(config: ExperimentConfig, body: _Body) -> str:
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


def _emit(config: ExperimentConfig, body: _Body, stream) -> None:
    rendered = _render(config, body)
    if config.out is None:
        stream.write(rendered)
    else:
        try:
            with open(config.out, "w", newline="") as handle:
                handle.write(rendered)
        except OSError as exc:
            raise ConfigError(f"cannot write {config.out!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommand handlers


def _surds(config: ExperimentConfig):
    return (
        surd.parse_surd(config.alpha, label="alpha"),
        surd.parse_surd(config.beta, label="beta"),
    )


def _flagship(config: ExperimentConfig, build):
    """alpha, beta and build(alpha, beta, K, Q, ratio, budget) under config."""
    alpha, beta = _surds(config)
    return alpha, beta, build(
        alpha, beta, config.K, config.Q,
        ratio=config.rational("ratio"), budget=config.rational("budget"),
    )


def _handle_approx(config: ExperimentConfig) -> _Body:
    alpha, beta = _surds(config)
    if config.action == "dirichlet":
        records = diophantine.dirichlet_pair_search(
            alpha, beta, config.Q, tol=config.rational("tol")
        )
        data = {
            "count": len(records),
            "records": [
                {
                    "q": r.q,
                    "dist_alpha": report.enclosure_json(r.dist_alpha),
                    "dist_beta": report.enclosure_json(r.dist_beta),
                    "quality": report.enclosure_json(r.quality),
                }
                for r in records
            ],
        }
        text = [f"{len(records)} denominators up to Q = {config.Q}"] + [
            f"q = {r.q}: quality in {report.interval_str(r.quality, 8)}"
            for r in records[:25]
        ]
        header = ["q", "dist_alpha_lo", "dist_alpha_hi", "dist_beta_lo",
                  "dist_beta_hi", "quality_lo", "quality_hi"]
        rows = (
            [r.q, *report.endpoints(r.dist_alpha),
             *report.endpoints(r.dist_beta), *report.endpoints(r.quality)]
            for r in records
        )
        return _Body(data, text, header, rows)
    if config.action == "bad-pair":
        constant, argmin = diophantine.bad_pair_constant(alpha, beta, config.Q)
        data = {
            "constant": report.enclosure_json(constant),
            "argmin": argmin,
            "Q": config.Q,
        }
        text = [
            f"liminf proxy over q <= {config.Q}: "
            f"{report.interval_str(constant, 10)} at q = {argmin}"
        ]
        return _Body(data, text)
    if config.action == "squares":
        hits = diophantine.square_approximation_search(
            beta, config.rational("delta"), config.N
        )
        data = {
            "delta": config.delta,
            "N": config.N,
            "count": len(hits),
            "hits": hits,
        }
        text = [
            f"{len(hits)} squares n**2 <= {config.N} with "
            f"||n**2 * beta|| < n**(-{config.delta})"
        ] + [str(n) for n in hits]
        return _Body(data, text, ["n"], ([n] for n in hits))
    rows = list(diophantine.convergents(alpha, config.depth))
    terms = [a for a, _, _ in rows]
    data = {
        "terms": terms,
        "convergents": [[p, q] for _, p, q in rows],
    }
    text = [f"continued fraction to depth {config.depth}: {terms}"] + [
        f"p/q = {p}/{q}" for _, p, q in rows
    ]
    return _Body(data, text, ["k", "a_k", "p_k", "q_k"],
                 ([k, *row] for k, row in enumerate(rows)))


def _handle_construct(config: ExperimentConfig) -> _Body:
    _, _, result = _flagship(config, constructions.build_joint_not_double)
    data = result.to_json_dict()
    text = [
        f"denominators: {list(result.q_sequence)}",
        f"overall verdict: {'PASS' if result.verdict else 'FAIL'}",
        "",
    ]
    for cert in result.certificates:
        text.append(cert.render())
        text.append("")
    text.extend(result.notes)
    return _Body(data, text, ["n", "re", "im"], data["f"]["coefficients"])


def _handle_check(config: ExperimentConfig) -> _Body:
    # every checker reads the flagship series, or its magnitudes; four print
    # values and two a certificate
    alpha, beta, (f, _) = _flagship(config, constructions.flagship_series)
    if config.action == "bad-joint":
        c_sum, l2_sum = constructions.joint_summability_sums(f)
        data = {
            "C": report.enclosure_json(c_sum),
            "L2": report.enclosure_json(l2_sum),
        }
        text = [
            f"sum over support of |k| * |f_hat(k)|: "
            f"{report.interval_str(c_sum, 12)}",
            f"sum over support of k**2 * |f_hat(k)|**2 (exact): "
            f"{report.interval_str(l2_sum, 12)}",
        ]
        return _Body(data, text)
    if config.action == "mur":
        # The envelope sum wants a non-increasing sequence; feed it the
        # decreasing rearrangement of the coefficient magnitudes.
        magnitudes = sorted(
            (fourier.coefficient_real(c) for n, c in f.items() if n > 0),
            reverse=True,
        )
        partial = certify.Enclosure.point(constructions.envelope_sum(magnitudes))
        data = {
            "terms": len(magnitudes),
            "partial": report.enclosure_json(partial),
        }
        text = [
            f"partial sum of k * a_k**2 over the {len(magnitudes)} magnitudes "
            f"in decreasing order (exact): {report.interval_str(partial, 12)}"
        ]
        return _Body(data, text)
    if config.action == "kac-salem":
        magnitudes = [(n, fourier.coefficient_real(c)) for n, c in f.items() if n > 0]
        partial, entropy = constructions.kac_salem_series(magnitudes, beta)
        data = {
            "partial": report.enclosure_json(partial.value),
            "entropy": report.enclosure_json(entropy),
            "terms": len(partial.terms),
        }
        text = [
            f"partial sum of |a_k| / sin(pi ||k beta||) over "
            f"{len(partial.terms)} terms: {report.interval_str(partial.value, 12)}",
            f"entropy sum of |a_k| * log(1/|a_k|): "
            f"{report.interval_str(entropy, 12)}",
        ]
        return _Body(data, text)
    if config.action == "petersen":
        partial = constructions.petersen_series(f, alpha, beta)
        data = {
            "value": report.enclosure_json(partial.value),
            "terms": [[n, report.enclosure_json(e)] for n, e in partial.terms],
        }
        text = [
            f"quadratic-divisor series over {len(partial.terms)} atoms: "
            f"{report.interval_str(partial.value, 12)}"
        ]
        return _Body(data, text)
    if config.action == "large-coeff":
        cert = constructions.large_coeff_witness(f, beta, config.depth)
    else:
        # The log-power envelope is undefined at |k| = 1; check the series
        # with its first harmonic removed.
        trimmed = fourier.SparseFourierSeries(
            {n: c for n, c in f.items() if abs(n) >= 2}, real_valued=f.real_valued
        )
        cert = constructions.check_double_bad(trimmed, config.rational("gamma"))
    header = ["description", "value_lo", "value_hi", "comparison", "satisfied"]
    rows = (
        [e.description, *report.endpoints(e.value), e.comparison, e.satisfied]
        for e in cert.entries
    )
    return _Body(cert.to_json_dict(), [cert.render()], header, rows)


def _handle_spectral(config: ExperimentConfig) -> _Body:
    alpha, beta, (f, _) = _flagship(config, constructions.flagship_series)
    measure = spectral.spectral_measure(f, alpha, beta)
    alpha_side = spectral.criterion_sum(measure, 1, 0)
    beta_side = spectral.criterion_sum(measure, 0, 1)
    joint = alpha_side.value + beta_side.value  # the joint criterion sum
    double = spectral.criterion_sum(measure, 1, 1)
    mass = f.l2_norm_sq_exact()
    data = {
        "atoms": len(measure),
        "total_mass": str(mass),
        "alpha_integral": {
            "value": report.enclosure_json(alpha_side.value),
            "divergent": alpha_side.divergent,
        },
        "beta_integral": {
            "value": report.enclosure_json(beta_side.value),
            "divergent": beta_side.divergent,
        },
        "joint_sum": report.enclosure_json(joint),
        "double_sum": report.enclosure_json(double.value),
    }
    text = [
        f"atomic measure with {len(measure)} atoms, "
        f"total mass {float(mass):.6g}",
        "alpha-side membership integral: "
        + report.interval_str(alpha_side.value, 12),
        "beta-side membership integral: "
        + report.interval_str(beta_side.value, 12),
        f"joint criterion sum: {report.interval_str(joint, 12)}",
        f"double criterion sum: {report.interval_str(double.value, 12)}",
    ]
    rows = ([n, *report.endpoints(term)] for n, term in double.terms)
    return _Body(data, text, _VALUE_HEADER, rows)


def _handle_rates(config: ExperimentConfig) -> _Body:
    if config.doubling_tripling:
        ns = list(range(1, min(config.N, 64) + 1))
        values = [spectral.doubling_tripling_variance(n) for n in ns]
        data = {
            "n": ns,
            "normalized_variance": [str(v) for v in values],
        }
        text = [
            "normalized ergodic variance of the doubling/tripling square "
            "average: exactly 1 at every n"
        ] + [f"n = {n}: {v}" for n, v in zip(ns, values)]
        rows = ([n, str(v), str(v)] for n, v in zip(ns, values))
        return _Body(data, text, _VALUE_HEADER, rows)
    alpha, beta, (f, _) = _flagship(config, constructions.flagship_series)
    n_values = sorted({1 << i for i in range(config.N.bit_length())} | {config.N})
    profile = spectral.cesaro_rate_profile(f, alpha, beta, n_values)
    data = {
        "rows": [[n, per_n, per_n_sq] for n, per_n, per_n_sq in profile]
    }
    text = [
        f"n = {n}: |S_n|/n = {per_n:.6e}, |S_n|/n^2 = {per_n_sq:.6e}"
        for n, per_n, per_n_sq in profile
    ]
    # float64 diagnostics, so lo and hi coincide
    rows = ([n, repr(per_n), repr(per_n)] for n, per_n, _ in profile)
    return _Body(data, text, _VALUE_HEADER, rows)


def _handle_shift(config: ExperimentConfig) -> _Body:
    p = config.rational("p")
    h = shift_example.build_h(p)
    box = min(config.K, 2000)
    norm = shift_example.lp_partial_norm(h, box)
    divergence = shift_example.divergence_certificate(p, config.K)
    data = {
        "p": config.p,
        "K": config.K,
        "lp_norm": {
            "partial": report.enclosure_json(norm.partial),
            "tail": report.enclosure_json(norm.tail),
            "total": report.enclosure_json(norm.total),
            "diagonals": norm.diagonals,
        },
        "row_sum_lower": report.enclosure_json(divergence.row_sum_lower),
        "bounded_exponent": divergence.bounded_exponent,
        "lr_partial": report.enclosure_json(divergence.lr_partial),
        "log_threshold": divergence.log_threshold,
        "certificate": divergence.certificate.to_json_dict(),
    }
    text = [
        f"l_{config.p} mass of h on the first {norm.diagonals} diagonals: "
        f"{report.interval_str(norm.total, 12)}",
        f"row sum of q**{config.p} over k <= {config.K} is at least "
        f"{report.decimal_str(divergence.row_sum_lower.lo, 'down', 10)}",
        f"whole-lattice q**{divergence.bounded_exponent} mass stays below "
        f"{report.decimal_str(divergence.lr_partial.hi, 'up', 10)}",
        "",
        divergence.certificate.render(),
    ]
    edge = min(config.N, 16)

    def grid_rows():
        # built only when the CSV is written
        grid = shift_example.build_q(h, edge, edge, tail_terms=256)
        for j, k, enc in grid.rows():
            yield [j, k, *report.endpoints(enc)]

    return _Body(data, text, ["j", "k", "q_lo", "q_hi"], grid_rows())


def _handle_selftest(config: ExperimentConfig) -> _Body:
    alpha, beta = _surds(config)
    checks = []

    values = [spectral.doubling_tripling_variance(n) for n in range(1, 65)]
    checks.append(
        ("doubling/tripling variance exactly 1 for n <= 64",
         all(v == 1 for v in values))
    )

    result = constructions.build_joint_not_double(
        alpha, beta, min(config.K, 6), config.Q
    )
    checks.append(("flagship construction certificates", result.verdict))

    ergodic_ok = True
    for offset in range(3):
        g = fourier.random_real_series(config.seed + offset, 16)
        bound = 2 * g.l2_norm() + 1e-9
        diff = fourier.apply_difference(g, alpha)
        worst = max(fourier.browder_sum_norm(diff, alpha, n) for n in (1, 7, 50))
        ergodic_ok = ergodic_ok and worst <= bound
    checks.append(("seeded one-sided ergodic sums within 2||g||", ergodic_ok))

    g = fourier.random_real_series(config.seed, 8)
    phi = fourier.apply_difference(g, alpha)
    measure = spectral.spectral_measure(phi, alpha, beta)
    integral = spectral.criterion_sum(measure, 1, 0)
    mass = g.l2_norm_sq_exact()  # the total spectral mass, by Parseval
    checks.append(
        ("spectral change of variables recovers the solution mass",
         integral.value.lo <= mass <= integral.value.hi)
    )

    h = shift_example.build_h(2)
    grid = shift_example.build_q(h, 2, 2, tail_terms=128)
    second = grid.diagonals[2] - 2 * grid.diagonals[3] + grid.diagonals[4]
    f_enc = h.diagonal_value(2) - h.diagonal_value(3)
    checks.append(
        ("lattice second difference reproduces (I-U)h",
         max(second.lo, f_enc.lo) <= min(second.hi, f_enc.hi))
    )

    failed = [name for name, ok in checks if not ok]
    data = {
        "checks": [{"name": name, "ok": ok} for name, ok in checks],
        "passed": len(checks) - len(failed),
        "failed": len(failed),
    }
    text = [
        f"{'ok' if ok else 'FAIL'} - {name}" for name, ok in checks
    ] + [f"{len(checks) - len(failed)}/{len(checks)} checks passed"]
    if failed:
        raise CertificationError(
            "selftest failures: " + "; ".join(failed)
        )
    return _Body(data, text)


# Every subcommand, in --help order: its actions (none if it takes none), the
# options its handler reads under any action (and those of _OUTPUT, which
# every report prints), the handler that builds its report and its help line.
_Command = namedtuple("_Command", ("actions", "options", "handler", "help"))
_OUTPUT = ("out", "format", "seed")
_SERIES = ("alpha", "beta", "K", "Q", "ratio", "budget")  # what _flagship reads
_COMMANDS = {
    "approx": _Command(("dirichlet", "bad-pair", "squares", "cf"),
                       ("alpha", "beta", "Q", "N", "depth", "delta", "tol"),
                       _handle_approx,
                       "Diophantine searches: simultaneous denominators, pair "
                       "constants, square powers, continued fractions"),
    "construct": _Command((), _SERIES, _handle_construct,
                          "build the certified joint-not-double series"),
    "check": _Command(("bad-joint", "mur", "double-bad", "kac-salem",
                       "large-coeff", "petersen"),
                      (*_SERIES, "depth", "gamma"), _handle_check,
                      "summability, envelope, and witness checkers on the "
                      "constructed series"),
    "spectral": _Command((), _SERIES, _handle_spectral,
                         "atomic spectral measure and membership integrals"),
    "rates": _Command((), (*_SERIES, "N", "doubling_tripling"), _handle_rates,
                      "ergodic averaging rate profiles"),
    "shift": _Command((), ("K", "N", "p"), _handle_shift,
                      "lattice shift example: norms, the formal solution, "
                      "and its divergence certificate"),
    "selftest": _Command((), ("alpha", "beta", "K", "Q"), _handle_selftest,
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
        body = _COMMANDS[config.subcommand].handler(config)
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coblab",
        description=(
            "Certified constructions, searches, and diagnostics for joint "
            "and double coboundaries of commuting circle rotations."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in _COMMANDS.items():
        # No option states a default here: an option left out is left out of
        # the namespace, so the defaults of _OPTIONS are the only ones.
        subparser = sub.add_parser(name, help=command.help,
                                   argument_default=argparse.SUPPRESS)
        if command.actions:
            subparser.add_argument("action", choices=command.actions)
        for option, kind, _, text, _ in _OPTIONS:
            if option in command.options or option in _OUTPUT:
                kwargs = ({"action": "store_true"} if kind == "flag" else
                          {"type": int if kind in ("count", "int") else None,
                           "choices": _FORMATS if option == "format" else None})
                subparser.add_argument("--" + option.replace("_", "-"),
                                       help=text, **kwargs)
    return parser


def config_from_namespace(ns: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(**vars(ns))


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        config = config_from_namespace(ns)
    except ConfigError as exc:
        _error_report("config", exc)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
