"""The report of each subcommand: what its pipeline computes, laid out.

Each handler takes a checked `coblab.cli.ExperimentConfig`, runs its
subcommand's pipeline, and returns a `_Body`: the JSON data, the text lines
and the CSV header and rows of its report. `coblab.cli` looks a handler up
in `HANDLERS` by the config's subcommand and renders the body in the
config's format. This module is loaded only by a run that reaches a handler,
so `--help` and a refused command line never compile it, and it imports
nothing from `coblab.cli`, which may be running as `__main__`.
"""

from __future__ import annotations

from collections import namedtuple

# The package registers its submodules lazily; calling them by qualified name
# means each subcommand executes only the modules it uses.
from . import (
    constructions,
    diophantine,
    fourier,
    report,
    shift_example,
    spectral,
    surd,
)
from .errors import CertificationError

# What a handler produces before formatting: data, prose, and the CSV header
# and rows, the header None when the subcommand has no CSV form.
_Body = namedtuple("_Body", ("data", "text", "header", "rows"), defaults=(None, ()))

# the header of the n,value_lo,value_hi table that spectral and rates print
_VALUE_HEADER = ["n", "value_lo", "value_hi"]


def _surds(config):
    return (
        surd.parse_surd(config.alpha, label="alpha"),
        surd.parse_surd(config.beta, label="beta"),
    )


def _flagship(config, build):
    """alpha, beta and build(alpha, beta, K, Q, ratio, budget) under config."""
    alpha, beta = _surds(config)
    return alpha, beta, build(
        alpha, beta, config.K, config.Q,
        ratio=config.rational("ratio"), budget=config.rational("budget"),
    )


def _handle_approx(config) -> _Body:
    # each action parses only the rotations it reads: cf alpha, squares beta
    if config.action == "dirichlet":
        alpha, beta = _surds(config)
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
        alpha, beta = _surds(config)
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
        beta = surd.parse_surd(config.beta, label="beta")
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
    alpha = surd.parse_surd(config.alpha, label="alpha")
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


def _handle_construct(config) -> _Body:
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


def _handle_check(config) -> _Body:
    _, _, (f, _) = _flagship(config, constructions.flagship_series)
    # The log-power envelope is undefined at |k| = 1; check the series with
    # its first harmonic removed.
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


def _handle_spectral(config) -> _Body:
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


def _handle_rates(config) -> _Body:
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


def _handle_shift(config) -> _Body:
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


def _handle_selftest(config) -> _Body:
    alpha, beta = _surds(config)
    checks = []

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


# The handler of each subcommand, in the order of cli._COMMANDS.
HANDLERS = {
    "approx": _handle_approx,
    "construct": _handle_construct,
    "check": _handle_check,
    "spectral": _handle_spectral,
    "rates": _handle_rates,
    "shift": _handle_shift,
    "selftest": _handle_selftest,
}
