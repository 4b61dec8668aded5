"""One benchmark call in a fresh process: a CLI call or a seeded ergodic sweep.

    python perfbench/child.py [--trace FILE] cli ARGS...
    python perfbench/child.py [--trace FILE] sweep {double,single} FIRST COUNT NMAX

`cli` runs `coblab.cli.main(ARGS)`, the same entry point as
`python -m coblab.cli`.  `sweep` repeats the shape of acceptance criteria 03
(double) and 04 (single) over the `random_real_series` seeds FIRST ..
FIRST+COUNT-1 and every n <= NMAX, and prints {"bounds", "values"} as JSON.
With --trace, every layer is instrumented before the call and the tracer's
summary is written to FILE as JSON.
"""

from __future__ import annotations

import json
import sys

ALPHA = "(-1+1*sqrt(2))/1"
BETA = "(-1+1*sqrt(3))/1"


def sweep(kind: str, first: int, count: int, nmax: int) -> int:
    from coblab import fourier
    from coblab.surd import parse_surd

    alpha = parse_surd(ALPHA, label="alpha")
    beta = parse_surd(BETA, label="beta")
    bounds, values = [], []
    for seed in range(first, first + count):
        base = fourier.random_real_series(seed, 10)
        if kind == "double":
            f = fourier.apply_difference(fourier.apply_difference(base, alpha), beta)
            bounds.append(4 * base.l2_norm() + 1e-9)
            values.append(
                [fourier.double_ergodic_sum_norm(f, alpha, beta, n, n)
                 for n in range(1, nmax + 1)]
            )
        else:
            f = fourier.apply_difference(base, alpha)
            bounds.append(2 * base.l2_norm() + 1e-9)
            values.append(
                [fourier.browder_sum_norm(f, alpha, n) for n in range(1, nmax + 1)]
            )
    json.dump({"bounds": bounds, "values": values}, sys.stdout)
    return 0


def main(argv: list[str]) -> int:
    trace_file = None
    if argv[:1] == ["--trace"]:
        trace_file, argv = argv[1], argv[2:]
    tracer = None
    if trace_file is not None:
        import coblab.cli  # noqa: F401  imports every layer before patching
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if argv[0] == "cli":
            from coblab import cli

            return cli.main(argv[1:])
        kind, first, count, nmax = argv[1], *map(int, argv[2:5])
        return sweep(kind, first, count, nmax)
    finally:
        if tracer is not None:
            with open(trace_file, "w") as handle:
                json.dump(tracer.summary(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
