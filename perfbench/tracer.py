"""In-memory span tracer that instruments coblab from outside its source.

`Tracer.install()` wraps every public function of the eight layer modules,
plus the two `QuadraticSurd` methods the certified paths lean on, and
rebinds each wrapped function in every `coblab` module that holds it, so
names imported with `from .certify import ...` are traced too.  Each call
records a span (name, start, end, parent) in a list.  A span's self time is
its duration minus the time its child spans cover; time spent in private
helpers counts toward the nearest traced caller.

A few wrappers also keep counters: producer calls and the deepest precision
reached by `refine` and `separate`, hard-cap hits of `separate`, search
records and hits, Fourier (frequency, n) pairs, certificate entries, and the
tracemalloc peak of `bad_pair_constant`.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import Counter

LAYERS = (
    "certify",
    "surd",
    "diophantine",
    "fourier",
    "spectral",
    "shift_example",
    "constructions",
    "cli",
)

SURD_METHODS = ("enclosure", "sign")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.max_bits = 0
        self.peak_alloc_bytes = 0

    def span(self, name: str, fn):
        """Wrap fn so that each call appends one span."""
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)

        return traced

    def install(self) -> None:
        modules = {layer: sys.modules[f"coblab.{layer}"] for layer in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                wrapped[id(obj)] = (obj, self.span(name, self._counted(name, obj)))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "coblab" and not mod_name.startswith("coblab."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
        surd_cls = modules["surd"].QuadraticSurd
        for meth in SURD_METHODS:
            setattr(surd_cls, meth, self.span(f"surd.{meth}", getattr(surd_cls, meth)))
        self._certify = modules["certify"]

    # -- counters ---------------------------------------------------------

    def _producer_counter(self, name: str, deepest: list):
        """Wraps a precision producer to count its calls and track its bits."""
        counts, key = self.counts, name + ".producer_calls"

        def counted(producer):
            def produce(bits):
                counts[key] += 1
                if bits > deepest[0]:
                    deepest[0] = bits
                return producer(bits)

            return produce

        return counted

    def _counted(self, name: str, fn):
        """fn itself, or fn with the counters its layer metric needs."""
        counts = self.counts
        if name == "certify.refine":

            def refine(producer, *args, **kwargs):
                deepest = [0]
                counted = self._producer_counter(name, deepest)
                try:
                    return fn(counted(producer), *args, **kwargs)
                finally:
                    self.max_bits = max(self.max_bits, deepest[0])

            return refine
        if name == "certify.separate":

            def separate(prod_a, prod_b, **kwargs):
                deepest = [0]
                counted = self._producer_counter(name, deepest)
                try:
                    return fn(counted(prod_a), counted(prod_b), **kwargs)
                finally:
                    self.max_bits = max(self.max_bits, deepest[0])
                    if deepest[0] >= kwargs.get("cap", self._certify.HARD_CAP_BITS):
                        counts[name + ".cap_hits"] += 1

            return separate
        if name == "diophantine.dirichlet_pair_search":

            def search(alpha, beta, Q, *args, **kwargs):
                records = fn(alpha, beta, Q, *args, **kwargs)
                counts[name + ".records"] += len(records)
                counts[name + ".q_scanned"] += Q
                return records

            return search
        if name == "diophantine.square_approximation_search":

            def squares(*args, **kwargs):
                hits = fn(*args, **kwargs)
                counts[name + ".hits"] += len(hits)
                return hits

            return squares
        if name == "diophantine.bad_pair_constant":

            def bad_pair(*args, **kwargs):
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_alloc_bytes = max(self.peak_alloc_bytes, peak)

            return bad_pair
        if name in ("fourier.double_ergodic_sum_norm", "fourier.browder_sum_norm"):

            def ergodic(f, *args, **kwargs):
                counts["fourier.kernel_pairs"] += len(f)
                return fn(f, *args, **kwargs)

            return ergodic
        if name == "constructions.build_joint_not_double":

            def build(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts["constructions.entries"] += sum(
                    len(cert.entries) for cert in result.certificates
                )
                return result

            return build
        if name == "constructions.check_double_bad":

            def check(*args, **kwargs):
                cert = fn(*args, **kwargs)
                counts["constructions.entries"] += len(cert.entries)
                return cert

            return check
        return fn

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls and self time, plus the counters."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        functions: dict = {}
        closed = 0
        for i, span in enumerate(self.spans):
            if span is None:
                continue
            nid, start, end, _ = span
            entry = functions.setdefault(self.names[nid], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - covered[i]
            closed += 1
        return {
            "functions": functions,
            "counts": dict(self.counts),
            "max_bits": self.max_bits,
            "peak_alloc_bytes": self.peak_alloc_bytes,
            "spans": closed,
        }
