"""In-memory spans around calls into the program's layers.

A span is [name, start, end, parent index, operation id]. Spans live in a
list until the run ends; nothing is written while an operation runs.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import stratalloc.algorithms
import stratalloc.rounding


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: list[tuple[str, float, int]] = []
        self.op = -1
        self._stack: list[int] = []

    def start_op(self) -> int:
        self.op += 1
        return self.op

    def call(self, name: str, fn, /, *args, **kwargs):
        """Run fn inside a span called name."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts.append((name, value, self.op))

    def wrap(self, name: str, fn, counter=None):
        """fn traced as name; counter(result, args) yields (count name, value)."""

        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                for key, value in counter(result, args):
                    self.count(key, value)
            return result

        return traced

    def solver(self, name: str, fn):
        return self.wrap(f"algorithms.{name}", fn,
                         lambda res, args: [(f"algorithms.iterations.{name}", res.iterations)])

    @contextmanager
    def patched(self):
        """Trace the calls that algorithms and variance_table make inside the
        program. A name the program no longer has raises AttributeError, so
        that its time never moves unseen into the calling span."""
        targets = [
            (stratalloc.algorithms, "v_allocation", lambda fn: self.wrap("model.v_allocation", fn)),
            (stratalloc.rounding, "rna", lambda fn: self.solver("rna", fn)),
            (stratalloc.rounding, "AllocationProblem", lambda fn: self.wrap("model.build", fn)),
            (stratalloc.rounding, "srswor_variance", lambda fn: self.wrap("model.srswor_variance", fn)),
            (stratalloc.rounding, "round_allocation", lambda fn: self.wrap(
                "rounding.round_allocation", fn,
                lambda res, args: [("rounding.zero_strata", sum(v == 0 for v in res.values()))])),
            (stratalloc.rounding, "greedy_integer_optimal", lambda fn: self.wrap(
                "oracles.greedy_integer", fn,
                lambda res, args: [("oracles.greedy_units", args[0].n - args[0].size)])),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
        try:
            for (mod, attr, make), (_, _, fn) in zip(targets, saved):
                setattr(mod, attr, make(fn))
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus its children's. Spans nest on one stack in
    one thread, so the children of a span never overlap."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def per_group(tracer: Tracer, group_of_op: list[int], scale_of_op: list[float]) -> dict[int, dict[str, float]]:
    """Self time ("<span name>_s", times the operation's scale) and counts
    summed per group of operations."""
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        out[group_of_op[span[4]]][span[0] + "_s"] += own * scale_of_op[span[4]]
    for name, value, op in tracer.counts:
        out[group_of_op[op]][name] += value
    return out
