"""In-memory span recording and the summary statistics the benchmark reports."""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

TAIL_SAMPLES_BEYOND = 10
TAIL_MAX_PERCENTILE = 90.0


class Tracer:
    """Spans [name, op id, parent index, start ns, end ns] kept in a list.

    ``span`` yields the record, so the caller can read its duration after
    the block.  A disabled tracer records nothing and yields None.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: int):
        if not self.enabled:
            yield None
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, op, parent, time.perf_counter_ns(), 0]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec[4] = time.perf_counter_ns()
            self._stack.pop()

    def durations_ms(self, keep=lambda op: True) -> dict[str, list[float]]:
        """Durations of the spans whose op id passes ``keep``, grouped by name, in milliseconds."""
        out = defaultdict(list)
        for name, op, _, start, end in self.spans:
            if keep(op):
                out[name].append((end - start) / 1e6)
        return out

    def overhead_ms_per_op(self, reps: int = 4000, rounds: int = 5) -> float:
        """Tracing cost of one traced operation (op id >= 0), in milliseconds.

        That is the spans recorded per traced operation times the cost of one
        span: the time of ``reps`` empty spans on an enabled tracer minus the
        same on a disabled one, per span, median over ``rounds``.
        """
        ops = [op for _, op, _, _, _ in self.spans if op >= 0]
        if not ops:
            return 0.0
        per_span = []
        for _ in range(rounds):
            clocks = []
            for probe in (Tracer(True), Tracer(False)):
                t0 = time.perf_counter_ns()
                for i in range(reps):
                    with probe.span("probe", i):
                        pass
                clocks.append(time.perf_counter_ns() - t0)
            per_span.append((clocks[0] - clocks[1]) / reps / 1e6)
        return len(ops) / len(set(ops)) * median(per_span)

    def self_times_ms(self, keep=lambda op: True) -> dict[str, list[float]]:
        """Each kept span's duration minus the time its direct children cover."""
        child = [0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(list)
        for i, (name, op, _, start, end) in enumerate(self.spans):
            if keep(op):
                out[name].append((end - start - child[i]) / 1e6)
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="ascii") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")


def median(values) -> float:
    """The median, or 0 when there are no samples (a layer the workload never called)."""
    return float(np.median(values)) if len(values) else 0.0


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, count): the highest percentile with ten samples beyond it, at most p90.

    For n samples that is the (n-10)/n quantile, taken as the sample just
    below the ten largest.  Past p90 the order statistics of a run measure
    preemption by other processes more than the program: on a 2-vCPU Xeon VM
    shared with other tenants, the p99 of inline-image spread 0.19-0.23
    (interquartile range over median) across runs of the same code, p95 and
    p90 0.03-0.05, and on inline-feature p95 0.13-0.19, p90 0.08.  So the
    percentile stops at p90.  With ten or fewer samples the tail is the maximum.
    """
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= TAIL_SAMPLES_BEYOND:
        return float(np.max(values)), 100.0, n
    pct = min(TAIL_MAX_PERCENTILE, 100.0 * (n - TAIL_SAMPLES_BEYOND) / n)
    return float(np.percentile(values, pct, method="lower")), pct, n
