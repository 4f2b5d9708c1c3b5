"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer, recorded around the call by the benchmark
(nothing inside kaburlint is instrumented). Each span keeps its run id, id,
parent id, name, start and end (``perf_counter_ns``) and the counters
recorded at the same boundary. Spans stay in memory and are written as JSON
lines when the traced command ends; self times are computed from them.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.records: list[list] = []  # [id, parent, name, start, end, counts]
        self._stack: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, start, end, counts in self.records:
                handle.write(json.dumps([self.run_id, sid, parent, name, start, end, counts]) + "\n")


class _Span:
    __slots__ = ("tracer", "record", "counts")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.counts: dict[str, int] = {}
        stack = tracer._stack
        self.record = [len(tracer.records), stack[-1] if stack else -1, name, 0, 0, self.counts]

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        tracer.records.append(self.record)
        tracer._stack.append(self.record[0])
        self.record[3] = perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        self.record[4] = perf_counter_ns()
        self.tracer._stack.pop()


def read_spans(path: Path) -> list[list]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def summarize(spans: list[list]) -> tuple[dict[str, float], dict[str, float], dict, dict]:
    """Per span name: self seconds, total seconds, summed and maximum counters.

    A span's self time is its duration minus the time its child spans cover
    (children never overlap: one thread records them, properly nested).
    """
    child_ns: dict[tuple[str, int], int] = defaultdict(int)
    for run_id, _sid, parent, _name, start, end, _counts in spans:
        if parent >= 0:
            child_ns[(run_id, parent)] += end - start
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    sums: dict[str, float] = defaultdict(float)
    maxima: dict[str, float] = {}
    for run_id, sid, _parent, name, start, end, counts in spans:
        self_s[name] += (end - start - child_ns[(run_id, sid)]) / 1e9
        total_s[name] += (end - start) / 1e9
        for key, value in counts.items():
            sums[key] += value
            maxima[key] = max(maxima.get(key, value), value)
    return dict(self_s), dict(total_s), dict(sums), maxima
