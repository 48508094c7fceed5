"""In-memory spans around the calls the benchmark harness makes into each layer.

A span is (id, name, start, end, parent, op).  Ops are the unit a user waits
for (one market solved and checked, one kernel point, one table); every layer
call made while an op is open becomes its child and shares its op id.  With
tracing off only op durations are kept, so the untraced run pays one
``perf_counter`` pair per op and nothing per layer call.

With tracing on, the first call of each layer function in each op is made
twice: once under ``tracemalloc`` for its allocation peak, then again, timed,
for its span.  Repeated calls within one op take inputs of the same size (a
kernel point evaluates ``kappa`` at many t) unless the caller says otherwise
with a probe key, so the first call stands for the rest, and the memory probe (up to 9x slower on scalar Python code) stays off
the layer timings: it gets a span of its own, so it is not counted as the
op's self time either.  Layer calls must therefore be free of side effects.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple


PROBE = "trace.alloc_probe"  # span name of the tracemalloc pass before a timed call


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None


class Tracer:
    """Times ops always; records layer spans, allocation peaks and counts when enabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.op_seconds: list[float] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)  # bytes, kept across rounds
        self._next_id = 0
        self._op_id: int | None = None
        self._probed: set[tuple] = set()

    def reset(self) -> None:
        """Start a new round: drop spans, op times and counts."""
        self.spans = []
        self.op_seconds = []
        self.counts = defaultdict(int)

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @contextmanager
    def op(self, name: str):
        op_id = self._new_id()
        self._op_id = op_id
        self._probed = set()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._op_id = None
            self.op_seconds.append(end - start)
            if self.enabled:
                self.spans.append(Span(op_id, name, start, end, None, op_id))

    def call(self, name: str, fn, *args, probe_key=None, **kwargs):
        """Call ``fn`` as layer ``name``, under a span when tracing is on.

        ``probe_key`` marks calls whose allocations grow with an input (the n
        of a ladder): each distinct key gets its own memory probe.
        """
        if not self.enabled:
            return fn(*args, **kwargs)
        if (name, probe_key) not in self._probed:
            self._probed.add((name, probe_key))
            probe_id = self._new_id()
            start = time.perf_counter()
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                self.peaks[name] = max(self.peaks[name], tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
                self.spans.append(Span(probe_id, PROBE, start, time.perf_counter(), self._op_id, self._op_id))
        span_id = self._new_id()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append(Span(span_id, name, start, time.perf_counter(), self._op_id, self._op_id))

    def count(self, key: str, amount: float) -> None:
        """Add to an exact work counter (kept only when tracing)."""
        if self.enabled:
            self.counts[key] += amount


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None and s.parent != s.id:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_table(rounds: list[list[Span]]) -> dict[str, dict[str, float]]:
    """Per span name: calls per round and median busy (self) seconds per round."""
    per_round = []
    for spans in rounds:
        own = self_times(spans)
        acc: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for s in spans:
            acc[s.name][0] += 1
            acc[s.name][1] += own[s.id]
        per_round.append(acc)
    names = sorted({name for acc in per_round for name in acc})
    return {
        name: {
            "calls": max(acc[name][0] if name in acc else 0 for acc in per_round),
            "busy_s": statistics.median(acc[name][1] if name in acc else 0.0 for acc in per_round),
        }
        for name in names
    }
