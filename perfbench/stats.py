"""Percentiles with their sample counts, layer marginals, and spans.

Spans are kept in memory by a :class:`Tracer` and written out once, when
the run ends.  A span is ``(id, name, start, end, parent, trace)``; all
spans of one request share its ``trace`` id.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence


@dataclass(frozen=True)
class Percentile:
    """A percentile value and the number of samples it was taken over."""

    q: float
    value: float
    count: int


def percentile(samples: Sequence[float], q: float) -> Percentile:
    """The ``q``-th percentile (0..100), linear between closest ranks."""
    if not samples:
        return Percentile(q, math.nan, 0)
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (rank - low)
    return Percentile(q, value, len(ordered))


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50).value


def marginals(outer: Sequence[float], inner: Sequence[float]) -> list[float]:
    """Per-request self time of a layer: its time minus the inner layer's."""
    if len(outer) != len(inner):
        raise ValueError(f"{len(outer)} outer vs {len(inner)} inner samples")
    return [o - i for o, i in zip(outer, inner)]


def covered(intervals: Sequence[tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    trace: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_time(span: Span, spans: Sequence[Span]) -> float:
    """``span``'s duration minus the part its child spans cover."""
    children = [(s.start, s.end) for s in spans if s.parent == span.id]
    return span.duration - covered(children, span.start, span.end)


class Tracer:
    """Benchmark-side spans around calls into each layer (thread-safe)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def record(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: int | None = None,
        trace: str | None = None,
    ) -> int:
        with self._lock:
            span = Span(next(self._ids), name, start, end, parent, trace)
            self.spans.append(span)
        return span.id

    @contextmanager
    def span(
        self, name: str, *, parent: int | None = None, trace: str | None = None
    ) -> Iterator[Span]:
        """Time a block; the span (and its id) exists from the start."""
        with self._lock:
            span = Span(
                next(self._ids), name, time.perf_counter(), math.nan, parent, trace
            )
            self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total and self milliseconds."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            row = out.setdefault(
                span.name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0}
            )
            row["count"] += 1
            row["total_ms"] += span.duration * 1000
            row["self_ms"] += self_time(span, children.get(span.id, ())) * 1000
        return out

    def dump(self, path: str, **extra) -> None:
        payload = {
            **extra,
            "summary": self.summary(),
            "span_fields": ["id", "name", "start", "end", "parent", "trace"],
            "spans": [
                [s.id, s.name, round(s.start, 7), round(s.end, 7), s.parent, s.trace]
                for s in self.spans
            ],
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)
