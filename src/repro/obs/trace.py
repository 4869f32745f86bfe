"""Request-scoped tracing: a span tree with monotonic timings.

A trace is a tree of :class:`Span` records sharing one ``trace_id``.
The service opens a root span per admitted request; every layer the
request crosses (queue, retry loop, backend dispatch, planner decision,
kernel phase) hangs a child off whatever span is *ambient* on the
current thread.  Ambient propagation mirrors the cooperative-
cancellation design in :mod:`repro.core.cancellation`: a
``threading.local`` slot installed explicitly at each thread boundary
(:func:`span_scope`), never inherited implicitly, so the kernel loops
stay oblivious to where their work came from.

Crossing a *process* boundary cannot share objects, so only the
coordinates — ``(trace_id, parent_span_id)`` — travel with the job.  The
far side builds a fresh root from them (:meth:`Span.new_remote`), runs
its work under it, and ships the finished subtree back as an exported
dict, which the caller grafts under its dispatch span with
:meth:`Span.add_exported`: one tree, one trace id, spans on both sides.
(The edge's shard pipe is the boundary these helpers are kept for.)

Instrumentation points use :func:`maybe_span`, which is a shared no-op
context manager whenever no ambient span is installed — the disabled
path costs one ``threading.local`` attribute read.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from collections import deque
from collections.abc import Iterator, Mapping
from typing import Any

__all__ = [
    "Span",
    "TraceLog",
    "child_scope",
    "current_span",
    "maybe_span",
    "new_ids",
    "span_scope",
]


def _hex_id(nbytes: int) -> str:
    return os.urandom(nbytes).hex()


def new_ids() -> tuple[str, str]:
    """A fresh ``(trace_id, span_id)`` pair (128-bit / 64-bit hex)."""
    return _hex_id(16), _hex_id(8)


class Span:
    """One timed node in a trace tree.

    Timings come from ``time.perf_counter()`` — they are durations and
    orderings *within* one process, never wall-clock timestamps, so
    spans from different processes carry their own clocks and only
    durations are comparable across the graft point.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start",
        "end_time",
        "attributes",
        "children",
        "_exported_children",
    )

    def __init__(
        self,
        name: str,
        *,
        trace_id: str,
        span_id: str | None = None,
        parent_id: str | None = None,
        **attributes: Any,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id if span_id is not None else _hex_id(8)
        self.parent_id = parent_id
        self.name = name
        self.start = time.perf_counter()
        self.end_time: float | None = None
        self.attributes: dict[str, Any] = dict(attributes)
        self.children: list[Span] = []
        self._exported_children: list[dict[str, Any]] = []

    # -- construction ---------------------------------------------------

    @classmethod
    def new_root(cls, name: str, **attributes: Any) -> Span:
        trace_id, span_id = new_ids()
        return cls(name, trace_id=trace_id, span_id=span_id, **attributes)

    @classmethod
    def new_remote(
        cls, name: str, trace_id: str, parent_id: str, **attributes: Any
    ) -> Span:
        """A root for a remote (out-of-process) subtree of ``trace_id``."""
        return cls(
            name, trace_id=trace_id, parent_id=parent_id, **attributes
        )

    def child(self, name: str, **attributes: Any) -> Span:
        span = Span(
            name,
            trace_id=self.trace_id,
            parent_id=self.span_id,
            **attributes,
        )
        self.children.append(span)
        return span

    # -- mutation -------------------------------------------------------

    def set(self, **attributes: Any) -> None:
        self.attributes.update(attributes)

    def end(self) -> None:
        if self.end_time is None:
            self.end_time = time.perf_counter()

    def add_exported(self, exported: Mapping[str, Any]) -> None:
        """Graft an already-exported subtree (e.g. from a worker)."""
        self._exported_children.append(dict(exported))

    # -- inspection -----------------------------------------------------

    @property
    def duration_ms(self) -> float:
        end = self.end_time if self.end_time is not None else time.perf_counter()
        return (end - self.start) * 1000.0

    def export(self) -> dict[str, Any]:
        """A JSON-ready nested dict of this span and its descendants."""
        node: dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "duration_ms": round(self.duration_ms, 4),
        }
        if self.attributes:
            node["attributes"] = dict(self.attributes)
        children = [child.export() for child in self.children]
        children.extend(self._exported_children)
        if children:
            node["children"] = children
        return node

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.export(), indent=indent, default=str)

    def iter_spans(self) -> Iterator[dict[str, Any]]:
        """Flat iteration over the exported tree (local + grafted)."""
        stack = [self.export()]
        while stack:
            node = stack.pop()
            stack.extend(node.get("children", ()))
            yield node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, trace={self.trace_id[:8]}, "
            f"span={self.span_id})"
        )


# -- ambient span (thread-local, explicitly installed) -------------------

class _Ambient(threading.local):
    span: Span | None = None


_AMBIENT = _Ambient()


def current_span() -> Span | None:
    """The span installed on this thread, or ``None``."""
    return _AMBIENT.span


@contextlib.contextmanager
def span_scope(span: Span | None) -> Iterator[Span | None]:
    """Install ``span`` as this thread's ambient span for the block."""
    previous = _AMBIENT.span
    _AMBIENT.span = span
    try:
        yield span
    finally:
        _AMBIENT.span = previous


class _NullScope:
    """Shared no-op context manager for the tracing-disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, **attributes: Any) -> None:
        return None


_NULL_SCOPE = _NullScope()


def maybe_span(name: str, **attributes: Any):
    """Open a child span of the ambient span, or a shared no-op.

    The hot-path contract: when tracing is off (no ambient span) this
    returns a singleton whose ``__enter__``/``__exit__`` do nothing.
    """
    parent = _AMBIENT.span
    if parent is None:
        return _NULL_SCOPE
    return _RestoringScope(parent.child(name, **attributes), parent)


class _RestoringScope:
    """Child-span scope that restores the previous ambient span on exit."""

    __slots__ = ("span", "_previous")

    def __init__(self, span: Span, previous: Span | None) -> None:
        self.span = span
        self._previous = previous

    def __enter__(self) -> Span:
        _AMBIENT.span = self.span
        return self.span

    def __exit__(self, *exc: object) -> None:
        self.span.end()
        _AMBIENT.span = self._previous

    def set(self, **attributes: Any) -> None:
        self.span.set(**attributes)


@contextlib.contextmanager
def child_scope(
    parent: Span | None, name: str, **attributes: Any
) -> Iterator[Span | None]:
    """Open a child of an *explicit* parent and make it ambient.

    Used at thread boundaries where the parent span lives on another
    thread (the event loop) and must be threaded through by hand.
    Yields ``None`` (and installs nothing) when ``parent`` is ``None``.
    """
    if parent is None:
        yield None
        return
    span = parent.child(name, **attributes)
    with span_scope(span):
        try:
            yield span
        finally:
            span.end()


class TraceLog:
    """A bounded, thread-safe log of exported (finished) traces."""

    DEFAULT_CAPACITY = 256

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._lock = threading.Lock()
        self._traces: deque[dict[str, Any]] = deque(maxlen=capacity)

    def append(self, exported: Mapping[str, Any]) -> None:
        with self._lock:
            self._traces.append(dict(exported))

    def last(self) -> dict[str, Any] | None:
        with self._lock:
            return self._traces[-1] if self._traces else None

    def find(self, trace_id: str) -> dict[str, Any] | None:
        with self._lock:
            for trace in reversed(self._traces):
                if trace.get("trace_id") == trace_id:
                    return dict(trace)
        return None

    def dump(self) -> list[dict[str, Any]]:
        with self._lock:
            return [dict(trace) for trace in self._traces]

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.dump(), indent=indent, default=str)

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)
