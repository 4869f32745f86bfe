"""Flight recorder: a bounded ring buffer of lifecycle events.

Black-box style: the service calls :meth:`FlightRecorder.record` at
every interesting transition — request admitted / coalesced / completed
/ failed / timed out, retry scheduled, store warmed, service drained —
and the recorder keeps the most recent ``capacity`` events with a
global sequence number and a monotonic timestamp.  Nothing is
formatted until someone asks (:meth:`dump` / :meth:`to_json`), so the
recording path is one lock and one ``dict``.

The chaos suite asserts against the recorder: every retry counted by
:class:`ServiceStats` must have a matching event, which is how we know
the black box would actually explain a real incident.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any

__all__ = ["FlightRecorder", "default_recorder"]

_ENV_CAPACITY = "REPRO_RECORDER_SIZE"


class FlightRecorder:
    """Thread-safe bounded log of structured lifecycle events."""

    DEFAULT_CAPACITY = 2048

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is None:
            raw = os.environ.get(_ENV_CAPACITY)
            capacity = int(raw) if raw else self.DEFAULT_CAPACITY
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._events: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._seq = 0
        self._dropped = 0

    def record(self, kind: str, **fields: Any) -> dict[str, Any]:
        """Append one event; returns the stored dict (already sequenced)."""
        event: dict[str, Any] = {
            "seq": 0,  # patched under the lock
            "ts": time.monotonic(),
            "kind": kind,
        }
        event.update(fields)
        with self._lock:
            self._seq += 1
            event["seq"] = self._seq
            if len(self._events) == self.capacity:
                self._dropped += 1
            self._events.append(event)
        return event

    def events(self, kind: str | None = None) -> list[dict[str, Any]]:
        """A snapshot of buffered events, optionally filtered by kind."""
        with self._lock:
            snapshot = list(self._events)
        if kind is None:
            return snapshot
        return [event for event in snapshot if event["kind"] == kind]

    def counts(self) -> dict[str, int]:
        """Buffered events per kind (after ring eviction)."""
        out: dict[str, int] = {}
        for event in self.events():
            out[event["kind"]] = out.get(event["kind"], 0) + 1
        return out

    @property
    def dropped(self) -> int:
        """Events evicted by the ring since construction."""
        with self._lock:
            return self._dropped

    @property
    def total_recorded(self) -> int:
        with self._lock:
            return self._seq

    def dump(self) -> dict[str, Any]:
        """A JSON-ready snapshot — what gets attached to error reports."""
        with self._lock:
            events = list(self._events)
            return {
                "capacity": self.capacity,
                "recorded": self._seq,
                "dropped": self._dropped,
                "events": events,
            }

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.dump(), indent=indent, default=str)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


_DEFAULT_RECORDER = FlightRecorder()


def default_recorder() -> FlightRecorder:
    """The process-wide recorder (services may also carry their own)."""
    return _DEFAULT_RECORDER
