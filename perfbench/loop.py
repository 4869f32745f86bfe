"""The closed loop: 2 blocking clients on 2 keep-alive connections.

Each client sends its next request only after the previous reply has
been decoded.  Both share one cursor over the workload's stream, so the
sequence of requests sent is fixed by the seed even though which client
sends which request is not.  Failures are counted by the layer that
produced them and never enter the latency samples.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.edge.client import EdgeClient
from repro.exceptions import (
    ReproError,
    ServiceClosedError,
    ServiceOverloadedError,
    SolveTimeoutError,
)

CLIENTS = 2
REQUEST_TIMEOUT_S = 60.0


@dataclass
class LoopResult:
    elapsed_s: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    #: Completion time (``perf_counter``) of each latency sample.
    completed_at: list[float] = field(default_factory=list)
    #: Window boundaries and the ``sample()`` reading taken at each.
    boundaries: list[float] = field(default_factory=list)
    readings: list = field(default_factory=list)
    #: ``(item index, decoded response)`` per answered request.
    answered: list[tuple[int, dict]] = field(default_factory=list)
    #: ``(layer, error name) → count``; layer is ``edge.admission``
    #: (429/503 refusals), ``shard`` (a typed error from the shard's
    #: envelope), ``timeout``, or ``transport``.
    failures: Counter = field(default_factory=Counter)
    #: Stream positions consumed (the next loop starts here).
    next_position: int = 0

    @property
    def attempted(self) -> int:
        return len(self.answered) + self.failed

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def failure_layer(exc: BaseException) -> str:
    if isinstance(exc, (ServiceOverloadedError, ServiceClosedError)):
        return "edge.admission"
    if isinstance(exc, (SolveTimeoutError, TimeoutError)):
        return "timeout"
    if isinstance(exc, ReproError):
        return "shard"
    return "transport"


def closed_loop(
    edge,
    workload,
    seconds: float,
    *,
    start_at: int = 0,
    tracer=None,
    parent: int | None = None,
    windows: int = 1,
    sample=None,
) -> LoopResult:
    """Drive ``workload.stream[start_at:]`` for ``seconds`` of wall time.

    The phase is cut into ``windows`` equal windows; ``sample()`` (when
    given) is read at every window boundary while the clients keep
    running, so per-window rates can be taken and their median reported.
    """
    result = LoopResult()
    stream = workload.stream
    cursor = iter(range(start_at, len(stream)))
    lock = threading.Lock()
    consumed = [start_at]
    deadline = time.perf_counter() + seconds

    def client_thread() -> None:
        client = EdgeClient(edge.host, edge.port, timeout=REQUEST_TIMEOUT_S)
        try:
            while time.perf_counter() < deadline:
                with lock:
                    position = next(cursor, None)
                    if position is not None:
                        consumed[0] = max(consumed[0], position + 1)
                if position is None:
                    return
                index = stream[position]
                item = workload.items[index]
                sent = time.perf_counter()
                try:
                    response = item.send(client)
                except Exception as exc:  # noqa: BLE001 — tallied by layer
                    with lock:
                        result.failures[(failure_layer(exc), type(exc).__name__)] += 1
                    if not isinstance(exc, ReproError):
                        client.close()
                        client = EdgeClient(
                            edge.host, edge.port, timeout=REQUEST_TIMEOUT_S
                        )
                    continue
                done = time.perf_counter()
                with lock:
                    result.latencies_ms.append((done - sent) * 1000.0)
                    result.completed_at.append(done)
                    result.answered.append((index, response))
                if tracer is not None:
                    tracer.record(
                        f"client.{item.op}",
                        sent,
                        done,
                        parent=parent,
                        trace=f"req-{position}",
                    )
        finally:
            client.close()

    threads = [threading.Thread(target=client_thread) for _ in range(CLIENTS)]
    started = time.perf_counter()
    result.boundaries.append(started)
    result.readings.append(sample() if sample else None)
    for thread in threads:
        thread.start()
    for window in range(1, windows):
        time.sleep(max(0.0, started + seconds * window / windows - time.perf_counter()))
        result.boundaries.append(time.perf_counter())
        result.readings.append(sample() if sample else None)
    for thread in threads:
        thread.join()
    result.boundaries.append(time.perf_counter())
    result.readings.append(sample() if sample else None)
    result.elapsed_s = time.perf_counter() - started
    result.next_position = consumed[0]
    return result


def serve_once(edge, items) -> list[dict]:
    """Send each item once at concurrency 1 (set-up and warm-up)."""
    with EdgeClient(edge.host, edge.port, timeout=REQUEST_TIMEOUT_S) as client:
        return [item.send(client) for item in items]
