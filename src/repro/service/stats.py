"""Service-level observability: counters and per-route latency histograms.

Builds on the existing per-solve machinery rather than replacing it:
every :class:`~repro.core.pipeline.Solution` the service completes still
carries its :class:`~repro.core.pipeline.SolveStats` (strategies
consulted, cache traffic, timings), and :class:`ServiceStats` folds those
into the service-wide picture — the per-route buckets are keyed by the
solution's ``strategy`` label (collapsed through
:func:`repro.core.strategies.base_route`), and the aggregate
``solve_cache_hits`` / ``solve_cache_misses`` counters are the sums of
the per-solution ``SolveStats`` counters.

All mutation happens on the service's event-loop thread, so the counters
need no locking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.pipeline import Solution
from repro.core.strategies import base_route, service_route_names

# LatencyHistogram's home moved to the observability plane; this
# re-export keeps the long-standing ``repro.service.stats`` (and
# ``repro.service``) import paths working.
from repro.obs.metrics import LatencyHistogram

__all__ = ["LatencyHistogram", "ServiceStats"]


@dataclass
class ServiceStats:
    """Cumulative counters and histograms of one :class:`SolveService`.

    ``queue_depth`` is the number of open requests not yet running on a
    worker thread (refreshed at each admission and completion);
    ``max_queue_depth`` its high-water mark.  A
    "coalesce hit" is a submit that attached to an in-flight duplicate
    instead of enqueuing work; ``rejected`` counts admission-control
    refusals, ``timeouts`` waiters that gave up (the underlying
    computation keeps running for any remaining waiters).
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    timeouts: int = 0
    #: Computations cancelled cooperatively from *inside* the kernel —
    #: the request's deadline expired (or the service was stopped) and
    #: the solve unwound instead of finishing.  Disjoint from ``failed``
    #: (a timeout is not an error of the instance) and from ``timeouts``
    #: (which counts *waiters* that gave up; their computation may well
    #: have completed for someone else).
    cancelled_solves: int = 0
    #: Solves re-run after a cooperative timeout whose shared deadline a
    #: more patient coalesced waiter had extended.
    retries: int = 0
    #: Requests that ultimately *succeeded* on such a re-run.
    requests_rescued: int = 0
    coalesce_hits: int = 0
    #: Query–query requests admitted via ``submit_containment`` (a subset
    #: of ``submitted``; their latencies land in the "containment" route
    #: bucket instead of the solving strategy's).
    containment_requests: int = 0
    #: Canonical-Datalog (Theorem 4.2) requests admitted via
    #: ``submit_datalog`` (also a subset of ``submitted``; latencies land
    #: in the "datalog" route bucket).
    datalog_requests: int = 0
    queue_depth: int = 0
    max_queue_depth: int = 0
    solve_cache_hits: int = 0
    solve_cache_misses: int = 0
    #: End-to-end (admission → completion) latency per route; pre-seeded
    #: with every built-in route so snapshots enumerate them all.
    route_latency: dict[str, LatencyHistogram] = field(
        default_factory=lambda: {
            name: LatencyHistogram() for name in service_route_names()
        }
    )
    #: End-to-end latency across all routes.
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)

    def note_queued(self, depth: int) -> None:
        self.queue_depth = depth
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth

    def note_completed(
        self,
        solution: Solution,
        latency_ms: float,
        route: str | None = None,
    ) -> None:
        """Fold one finished solve into the service-wide picture.

        ``route`` overrides the latency bucket (the service passes
        ``"containment"`` for query–query traffic); by default the
        bucket is the solving strategy's base route.
        """
        self.completed += 1
        if solution.stats is not None:
            self.solve_cache_hits += solution.stats.cache_hits
            self.solve_cache_misses += solution.stats.cache_misses
        if route is None:
            route = base_route(solution.strategy)
        histogram = self.route_latency.get(route)
        if histogram is None:
            histogram = self.route_latency[route] = LatencyHistogram()
        histogram.record(latency_ms)
        self.latency.record(latency_ms)

    def snapshot(self) -> dict:
        """A JSON-ready view (the benchmark dumps this verbatim)."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "timeouts": self.timeouts,
            "cancelled_solves": self.cancelled_solves,
            "retries": self.retries,
            "requests_rescued": self.requests_rescued,
            "coalesce_hits": self.coalesce_hits,
            "containment_requests": self.containment_requests,
            "datalog_requests": self.datalog_requests,
            "queue_depth": self.queue_depth,
            "max_queue_depth": self.max_queue_depth,
            "solve_cache_hits": self.solve_cache_hits,
            "solve_cache_misses": self.solve_cache_misses,
            "latency": self.latency.snapshot(),
            "routes": {
                route: histogram.snapshot()
                for route, histogram in sorted(self.route_latency.items())
            },
        }
