"""The concurrent solve service: serving the homomorphism loop.

The north-star workload — many queries against few shared databases —
arrives *concurrently*.  This package layers a serving front end over
the :mod:`repro.core.pipeline`:

* :class:`SolveService` (:mod:`repro.service.service`) — asyncio
  ``submit`` / ``submit_many`` with admission control,
  per-request timeouts, and in-flight request coalescing keyed by
  canonical fingerprints; ``submit_containment`` admits query–query
  (Theorem 2.1 containment) traffic through the compiled query plane
  with the same coalescing plus its own stats route;
* execution on worker threads only, in admission order through the
  thread pool's one FIFO queue, under each request's cancellation
  scope, with one :class:`~repro.core.pipeline.StructureCache` shared
  by the threads.  The service runs in one process; for more cores,
  run several behind the edge's :class:`~repro.edge.router.ShardRouter`
  (usable in-process), whose shard respawn is the stack's one
  supervisor;
* :class:`ServiceStats` (:mod:`repro.service.stats`) — queue depth,
  coalesce hits, per-route latency histograms, aggregated per-solve
  :class:`~repro.core.pipeline.SolveStats`; each request is counted
  once at admission and closed once, into its stats, its flight
  recorder event and its span;
* one failure path — deadlines propagate into the kernel loops, and a
  failed solve reaches its waiters as a typed error (the one retry is a
  timed-out solve whose deadline a coalesced waiter extended);
  chaos-tested with seeded faults patched in from ``tests/``.

Load characteristics are measured by
``benchmarks/bench_p03_service_load.py`` (results in
``BENCH_service.json``).
"""

from repro.exceptions import (
    ResourceBudgetError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    SolveTimeoutError,
)
from repro.service.service import ServiceConfig, SolveService
from repro.service.stats import LatencyHistogram, ServiceStats

__all__ = [
    "LatencyHistogram",
    "ResourceBudgetError",
    "ServiceClosedError",
    "ServiceConfig",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceStats",
    "SolveService",
    "SolveTimeoutError",
]
