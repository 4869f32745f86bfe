"""The concurrent solve service: an asyncio front end over the pipeline.

Kolaitis–Vardi's equivalence makes the pipeline's core loop exactly what
a database engine runs per query, and the realistic serving shape is
many queries arriving concurrently against a small set of shared
databases.  :class:`SolveService` is that serving layer:

* **Front end** — :meth:`SolveService.submit` / :meth:`submit_many`
  return awaitables resolving to the pipeline's
  :class:`~repro.core.pipeline.Solution`.  Admission control bounds the
  number of open requests (:class:`ServiceOverloadedError` at the front
  door beats an unbounded queue); each request carries an optional
  per-request timeout.
* **Coalescing** — duplicate *in-flight* requests (same instance up to
  structural equality, same solve options — keyed by
  :func:`repro.structures.fingerprint.instance_fingerprint`) attach to
  the running computation and receive the identical ``Solution`` object.
  Nothing about results is cached beyond the in-flight window, so a
  failed or timed-out solve can never poison later answers.
* **Execution** — each admitted request goes straight onto the
  ``ThreadPoolExecutor``, whose FIFO queue is the service's one queue:
  requests start in admission order, ``thread_workers`` at a time.
  Every solve runs ``SolverPipeline.solve`` under the request's
  cancellation scope, so the kernel loops abandon it cooperatively once
  its deadline passes.  The service is single-process by design: the
  multi-core path is the edge's :class:`~repro.edge.router.ShardRouter`,
  whose shard processes each run one of these services and whose
  respawn loop is the one supervisor in the stack.
* **Caching** — the pipeline shares one
  :class:`~repro.core.pipeline.StructureCache` across the worker
  threads; its lock covers only table reads and writes, so a thread
  computing one structure's analysis never blocks a lookup of another.
* **Observability** — one record per request.  A submit is counted
  once, as admitted, coalesced or rejected; an admitted request closes
  once, as ``completed``, ``timeout``, ``closed`` or ``failed``, in one
  method that folds it into :class:`~repro.service.stats.ServiceStats`
  (``service.stats``: queue depth, coalesce hits, per-route latency
  histograms, folded per-solve :class:`~repro.core.pipeline.SolveStats`),
  writes its one event to ``service.recorder`` (a bounded flight
  recorder) and sets its span attributes from the same fields.
  ``service.metrics`` (Prometheus exposition via
  :meth:`SolveService.exposition`) is derived from ``stats.snapshot()``
  at scrape time, and with ``ServiceConfig.trace`` on,
  ``service.trace_log`` holds one end-to-end span tree per finished
  request, kernel phases included.
* **Failure** — each request carries a deadline that propagates into
  the kernel hot loops (:mod:`repro.core.cancellation`), so a timed-out
  solve stops consuming its worker.  A failed solve has one outcome:
  its exception reaches every waiter as a typed error.  The one retry
  is a cooperative timeout whose shared deadline a more patient
  coalesced waiter has since extended.

Typical use::

    async with SolveService() as service:
        solution = await service.submit(source, target)
        answers = await service.submit_many(pairs)

The service must be started (and submitted to) from one event loop;
``async with`` handles start/stop, including draining in-flight work.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Awaitable, Iterable

if TYPE_CHECKING:  # pragma: no cover — annotation-only import
    from repro.cq.compiled import CompiledQuery
    from repro.cq.query import ConjunctiveQuery
    from repro.persist import ArtifactStore

from repro.core.cancellation import CancellationToken, Deadline, cancel_scope
from repro.core.pipeline import (
    DEFAULT_WIDTH_THRESHOLD,
    Solution,
    SolverPipeline,
    StructureCache,
)
from repro.core.strategies import CONTAINMENT_ROUTE, DATALOG_ROUTE
from repro.exceptions import (
    ServiceClosedError,
    ServiceOverloadedError,
    SolveTimeoutError,
    VocabularyError,
)
from repro.obs.logs import get_logger
from repro.obs.metrics import Counter, Gauge, default_registry
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import Span, TraceLog, child_scope
from repro.service.stats import ServiceStats
from repro.structures.fingerprint import instance_fingerprint
from repro.structures.structure import Structure

__all__ = ["ServiceConfig", "SolveService"]

_log = get_logger("service")


def _env_trace_default() -> bool:
    """``REPRO_TRACE=1`` turns per-request tracing on process-wide."""
    value = os.environ.get("REPRO_TRACE", "0").strip().lower()
    return value not in ("", "0", "false", "no", "off")


def _env_store_default() -> str | None:
    """``REPRO_STORE=<dir>`` points the service at a persistent store."""
    value = os.environ.get("REPRO_STORE", "").strip()
    return value or None


def _env_store_max_bytes_default() -> int | None:
    """``REPRO_STORE_MAX_BYTES=<n>`` bounds the store log (compaction)."""
    value = os.environ.get("REPRO_STORE_MAX_BYTES", "").strip()
    if not value:
        return None
    try:
        return int(value)
    except ValueError:
        return None


#: Distinguishes "caller passed nothing" from an explicit ``None``
#: (``timeout=None`` means "wait forever").
_UNSET = object()

#: How a closed request is reported, by outcome: its flight-recorder
#: event kind and its span's ``outcome`` attribute.  A request that
#: ``stop(drain=False)`` closed before its solve started has no event.
_CLOSE_REPORTS: dict[str, tuple[str | None, str]] = {
    "completed": ("request.completed", "completed"),
    "timeout": ("request.timeout", "timeout"),
    "closed": (None, "closed"),
    "failed": ("request.failed", "error"),
}

#: ``repro_service_requests_total`` outcome label → ``stats.snapshot()`` key.
_REQUEST_OUTCOMES = (
    ("submitted", "submitted"),
    ("completed", "completed"),
    ("failed", "failed"),
    ("rejected", "rejected"),
    ("timeouts", "timeouts"),
    ("cancelled", "cancelled_solves"),
    ("retries", "retries"),
    ("rescued", "requests_rescued"),
    ("coalesced", "coalesce_hits"),
)


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of a :class:`SolveService`.

    ``thread_workers`` sizes the worker-thread pool every solve runs on;
    admitted requests wait in that pool's FIFO queue.
    ``process_workers`` is kept only for callers that still pass it: the
    service runs no process pool, so ``0`` (the default) is the one
    accepted value and anything else raises ``ValueError`` — use
    :class:`~repro.edge.router.ShardRouter` for more cores.  The field
    is removed once the benchmark ledger stops passing it.
    ``max_pending`` bounds *open* requests (queued plus executing);
    coalesced duplicates ride along for free and are never rejected.
    ``cache_maxsize`` bounds each analysis table of the service's one
    :class:`~repro.core.pipeline.StructureCache`.
    ``plan=True`` lets the pipeline's width-aware planner strategy pick
    the solving engine per request (and consider the pebble route), with
    the decision visible in each ``Solution.stats.plan``.

    ``retry_budget`` bounds how many more times a solve is re-run after
    it timed out cooperatively while a more patient coalesced waiter
    extended the shared deadline; every other failure reaches the
    waiters at once.

    ``trace=True`` opens a root span per admitted request and threads it
    through every layer the request crosses — queue, retry loop, worker
    thread, planner decision, kernel phases — with finished traces
    collected on ``service.trace_log``.  The default comes from the
    ``REPRO_TRACE`` environment variable.

    The persistence knobs: ``store_path`` (default: the ``REPRO_STORE``
    environment variable) opens a crash-safe
    :class:`~repro.persist.ArtifactStore` there at startup, and a
    restarted service starts *warm*: with ``store_warm`` (default) every
    persisted structure artifact is seeded into the structure cache and
    every compiled query into the containment fast path before the first
    request is admitted.  ``store_max_bytes`` (``REPRO_STORE_MAX_BYTES``)
    bounds the log via newest-first compaction.  ``drain_timeout`` is
    :meth:`SolveService.drain`'s default grace period before in-flight
    solves are cooperatively cancelled.  A store that cannot be opened
    (writer lock held, unwritable path) logs a warning and the service
    runs store-less — persistence is an accelerator, never a
    prerequisite for answering.
    """

    thread_workers: int = 4
    process_workers: int = 0
    max_pending: int = 1024
    default_timeout: float | None = None
    cache_maxsize: int = StructureCache.DEFAULT_MAXSIZE
    width_threshold: int = DEFAULT_WIDTH_THRESHOLD
    try_pebble_refutation: int | None = None
    plan: bool = False
    retry_budget: int = 2
    trace: bool = field(default_factory=_env_trace_default)
    store_path: str | None = field(default_factory=_env_store_default)
    store_max_bytes: int | None = field(
        default_factory=_env_store_max_bytes_default
    )
    store_warm: bool = True
    drain_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.process_workers != 0:
            raise ValueError(
                f"process_workers={self.process_workers!r}: SolveService "
                "is thread-only; run several through ShardRouter for more "
                "cores"
            )


@dataclass
class _Request:
    """One admitted (non-coalesced) request."""

    seq: int
    key: tuple
    source: Structure
    target: Structure
    options: dict
    future: asyncio.Future
    #: The shared cancellation token: carries the loosest deadline across
    #: every coalesced waiter (a patient late-attacher *extends* it) and
    #: is checked cooperatively inside the kernel hot loops.
    token: CancellationToken
    #: Latency-bucket override ("containment" for query–query traffic);
    #: ``None`` buckets by the solving strategy's route.
    route: str | None = None
    enqueued_at: float = field(default_factory=time.perf_counter)
    #: The request's root trace span (``None`` with tracing off).
    span: Span | None = None


def _consume_exception(future: asyncio.Future) -> None:
    """Mark a failed future's exception retrieved.

    Every waiter may have timed out and walked away; without this, the
    event loop logs "exception was never retrieved" at GC time.
    """
    if not future.cancelled():
        future.exception()


class SolveService:
    """The concurrent solving service (see module docstring).

    Parameters
    ----------
    config:
        Tuning knobs; defaults are sensible for tests and small servers.
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self._config = config if config is not None else ServiceConfig()
        self.cache = StructureCache(self._config.cache_maxsize)
        #: The pipeline every solve runs on, sharing the structure cache.
        self.pipeline = SolverPipeline(cache=self.cache)
        self.stats = ServiceStats()
        #: Finished request traces (bounded; populated with tracing on).
        self.trace_log = TraceLog()
        #: Lifecycle flight recorder: admissions, completions, failures,
        #: retries — dumped when debugging an incident, asserted against
        #: in the chaos suite.
        self.recorder = FlightRecorder()
        #: The registry this service's scrape-time collector reports
        #: into (the process-wide default, shared with kernel counters).
        self.metrics = default_registry()
        #: The persistent artifact store (opened by :meth:`start` when
        #: the config names a path; ``None`` while stopped, after a
        #: failed open, or with persistence off).
        self.store: "ArtifactStore | None" = None
        self._store_prev_default: "ArtifactStore | None" = None
        self._store_is_default = False
        #: Compiled-query artifacts recovered from the store (or written
        #: through this process), keyed by query fingerprint — the
        #: containment front door's warm path.
        self._query_artifacts: dict[str, "CompiledQuery"] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread_pool: ThreadPoolExecutor | None = None
        self._inflight: dict[tuple, _Request] = {}
        self._open_requests = 0
        #: Solves executing on a worker thread right now; the rest of
        #: the open requests wait in the executor's queue.  Written by
        #: the worker threads, hence the lock.
        self._running_solves = 0
        self._running_solves_lock = threading.Lock()
        self._seq = itertools.count()
        self._tasks: set[asyncio.Task] = set()
        self._capacity: asyncio.Condition | None = None
        self._running = False

    # -- lifecycle -----------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._running

    @property
    def config(self) -> ServiceConfig:
        return self._config

    async def start(self) -> "SolveService":
        """Start the worker threads and bind to the running loop."""
        if self._running:
            return self
        self._loop = asyncio.get_running_loop()
        self._open_store()
        self._thread_pool = ThreadPoolExecutor(
            max_workers=self._config.thread_workers,
            thread_name_prefix="repro-solve",
        )
        self._capacity = asyncio.Condition()
        self.metrics.register_collector(self._metrics_collector)
        self._running = True
        return self

    async def stop(self, *, drain: bool = True) -> None:
        """Stop the service; with ``drain`` (default) finish open work.

        Without ``drain``, requests still waiting in the executor's
        queue — and with them every coalesced follower sharing their
        futures — fail *deterministically* with
        :class:`ServiceClosedError` (never a bare ``CancelledError``),
        and their fingerprint entries leave the coalescing table before
        ``stop`` returns; admission is already closed, so nothing can
        attach to them meanwhile.  Already-running solves are awaited
        either way (threads cannot be interrupted safely), and their
        waiters still receive the result.
        """
        if not self._running:
            return
        self._running = False
        assert self._capacity is not None and self._thread_pool is not None
        if not drain:
            # Queued attempts are cancelled; each one's _execute task
            # then fails its request with ServiceClosedError.
            self._thread_pool.shutdown(wait=False, cancel_futures=True)
            # Wake submit_many callers blocked on backpressure; their
            # retry observes the stopped service and raises.
            async with self._capacity:
                self._capacity.notify_all()
        while self._open_requests > 0:
            async with self._capacity:
                if self._open_requests == 0:
                    break
                await self._capacity.wait()
        await self._teardown()

    async def drain(self, timeout: float | None = None) -> bool:
        """Gracefully wind the service down; ``True`` if nothing was cut.

        The shutdown contract for a service that persists state: stop
        admitting (new submits raise :class:`ServiceClosedError`), let
        in-flight and queued requests finish for up to ``timeout``
        seconds (default: ``config.drain_timeout``), then cooperatively
        cancel whatever is still running — each survivor's token is
        force-expired, so the kernel loops unwind within one check
        interval and every waiter gets a deterministic
        :class:`SolveTimeoutError`, never a half-written answer.  Either
        way the artifact store is flushed (fsync) and closed afterwards,
        so everything completed before the cut-off is durable.

        Idempotent, and safe to call instead of :meth:`stop`; returns
        ``True`` when all open requests completed inside the grace
        period, ``False`` when stragglers had to be cancelled.
        """
        if not self._running:
            return True
        if timeout is None:
            timeout = self._config.drain_timeout
        self._running = False
        self.recorder.record(
            "service.drain",
            open_requests=self._open_requests,
            timeout_s=timeout,
        )
        assert self._capacity is not None
        deadline = Deadline.after(timeout)
        while self._open_requests > 0 and not deadline.expired():
            async with self._capacity:
                if self._open_requests == 0:
                    break
                try:
                    await asyncio.wait_for(
                        self._capacity.wait(), max(deadline.remaining(), 0.0)
                    )
                except asyncio.TimeoutError:
                    break
        clean = self._open_requests == 0
        if not clean:
            # Grace period over: expire every survivor's shared token.
            # Running solves hit it at their next cooperative check;
            # still-queued requests fail at their first.
            self.recorder.record(
                "service.drain.expired", open_requests=self._open_requests
            )
            for request in list(self._inflight.values()):
                request.token.deadline = Deadline.after(0.0)
                request.token.cancel()
            while self._open_requests > 0:
                async with self._capacity:
                    if self._open_requests == 0:
                        break
                    await self._capacity.wait()
        await self._teardown()
        return clean

    async def _teardown(self) -> None:
        """Release every resource ``start`` acquired (stop/drain tail)."""
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        if self._thread_pool is not None:
            self._thread_pool.shutdown(wait=True)
            self._thread_pool = None
        self.metrics.unregister_collector(self._metrics_collector)
        self._close_store()

    def _open_store(self) -> None:
        """Open the configured artifact store, degrading to store-less."""
        config = self._config
        if config.store_path is None or self.store is not None:
            return
        from repro.exceptions import ArtifactStoreError
        from repro.persist import ArtifactStore
        from repro.persist import runtime as persist_runtime

        try:
            store = ArtifactStore(
                config.store_path,
                max_bytes=config.store_max_bytes,
                recorder=self.recorder,
            )
        except (OSError, ArtifactStoreError) as exc:
            _log.warning(
                "artifact store unavailable at %s: %s — serving store-less",
                config.store_path,
                exc,
                extra={
                    "event": "store.unavailable",
                    "path": config.store_path,
                },
            )
            return
        self.store = store
        self.cache.attach_store(store)
        # The canonical-Datalog plane reads/writes ρ_B records through
        # the process-wide default handle; remember what we displaced so
        # nested services (tests) restore cleanly.
        self._store_prev_default = persist_runtime.set_default_store(store)
        self._store_is_default = True
        if config.store_warm:
            warmed = store.warm_cache(self.cache)
            self._query_artifacts = dict(store.query_artifacts())
            self.recorder.record(
                "store.warm",
                structures=warmed,
                queries=len(self._query_artifacts),
            )

    def _close_store(self) -> None:
        """Flush + close the store and restore the default-store handle."""
        if self.store is None:
            return
        from repro.persist import runtime as persist_runtime

        try:
            self.store.close()
        except OSError as exc:  # pragma: no cover — close is best-effort
            _log.warning(
                "artifact store close failed: %s",
                exc,
                extra={"event": "store.close_failed"},
            )
        if self._store_is_default:
            persist_runtime.set_default_store(self._store_prev_default)
            self._store_prev_default = None
            self._store_is_default = False
        self.cache.attach_store(None)
        self.store = None
        self._query_artifacts = {}

    async def __aenter__(self) -> "SolveService":
        return await self.start()

    async def __aexit__(self, *_exc_info) -> None:
        await self.stop()

    # -- the front end -------------------------------------------------------

    def submit(
        self,
        source: Structure,
        target: Structure,
        *,
        timeout: float | None = _UNSET,  # type: ignore[assignment]
        width_threshold: int | None = None,
        try_pebble_refutation: int | None = _UNSET,  # type: ignore[assignment]
    ) -> Awaitable[Solution]:
        """Admit one request; returns an awaitable of its ``Solution``.

        Raises :class:`ServiceOverloadedError` synchronously when
        admission control refuses (the returned awaitable is never
        created), :class:`VocabularyError` for mismatched vocabularies.
        Awaiting the result raises :class:`SolveTimeoutError` if the
        per-request timeout elapses first.
        """
        return self._submit(
            source,
            target,
            timeout=timeout,
            width_threshold=width_threshold,
            try_pebble_refutation=try_pebble_refutation,
        )

    def submit_containment(
        self,
        q1: "ConjunctiveQuery",
        q2: "ConjunctiveQuery",
        *,
        timeout: float | None = _UNSET,  # type: ignore[assignment]
    ) -> Awaitable[Solution]:
        """Admit a containment request ``Q1 ⊆ Q2`` (Theorem 2.1 route).

        The query plane's service entry point: the pair is translated to
        its homomorphism instance ``D_{Q2} → D_{Q1}`` through the
        compiled-query artifacts (:mod:`repro.cq.compiled` — canonical
        databases built once per query and memoized), then admitted like
        any solve.  Query–query traffic therefore gets everything solves
        get: coalescing (two connections asking the same containment
        share one computation), timeouts, and backpressure
        accounting — plus its own ``"containment"`` latency bucket and
        the ``containment_requests`` counter in :class:`ServiceStats`.

        Awaiting the result yields the underlying :class:`Solution`;
        ``solution.exists`` is the containment verdict and
        ``solution.homomorphism`` the containment witness (or ``None``).
        Raises :class:`VocabularyError` for arity-incompatible queries
        and :class:`ServiceOverloadedError` on admission refusal.
        """
        from repro.cq.query import check_compatible

        check_compatible(q1, q2)
        union = q1.vocabulary.union(q2.vocabulary)
        cq1 = self._compile_query_warm(q1)
        cq2 = self._compile_query_warm(q2)
        target = cq1.canonical_for(union)
        source = cq2.canonical_for(union)
        if self.store is not None:
            # Written *after* canonical_for so the persisted artifact
            # carries this union's canonical database; put() is
            # insert-only, so an already-stored query costs one index
            # probe.
            self.store.put("query", cq1.fingerprint, cq1)
            self.store.put("query", cq2.fingerprint, cq2)
        return self._submit(
            source,
            target,
            timeout=timeout,
            width_threshold=None,
            try_pebble_refutation=_UNSET,
            route=CONTAINMENT_ROUTE,
        )

    def _compile_query_warm(self, query: "ConjunctiveQuery") -> "CompiledQuery":
        """``compile_query`` through the store-recovered artifact map.

        A fingerprint hit adopts the persisted :class:`CompiledQuery` —
        canonical databases and all — as the query's compile memo, so a
        restarted service answers its first containment on a known query
        without rebuilding ``D_Q``.
        """
        from repro.cq.compiled import compile_query, query_fingerprint

        if query._compiled is None and self._query_artifacts:
            stored = self._query_artifacts.get(query_fingerprint(query))
            if stored is not None:
                query._compiled = stored
                return stored
        compiled = compile_query(query)
        if self.store is not None:
            self._query_artifacts.setdefault(compiled.fingerprint, compiled)
        return compiled

    def submit_datalog(
        self,
        source: Structure,
        target: Structure,
        *,
        k: int = 2,
        timeout: float | None = _UNSET,  # type: ignore[assignment]
    ) -> Awaitable[Solution]:
        """Admit a canonical-Datalog request (the Theorem 4.2 route).

        The Datalog plane's service entry point: "does the canonical
        k-Datalog program ρ_B derive its goal on A?" — which by Theorem
        4.2 the planner answers through the compiled k-pebble game, never
        materializing ρ_B.  The request is admitted like any solve (with
        ``plan`` forced on so the planner strategy can claim it), so it
        gets coalescing, timeouts, and backpressure — plus
        its own ``"datalog"`` latency bucket and the
        ``datalog_requests`` counter in :class:`ServiceStats`.

        Awaiting the result yields the underlying :class:`Solution` —
        exact either way: ``solution.exists`` is ``False`` when ρ_B
        derives its goal (the Spoiler wins, so ``A ↛ B``), and otherwise
        the planner's search fallback decided the instance, with the
        routing visible in ``solution.stats.plan``.
        """
        return self._submit(
            source,
            target,
            timeout=timeout,
            width_threshold=None,
            try_pebble_refutation=_UNSET,
            route=DATALOG_ROUTE,
            datalog_k=k,
        )

    async def submit_many(
        self,
        pairs: Iterable[tuple[Structure, Structure]],
        *,
        timeout: float | None = _UNSET,  # type: ignore[assignment]
        width_threshold: int | None = None,
        try_pebble_refutation: int | None = _UNSET,  # type: ignore[assignment]
        return_exceptions: bool = False,
    ) -> list[Solution]:
        """Submit a batch and await all results (input order preserved).

        Unlike :meth:`submit`, a full service applies *backpressure*
        instead of rejecting: admission waits for capacity, and a wait
        counts neither as a rejection nor as another submit.  With
        ``return_exceptions`` per-request failures (timeouts included)
        come back in the result list instead of raising.
        """
        waiters: list[Awaitable[Solution]] = []
        try:
            for source, target in pairs:
                while (
                    waiter := self._submit(
                        source,
                        target,
                        timeout=timeout,
                        width_threshold=width_threshold,
                        try_pebble_refutation=try_pebble_refutation,
                        backpressure=True,
                    )
                ) is None:
                    assert self._capacity is not None
                    async with self._capacity:
                        await self._capacity.wait()
                waiters.append(waiter)
        except BaseException:
            # Don't leak never-awaited waiter coroutines when a later
            # admission fails; the already-admitted solves themselves
            # keep running and resolve their futures normally.
            for waiter in waiters:
                waiter.close()  # type: ignore[attr-defined]
            raise
        return await asyncio.gather(
            *waiters, return_exceptions=return_exceptions
        )

    def _submit(
        self,
        source: Structure,
        target: Structure,
        *,
        timeout,
        width_threshold: int | None,
        try_pebble_refutation,
        route: str | None = None,
        datalog_k: int | None = None,
        backpressure: bool = False,
    ) -> Awaitable[Solution] | None:
        """Admit, coalesce or refuse one submit; counted once either way.

        A full service raises :class:`ServiceOverloadedError`, counted as
        a rejection; with ``backpressure`` it returns ``None`` instead and
        counts nothing, so :meth:`submit_many` can wait and try again.
        """
        if not self._running or self._loop is None:
            raise ServiceClosedError(
                "service is not running; use 'async with SolveService()'"
            )
        if source.vocabulary != target.vocabulary:
            raise VocabularyError(
                "a homomorphism problem needs a common vocabulary"
            )
        config = self._config
        if timeout is _UNSET:
            timeout = config.default_timeout
        options = {
            "width_threshold": (
                config.width_threshold
                if width_threshold is None
                else width_threshold
            ),
            "try_pebble_refutation": (
                config.try_pebble_refutation
                if try_pebble_refutation is _UNSET
                else try_pebble_refutation
            ),
            # A canonical-Datalog request forces planning on: the route
            # only exists inside the planner strategy.
            "plan": config.plan or datalog_k is not None,
            "try_canonical_datalog": datalog_k,
        }
        # The coalescing key is computed here, on the loop thread, because
        # admission and coalescing are synchronous by contract.  The
        # per-structure digests are memoized, so the cost is paid once per
        # Structure object; callers submitting very large *fresh*
        # structures per request can pre-warm off-loop by calling
        # canonical_fingerprint(structure) in an executor first.  The
        # route is part of the key so a containment request never
        # coalesces onto a plain solve of the same instance (or vice
        # versa) — the shared computation would land its latency in the
        # wrong stats bucket.
        key = (
            instance_fingerprint(source, target),
            options["width_threshold"],
            options["try_pebble_refutation"],
            options["plan"],
            options["try_canonical_datalog"],
            route,
        )
        existing = self._inflight.get(key)
        if existing is not None:
            self.stats.note_submitted(route, "coalesced")
            self.recorder.record("request.coalesced", leader_seq=existing.seq)
            if existing.span is not None:
                # A follower gets its own (tiny) trace that *links* to
                # the leader's computation instead of duplicating it.
                follower = Span.new_root(
                    "request.coalesced",
                    link_trace_id=existing.span.trace_id,
                    link_span_id=existing.span.span_id,
                )
                existing.future.add_done_callback(
                    lambda _future, span=follower: (
                        span.end(),
                        self.trace_log.append(span.export()),
                    )
                )
            # The shared computation must run as long as its most patient
            # waiter needs: an unbounded attacher lifts the deadline
            # entirely, a bounded one extends it (later wins).  The token
            # reads its deadline on every check, so this reaches a solve
            # that is already running.
            if timeout is None:
                existing.token.deadline = None
            elif existing.token.deadline is not None:
                existing.token.deadline.extend_to(Deadline.after(timeout))
            return self._wait(existing.future, timeout)
        if self._open_requests >= config.max_pending:
            if backpressure:
                return None
            self.stats.note_submitted(route, "rejected")
            raise ServiceOverloadedError(
                f"{self._open_requests} open requests "
                f"(max_pending={config.max_pending})"
            )
        self.stats.note_submitted(route, "admitted")
        request = _Request(
            seq=next(self._seq),
            key=key,
            source=source,
            target=target,
            options=options,
            future=self._loop.create_future(),
            token=CancellationToken(
                Deadline.after(timeout) if timeout is not None else None
            ),
            route=route,
        )
        request.future.add_done_callback(_consume_exception)
        if config.trace:
            request.span = Span.new_root(
                "request",
                seq=request.seq,
                route=route if route is not None else "solve",
            )
        self._inflight[key] = request
        self._open_requests += 1
        self._note_queue_depth()
        self.recorder.record(
            "request.admitted",
            seq=request.seq,
            queue_depth=self.stats.queue_depth,
        )
        task = asyncio.create_task(self._execute(request))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return self._wait(request.future, timeout)

    async def _wait(
        self, future: asyncio.Future, timeout: float | None
    ) -> Solution:
        """One waiter's view of a (possibly shared) computation.

        The shield keeps a waiter's timeout from cancelling the
        computation out from under coalesced duplicates.  Every way a
        waiter can lose is a *typed* error: a waiter-side timeout and a
        computation-side cooperative cancellation both surface as
        :class:`SolveTimeoutError` (and count in ``stats.timeouts``); a
        future torn down by service shutdown surfaces as
        :class:`ServiceClosedError`, never a bare ``CancelledError``.
        """
        try:
            return await asyncio.wait_for(asyncio.shield(future), timeout)
        except SolveTimeoutError:
            self.stats.timeouts += 1
            raise
        except asyncio.TimeoutError:
            self.stats.timeouts += 1
            raise SolveTimeoutError(
                f"solve did not finish within {timeout}s"
            ) from None
        except asyncio.CancelledError:
            if future.cancelled():
                raise ServiceClosedError(
                    "service closed while the solve was in flight"
                ) from None
            raise

    # -- telemetry -----------------------------------------------------------

    def exposition(self) -> str:
        """This process's metrics in Prometheus text format."""
        return self.metrics.exposition()

    def _note_queue_depth(self) -> None:
        """Refresh ``stats.queue_depth``: open requests not yet running."""
        self.stats.note_queued(self._open_requests - self._running_solves)

    def _metrics_collector(self):
        """Scrape-time registry view of ``stats.snapshot()``.

        Derives throwaway instruments from the one snapshot the
        benchmark and ``/v1/healthz?full=1`` also read, so the exposition
        cannot disagree with them.
        """
        snapshot = self.stats.snapshot()
        requests = Counter(
            "repro_service_requests_total",
            "Request lifecycle outcomes of the solve service.",
            ("outcome",),
        )
        for outcome, key in _REQUEST_OUTCOMES:
            requests.inc(snapshot[key], outcome=outcome)
        queue = Gauge(
            "repro_service_queue_depth",
            "Open requests waiting for a worker thread.",
        )
        queue.set(snapshot["queue_depth"])
        cache = Counter(
            "repro_service_cache_events_total",
            "Structure-cache traffic folded from per-solve stats.",
            ("event",),
        )
        cache.inc(snapshot["solve_cache_hits"], event="hit")
        cache.inc(snapshot["solve_cache_misses"], event="miss")
        latency = Gauge(
            "repro_service_latency_ms",
            "End-to-end latency percentiles per route (milliseconds).",
            ("route", "quantile"),
        )
        for route, entry in snapshot["routes"].items():
            if not entry["count"]:
                continue
            latency.set(entry["p50_ms"], route=route, quantile="0.5")
            latency.set(entry["p95_ms"], route=route, quantile="0.95")
            latency.set(entry["p99_ms"], route=route, quantile="0.99")
        return requests, queue, cache, latency

    def _thread_solve(self, request: _Request) -> Solution:
        """Runs on a worker thread: one pipeline solve of the request.

        Runs under the request's cancellation scope, so an
        already-expired deadline fails fast and a running solve is
        abandoned cooperatively once the deadline passes.
        """
        if request.span is not None:
            request.span.attributes.setdefault(
                "queue_ms",
                round((time.perf_counter() - request.enqueued_at) * 1000, 4),
            )
        with self._running_solves_lock:
            self._running_solves += 1
        try:
            with cancel_scope(request.token):
                request.token.check()
                with child_scope(request.span, "backend.thread"):
                    return self.pipeline.solve(
                        request.source, request.target, **request.options
                    )
        finally:
            with self._running_solves_lock:
                self._running_solves -= 1

    async def _run_on_thread(self, request: _Request) -> Solution:
        """One solve attempt, queued FIFO on the thread pool.

        ``stop(drain=False)`` shuts the pool down: an attempt it
        cancelled in the queue, or one that arrives after, fails with
        :class:`ServiceClosedError`.
        """
        assert self._loop is not None and self._thread_pool is not None
        try:
            attempt = self._loop.run_in_executor(
                self._thread_pool, self._thread_solve, request
            )
        except RuntimeError:  # the pool refuses work after shutdown
            raise ServiceClosedError(
                "service stopped before the solve started"
            ) from None
        try:
            return await attempt
        except asyncio.CancelledError:
            if self._running or not attempt.cancelled():
                raise
            raise ServiceClosedError(
                "service stopped before the solve started"
            ) from None

    async def _solve_resilient(self, request: _Request) -> Solution:
        """Run the request's solve; re-run only a rescued timeout.

        Any exception reaches the waiters as it is, with one exception:
        a cooperative timeout whose shared deadline has since been
        extended by a more patient coalesced waiter is re-run, at most
        ``retry_budget`` more times.
        """
        attempts = max(1, self._config.retry_budget + 1)
        for attempt in range(attempts):
            if attempt:
                self.stats.retries += 1
                self.recorder.record(
                    "request.retry", seq=request.seq, attempt=attempt
                )
            try:
                solution = await self._run_on_thread(request)
            except SolveTimeoutError:
                if attempt + 1 >= attempts or request.token.expired():
                    raise
                continue
            if attempt:
                self.stats.requests_rescued += 1
            return solution
        raise AssertionError("unreachable: the loop returns or raises")

    async def _execute(self, request: _Request) -> None:
        """Run the request's solve and close it with one outcome."""
        solution: Solution | None = None
        error: BaseException | None = None
        outcome = "completed"
        try:
            solution = await self._solve_resilient(request)
        except SolveTimeoutError as exc:
            # The deadline expired inside a kernel loop: the waiters see
            # a timeout, which is not a failure of the instance.
            outcome, error = "timeout", exc
        except ServiceClosedError as exc:
            # stop(drain=False) cut the request before its solve started.
            outcome, error = "closed", exc
        except Exception as exc:  # noqa: BLE001 — forwarded to the waiters
            outcome, error = "failed", exc
        except BaseException:
            # Cancelled (the loop is shutting down) or interrupted: the
            # waiters still get a typed error and the slot is released.
            outcome = "closed"
            error = ServiceClosedError("service closed while in flight")
            raise
        finally:
            await self._close(request, outcome, solution, error)

    async def _close(
        self,
        request: _Request,
        outcome: str,
        solution: Solution | None,
        error: BaseException | None,
    ) -> None:
        """Close one admitted request: the one place its fate is written.

        Folds the outcome into ``stats``, writes the request's one
        flight-recorder event and its span attributes from the same
        fields, exports the span, resolves the shared future and
        releases the in-flight slot.
        """
        latency_ms = (time.perf_counter() - request.enqueued_at) * 1000
        self.stats.note_closed(outcome, latency_ms, solution, request.route)
        event, span_outcome = _CLOSE_REPORTS[outcome]
        fields: dict = {"latency_ms": round(latency_ms, 3)}
        if error is not None:
            fields["error"] = repr(error)
        if event is not None:
            self.recorder.record(event, seq=request.seq, **fields)
        span = request.span
        if span is not None:
            if solution is not None:
                fields["strategy"] = solution.strategy
            span.set(outcome=span_outcome, **fields)
            span.end()
            self.trace_log.append(span.export())
        if not request.future.done():
            if error is None:
                request.future.set_result(solution)
            else:
                request.future.set_exception(error)
        self._inflight.pop(request.key, None)
        self._open_requests -= 1
        self._note_queue_depth()
        assert self._capacity is not None
        async with self._capacity:
            self._capacity.notify_all()
