"""Semantics of the concurrent solve service (P3 tentpole)."""

from __future__ import annotations

import asyncio
import threading
from collections import Counter

import pytest

from repro.exceptions import (
    ServiceClosedError,
    ServiceOverloadedError,
    SolveTimeoutError,
    VocabularyError,
)
from repro.cq.parser import parse_query
from repro.csp.generators import random_schaefer_target, random_structure
from repro.service import ServiceConfig, SolveService
from repro.structures.graphs import clique, cycle, random_graph
from repro.structures.homomorphism import is_homomorphism
from repro.structures.structure import Structure
from repro.structures.vocabulary import Vocabulary

BINARY = Vocabulary.from_arities({"R": 2})

#: Two worker threads: fast startup, small scheduling surface.
THREADS_ONLY = ServiceConfig(thread_workers=2)


def cheap_instance(seed: int = 0):
    return (
        random_structure(BINARY, 6, 10, seed=seed),
        random_schaefer_target(BINARY, 3, "horn", seed=seed + 1),
    )


def heavy_instance(seed: int = 0):
    """A backtracking-heavy clique search (the E13 shape)."""
    return clique(5), random_graph(15, 0.5, seed=seed)


def slow_instance():
    """An unsatisfiable clique refutation taking a few hundred ms —
    long enough to reliably occupy a worker while a test stages the
    queue behind it."""
    return clique(7), random_graph(26, 0.55, seed=2)


class TestSubmit:
    def test_submit_returns_pipeline_solution(self):
        async def scenario():
            async with SolveService(THREADS_ONLY) as service:
                source, target = cheap_instance()
                solution = await service.submit(source, target)
                assert solution.stats is not None
                if solution.exists:
                    assert is_homomorphism(
                        solution.homomorphism, source, target
                    )
                return solution

        solution = asyncio.run(scenario())
        assert solution.strategy

    def test_submit_many_preserves_input_order(self):
        pairs = [cheap_instance(seed) for seed in range(6)]

        async def scenario():
            async with SolveService(THREADS_ONLY) as service:
                return await service.submit_many(pairs)

        solutions = asyncio.run(scenario())
        direct = [
            SolveService(THREADS_ONLY).pipeline.solve(s, t) for s, t in pairs
        ]
        assert [got.exists for got in solutions] == [
            want.exists for want in direct
        ]

    def test_vocabulary_mismatch_raises_synchronously(self):
        other = Vocabulary.from_arities({"S": 2})

        async def scenario():
            async with SolveService(THREADS_ONLY) as service:
                with pytest.raises(VocabularyError):
                    service.submit(
                        Structure(BINARY, {0}), Structure(other, {0})
                    )

        asyncio.run(scenario())

    def test_submit_outside_running_service_raises(self):
        service = SolveService(THREADS_ONLY)
        source, target = cheap_instance()
        with pytest.raises(ServiceClosedError):
            service.submit(source, target)

        async def scenario():
            async with service:
                pass

        asyncio.run(scenario())
        with pytest.raises(ServiceClosedError):
            service.submit(source, target)


class TestCoalescing:
    def test_duplicates_get_the_identical_solution_object(self):
        async def scenario():
            async with SolveService(THREADS_ONLY) as service:
                source, target = heavy_instance()
                rebuilt = Structure(
                    source.vocabulary, source.universe,
                    {"E": source.relation("E")},
                )
                first, second, third = await asyncio.gather(
                    service.submit(source, target),
                    service.submit(source, target),
                    # Structural equality coalesces, not object identity.
                    service.submit(rebuilt, target),
                )
                assert first is second is third
                assert service.stats.coalesce_hits == 2
                assert service.stats.completed == 1

        asyncio.run(scenario())

    def test_different_options_do_not_coalesce(self):
        async def scenario():
            async with SolveService(THREADS_ONLY) as service:
                source, target = cheap_instance()
                await asyncio.gather(
                    service.submit_datalog(source, target, k=2),
                    service.submit_datalog(source, target, k=3),
                    service.submit(source, target),
                )
                assert service.stats.coalesce_hits == 0
                assert service.stats.completed == 3

        asyncio.run(scenario())


class TestTimeouts:
    def test_timeout_raises_cleanly_and_does_not_poison(self):
        async def scenario():
            async with SolveService(THREADS_ONLY) as service:
                source, target = heavy_instance(seed=5)
                with pytest.raises(SolveTimeoutError):
                    await service.submit(source, target, timeout=1e-4)
                assert service.stats.timeouts == 1
                # The computation was not cancelled and nothing about the
                # timeout was cached: a retry gets the right answer.
                retry = await service.submit(source, target, timeout=None)
                direct = service.pipeline.solve(source, target)
                assert retry.exists == direct.exists
                assert service.stats.failed == 0

        asyncio.run(scenario())

    def test_coalesced_waiter_timeout_leaves_others_unharmed(self):
        async def scenario():
            async with SolveService(THREADS_ONLY) as service:
                source, target = heavy_instance(seed=6)
                patient = service.submit(source, target)
                hasty = service.submit(source, target, timeout=1e-4)
                with pytest.raises(SolveTimeoutError):
                    await hasty
                solution = await patient
                assert solution.exists == service.pipeline.solve(
                    source, target
                ).exists

        asyncio.run(scenario())


class TestAdmissionControl:
    def test_overload_rejects_synchronously(self):
        config = ServiceConfig(
            thread_workers=1, max_pending=2
        )

        async def scenario():
            async with SolveService(config) as service:
                waiters = [
                    service.submit(*heavy_instance(seed)) for seed in (1, 2)
                ]
                with pytest.raises(ServiceOverloadedError):
                    service.submit(*heavy_instance(3))
                assert service.stats.rejected == 1
                # Coalesced duplicates ride along even at capacity.
                duplicate = service.submit(*heavy_instance(1))
                results = await asyncio.gather(*waiters, duplicate)
                assert results[0] is results[2]

        asyncio.run(scenario())

    def test_submit_many_applies_backpressure_instead(self):
        config = ServiceConfig(
            thread_workers=2, max_pending=3
        )
        pairs = [cheap_instance(seed) for seed in range(12)]

        async def scenario():
            async with SolveService(config) as service:
                solutions = await service.submit_many(pairs)
                assert len(solutions) == len(pairs)
                # A backpressure wait is neither a rejection nor a
                # second submit of the same request.
                assert service.stats.rejected == 0
                assert service.stats.submitted == len(pairs)
                assert service.stats.completed >= 1

        asyncio.run(scenario())


class TestAdmissionOrder:
    def test_single_worker_runs_requests_in_admission_order(self):
        """The thread pool's FIFO queue is the one queue: with one
        worker, queued requests start (and so finish) in the order they
        were admitted, and the queue depth drains back to zero."""
        config = ServiceConfig(
            thread_workers=1, max_pending=64
        )

        async def scenario():
            async with SolveService(config) as service:
                order: list[int] = []

                async def tagged(label, awaitable):
                    await awaitable
                    order.append(label)

                # Occupy the single worker so the queue builds up behind it.
                blocker = service.submit(*slow_instance())
                await asyncio.sleep(0.05)
                queued = [
                    tagged(seed, service.submit(*cheap_instance(seed)))
                    for seed in range(1, 6)
                ]
                # All five were admitted in one loop step: none is running.
                assert service.stats.queue_depth >= 5
                await asyncio.gather(blocker, *queued)
                assert order == [1, 2, 3, 4, 5]
                assert service.stats.queue_depth == 0
                assert service.stats.max_queue_depth >= 5

        asyncio.run(scenario())


class TestStopSemantics:
    def test_stop_without_drain_wakes_backpressured_submitters(self):
        config = ServiceConfig(
            thread_workers=1, max_pending=1
        )

        async def scenario():
            service = await SolveService(config).start()
            # Fill the only admission slot with a slow solve.
            blocker = service.submit(*slow_instance())
            batch = asyncio.create_task(
                service.submit_many(
                    [cheap_instance(seed) for seed in range(4)]
                )
            )
            await asyncio.sleep(0.05)  # let submit_many block on capacity
            stop_task = asyncio.create_task(service.stop(drain=False))
            with pytest.raises(ServiceClosedError):
                # stop() wakes the blocked submitter, whose retry then
                # observes the stopped service instead of hanging.
                await asyncio.wait_for(batch, timeout=30)
            await stop_task
            solution = await blocker  # already running → completed
            assert solution is not None

        asyncio.run(scenario())


class TestThreadOnly:
    def test_process_workers_other_than_zero_is_refused(self):
        # The service runs no process pool; multi-core goes through the
        # edge's ShardRouter, which the error names.
        with pytest.raises(ValueError, match="ShardRouter"):
            ServiceConfig(process_workers=1)
        assert ServiceConfig().process_workers == 0

    def test_plans_each_request_once(self, monkeypatch):
        """The service adds no planning of its own: a shard-configured
        service makes exactly as many ``plan_instance`` calls as direct
        ``solve(plan=True)`` calls on the same fresh instances."""
        import sys

        from _workloads import mixed_service_workload

        from repro.core.pipeline import SolverPipeline
        from repro.kernel import estimate

        def corpus():
            # Fresh structures per run: compile memos live on them.
            instances = [
                (source, target)
                for _label, source, target in mixed_service_workload(
                    seed=3, variants=1, clique_sizes=(3, 4)
                )
            ]
            instances += [(cycle(n), clique(3)) for n in range(6, 14)]
            return instances

        original = estimate.plan_instance
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        # Patch every module that imported the function by name.
        for module in list(sys.modules.values()):
            if getattr(module, "plan_instance", None) is original:
                monkeypatch.setattr(module, "plan_instance", counting)

        pipeline = SolverPipeline()
        for source, target in corpus():
            pipeline.solve(source, target, plan=True)
        direct = len(calls)
        assert direct > 0

        config = ServiceConfig(
            plan=True, thread_workers=2, max_pending=256, retry_budget=2
        )

        async def scenario():
            async with SolveService(config) as service:
                for source, target in corpus():
                    await service.submit(source, target)

        calls.clear()
        asyncio.run(scenario())
        assert len(calls) == direct


class TestStats:
    def test_snapshot_shape(self):
        async def scenario():
            async with SolveService(THREADS_ONLY) as service:
                await service.submit(*cheap_instance())
                return service.stats.snapshot()

        snapshot = asyncio.run(scenario())
        for key in (
            "submitted",
            "completed",
            "coalesce_hits",
            "max_queue_depth",
            "latency",
            "routes",
        ):
            assert key in snapshot
        assert snapshot["completed"] == 1
        assert snapshot["latency"]["count"] == 1
        # Every built-in route is enumerated, traffic or not.
        assert "backtracking" in snapshot["routes"]
        assert "horn-direct" in snapshot["routes"]
        total_route_count = sum(
            bucket["count"] for bucket in snapshot["routes"].values()
        )
        assert total_route_count == 1


#: The counters of ``ServiceStats.snapshot()`` a request's record moves.
_COUNTERS = (
    "submitted",
    "completed",
    "failed",
    "rejected",
    "timeouts",
    "cancelled_solves",
    "retries",
    "requests_rescued",
    "coalesce_hits",
    "containment_requests",
    "datalog_requests",
)


class _Ledger:
    """What one step added to the stats, the recorder and the traces."""

    def __init__(self, service: SolveService) -> None:
        self.service = service
        self.mark()

    def mark(self) -> None:
        self.stats = self.service.stats.snapshot()
        self.events = len(self.service.recorder.events())
        self.traces = len(self.service.trace_log)

    async def step(self):
        # Let done-callbacks (a follower's span export) and the closing
        # of a request whose waiter already gave up run first.
        while self.service._open_requests:
            await asyncio.sleep(0.001)
        await asyncio.sleep(0)
        after = self.service.stats.snapshot()
        stats = {
            key: after[key] - self.stats[key]
            for key in _COUNTERS
            if after[key] != self.stats[key]
        }
        events = self.service.recorder.events()[self.events :]
        traces = self.service.trace_log.dump()[self.traces :]
        self.mark()
        return stats, events, traces


def _kinds(events) -> dict[str, int]:
    return dict(Counter(event["kind"] for event in events))


def _outcomes(traces) -> list[tuple[str, str | None]]:
    return sorted(
        (trace["name"], trace["attributes"].get("outcome")) for trace in traces
    )


class TestOneRecord:
    """Each outcome is written once: stats, recorder and span agree."""

    def test_every_outcome_agrees_across_stats_recorder_and_span(self):
        config = ServiceConfig(
            thread_workers=1, max_pending=2, retry_budget=0, trace=True
        )

        async def scenario():
            service = await SolveService(config).start()
            ledger = _Ledger(service)

            # completed
            await service.submit(*cheap_instance(0))
            stats, events, traces = await ledger.step()
            assert stats == {"submitted": 1, "completed": 1}
            assert _kinds(events) == {
                "request.admitted": 1,
                "request.completed": 1,
            }
            assert _outcomes(traces) == [("request", "completed")]
            # The recorder event and the span share their fields.
            assert (
                events[-1]["latency_ms"]
                == traces[0]["attributes"]["latency_ms"]
            )

            # coalesced follower: one computation, two waiters
            pair = cheap_instance(1)
            leader, follower = await asyncio.gather(
                service.submit(*pair), service.submit(*pair)
            )
            assert leader is follower
            stats, events, traces = await ledger.step()
            assert stats == {
                "submitted": 2,
                "coalesce_hits": 1,
                "completed": 1,
            }
            assert _kinds(events) == {
                "request.admitted": 1,
                "request.coalesced": 1,
                "request.completed": 1,
            }
            assert _outcomes(traces) == [
                ("request", "completed"),
                ("request.coalesced", None),
            ]

            # cooperative timeout: the kernel unwinds at the deadline
            with pytest.raises(SolveTimeoutError):
                await service.submit(*slow_instance(), timeout=0.05)
            stats, events, traces = await ledger.step()
            assert stats == {
                "submitted": 1,
                "timeouts": 1,
                "cancelled_solves": 1,
            }
            assert _kinds(events) == {
                "request.admitted": 1,
                "request.timeout": 1,
            }
            assert _outcomes(traces) == [("request", "timeout")]
            assert "SolveTimeoutError" in events[-1]["error"]
            assert events[-1]["error"] == traces[0]["attributes"]["error"]

            # failed solve: the waiter gets the solve's own exception
            solve = service._thread_solve

            def broken(request):
                raise ValueError("kernel bug")

            service._thread_solve = broken
            with pytest.raises(ValueError, match="kernel bug"):
                await service.submit(*cheap_instance(2))
            service._thread_solve = solve
            stats, events, traces = await ledger.step()
            assert stats == {"submitted": 1, "failed": 1}
            assert _kinds(events) == {
                "request.admitted": 1,
                "request.failed": 1,
            }
            assert _outcomes(traces) == [("request", "error")]

            # the containment and Datalog counters follow the route
            await service.submit_containment(
                parse_query("Q(X) :- E(X, Y), E(Y, Z)."),
                parse_query("Q(X) :- E(X, Y)."),
            )
            await service.submit_datalog(cycle(5), clique(2), k=2)
            stats, events, traces = await ledger.step()
            assert stats == {
                "submitted": 2,
                "completed": 2,
                "containment_requests": 1,
                "datalog_requests": 1,
            }
            assert _kinds(events) == {
                "request.admitted": 2,
                "request.completed": 2,
            }

            # admission-rejected, then stop(drain=False)-closed: a gated
            # blocker holds the one worker, one request queues behind
            # it, and max_pending=2 refuses a third at the door.
            started, release = threading.Event(), threading.Event()

            def gated(request):
                started.set()
                release.wait(30)
                return solve(request)

            service._thread_solve = gated
            blocker = asyncio.ensure_future(
                service.submit(clique(4), clique(3))
            )
            while not started.is_set():
                await asyncio.sleep(0.001)
            service._thread_solve = solve
            queued = asyncio.ensure_future(service.submit(*cheap_instance(3)))
            await asyncio.sleep(0)
            with pytest.raises(ServiceOverloadedError):
                service.submit(*cheap_instance(4))
            assert service.stats.rejected == 1
            stopping = asyncio.ensure_future(service.stop(drain=False))
            with pytest.raises(ServiceClosedError):
                await queued
            release.set()
            await stopping
            assert not (await blocker).exists
            stats, events, traces = await ledger.step()
            assert stats == {"submitted": 3, "rejected": 1, "completed": 1}
            assert _kinds(events) == {
                "request.admitted": 2,
                "request.completed": 1,
            }
            assert _outcomes(traces) == [
                ("request", "closed"),
                ("request", "completed"),
            ]
            return service

        asyncio.run(asyncio.wait_for(scenario(), 60))

    def test_snapshot_keys_and_request_outcome_labels_are_pinned(self):
        async def scenario():
            async with SolveService(THREADS_ONLY) as service:
                await service.submit(*cheap_instance())
                return service.stats.snapshot(), service.exposition()

        snapshot, text = asyncio.run(scenario())
        # What perfbench and /v1/healthz?full=1 read.
        assert set(snapshot) == {
            *_COUNTERS,
            "queue_depth",
            "max_queue_depth",
            "solve_cache_hits",
            "solve_cache_misses",
            "latency",
            "routes",
        }
        assert set(snapshot["latency"]) == {
            "count",
            "mean_ms",
            "p50_ms",
            "p95_ms",
            "p99_ms",
        }
        requests = {}
        prefix = 'repro_service_requests_total{outcome="'
        for line in text.splitlines():
            if line.startswith(prefix):
                label, value = line[len(prefix) :].split('"} ')
                requests[label] = float(value)
        assert requests == {
            "submitted": snapshot["submitted"],
            "completed": snapshot["completed"],
            "failed": snapshot["failed"],
            "rejected": snapshot["rejected"],
            "timeouts": snapshot["timeouts"],
            "cancelled": snapshot["cancelled_solves"],
            "retries": snapshot["retries"],
            "rescued": snapshot["requests_rescued"],
            "coalesced": snapshot["coalesce_hits"],
        }
