"""Semantics of the concurrent solve service (P3 tentpole)."""

from __future__ import annotations

import asyncio

import pytest

from repro.exceptions import (
    ServiceClosedError,
    ServiceOverloadedError,
    SolveTimeoutError,
    VocabularyError,
)
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
                    service.submit(source, target, width_threshold=1),
                    service.submit(source, target, width_threshold=4),
                )
                assert service.stats.coalesce_hits == 0
                assert service.stats.completed == 2

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
                assert service.stats.rejected == 0
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
