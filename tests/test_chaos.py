"""Deterministic chaos suite for the solve service's failure path.

Every test here drives the real service against the seeded
fault-injection harness (:mod:`repro.faultinject`) and asserts the
*termination invariant*: every admitted request terminates with either a
parity-correct :class:`Solution` or a typed
:class:`~repro.exceptions.ReproError` — never a hang, a lost future, a
bare ``CancelledError``, or a stale coalescing entry — and the service
keeps serving fresh traffic after the storm.

The storm tests replay the exact same fault schedule per seed (which
*request* a fault lands on still depends on scheduling, hence
invariant-style assertions); the failure-contract test pins the one
failure path with probability-1.0 faults, which are fully
deterministic.  ``REPRO_CHAOS_SEED`` opts one extra randomized storm in
(the CI chaos-smoke job passes a fresh seed and echoes it, so any
failure is replayable).
"""

from __future__ import annotations

import asyncio
import os
import random
import time

import pytest

from repro import faultinject
from repro.core.cancellation import Deadline
from repro.exceptions import (
    FaultInjectedError,
    ReproError,
    ServiceClosedError,
    ServiceOverloadedError,
    SolveTimeoutError,
)
from repro.csp.generators import random_schaefer_target, random_structure
from repro.faultinject import FaultPlan
from repro.service import ServiceConfig, SolveService
from repro.structures.graphs import clique, random_graph
from repro.structures.homomorphism import is_homomorphism
from repro.structures.vocabulary import Vocabulary

BINARY = Vocabulary.from_arities({"R": 2})

#: The three replayed storm seeds of the CI chaos-smoke job.
FIXED_SEEDS = (101, 202, 303)

#: Hard cap per storm: converts a termination-invariant violation (a
#: hung future) into a test failure instead of a hung CI job.
STORM_TIMEOUT = 120.0


def cheap_instance(seed: int = 0):
    return (
        random_structure(BINARY, 6, 10, seed=seed),
        random_schaefer_target(BINARY, 3, "horn", seed=seed + 1),
    )


def heavy_instance(seed: int = 0):
    return clique(4), random_graph(12, 0.5, seed=seed)


def slow_instance():
    """Unsatisfiable clique refutation taking a few hundred ms."""
    return clique(7), random_graph(26, 0.55, seed=2)


def _corpus():
    """A 20-instance mix covering every service route.

    Cheap Schaefer instances (thread backend, DP/search routes), small
    clique searches (backtracking), and dense-graph colorings the
    planner sends through the canonical-Datalog plane — so a storm
    reaches the kernel fault point on every route and the decomp one on
    the DP routes.
    """
    instances = [cheap_instance(seed) for seed in range(12)]
    instances += [heavy_instance(seed) for seed in range(4)]
    instances += [
        (clique(5), clique(3)),
        (clique(6), clique(3)),
        (random_graph(10, 0.8, seed=0), clique(3)),
        (random_graph(10, 0.8, seed=1), clique(3)),
    ]
    return instances


def _expected(corpus):
    """Ground truth, computed fault-free before any plan is installed."""
    assert faultinject.current() is None
    pipeline = SolveService(ServiceConfig()).pipeline
    return [pipeline.solve(source, target).exists for source, target in corpus]


def _check_invariant(indexed_results, corpus, expected):
    """Every result is a parity-correct Solution or a typed ReproError."""
    for index, result in indexed_results:
        source, target = corpus[index]
        if isinstance(result, BaseException):
            assert isinstance(result, ReproError), (
                f"request {index} escaped with an untyped "
                f"{type(result).__name__}: {result!r}"
            )
        else:
            assert result.exists == expected[index], (
                f"request {index} lost parity under faults: "
                f"{result.strategy}"
            )
            if result.homomorphism is not None:
                assert is_homomorphism(result.homomorphism, source, target)


def _run_thread_storm(seed: int) -> None:
    """60 requests against the thread backend under mixed faults."""
    corpus = _corpus()
    expected = _expected(corpus)
    plan = FaultPlan(
        seed,
        {
            "kernel.compile.raise": 0.10,
            "service.dispatch.delay": 0.25,
            "decomp.budget": 0.15,
        },
        delay_ms=(0.5, 3.0),
    )
    config = ServiceConfig(thread_workers=2, retry_budget=2)

    async def scenario():
        async with SolveService(config) as service:
            rng = random.Random(seed)
            indexed = []
            waiters = []
            for _ in range(3):
                for index, (source, target) in enumerate(corpus):
                    timeout = rng.choice([None, None, None, 2.0, 0.05])
                    # The dense tail of the corpus routes through the
                    # canonical-Datalog plane; ask for it so the storm
                    # covers the Theorem 4.2 route too.
                    if index % 4 == 0 or index >= 16:
                        waiter = service.submit_datalog(
                            source, target, k=2, timeout=timeout
                        )
                    else:
                        waiter = service.submit(
                            source, target, timeout=timeout
                        )
                    indexed.append(index)
                    waiters.append(waiter)
            results = await asyncio.gather(*waiters, return_exceptions=True)
            _check_invariant(zip(indexed, results), corpus, expected)
            # No stale coalescing entry survives the storm.
            assert not service._inflight
            # The service serves fresh traffic once the faults stop.
            faultinject.uninstall()
            for index in (0, 5, 13, 16):
                solution = await service.submit(*corpus[index])
                assert solution.exists == expected[index]
            stats = service.stats.snapshot()
            assert stats["submitted"] >= 64
            assert stats["completed"] >= 1
            # The flight recorder agrees with the ledger: every retry of
            # the storm left one event.
            counts = service.recorder.counts()
            assert counts.get("request.retry", 0) == stats["retries"]

    faultinject.install(plan)
    try:
        asyncio.run(asyncio.wait_for(scenario(), STORM_TIMEOUT))
    finally:
        faultinject.uninstall()


class TestThreadChaos:
    @pytest.mark.parametrize("seed", FIXED_SEEDS)
    def test_storm_terminates_with_parity(self, seed):
        _run_thread_storm(seed)

    def test_randomized_seed_from_env(self):
        spec = os.environ.get("REPRO_CHAOS_SEED")
        if not spec:
            pytest.skip("set REPRO_CHAOS_SEED to run the randomized storm")
        seed = int(spec)
        print(f"\nREPRO_CHAOS_SEED={seed}  # replay: REPRO_CHAOS_SEED={seed}")
        _run_thread_storm(seed)


class TestFailureContract:
    """Probability-1.0 faults: a failed solve has one typed outcome."""

    def test_kernel_fault_fails_typed_after_one_attempt(self):
        # Clique searches: their routes compile the target (the Horn
        # instances of cheap_instance are decided without the kernel).
        pairs = [heavy_instance(0), heavy_instance(1)]
        expected = _expected(pairs)
        config = ServiceConfig(thread_workers=2, retry_budget=2)

        async def scenario():
            async with SolveService(config) as service:
                faultinject.install(
                    FaultPlan(0, {"kernel.compile.raise": 1.0})
                )
                try:
                    for pair in pairs:
                        # One attempt, one typed error: the fault is not
                        # retried and no other engine answers instead.
                        with pytest.raises(FaultInjectedError):
                            await service.submit(*pair)
                        assert service.stats.retries == 0
                finally:
                    faultinject.uninstall()
                assert service.stats.failed == 2
                assert service.stats.completed == 0
                # Fault-free again, both get the fault-free verdict.
                for pair, exists in zip(pairs, expected):
                    solution = await service.submit(*pair)
                    assert solution.exists == exists
                    assert "legacy-engine" not in solution.strategy
                assert service.stats.retries == 0

        try:
            asyncio.run(asyncio.wait_for(scenario(), STORM_TIMEOUT))
        finally:
            faultinject.uninstall()

    @pytest.mark.parametrize("extended", [True, False])
    def test_timeout_is_rerun_only_after_a_deadline_extension(
        self, extended
    ):
        pair = heavy_instance(0)
        expected = _expected([pair])[0]

        config = ServiceConfig(thread_workers=1)

        async def scenario():
            async with SolveService(config) as service:
                solve = service._thread_solve
                attempts = []

                def first_attempt_times_out(request):
                    attempts.append(request.seq)
                    if len(attempts) > 1:
                        return solve(request)
                    # The kernel hit the deadline; meanwhile a patient
                    # waiter attached (or nobody did).
                    request.token.deadline = (
                        None if extended else Deadline.after(-1.0)
                    )
                    raise SolveTimeoutError("deadline expired in the kernel")

                service._thread_solve = first_attempt_times_out
                waiter = service.submit(*pair, timeout=30.0)
                if extended:
                    assert (await waiter).exists == expected
                else:
                    with pytest.raises(SolveTimeoutError):
                        await waiter
                stats = service.stats
                assert len(attempts) == stats.retries + 1
                assert stats.retries == stats.requests_rescued == int(extended)
                assert service.recorder.counts().get(
                    "request.retry", 0
                ) == int(extended)

        asyncio.run(asyncio.wait_for(scenario(), STORM_TIMEOUT))


class TestCancellationFreesWorkers:
    def test_timed_out_solve_frees_its_worker_quickly(self):
        """The acceptance criterion for deadline propagation: a timed-out
        kernel solve stops consuming its worker within the cooperative
        check interval, instead of grinding to completion."""
        source, target = slow_instance()
        cheap = cheap_instance(0)
        pipeline = SolveService(ServiceConfig()).pipeline
        started = time.perf_counter()
        uncancelled_solution = pipeline.solve(source, target)
        uncancelled = time.perf_counter() - started
        assert not uncancelled_solution.exists
        cheap_expected = pipeline.solve(*cheap).exists
        config = ServiceConfig(thread_workers=1)

        async def scenario():
            async with SolveService(config) as service:
                with pytest.raises(SolveTimeoutError):
                    await service.submit(source, target, timeout=0.08)
                # The single worker must be free again almost at once:
                # the next request completes in a fraction of the time
                # the abandoned solve would still have been running.
                freed_at = time.perf_counter()
                solution = await service.submit(*cheap)
                freed = time.perf_counter() - freed_at
                assert solution.exists == cheap_expected
                assert freed < max(0.1, uncancelled / 2), (
                    f"worker held {freed:.3f}s after timeout "
                    f"(uncancelled solve: {uncancelled:.3f}s)"
                )
                # The computation unwound cooperatively — it did not run
                # to completion for a waiter that had already left.
                assert service.stats.cancelled_solves == 1
                assert service.stats.timeouts >= 1

        asyncio.run(asyncio.wait_for(scenario(), STORM_TIMEOUT))

    def test_leader_timeout_does_not_starve_patient_follower(self):
        """Timeout during coalesce: the leader gives up, but its
        follower extended the shared deadline, so the computation keeps
        going and the follower still gets the answer."""
        source, target = slow_instance()
        config = ServiceConfig(thread_workers=1)

        async def scenario():
            async with SolveService(config) as service:
                leader = service.submit(source, target, timeout=0.05)
                follower = service.submit(source, target, timeout=30.0)
                leader_result, follower_result = await asyncio.gather(
                    leader, follower, return_exceptions=True
                )
                assert isinstance(leader_result, SolveTimeoutError)
                assert not isinstance(follower_result, BaseException)
                assert not follower_result.exists
                stats = service.stats
                assert stats.coalesce_hits == 1
                assert stats.timeouts == 1
                assert stats.completed == 1
                # The extension reached the running kernel loop: the
                # computation was never cooperatively cancelled.
                assert stats.cancelled_solves == 0

        asyncio.run(asyncio.wait_for(scenario(), STORM_TIMEOUT))


class TestShutdownAndOverloadRaces:
    def test_submit_after_stop_begins_is_rejected_typed(self):
        config = ServiceConfig(thread_workers=1)

        async def scenario():
            service = await SolveService(config).start()
            blocker = asyncio.ensure_future(
                service.submit(*slow_instance())
            )
            await asyncio.sleep(0.05)  # the blocker is dispatched
            stop_task = asyncio.create_task(service.stop(drain=False))
            await asyncio.sleep(0)  # stop() has flipped the gate
            with pytest.raises(ServiceClosedError):
                service.submit(*cheap_instance())
            # The already-running solve still completes for its waiter.
            solution = await blocker
            assert not solution.exists
            await stop_task

        asyncio.run(asyncio.wait_for(scenario(), STORM_TIMEOUT))

    def test_stop_without_drain_fails_queued_and_followers_typed(self):
        config = ServiceConfig(thread_workers=1)

        async def scenario():
            service = await SolveService(config).start()
            blocker = asyncio.ensure_future(
                service.submit(*slow_instance())
            )
            await asyncio.sleep(0.05)  # single worker now occupied
            queued_pair = cheap_instance(3)
            queued = asyncio.ensure_future(service.submit(*queued_pair))
            follower = asyncio.ensure_future(
                service.submit(*queued_pair)
            )
            await asyncio.sleep(0)  # both are waiting behind the blocker
            assert service.stats.coalesce_hits == 1
            await service.stop(drain=False)
            # Queued leader AND coalesced follower fail with the typed
            # closure error — never a bare CancelledError — and the
            # fingerprint table holds no stale entry.
            with pytest.raises(ServiceClosedError):
                await queued
            with pytest.raises(ServiceClosedError):
                await follower
            assert not service._inflight
            solution = await blocker
            assert not solution.exists

        asyncio.run(asyncio.wait_for(scenario(), STORM_TIMEOUT))

    def test_overload_rejects_new_work_of_any_priority(self):
        config = ServiceConfig(
            thread_workers=1, max_pending=2
        )

        async def scenario():
            async with SolveService(config) as service:
                blocker = asyncio.ensure_future(
                    service.submit(*slow_instance())
                )
                await asyncio.sleep(0.05)
                queued_pair = cheap_instance(4)
                queued = asyncio.ensure_future(
                    service.submit(*queued_pair)
                )
                # New work cannot displace open requests: with the
                # running blocker and the queued request at max_pending,
                # it is refused at the door.
                with pytest.raises(ServiceOverloadedError):
                    service.submit(*heavy_instance(1))
                assert service.stats.rejected == 1
                # But a duplicate of queued work coalesces for free — it
                # adds no open request.
                follower = asyncio.ensure_future(
                    service.submit(*queued_pair)
                )
                await asyncio.sleep(0)
                assert service.stats.coalesce_hits == 1
                results = await asyncio.gather(blocker, queued, follower)
                assert results[1].exists == results[2].exists

        asyncio.run(asyncio.wait_for(scenario(), STORM_TIMEOUT))
