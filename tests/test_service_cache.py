"""Thread-safety of StructureCache, the solve service's one cache."""

from __future__ import annotations

import sys
import threading

from repro.boolean.schaefer import classify_structure
from repro.core.pipeline import CacheTally, StructureCache
from repro.csp.generators import random_schaefer_target, random_structure
from repro.structures.structure import Structure
from repro.structures.vocabulary import Vocabulary

BINARY = Vocabulary.from_arities({"R": 2})


def boolean_targets(count: int) -> list[Structure]:
    return [
        random_schaefer_target(BINARY, 3, "horn", seed=seed)
        for seed in range(count)
    ]


def sources(count: int) -> list[Structure]:
    return [
        random_structure(BINARY, 5 + seed % 4, 8, seed=seed)
        for seed in range(count)
    ]


class TestStructureCacheThreadSafety:
    def hammer(self, cache, targets, srcs, rounds: int, errors: list) -> None:
        try:
            for i in range(rounds):
                target = targets[i % len(targets)]
                assert cache.classification(target) == classify_structure(
                    target
                )
                source = srcs[(i * 7) % len(srcs)]
                cache.decomposition(source)
                compiled = cache.compiled_target(target)
                assert compiled.structure == target
        except Exception as exc:  # pragma: no cover - only on failure
            errors.append(exc)

    def run_threads(self, cache, *, threads: int = 8, rounds: int = 200):
        targets = boolean_targets(6)
        srcs = sources(6)
        errors: list = []
        workers = [
            threading.Thread(
                target=self.hammer, args=(cache, targets, srcs, rounds, errors)
            )
            for _ in range(threads)
        ]
        # Frequent thread switches make a lost counter update likely.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert not errors
        return threads * rounds

    def test_concurrent_hammering_stays_consistent(self):
        cache = StructureCache()
        rounds = self.run_threads(cache)
        stats = cache.stats
        # Every lookup is either a hit or a miss, none lost to races
        # (three lookups per hammer round).
        assert stats.hits + stats.misses == 3 * rounds

    def test_concurrent_eviction_churn(self):
        # A tiny cache forces constant LRU eviction under contention.
        cache = StructureCache(maxsize=2)
        self.run_threads(cache, threads=6, rounds=150)
        assert len(cache) <= 3 * 2

    def test_tally_counts_only_own_traffic(self):
        cache = StructureCache()
        target = boolean_targets(1)[0]
        warm = CacheTally()
        cache.classification(target, tally=warm)
        assert (warm.hits, warm.misses) == (0, 1)
        mine = CacheTally()
        cache.classification(target, tally=mine)
        assert (mine.hits, mine.misses) == (1, 0)
        # The other tally was not touched by my lookup.
        assert (warm.hits, warm.misses) == (0, 1)


class TestLockScope:
    """The cache lock covers table reads and writes, not ``compute()``."""

    def test_hit_returns_while_another_key_computes(self, monkeypatch):
        import repro.core.pipeline as pipeline_module

        cache = StructureCache()
        slow, fast = boolean_targets(2)
        assert slow != fast
        cache.compiled_target(fast)
        entered, release = threading.Event(), threading.Event()
        compile_target = pipeline_module.compile_target

        def blocking_compile(target):
            if target == slow:
                entered.set()
                release.wait(timeout=30)
            return compile_target(target)

        monkeypatch.setattr(pipeline_module, "compile_target", blocking_compile)
        miss = threading.Thread(target=cache.compiled_target, args=(slow,))
        hit = threading.Thread(target=cache.compiled_target, args=(fast,))
        miss.start()
        try:
            assert entered.wait(timeout=30)
            hit.start()
            hit.join(timeout=5)
            hit_returned = not hit.is_alive()
        finally:
            release.set()
            miss.join(timeout=30)
            hit.join(timeout=30)
        assert hit_returned, "a hit waited on another key's compute()"
        assert not miss.is_alive()
        assert cache.stats.hits == 1

    def test_concurrent_misses_share_one_entry(self, monkeypatch):
        import repro.core.pipeline as pipeline_module

        callers = 6
        cache = StructureCache()
        target = boolean_targets(1)[0]
        # Every caller is inside compute() before any of them inserts.
        together = threading.Barrier(callers, timeout=30)
        compile_target = pipeline_module.compile_target

        def racing_compile(structure):
            together.wait()
            return compile_target(structure)

        monkeypatch.setattr(pipeline_module, "compile_target", racing_compile)
        results: list = []
        workers = [
            threading.Thread(
                target=lambda: results.append(cache.compiled_target(target))
            )
            for _ in range(callers)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
        assert len(results) == callers
        assert len(cache) == 1
        entry = cache.compiled_target(target)
        assert all(result is entry for result in results)
        assert cache.stats.misses == callers
