"""Kill-recovery chaos suite for the persistent artifact store.

The invariant every test here drives at: a store that has been SIGKILLed
mid-write, truncated at an arbitrary byte, or bit-flipped at a seeded
offset restarts *warm where possible, cold where not* — and in every
case the answers served afterwards are exactly the answers a store-less
run produces.  Corruption may cost recompilation; it must never cost
correctness.

All randomness is seeded (the same three fixed seeds the CI
``persist-smoke`` job replays), so any failure reproduces byte for
byte.
"""

from __future__ import annotations

import asyncio
import os
import random
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")

from repro import faultinject
from repro.core.pipeline import SolverPipeline, StructureCache
from repro.csp.generators import random_schaefer_target, random_structure
from repro.exceptions import ServiceClosedError, SolveTimeoutError
from repro.persist import ArtifactStore
from repro.persist import format as sformat
from repro.service import ServiceConfig, SolveService
from repro.structures.graphs import clique, random_graph
from repro.structures.vocabulary import Vocabulary

BINARY = Vocabulary.from_arities({"R": 2})

#: Replayed by the CI persist-smoke job.
FIXED_SEEDS = (17, 29, 43)

CHAOS_TIMEOUT = 120.0


def _corpus(count: int = 8):
    """Small deterministic instances covering sat and unsat routes."""
    instances = [
        (
            random_structure(BINARY, 5, 8, seed=seed),
            random_schaefer_target(BINARY, 3, "horn", seed=seed + 1),
        )
        for seed in range(count - 2)
    ]
    instances.append((clique(3), random_graph(8, 0.7, seed=5)))
    instances.append((clique(4), clique(3)))
    return instances


def _expected(corpus):
    """Ground truth from a fault-free, store-less pipeline."""
    assert faultinject.current() is None
    pipeline = SolverPipeline(cache=StructureCache())
    return [
        pipeline.solve(source, target).exists for source, target in corpus
    ]


def _populate(store_dir, corpus) -> None:
    """One clean writer generation filling the store."""
    with ArtifactStore(store_dir) as store:
        pipeline = SolverPipeline(cache=StructureCache(store=store))
        for source, target in corpus:
            pipeline.solve(source, target)
        store.flush()


def _assert_parity(store_dir, corpus, expected, *, mode="rw") -> None:
    """Solving through the (possibly damaged) store matches store-less."""
    store = ArtifactStore(store_dir, mode=mode)
    try:
        pipeline = SolverPipeline(cache=StructureCache(store=store))
        for (source, target), truth in zip(corpus, expected):
            assert pipeline.solve(source, target).exists == truth
    finally:
        store.close()


# ---------------------------------------------------------------------------
# SIGKILL the writer mid-append
# ---------------------------------------------------------------------------

_WRITER_SCRIPT = textwrap.dedent(
    """
    import sys

    from repro.core.pipeline import SolverPipeline, StructureCache
    from repro.csp.generators import random_schaefer_target, random_structure
    from repro.persist import ArtifactStore
    from repro.structures.graphs import clique, random_graph
    from repro.structures.vocabulary import Vocabulary

    BINARY = Vocabulary.from_arities({"R": 2})
    store = ArtifactStore(sys.argv[1])
    pipeline = SolverPipeline(cache=StructureCache(store=store))
    # An endless stream of distinct instances: every solve appends fresh
    # artifacts, so the parent's SIGKILL lands while records are being
    # written.  Never flushes, never closes — the crash is the exit.
    seed = 0
    while True:
        source = random_structure(BINARY, 5, 8, seed=seed)
        target = random_schaefer_target(BINARY, 3, "horn", seed=seed + 1)
        pipeline.solve(source, target)
        print(f"PUT {store.stats.appends}", flush=True)
        seed += 2
    """
)


class TestWriterKill:
    @pytest.mark.parametrize("seed", FIXED_SEEDS)
    def test_sigkill_mid_append_recovers(self, seed, tmp_path):
        """SIGKILL the writer while it appends; the survivor prefix serves."""
        store_dir = tmp_path / "store"
        rng = random.Random(seed)
        kill_after = rng.randint(2, 6)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [_SRC, env.get("PYTHONPATH", "")])
        )
        child = subprocess.Popen(
            [sys.executable, "-c", _WRITER_SCRIPT, str(store_dir)],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            appended = 0
            deadline = time.monotonic() + CHAOS_TIMEOUT
            while appended < kill_after:
                line = child.stdout.readline()
                assert line, "writer died before reaching the kill point"
                assert time.monotonic() < deadline
                if line.startswith("PUT"):
                    appended = int(line.split()[1])
            child.kill()  # SIGKILL: no atexit, no flush, no lock release path
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        # The kernel released the dead writer's flock: a new writer opens.
        store = ArtifactStore(store_dir)
        # Warm where possible: acknowledged records survived the kill
        # (puts flush to the page cache) and every one verifies.
        assert len(store) >= 1
        for kind, key in store.keys():
            assert store.get(kind, key) is not None, (kind, key)
        assert store.stats.hits == len(store.keys())
        store.close()
        # And the recovered store serves exact answers.
        corpus = _corpus()
        _assert_parity(store_dir, corpus, _expected(corpus))


# ---------------------------------------------------------------------------
# Seeded truncation and corruption
# ---------------------------------------------------------------------------


class TestSeededDamage:
    @pytest.mark.parametrize("seed", FIXED_SEEDS)
    def test_truncation_at_seeded_offset(self, seed, tmp_path):
        """Chop the log at an arbitrary seeded byte: warm prefix, parity."""
        corpus = _corpus()
        expected = _expected(corpus)
        store_dir = tmp_path / "store"
        _populate(store_dir, corpus)
        log_path = os.path.join(store_dir, ArtifactStore.LOG_NAME)
        size = os.path.getsize(log_path)
        rng = random.Random(seed)
        cut = rng.randrange(sformat.HEADER_SIZE + 1, size)
        with open(log_path, "r+b") as fh:
            fh.truncate(cut)
        store = ArtifactStore(store_dir)
        # Recovery never trusts past the damage; whatever is indexed
        # verifies on read.
        for kind, key in store.keys():
            assert store.get(kind, key) is not None
        assert store.size_bytes() <= cut
        store.close()
        _assert_parity(store_dir, corpus, expected)

    @pytest.mark.parametrize("seed", FIXED_SEEDS)
    def test_bit_flip_at_seeded_offset(self, seed, tmp_path):
        """Flip one bit somewhere in the record region: never served."""
        corpus = _corpus()
        expected = _expected(corpus)
        store_dir = tmp_path / "store"
        _populate(store_dir, corpus)
        log_path = os.path.join(store_dir, ArtifactStore.LOG_NAME)
        size = os.path.getsize(log_path)
        rng = random.Random(seed)
        offset = rng.randrange(sformat.HEADER_SIZE, size)
        bit = 1 << rng.randrange(8)
        with open(log_path, "r+b") as fh:
            fh.seek(offset)
            byte = fh.read(1)[0]
            fh.seek(offset)
            fh.write(bytes([byte ^ bit]))
        from repro.obs.recorder import FlightRecorder

        recorder = FlightRecorder()
        store = ArtifactStore(
            store_dir, recorder=recorder, register_metrics=False
        )
        assert store.stats.corrupt_records == 1
        assert recorder.counts().get("store.corrupt", 0) >= 1
        assert os.path.isdir(store.quarantine_path)
        assert os.listdir(store.quarantine_path)
        for kind, key in store.keys():
            assert store.get(kind, key) is not None
        store.close()
        _assert_parity(store_dir, corpus, expected)

    def test_total_garbage_log_serves_cold(self, tmp_path):
        """Even a fully garbage log degrades to an empty (cold) store."""
        corpus = _corpus(4)
        expected = _expected(corpus)
        store_dir = tmp_path / "store"
        os.makedirs(store_dir)
        with open(os.path.join(store_dir, ArtifactStore.LOG_NAME), "wb") as fh:
            fh.write(os.urandom(512))
        store = ArtifactStore(store_dir)
        assert len(store) == 0
        assert store.stats.corrupt_records == 1
        store.close()
        _assert_parity(store_dir, corpus, expected)


# ---------------------------------------------------------------------------
# Warm restarts through the service
# ---------------------------------------------------------------------------


class TestWarmRestart:
    def test_second_generation_serves_without_recompiling(self, tmp_path):
        """The headline property: a known fingerprint after restart is
        served from the store — zero target compilations, visible both in
        the per-solve kernel counters and the store-hit telemetry."""
        corpus = _corpus(6)
        expected = _expected(corpus)
        store_dir = tmp_path / "store"
        config = ServiceConfig(store_path=str(store_dir))

        async def generation_one():
            async with SolveService(config) as service:
                for (source, target), truth in zip(corpus, expected):
                    solution = await service.submit(source, target)
                    assert solution.exists == truth

        async def generation_two():
            async with SolveService(config) as service:
                assert service.store is not None
                warmed = service.store.stats.warmed
                assert warmed >= 1
                hits_before = service.store.stats.hits
                compiles = 0
                for (source, target), truth in zip(corpus, expected):
                    solution = await service.submit(source, target)
                    assert solution.exists == truth
                    kernel = solution.stats.kernel or {}
                    compiles += kernel.get("compile.targets", 0)
                # Zero recompilation: every target decoded, none rebuilt.
                assert compiles == 0
                # Warm-up itself read (and verified) stored records.
                assert service.store.stats.hits >= hits_before
                counts = service.recorder.counts()
                assert counts.get("store.warm") == 1
                # Store telemetry rides the service's exposition.
                assert "repro_store_hits_total" in service.exposition()

        asyncio.run(asyncio.wait_for(generation_one(), CHAOS_TIMEOUT))
        # Fresh structure objects so nothing survives in process memos.
        corpus = _corpus(6)
        asyncio.run(asyncio.wait_for(generation_two(), CHAOS_TIMEOUT))

    def test_locked_store_degrades_to_storeless_service(self, tmp_path):
        """A second service against a locked store runs store-less."""
        store_dir = tmp_path / "store"
        holder = ArtifactStore(store_dir)
        corpus = _corpus(3)
        expected = _expected(corpus)
        config = ServiceConfig(store_path=str(store_dir))

        async def scenario():
            async with SolveService(config) as service:
                assert service.store is None
                for (source, target), truth in zip(corpus, expected):
                    solution = await service.submit(source, target)
                    assert solution.exists == truth

        try:
            asyncio.run(asyncio.wait_for(scenario(), CHAOS_TIMEOUT))
        finally:
            holder.close()


# ---------------------------------------------------------------------------
# Graceful drain
# ---------------------------------------------------------------------------


class TestDrain:
    def test_drain_finishes_open_work(self, tmp_path):
        corpus = _corpus(4)
        expected = _expected(corpus)
        store_dir = tmp_path / "store"
        config = ServiceConfig(store_path=str(store_dir))

        async def scenario():
            service = SolveService(config)
            await service.start()
            waiters = [
                service.submit(source, target) for source, target in corpus
            ]
            clean = await service.drain(timeout=30.0)
            assert clean
            results = await asyncio.gather(*waiters)
            for result, truth in zip(results, expected):
                assert result.exists == truth
            # Admission is closed and the store is flushed + released.
            assert not service.running
            assert service.store is None
            with pytest.raises(ServiceClosedError):
                service.submit(*corpus[0])
            counts = service.recorder.counts()
            assert counts.get("service.drain") == 1
            assert counts.get("store.flush", 0) >= 1

        asyncio.run(asyncio.wait_for(scenario(), CHAOS_TIMEOUT))
        # A later generation can take the writer lock immediately.
        ArtifactStore(store_dir).close()

    def test_drain_deadline_cancels_stragglers(self, tmp_path):
        """A solve slower than the grace period is cut cooperatively."""
        store_dir = tmp_path / "store"
        config = ServiceConfig(store_path=str(store_dir))
        source, target = clique(7), random_graph(26, 0.55, seed=2)

        async def scenario():
            service = SolveService(config)
            await service.start()
            waiter = service.submit(source, target)
            await asyncio.sleep(0.05)  # let the solve start grinding
            clean = await service.drain(timeout=0.01)
            assert not clean
            with pytest.raises(SolveTimeoutError):
                await waiter
            assert not service.running
            assert service.store is None
            counts = service.recorder.counts()
            assert counts.get("service.drain") == 1
            assert counts.get("service.drain.expired") == 1

        asyncio.run(asyncio.wait_for(scenario(), CHAOS_TIMEOUT))

    def test_drain_idempotent_and_stopless(self):
        async def scenario():
            service = SolveService(ServiceConfig())
            await service.start()
            assert await service.drain(timeout=1.0)
            assert await service.drain(timeout=1.0)  # second call no-ops
            await service.stop()  # stop after drain is harmless

        asyncio.run(asyncio.wait_for(scenario(), CHAOS_TIMEOUT))
