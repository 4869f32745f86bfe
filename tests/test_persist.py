"""Unit tests of the persistent artifact store: format, recovery, caching.

The contract under test, in one sentence: the store never serves bytes
that fail verification, and everything else — torn tails, flipped bits,
concurrent writers, size budgets — degrades to a *cold cache*, never to
a wrong answer.
"""

from __future__ import annotations

import asyncio
import logging
import os
import pickle

import pytest

from repro.boolean.schaefer import classify_structure
from repro.core.pipeline import SolverPipeline, StructureCache
from repro.cq.compiled import compile_query
from repro.cq.query import ConjunctiveQuery
from repro.datalog.canonical_program import canonical_program
from repro.exceptions import ArtifactStoreError, StoreCorruptionError
from repro.kernel.compile import compile_source, compile_target
from repro.persist import ArtifactStore, decode_artifact, encode_artifact
from repro.persist import format as sformat
from repro.persist.codec import STRUCTURE_KINDS
from repro.structures.fingerprint import canonical_fingerprint
from repro.structures.structure import Structure
from repro.structures.vocabulary import Vocabulary
from repro.treewidth.heuristics import cached_decomposition

BINARY = Vocabulary.from_arities({"E": 2})


def fresh_pair():
    """A small instance, rebuilt fresh so no compile memos ride along."""
    source = Structure(BINARY, range(2), {"E": [(0, 1), (1, 0)]})
    target = Structure(
        BINARY,
        range(3),
        {"E": [(i, j) for i in range(3) for j in range(3) if i != j]},
    )
    return source, target


# ---------------------------------------------------------------------------
# The on-disk format
# ---------------------------------------------------------------------------


class TestFormat:
    def test_clean_log_scans_clean(self):
        blob = sformat.HEADER + sformat.encode_record("k", "key", b"payload")
        report = sformat.scan_log(blob)
        assert report.clean
        assert len(report.records) == 1
        assert report.good_end == len(blob)
        record = report.records[0]
        assert (record.kind, record.key) == ("k", "key")

    def test_bad_header_rejected(self):
        report = sformat.scan_log(b"NOTSTORE" + b"\x00" * 8)
        assert report.failure == "bad-header"
        assert not report.records

    def test_torn_tail_detected_and_prefix_kept(self):
        good = sformat.encode_record("k", "a", b"one")
        torn = sformat.encode_record("k", "b", b"two")[:-3]
        report = sformat.scan_log(sformat.HEADER + good + torn)
        assert report.failure == "torn-record"
        assert len(report.records) == 1
        assert report.good_end == sformat.HEADER_SIZE + len(good)

    def test_bit_flip_detected(self):
        record = sformat.encode_record("k", "a", b"payload-bytes")
        blob = bytearray(sformat.HEADER + record)
        blob[-4] ^= 0x40  # flip one payload bit
        report = sformat.scan_log(bytes(blob))
        assert report.failure == "checksum"
        assert not report.records

    def test_implausible_length_prefix_rejected(self):
        record = bytearray(sformat.encode_record("k", "a", b"x"))
        record[4:8] = (0xFF, 0xFF, 0xFF, 0xFF)  # absurd payload_len
        report = sformat.scan_log(sformat.HEADER + bytes(record))
        assert report.failure == "bad-length"

    def test_read_record_at_reverifies(self, tmp_path):
        record = sformat.encode_record("k", "a", b"payload")
        path = tmp_path / "log"
        path.write_bytes(sformat.HEADER + record)
        with open(path, "r+b") as fh:
            assert sformat.read_record_at(fh, sformat.HEADER_SIZE) == (
                "k",
                "a",
                b"payload",
            )
            # Rot the payload after open: the read must refuse.
            fh.seek(sformat.HEADER_SIZE + len(record) - 2)
            fh.write(b"!!")
            fh.flush()
            with pytest.raises(StoreCorruptionError):
                sformat.read_record_at(fh, sformat.HEADER_SIZE)


# ---------------------------------------------------------------------------
# The codec: one canonical serializer
# ---------------------------------------------------------------------------


class TestCodec:
    def test_store_bytes_are_pool_bytes(self):
        """The store persists exactly the artifact's own pickle."""
        _, target = fresh_pair()
        compiled = compile_target(target)
        assert encode_artifact("ctarget", compiled) == pickle.dumps(
            compiled, protocol=5
        )

    def test_wrong_type_refused_on_encode(self):
        with pytest.raises(TypeError):
            encode_artifact("ctarget", "not a compiled target")

    def test_wrong_type_is_corruption_on_decode(self):
        payload = pickle.dumps("just a string", protocol=5)
        with pytest.raises(StoreCorruptionError):
            decode_artifact("ctarget", payload)

    def test_garbage_is_corruption_on_decode(self):
        with pytest.raises(StoreCorruptionError):
            decode_artifact("ctarget", b"\x80\x05garbage")

    def test_compiled_target_reattaches_to_memo(self):
        _, target = fresh_pair()
        compiled = compile_target(target)
        restored = pickle.loads(pickle.dumps(compiled))
        assert restored.structure._compiled_target is restored
        assert compile_target(restored.structure) is restored
        assert restored.supports == compiled.supports

    def test_compiled_source_reattaches_to_memo(self):
        source, _ = fresh_pair()
        compiled = compile_source(source)
        restored = pickle.loads(pickle.dumps(compiled))
        assert restored.structure._compiled_source is restored

    def test_compiled_query_reattaches_to_memo(self):
        query = ConjunctiveQuery(
            ("X",), [("E", ("X", "Y")), ("E", ("Y", "Z"))]
        )
        compiled = compile_query(query)
        canonical = compiled.canonical
        restored = pickle.loads(pickle.dumps(compiled))
        assert restored.query._compiled is restored
        assert restored.fingerprint == compiled.fingerprint
        assert restored.canonical == canonical

    def test_bare_query_pickles_without_memo(self):
        query = ConjunctiveQuery(("X",), [("E", ("X", "Y"))])
        compile_query(query)
        assert pickle.loads(pickle.dumps(query))._compiled is None


# ---------------------------------------------------------------------------
# The store proper
# ---------------------------------------------------------------------------


class TestStore:
    def test_round_trips_every_artifact_kind(self, tmp_path):
        source, target = fresh_pair()
        boolean = Structure(BINARY, (0, 1), {"E": [(0, 1), (1, 1)]})
        compiled = compile_target(target)
        query = ConjunctiveQuery(("X",), [("E", ("X", "Y"))])
        cq = compile_query(query)
        _ = cq.canonical
        fp = canonical_fingerprint(target)

        with ArtifactStore(tmp_path / "store") as store:
            assert store.put("ctarget", fp, compiled)
            assert store.put(
                "classification",
                canonical_fingerprint(boolean),
                classify_structure(boolean),
            )
            assert store.put(
                "decomposition",
                canonical_fingerprint(source),
                cached_decomposition(source),
            )
            assert store.put("query", cq.fingerprint, cq)

        ro = ArtifactStore(tmp_path / "store", mode="ro")
        assert ro.get("ctarget", fp).supports == compiled.supports
        assert ro.get(
            "classification", canonical_fingerprint(boolean)
        ) == classify_structure(boolean)
        decomp = ro.get("decomposition", canonical_fingerprint(source))
        assert decomp.bags == cached_decomposition(source).bags
        assert ro.get("query", cq.fingerprint).canonical == cq.canonical
        assert ro.stats.hits == 4 and ro.stats.corrupt_records == 0
        ro.close()

    def test_miss_returns_none(self, tmp_path):
        with ArtifactStore(tmp_path / "store") as store:
            assert store.get("ctarget", "no-such-fingerprint") is None
            assert store.stats.misses == 1

    def test_put_is_insert_only(self, tmp_path):
        _, target = fresh_pair()
        compiled = compile_target(target)
        fp = canonical_fingerprint(target)
        with ArtifactStore(tmp_path / "store") as store:
            assert store.put("ctarget", fp, compiled)
            assert not store.put("ctarget", fp, compiled)
            assert store.stats.appends == 1

    def test_single_writer_lock(self, tmp_path):
        with ArtifactStore(tmp_path / "store"):
            with pytest.raises(ArtifactStoreError, match="lock"):
                ArtifactStore(tmp_path / "store")
        # Lock released on close: a new writer succeeds.
        ArtifactStore(tmp_path / "store").close()

    def test_readers_need_no_lock(self, tmp_path):
        with ArtifactStore(tmp_path / "store"):
            ro = ArtifactStore(tmp_path / "store", mode="ro")
            ro.close()

    def test_ro_mode_never_writes(self, tmp_path):
        _, target = fresh_pair()
        with ArtifactStore(tmp_path / "store"):
            pass
        ro = ArtifactStore(tmp_path / "store", mode="ro")
        assert not ro.put(
            "ctarget", canonical_fingerprint(target), compile_target(target)
        )
        ro.close()

    def test_ro_open_of_missing_store_is_empty(self, tmp_path):
        ro = ArtifactStore(tmp_path / "nowhere", mode="ro")
        assert ro.get("ctarget", "x") is None
        ro.close()

    def test_truncated_log_recovers_warm_prefix(self, tmp_path, caplog):
        source, target = fresh_pair()
        fp_t = canonical_fingerprint(target)
        fp_s = canonical_fingerprint(source)
        with ArtifactStore(tmp_path / "store") as store:
            store.put("ctarget", fp_t, compile_target(target))
            store.put(
                "decomposition", fp_s, cached_decomposition(source)
            )
        log_path = os.path.join(tmp_path / "store", ArtifactStore.LOG_NAME)
        # Tear the second record: simulate a writer SIGKILLed mid-append.
        with open(log_path, "r+b") as fh:
            fh.truncate(os.path.getsize(log_path) - 7)
        with caplog.at_level(logging.WARNING, logger="repro.persist"):
            store = ArtifactStore(tmp_path / "store")
        assert store.stats.corrupt_records == 1
        assert store.stats.quarantined_bytes > 0
        assert any(
            "store recovery" in record.message for record in caplog.records
        )
        # Warm where possible: the first record survived and verifies.
        assert store.get("ctarget", fp_t) is not None
        # Cold where not: the torn record is gone, quarantined as evidence.
        assert store.get("decomposition", fp_s) is None
        assert os.listdir(store.quarantine_path)
        store.close()

    def test_bit_flip_recovers_and_warns(self, tmp_path, caplog):
        source, target = fresh_pair()
        fp_t = canonical_fingerprint(target)
        with ArtifactStore(tmp_path / "store") as store:
            store.put("ctarget", fp_t, compile_target(target))
            offset, length = store._index[("ctarget", fp_t)]
        log_path = os.path.join(tmp_path / "store", ArtifactStore.LOG_NAME)
        with open(log_path, "r+b") as fh:
            fh.seek(offset + length - 5)
            corrupted = bytes([fh.read(1)[0] ^ 0x01])
            fh.seek(offset + length - 5)
            fh.write(corrupted)
        with caplog.at_level(logging.WARNING, logger="repro.persist"):
            store = ArtifactStore(tmp_path / "store")
        assert store.stats.corrupt_records == 1
        assert store.get("ctarget", fp_t) is None  # never served corrupt
        # The store still works after recovery.
        assert store.put("ctarget", fp_t, compile_target(target))
        assert store.get("ctarget", fp_t) is not None
        store.close()

    def test_rot_after_open_never_served(self, tmp_path):
        """A record that rots *after* the opening scan is still refused."""
        _, target = fresh_pair()
        fp = canonical_fingerprint(target)
        store = ArtifactStore(tmp_path / "store")
        store.put("ctarget", fp, compile_target(target))
        offset, length = store._index[("ctarget", fp)]
        log_path = os.path.join(tmp_path / "store", ArtifactStore.LOG_NAME)
        with open(log_path, "r+b") as fh:
            fh.seek(offset + length - 3)
            fh.write(b"\xff\xff\xff")
        assert store.get("ctarget", fp) is None
        assert store.stats.corrupt_records == 1
        assert ("ctarget", fp) not in store
        store.close()

    def test_compaction_bounds_the_log(self, tmp_path):
        # Eight distinct path structures, with their record sizes known
        # up front so the budget provably forces eviction.
        structures = [
            Structure(
                BINARY,
                range(3 + i),
                {"E": [(j, j + 1) for j in range(2 + i)]},
            )
            for i in range(8)
        ]
        records = [
            sformat.encode_record(
                "ctarget",
                canonical_fingerprint(structure),
                encode_artifact("ctarget", compile_target(structure)),
            )
            for structure in structures
        ]
        budget = sformat.HEADER_SIZE + sum(
            len(record) for record in records[-3:]
        )
        store = ArtifactStore(tmp_path / "store", max_bytes=budget)
        fingerprints = []
        for structure in structures:
            fp_i = canonical_fingerprint(structure)
            fingerprints.append(fp_i)
            store.put("ctarget", fp_i, compile_target(structure))
        assert store.stats.compactions >= 1
        assert store.size_bytes() <= budget
        # Newest-first survival: the most recent artifact is always live.
        assert store.get("ctarget", fingerprints[-1]) is not None
        store.close()
        # The compacted log reopens clean.
        reopened = ArtifactStore(tmp_path / "store")
        assert reopened.stats.corrupt_records == 0
        assert reopened.get("ctarget", fingerprints[-1]) is not None
        reopened.close()

    def test_flush_and_reopen(self, tmp_path):
        _, target = fresh_pair()
        fp = canonical_fingerprint(target)
        store = ArtifactStore(tmp_path / "store")
        store.put("ctarget", fp, compile_target(target))
        store.flush()
        assert store.stats.flushes == 1
        store.close()
        reopened = ArtifactStore(tmp_path / "store")
        assert reopened.get("ctarget", fp) is not None
        reopened.close()


# ---------------------------------------------------------------------------
# The cache integration: read-through, write-through, warm-up
# ---------------------------------------------------------------------------


class TestCacheIntegration:
    def test_write_through_then_read_through(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        source, target = fresh_pair()
        s1 = SolverPipeline(cache=StructureCache(store=store)).solve(
            source, target
        )
        assert (s1.stats.kernel or {}).get("compile.targets", 0) >= 1
        assert store.stats.appends >= 1
        # A brand-new cache generation: every structure artifact decodes
        # from the store, so nothing is compiled during the solve.
        source2, target2 = fresh_pair()
        s2 = SolverPipeline(cache=StructureCache(store=store)).solve(
            source2, target2
        )
        assert s2.exists == s1.exists
        assert (s2.stats.kernel or {}).get("compile.targets", 0) == 0
        assert store.stats.hits >= 1
        store.close()

    def test_eager_warm_cache(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        source, target = fresh_pair()
        SolverPipeline(cache=StructureCache(store=store)).solve(
            source, target
        )
        cache = StructureCache()
        warmed = store.warm_cache(cache)
        assert warmed >= 2  # at least the compiled target + decomposition
        assert len(cache) == warmed
        assert store.stats.warmed == warmed
        store.close()

    def test_seed_ignores_unknown_kinds(self):
        cache = StructureCache()
        cache.seed("no-such-kind", "fp", object())
        assert len(cache) == 0


# ---------------------------------------------------------------------------
# Stores written while ``datalog`` was an artifact kind
# ---------------------------------------------------------------------------


class TestStaleDatalogRecord:
    """Earlier versions persisted ρ_B as a ``datalog`` record; such a
    store must still open, warm and serve, and the stale record must
    degrade to a counted miss without ever reaching the unpickler."""

    QUERIES = ("Q(X) :- E(X, Y), E(Y, Z)", "Q(X) :- E(X, Y)")

    def _stale_store(self, path):
        """A served store partition plus one appended ``datalog`` record."""
        from repro.cq.parser import parse_query
        from repro.service import ServiceConfig, SolveService

        source, target = fresh_pair()

        async def serve():
            config = ServiceConfig(thread_workers=1, store_path=str(path))
            async with SolveService(config) as service:
                await service.submit(source, target)
                await service.submit_containment(
                    *map(parse_query, self.QUERIES)
                )

        asyncio.run(serve())
        key = f"{canonical_fingerprint(target)}:k=2"
        payload = pickle.dumps(canonical_program(target, 2), protocol=5)
        with open(path / ArtifactStore.LOG_NAME, "ab") as log:
            log.write(sformat.encode_record("datalog", key, payload))
        return key

    def test_opens_and_warms_every_other_kind(self, tmp_path):
        self._stale_store(tmp_path / "store")
        with ArtifactStore(tmp_path / "store") as store:
            assert store.stats.corrupt_records == 0
            structure_keys = [
                pair for pair in store.keys() if pair[0] in STRUCTURE_KINDS
            ]
            assert {kind for kind, _ in structure_keys} >= {
                "ctarget",
                "decomposition",
            }
            cache = StructureCache()
            assert store.warm_cache(cache) == len(structure_keys)
            assert len(list(store.query_artifacts())) == 2

    def test_stale_record_is_a_counted_miss_never_unpickled(
        self, tmp_path, monkeypatch
    ):
        key = self._stale_store(tmp_path / "store")
        with ArtifactStore(tmp_path / "store") as store:
            assert ("datalog", key) in store

            def refuse(_payload):
                raise AssertionError("a datalog record reached pickle.loads")

            with monkeypatch.context() as patch:
                patch.setattr(pickle, "loads", refuse)
                assert store.get("datalog", key) is None
            assert store.stats.corrupt_records == 1
            assert ("datalog", key) not in store

    def test_compaction_carries_the_stale_record(self, tmp_path):
        key = self._stale_store(tmp_path / "store")
        size = os.path.getsize(tmp_path / "store" / ArtifactStore.LOG_NAME)
        with ArtifactStore(tmp_path / "store", max_bytes=size) as store:
            fresh = Structure(BINARY, range(4), {"E": [(0, 1), (2, 3)]})
            store.put(
                "ctarget", canonical_fingerprint(fresh), compile_target(fresh)
            )
            assert store.stats.compactions == 1
        with ArtifactStore(tmp_path / "store") as reopened:
            assert reopened.stats.corrupt_records == 0
            assert reopened.get("datalog", key) is None

    def test_service_answers_over_the_stale_store(self, tmp_path):
        from repro.cq import contains
        from repro.cq.parser import parse_query
        from repro.service import ServiceConfig, SolveService
        from repro.structures.graphs import clique
        from repro.structures.homomorphism import homomorphism_exists

        self._stale_store(tmp_path / "store")
        source, target = fresh_pair()
        q1, q2 = map(parse_query, self.QUERIES)

        async def serve():
            config = ServiceConfig(
                thread_workers=1, store_path=str(tmp_path / "store")
            )
            async with SolveService(config) as service:
                assert service.store.stats.warmed >= 2
                yes = await service.submit_datalog(source, target, k=2)
                no = await service.submit_datalog(clique(3), clique(2), k=3)
                contained = await service.submit_containment(q1, q2)
                return yes, no, contained

        yes, no, contained = asyncio.run(serve())
        assert yes.exists == homomorphism_exists(source, target) is True
        assert no.exists == homomorphism_exists(clique(3), clique(2)) is False
        assert contained.exists == contains(q1, q2)


# ---------------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------------


class TestTelemetry:
    def test_store_metric_families_exposed(self, tmp_path):
        from repro.obs.metrics import default_registry

        store = ArtifactStore(tmp_path / "store")
        _, target = fresh_pair()
        store.put(
            "ctarget", canonical_fingerprint(target), compile_target(target)
        )
        store.get("ctarget", canonical_fingerprint(target))
        store.get("ctarget", "missing")
        store.flush()
        text = default_registry().exposition()
        for family in (
            "repro_store_hits_total",
            "repro_store_misses_total",
            "repro_store_corrupt_records_total",
            "repro_store_appends_total",
            "repro_store_flushes_total",
            "repro_store_bytes",
            "repro_store_records",
            "repro_store_load_ms",
        ):
            assert family in text
        store.close()
        # Unregistered after close: a dead store stops reporting.
        assert "repro_store_hits_total" not in default_registry().exposition()

    def test_recorder_events(self, tmp_path):
        from repro.obs.recorder import FlightRecorder

        recorder = FlightRecorder()
        store = ArtifactStore(
            tmp_path / "store", recorder=recorder, register_metrics=False
        )
        _, target = fresh_pair()
        fp = canonical_fingerprint(target)
        store.put("ctarget", fp, compile_target(target))
        store.get("ctarget", fp)
        store.get("ctarget", "missing")
        store.flush()
        store.close()
        counts = recorder.counts()
        assert counts.get("store.hit") == 1
        assert counts.get("store.miss") == 1
        assert counts.get("store.flush", 0) >= 1
