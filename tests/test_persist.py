"""Unit tests of the persistent artifact store: format, recovery, caching.

The contract under test, in one sentence: the store never serves bytes
that fail verification, and everything else — torn tails, flipped bits,
concurrent writers, size budgets — degrades to a *cold cache*, never to
a wrong answer.
"""

from __future__ import annotations

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
from repro.persist import (
    ArtifactStore,
    datalog_key,
    decode_artifact,
    encode_artifact,
    set_default_store,
)
from repro.persist import format as sformat
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
        program = canonical_program(target, 2)
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
            assert store.put("datalog", datalog_key(fp, 2), program)

        ro = ArtifactStore(tmp_path / "store", mode="ro")
        assert ro.get("ctarget", fp).supports == compiled.supports
        assert ro.get(
            "classification", canonical_fingerprint(boolean)
        ) == classify_structure(boolean)
        decomp = ro.get("decomposition", canonical_fingerprint(source))
        assert decomp.bags == cached_decomposition(source).bags
        assert ro.get("query", cq.fingerprint).canonical == cq.canonical
        restored = ro.get("datalog", datalog_key(fp, 2))
        assert restored.rules == program.rules
        assert restored.goal == program.goal
        assert ro.stats.hits == 5 and ro.stats.corrupt_records == 0
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

    def test_datalog_read_through_default_store(self, tmp_path):
        from repro.datalog.canonical_program import (
            _cached_canonical_program,
        )

        store = ArtifactStore(tmp_path / "store")
        previous = set_default_store(store)
        _cached_canonical_program.cache_clear()
        try:
            _, target = fresh_pair()
            program = canonical_program(target, 2)
            assert ("datalog", datalog_key(canonical_fingerprint(target), 2)) in store
            # A fresh process generation (cleared lru_cache) reads the
            # program back instead of rebuilding |B|^k rules.
            _cached_canonical_program.cache_clear()
            _, target2 = fresh_pair()
            again = canonical_program(target2, 2)
            assert again.rules == program.rules
            assert store.stats.hits >= 1
        finally:
            set_default_store(previous)
            _cached_canonical_program.cache_clear()
            store.close()


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
