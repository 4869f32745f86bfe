"""The crash-safe, fingerprint-keyed artifact store.

:class:`ArtifactStore` persists the expensive pure-function artifacts of
the solve path — kernel compilations, Schaefer classifications, tree
decompositions, compiled queries — keyed by the same canonical
fingerprints the in-memory caches use.  Because every artifact is a
deterministic function of its fingerprint (Kolaitis–Vardi's canonical
structures and cores are mathematical objects, not session state), a
record written by one process generation is valid for every later one:
a restart warms instead of recompiling.

Durability discipline, in order of paranoia:

* **Atomic creation** — a new store file is materialised as
  ``header → temp file → fsync → rename``, so no reader can ever
  observe a half-written header.
* **Single writer** — ``rw`` mode takes an ``fcntl`` lock on a sidecar
  lock file (``LOCK_EX | LOCK_NB``); a second writer fails fast with
  :class:`~repro.exceptions.ArtifactStoreError` instead of interleaving
  appends.  The kernel releases the lock when the holder dies — SIGKILL
  included — which is what makes crash-respawn cycles safe without a
  lease protocol.  ``ro`` mode (readers) takes no lock at all.
* **Self-checking records** — every append carries its own length
  prefix and SHA-256 (:mod:`repro.persist.format`); the digest is
  re-verified on *every* read, so a record that rots after open is
  still never served.
* **Recovery** — opening scans the log; the first torn or corrupt
  record ends the trusted prefix.  In ``rw`` mode the untrusted tail is
  copied into ``quarantine/`` (evidence for the operator), the log is
  truncated back to the last good boundary, and a structured WARNING is
  logged.  Served state is therefore *warm where possible, cold where
  not* — and the cold part falls back to recompilation transparently.
* **Bounded size** — past ``max_bytes`` the log is compacted: live
  records (one per key, oldest evicted first if still over budget) are
  rewritten through the same temp-file + fsync + rename dance.

Appends flush to the OS on every ``put`` (surviving a SIGKILL of the
writer, since the page cache outlives the process) and ``fsync`` on
:meth:`flush` / :meth:`close` (surviving power loss).  Telemetry rides
the existing obs plane: ``repro_store_*`` metric families through a
scrape-time collector, and ``store.hit`` / ``store.miss`` /
``store.corrupt`` / ``store.flush`` events on the flight recorder.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator

try:  # pragma: no cover — POSIX everywhere we run; gate anyway
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

from repro.exceptions import ArtifactStoreError, StoreCorruptionError
from repro.obs.logs import get_logger
from repro.obs.metrics import Counter, Gauge, default_registry
from repro.obs.recorder import FlightRecorder, default_recorder
from repro.persist import format as _format
from repro.persist.codec import (
    STRUCTURE_KINDS,
    decode_artifact,
    encode_artifact,
)

if TYPE_CHECKING:  # pragma: no cover — annotation-only import
    from repro.cq.compiled import CompiledQuery

__all__ = ["ArtifactStore", "StoreStats"]

_log = get_logger("persist")


@dataclass(frozen=True)
class StoreStats:
    """Cumulative counters of one :class:`ArtifactStore` handle."""

    hits: int = 0
    misses: int = 0
    appends: int = 0
    corrupt_records: int = 0
    quarantined_bytes: int = 0
    flushes: int = 0
    compactions: int = 0
    #: Wall-clock milliseconds the opening scan + recovery took.
    load_ms: float = 0.0
    #: Artifacts seeded into caches by :meth:`ArtifactStore.warm_cache`.
    warmed: int = 0


class ArtifactStore:
    """A single-directory, append-only artifact store (see module doc).

    Parameters
    ----------
    path:
        The store *directory* (created in ``rw`` mode if missing); the
        log, the lock file, and the quarantine live inside it.
    mode:
        ``"rw"`` — the single writer: takes the lock, recovers the log
        (quarantine + truncate), appends.  ``"ro"`` — a reader: no
        lock, no mutation ever; a broken tail is simply not indexed, so
        a reader can open the file a live writer is appending to.
    max_bytes:
        Compaction threshold for the log file; ``None`` means unbounded.
    recorder:
        The flight recorder for ``store.*`` events (default: the
        process-wide one).
    register_metrics:
        Register a scrape-time collector for the ``repro_store_*``
        families on the default registry (unregistered on close).
    """

    LOG_NAME = "artifacts.log"
    LOCK_NAME = "store.lock"
    QUARANTINE_DIR = "quarantine"

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        mode: str = "rw",
        max_bytes: int | None = None,
        recorder: FlightRecorder | None = None,
        register_metrics: bool = True,
    ) -> None:
        if mode not in ("rw", "ro"):
            raise ValueError(f"mode must be 'rw' or 'ro', got {mode!r}")
        if max_bytes is not None and max_bytes < _format.HEADER_SIZE:
            raise ValueError("max_bytes is smaller than the store header")
        self.path = os.fspath(path)
        self.mode = mode
        self.max_bytes = max_bytes
        self.recorder = recorder if recorder is not None else default_recorder()
        self._lock = threading.RLock()
        self._fh = None
        self._lock_fh = None
        self._closed = False
        #: ``(kind, key) → (offset, length)`` of the *latest* record.
        self._index: dict[tuple[str, str], tuple[int, int]] = {}
        self._end = _format.HEADER_SIZE
        self._quarantine_seq = 0
        self._stats = StoreStats()
        self._registry = default_registry() if register_metrics else None
        started = time.perf_counter()
        try:
            self._open()
        except ArtifactStoreError:
            self._release()
            raise
        self._stats = replace(
            self._stats, load_ms=(time.perf_counter() - started) * 1000
        )
        if self._registry is not None:
            self._registry.register_collector(self._metrics_collector)

    # -- opening and recovery -------------------------------------------------

    @property
    def log_path(self) -> str:
        return os.path.join(self.path, self.LOG_NAME)

    @property
    def quarantine_path(self) -> str:
        return os.path.join(self.path, self.QUARANTINE_DIR)

    def _open(self) -> None:
        log_path = self.log_path
        if self.mode == "rw":
            try:
                os.makedirs(self.path, exist_ok=True)
                self._acquire_writer_lock()
                if not os.path.exists(log_path):
                    self._publish_atomically(log_path, _format.HEADER)
                self._fh = open(log_path, "r+b")
            except OSError as exc:
                raise ArtifactStoreError(
                    f"cannot open store at {self.path!r}: {exc}"
                ) from exc
        else:
            if not os.path.exists(log_path):
                return  # an empty read-only store: every get is a miss
            try:
                self._fh = open(log_path, "rb")
            except OSError as exc:
                raise ArtifactStoreError(
                    f"cannot open store at {self.path!r}: {exc}"
                ) from exc
        blob = self._fh.read()
        report = _format.scan_log(blob)
        if not report.clean:
            self._recover(blob, report)
        for record in report.records:
            # Later records win: the log is append-only, so replays of
            # the same key (rare — puts skip present keys) supersede.
            self._index[(record.kind, record.key)] = (
                record.offset,
                record.length,
            )
        self._end = report.good_end

    def _recover(self, blob: bytes, report: _format.ScanReport) -> None:
        """Quarantine and drop the untrusted tail (``rw``); log either way."""
        tail = blob[report.good_end :]
        quarantined = 0
        if self.mode == "rw" and tail:
            quarantined = len(tail)
            name = self._quarantine_name(report.failure or "tail")
            try:
                os.makedirs(self.quarantine_path, exist_ok=True)
                self._publish_atomically(name, tail)
            except OSError:  # pragma: no cover — quarantine is best-effort
                quarantined = 0
            self._fh.seek(report.good_end)
            self._fh.truncate(report.good_end)
            self._fh.flush()
            os.fsync(self._fh.fileno())
        self._stats = replace(
            self._stats,
            corrupt_records=self._stats.corrupt_records + 1,
            quarantined_bytes=self._stats.quarantined_bytes + quarantined,
        )
        self.recorder.record(
            "store.corrupt",
            reason=report.failure,
            offset=report.failure_offset,
            quarantined_bytes=len(tail),
            recovered_records=len(report.records),
        )
        _log.warning(
            "store recovery at %s: %s at offset %s; kept %d records, "
            "quarantined %d bytes",
            self.path,
            report.failure,
            report.failure_offset,
            len(report.records),
            len(tail),
            extra={
                "event": "store.corrupt",
                "store": self.path,
                "reason": report.failure,
                "offset": report.failure_offset,
                "recovered_records": len(report.records),
                "quarantined_bytes": len(tail),
            },
        )

    def _quarantine_name(self, label: str) -> str:
        self._quarantine_seq += 1
        return os.path.join(
            self.quarantine_path,
            f"{label}-{os.getpid()}-{self._quarantine_seq}.bin",
        )

    def _publish_atomically(self, destination: str, payload: bytes) -> None:
        """temp file → fsync → rename: no reader sees a partial file."""
        directory = os.path.dirname(destination)
        temp = f"{destination}.tmp.{os.getpid()}"
        with open(temp, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(temp, destination)
        self._fsync_dir(directory)

    @staticmethod
    def _fsync_dir(directory: str) -> None:
        try:  # pragma: no cover — platform-dependent
            fd = os.open(directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def _acquire_writer_lock(self) -> None:
        lock_path = os.path.join(self.path, self.LOCK_NAME)
        self._lock_fh = open(lock_path, "a+b")
        if fcntl is None:  # pragma: no cover — non-POSIX fallback
            return
        try:
            fcntl.flock(self._lock_fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            self._lock_fh.close()
            self._lock_fh = None
            raise ArtifactStoreError(
                f"another writer holds the store lock at {lock_path!r}"
            ) from exc

    def _release(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:  # pragma: no cover
                pass
            self._fh = None
        if self._lock_fh is not None:
            if fcntl is not None:
                try:
                    fcntl.flock(self._lock_fh.fileno(), fcntl.LOCK_UN)
                except OSError:  # pragma: no cover
                    pass
            self._lock_fh.close()
            self._lock_fh = None

    # -- the key/value surface ------------------------------------------------

    @property
    def stats(self) -> StoreStats:
        with self._lock:
            return self._stats

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def __contains__(self, kind_key: tuple[str, str]) -> bool:
        with self._lock:
            return kind_key in self._index

    def size_bytes(self) -> int:
        with self._lock:
            return self._end

    def keys(self, kind: str | None = None) -> list[tuple[str, str]]:
        """The indexed ``(kind, key)`` pairs, insertion-ordered."""
        with self._lock:
            pairs = list(self._index)
        if kind is None:
            return pairs
        return [pair for pair in pairs if pair[0] == kind]

    def get(self, kind: str, key: str) -> object | None:
        """The stored artifact, or ``None`` (miss *or* failed checksum).

        A record that fails verification on this read — even though the
        opening scan once accepted it — is dropped from the index,
        counted as corrupt, and reported; the caller recomputes.  The
        one hard rule: no artifact is ever returned from bytes that do
        not hash to their recorded digest.
        """
        with self._lock:
            located = self._index.get((kind, key))
            if located is None or self._fh is None or self._closed:
                self._stats = replace(
                    self._stats, misses=self._stats.misses + 1
                )
                self.recorder.record(
                    "store.miss", artifact=kind, key=key[:16]
                )
                return None
            offset, _length = located
            try:
                read_kind, read_key, payload = _format.read_record_at(
                    self._fh, offset
                )
                if (read_kind, read_key) != (kind, key):
                    raise StoreCorruptionError(
                        f"index points at a record for "
                        f"({read_kind!r}, {read_key[:16]!r}…)"
                    )
                artifact = decode_artifact(kind, payload)
            except StoreCorruptionError as exc:
                del self._index[(kind, key)]
                self._stats = replace(
                    self._stats,
                    corrupt_records=self._stats.corrupt_records + 1,
                )
                self.recorder.record(
                    "store.corrupt",
                    artifact=kind,
                    key=key[:16],
                    error=str(exc),
                )
                _log.warning(
                    "store record dropped at %s: %s",
                    self.path,
                    exc,
                    extra={
                        "event": "store.corrupt",
                        "store": self.path,
                        "kind": kind,
                        "key": key,
                    },
                )
                return None
            self._stats = replace(self._stats, hits=self._stats.hits + 1)
            self.recorder.record(
                "store.hit", artifact=kind, key=key[:16]
            )
            return artifact

    def put(self, kind: str, key: str, artifact: object) -> bool:
        """Append one artifact; ``True`` if a record was written.

        No-ops (returning ``False``) in ``ro`` mode, after close, and
        when the key is already present — artifacts are pure functions
        of their fingerprint keys, so a second write could only store
        the same mathematical content again.
        """
        with self._lock:
            if self.mode != "rw" or self._closed or self._fh is None:
                return False
            if (kind, key) in self._index:
                return False
            record = _format.encode_record(
                kind, key, encode_artifact(kind, artifact)
            )
            self._fh.seek(self._end)
            self._fh.write(record)
            # Reaches the OS page cache now: a SIGKILLed writer loses at
            # most the in-flight record, never an acknowledged one.
            self._fh.flush()
            self._index[(kind, key)] = (self._end, len(record))
            self._end += len(record)
            self._stats = replace(
                self._stats, appends=self._stats.appends + 1
            )
            if self.max_bytes is not None and self._end > self.max_bytes:
                self._compact()
            return True

    def flush(self) -> None:
        """fsync the log: acknowledged records survive power loss."""
        with self._lock:
            if self.mode != "rw" or self._closed or self._fh is None:
                return
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._stats = replace(
                self._stats, flushes=self._stats.flushes + 1
            )
            self.recorder.record(
                "store.flush", records=len(self._index), bytes=self._end
            )

    def close(self) -> None:
        """Flush, release the writer lock, unregister the collector."""
        with self._lock:
            if self._closed:
                return
            if self.mode == "rw" and self._fh is not None:
                self.flush()
            self._closed = True
            self._release()
        if self._registry is not None:
            self._registry.unregister_collector(self._metrics_collector)

    def __enter__(self) -> "ArtifactStore":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    # -- compaction -----------------------------------------------------------

    def _compact(self) -> None:
        """Rewrite live records; evict oldest keys while over budget.

        Runs under the store lock.  The rewrite goes through the same
        temp-file + fsync + rename publish as creation, so a crash
        mid-compaction leaves the *old* log fully intact.
        """
        assert self._fh is not None and self.max_bytes is not None
        survivors: list[tuple[tuple[str, str], bytes]] = []
        total = _format.HEADER_SIZE
        # Newest-first keep, then restore insertion order: when even the
        # deduplicated log is over budget, the oldest artifacts go.
        for pair, (offset, length) in reversed(list(self._index.items())):
            if total + length > self.max_bytes:
                continue
            self._fh.seek(offset)
            survivors.append((pair, self._fh.read(length)))
            total += length
        survivors.reverse()
        payload = b"".join(
            [_format.HEADER] + [record for _, record in survivors]
        )
        self._publish_atomically(self.log_path, payload)
        self._fh.close()
        self._fh = open(self.log_path, "r+b")
        self._index.clear()
        offset = _format.HEADER_SIZE
        for pair, record in survivors:
            self._index[pair] = (offset, len(record))
            offset += len(record)
        self._end = offset
        self._stats = replace(
            self._stats,
            compactions=self._stats.compactions + 1,
            flushes=self._stats.flushes + 1,
        )
        self.recorder.record(
            "store.flush",
            records=len(self._index),
            bytes=self._end,
            compaction=True,
        )

    # -- cache warming --------------------------------------------------------

    def warm_cache(self, cache) -> int:
        """Eagerly seed a structure cache with every structure artifact.

        ``cache`` is anything with the ``seed(kind, fingerprint, value)``
        surface, such as :class:`repro.core.pipeline.StructureCache`
        (the solve service's cache).  Returns the number of
        artifacts seeded; records that fail verification are skipped —
        they count as corrupt, and the cache simply stays cold there.
        """
        warmed = 0
        for kind, key in self.keys():
            if kind not in STRUCTURE_KINDS:
                continue
            artifact = self.get(kind, key)
            if artifact is None:
                continue
            cache.seed(kind, key, artifact)
            warmed += 1
        with self._lock:
            self._stats = replace(
                self._stats, warmed=self._stats.warmed + warmed
            )
        return warmed

    def query_artifacts(self) -> Iterator[tuple[str, "CompiledQuery"]]:
        """The stored compiled-query artifacts as ``(fingerprint, CQ)``."""
        for kind, key in self.keys("query"):
            artifact = self.get(kind, key)
            if artifact is not None:
                yield key, artifact  # type: ignore[misc]

    # -- telemetry ------------------------------------------------------------

    def _metrics_collector(self):
        """Scrape-time ``repro_store_*`` view of the counters."""
        stats = self.stats
        hits = Counter(
            "repro_store_hits_total",
            "Artifact-store reads served from a verified record.",
        )
        hits.inc(stats.hits)
        misses = Counter(
            "repro_store_misses_total",
            "Artifact-store reads that fell back to recomputation.",
        )
        misses.inc(stats.misses)
        corrupt = Counter(
            "repro_store_corrupt_records_total",
            "Records dropped for failing integrity verification.",
        )
        corrupt.inc(stats.corrupt_records)
        appends = Counter(
            "repro_store_appends_total",
            "Artifact records appended to the store log.",
        )
        appends.inc(stats.appends)
        flushes = Counter(
            "repro_store_flushes_total",
            "fsync flushes (explicit, close-time, and compactions).",
        )
        flushes.inc(stats.flushes)
        size = Gauge(
            "repro_store_bytes", "Current size of the store log in bytes."
        )
        size.set(self.size_bytes())
        records = Gauge(
            "repro_store_records", "Live records in the store index."
        )
        records.set(len(self))
        load = Gauge(
            "repro_store_load_ms",
            "Milliseconds the opening scan and recovery took.",
        )
        load.set(stats.load_ms)
        return (hits, misses, corrupt, appends, flushes, size, records, load)
