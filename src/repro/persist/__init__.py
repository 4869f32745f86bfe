"""Crash-safe persistence of compiled artifacts (``repro.persist``).

Everything expensive the solve path produces is a pure function of a
canonical fingerprint — compiled bitset targets, Schaefer
classifications, tree decompositions, compiled queries.  This package persists those artifacts across process
lifetimes so a restart (or a supervised worker respawn) warms from disk
instead of recompiling:

* :mod:`repro.persist.format` — the append-friendly on-disk format:
  versioned header, per-record length + SHA-256, scan/recovery
  primitives;
* :mod:`repro.persist.codec` — the one canonical serializer per
  artifact kind (plain pickle over the artifacts' own
  ``__getstate__``/``__setstate__``);
* :mod:`repro.persist.store` — :class:`ArtifactStore`: single-writer
  locking, atomic publish, quarantine-and-truncate recovery, bounded
  compaction, obs-plane telemetry.

The service integration lives in :mod:`repro.service`:
``ServiceConfig(store_path=...)`` / ``REPRO_STORE`` opens the store at
startup and warms the caches, and ``SolveService.drain()`` flushes and closes it on the way out.
"""

from repro.persist.codec import (
    ARTIFACT_KINDS,
    decode_artifact,
    encode_artifact,
)
from repro.persist.store import ArtifactStore, StoreStats

__all__ = [
    "ARTIFACT_KINDS",
    "ArtifactStore",
    "StoreStats",
    "decode_artifact",
    "encode_artifact",
]
