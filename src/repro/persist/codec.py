"""One canonical serializer for every artifact kind.

The rule (and the bugfix this module pins): the bytes the store persists
are produced by the *same* serializer the artifact objects already
define for pickling — plain pickle over the artifact object — so the two
paths cannot drift.
``Structure.__getstate__`` keeps only the mathematical content plus the
fingerprint; the compiled classes add explicit ``__getstate__`` /
``__setstate__`` pairs (:class:`repro.kernel.compile.CompiledTarget`,
:class:`repro.cq.compiled.CompiledQuery`, …) that restore their slots
without re-running compilation and re-attach themselves to the carried
structure's / query's memo slot.  A second, store-private encoding would
have to replicate those invariants by hand and would silently diverge
the first time one side changed.

Kinds and their key spaces:

========== ============================== ===============================
kind       payload type                   key
========== ============================== ===============================
ctarget    CompiledTarget                 canonical_fingerprint(B)
classification SchaeferClass              canonical_fingerprint(B)
decomposition  TreeDecomposition          canonical_fingerprint(A)
query      CompiledQuery                  query_fingerprint(Q)
========== ============================== ===============================

A store written before the ``datalog`` kind (pickled canonical programs
ρ_B) was dropped may still hold such records: the kind is unknown, so
reading one is a counted corrupt record that is never unpickled.

Every key is a pure function of mathematical content (repr-based SHA-256
digests, never ``hash()``), so keys are stable across interpreter
restarts and ``PYTHONHASHSEED`` values — the property
``tests/test_fingerprint_stability.py`` pins, without which a persistent
store would silently never hit.
"""

from __future__ import annotations

import pickle

from repro.boolean.schaefer import SchaeferClass
from repro.cq.compiled import CompiledQuery
from repro.exceptions import StoreCorruptionError
from repro.kernel.compile import CompiledTarget
from repro.treewidth.decomposition import TreeDecomposition

__all__ = [
    "ARTIFACT_KINDS",
    "PICKLE_PROTOCOL",
    "decode_artifact",
    "encode_artifact",
]

#: Fixed so two interpreter versions sharing one store agree on bytes.
PICKLE_PROTOCOL = 5

#: Artifact kind → the type its payload must decode to.  Decoding
#: enforces this: a record whose checksum matches but whose payload is
#: the wrong type (a kind/key mix-up, a code-version skew) is treated
#: exactly like corruption — dropped, never served.
ARTIFACT_KINDS: dict[str, type] = {
    "ctarget": CompiledTarget,
    "classification": SchaeferClass,
    "decomposition": TreeDecomposition,
    "query": CompiledQuery,
}

#: The kinds the structure cache warms eagerly at service startup
#: (query artifacts warm the service-level memo instead).
STRUCTURE_KINDS = ("ctarget", "classification", "decomposition")


def encode_artifact(kind: str, artifact: object) -> bytes:
    """Serialize ``artifact`` with the one canonical serializer."""
    expected = ARTIFACT_KINDS.get(kind)
    if expected is None:
        raise ValueError(f"unknown artifact kind: {kind!r}")
    if not isinstance(artifact, expected):
        raise TypeError(
            f"artifact kind {kind!r} expects {expected.__name__}, "
            f"got {type(artifact).__name__}"
        )
    return pickle.dumps(artifact, protocol=PICKLE_PROTOCOL)


def decode_artifact(kind: str, payload: bytes) -> object:
    """Deserialize a record payload, enforcing the kind's type.

    Raises :class:`StoreCorruptionError` for anything that does not
    round-trip cleanly — the store converts that to a miss plus a
    quarantine, so a bad record degrades to recompilation, never to a
    wrong answer.
    """
    expected = ARTIFACT_KINDS.get(kind)
    if expected is None:
        raise StoreCorruptionError(f"unknown artifact kind: {kind!r}")
    try:
        artifact = pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 — any unpickle failure is corruption
        raise StoreCorruptionError(
            f"artifact of kind {kind!r} failed to decode: {exc!r}"
        ) from exc
    if not isinstance(artifact, expected):
        raise StoreCorruptionError(
            f"artifact of kind {kind!r} decoded to "
            f"{type(artifact).__name__}, expected {expected.__name__}"
        )
    return artifact
