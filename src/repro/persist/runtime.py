"""The process-wide default store handle.

Plane-level read-through sites that have no service object in scope —
the canonical-Datalog ``lru_cache`` in
:mod:`repro.datalog.canonical_program` is the one today — consult this
handle.  The solve service installs its store here on ``start()`` and
restores the previous value on ``stop()``.  Nothing in the library
*requires* a default store: every consumer treats ``None`` as "compute
as before".
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover — annotation-only import
    from repro.persist.store import ArtifactStore

__all__ = ["default_store", "set_default_store"]

_default: "ArtifactStore | None" = None


def default_store() -> "ArtifactStore | None":
    """The store ambient consumers read through, or ``None``."""
    return _default


def set_default_store(
    store: "ArtifactStore | None",
) -> "ArtifactStore | None":
    """Install ``store`` as the process default; returns the previous one.

    Callers that install a store for a bounded lifetime (the service,
    tests) should restore the returned previous value when done.
    """
    global _default
    previous = _default
    _default = store
    return previous
