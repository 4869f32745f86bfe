"""Strong k-consistency, table-based (Theorem 4.9).

The pebble-game fixpoint of :mod:`repro.pebble.game` in a different
data layout: one table of surviving assignments per domain subset of
size ≤ k, the fixpoint of iterated restriction/extension propagation.

``strong_k_consistent(A, B, k)`` is the decision form: it returns False
exactly when the closure is empty, i.e. when the Spoiler wins the
existential k-pebble game.

Both run on the generalized compiled k-pebble fixpoint
(:mod:`repro.kernel.pebblek`).  The parity suite holds its tables to
the table-filtering loop of ``reference/homomorphism.py``, image for
image.
"""

from __future__ import annotations

from typing import Hashable

from repro.kernel.pebblek import kernel_consistency_tables, spoiler_wins_k
from repro.structures.structure import Structure

__all__ = ["consistency_tables", "strong_k_consistent"]

Element = Hashable
Domain = tuple[Element, ...]
Table = dict[Domain, set[tuple[Element, ...]]]


def consistency_tables(
    source: Structure, target: Structure, k: int
) -> Table | None:
    """Compute, per sorted domain tuple of size ≤ k, the surviving images.

    Returns ``None`` when some table empties — i.e. strong k-consistency
    cannot be established and no homomorphism exists.
    """
    return kernel_consistency_tables(source, target, k)


def strong_k_consistent(source: Structure, target: Structure, k: int) -> bool:
    """Decision form: can strong k-consistency be established non-trivially?

    Equivalent to "the Duplicator wins the existential k-pebble game";
    by Theorem 4.8 it decides CSP(A, B) exactly when cCSP(B) is
    expressible in k-Datalog.  Decision only: skips the table decode.
    """
    return not spoiler_wins_k(source, target, k)
