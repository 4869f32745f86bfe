"""Homomorphisms by dynamic programming over a tree decomposition
(Theorem 5.4).

Given a structure ``A`` with a tree decomposition of width ``w`` and an
arbitrary structure ``B``, decide ``A → B`` in time O(#bags · |B|^{w+1} ·
poly): root the decomposition; for each node, the *table* holds every map
from its bag into B that satisfies the facts assigned to that node and is
extendable on every child bag (agreeing on the shared elements).  A
homomorphism exists iff the root's table is non-empty, and one is
reconstructed top-down.

This is the executable content of Theorem 5.4; the paper's alternative
route through ∃FO^{k+1} evaluation (Lemma 5.2) lives in :mod:`repro.fo`
and the tests check the two always agree.

The DP runs on the compiled bitset kernel (:mod:`repro.kernel.decomp` —
nice-decomposition specialization, int-coded bag tables, support-bitset
semijoins).  The parity suite holds it to the bag-map enumeration of
``reference/homomorphism.py``: the same existence verdict on every
instance, and always a valid homomorphism (witness elements may differ).
"""

from __future__ import annotations

from typing import Hashable

from repro.structures.structure import Structure
from repro.treewidth.decomposition import TreeDecomposition

__all__ = ["solve_by_treewidth", "homomorphism_exists_by_treewidth"]

Element = Hashable


def solve_by_treewidth(
    source: Structure,
    target: Structure,
    decomposition: TreeDecomposition | None = None,
) -> dict[Element, Element] | None:
    """Find a homomorphism ``source → target`` via bag-table DP.

    ``decomposition`` defaults to a min-fill heuristic decomposition of
    the source (validated either way).  Returns a full homomorphism or
    ``None``; worst-case time is exponential only in the decomposition
    width, polynomial for bounded-treewidth sources (Theorem 5.4).
    """
    # Imported lazily: the kernel DP imports repro.treewidth itself.
    from repro.kernel.decomp import solve_decomposition

    return solve_decomposition(source, target, decomposition)


def homomorphism_exists_by_treewidth(
    source: Structure,
    target: Structure,
    decomposition: TreeDecomposition | None = None,
) -> bool:
    """Decision form of :func:`solve_by_treewidth`."""
    return solve_by_treewidth(source, target, decomposition) is not None
