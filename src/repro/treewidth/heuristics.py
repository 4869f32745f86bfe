"""Tree-decomposition heuristics via elimination orderings.

The classical route: pick a vertex order on the Gaifman graph, eliminate
vertices one by one (connecting their remaining neighbours into a clique);
the bags ``{v} ∪ N(v)`` at elimination time form a tree decomposition whose
width is the largest bag minus one.  *Min-degree* and *min-fill* are the
standard greedy orders.  Bodlaender's linear-time exact algorithm [Bod93]
cited by the paper is galactic; greedy elimination plus the exact
branch-and-bound in :mod:`repro.treewidth.exact` for small inputs is what
practical systems use.

The graph is held as one int bitmask of neighbours per element, indexed
in ``sorted_universe`` order, so the lowest index is the ``_sort_key``
tie-break.  The fill-in of ``v`` is ``C(d, 2)`` minus the edges inside
``N(v)``, one popcount per neighbour; eliminating ``v`` changes only the
scores of vertices within distance two of it, so only those are rescored.
"""

from __future__ import annotations

from math import inf
from typing import Hashable, Iterator, Literal

from repro.structures.gaifman import gaifman_masks
from repro.structures.structure import Structure
from repro.treewidth.decomposition import TreeDecomposition

__all__ = [
    "elimination_order",
    "decompose",
    "cached_decomposition",
    "treewidth_upper_bound",
]

Element = Hashable
Heuristic = Literal["min_degree", "min_fill"]


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _score(adjacency: list[int], vertex: int, heuristic: Heuristic) -> int:
    """The degree or the fill-in of ``vertex`` in the current graph."""
    neighbours = adjacency[vertex]
    degree = neighbours.bit_count()
    if heuristic == "min_degree":
        return degree
    inside = 0  # twice the number of edges inside N(vertex)
    rest = neighbours
    while rest:
        low = rest & -rest
        inside += (adjacency[low.bit_length() - 1] & neighbours).bit_count()
        rest ^= low
    return degree * (degree - 1) // 2 - inside // 2


def _eliminate(
    structure: Structure, heuristic: Heuristic
) -> tuple[tuple[Element, ...], list[tuple[int, int]]]:
    """Greedy elimination over ``sorted_universe``: per step, the
    eliminated vertex and the mask of its not-yet-eliminated neighbours
    in the fill-in graph."""
    if heuristic not in ("min_degree", "min_fill"):
        raise ValueError(f"unknown heuristic {heuristic!r}")
    elements, adjacency = gaifman_masks(structure)
    count = len(adjacency)
    # rank = score · count + index: the minimum is the lowest score,
    # ties going to the lowest index; eliminated vertices rank infinite.
    rank: list[float] = [
        _score(adjacency, v, heuristic) * count + v for v in range(count)
    ]
    steps: list[tuple[int, int]] = []
    for _ in range(count):
        vertex = rank.index(min(rank))
        rank[vertex] = inf
        neighbours = adjacency[vertex]
        steps.append((vertex, neighbours))
        near = 0
        for u in _bits(neighbours):
            adjacency[u] = (adjacency[u] | neighbours) & ~(1 << u | 1 << vertex)
            near |= adjacency[u]
        # Only N(vertex) changed neighbourhoods.  Fill edges join two
        # vertices of N(vertex), so they change the fill-in of a vertex
        # at distance two only if it sees two vertices of N(vertex).
        if heuristic == "min_fill":
            for w in _bits(near & ~neighbours):
                if (adjacency[w] & neighbours).bit_count() > 1:
                    rank[w] = _score(adjacency, w, heuristic) * count + w
        for u in _bits(neighbours):
            rank[u] = _score(adjacency, u, heuristic) * count + u
    return elements, steps


def elimination_order(
    structure: Structure, heuristic: Heuristic = "min_fill"
) -> list[Element]:
    """The greedy elimination order of the structure's Gaifman graph."""
    elements, steps = _eliminate(structure, heuristic)
    return [elements[vertex] for vertex, _ in steps]


def decompose(
    structure: Structure, heuristic: Heuristic = "min_fill"
) -> TreeDecomposition:
    """A (heuristic) tree decomposition of a structure via its Gaifman
    graph (Lemma 5.1).

    Bag of the i-th eliminated vertex v: {v} ∪ (its not-yet-eliminated
    neighbours in the fill-in graph); its parent is the bag of the
    earliest-eliminated vertex in that neighbourhood.
    """
    elements, steps = _eliminate(structure, heuristic)
    if not steps:
        return TreeDecomposition([frozenset()], [])
    position = [0] * len(steps)
    for step, (vertex, _) in enumerate(steps):
        position[vertex] = step
    bags: list[frozenset[Element]] = []
    edges: list[tuple[int, int]] = []
    for step, (vertex, later) in enumerate(steps):
        bags.append(frozenset(elements[u] for u in _bits(later | 1 << vertex)))
        if later:
            edges.append((step, min(position[u] for u in _bits(later))))
        elif step + 1 < len(steps):
            # Disconnected component: chain the bag to the next one so the
            # decomposition graph stays a tree.
            edges.append((step, step + 1))
    decomposition = TreeDecomposition(bags, edges)
    decomposition.validate(structure)
    return decomposition


def cached_decomposition(structure: Structure) -> TreeDecomposition:
    """The default (min-fill) decomposition, memoized on the structure.

    The same pattern as the compiled-kernel memos: decompositions are
    deterministic functions of the (immutable) structure, so the solver
    pipeline, the width-aware planner, and the treewidth DP can all ask
    repeatedly and pay the greedy elimination once per structure object.
    Cross-object reuse (structurally equal rebuilds) is the job of the
    fingerprint-keyed :class:`repro.core.pipeline.StructureCache`, whose
    ``decomposition`` entry point funnels through here — and the memo is
    dropped on pickling so cross-process payloads stay lean.
    """
    memoized = structure._decomposition
    if memoized is None:
        memoized = decompose(structure)
        structure._decomposition = memoized
    return memoized  # type: ignore[return-value]


def treewidth_upper_bound(
    structure: Structure, heuristic: Heuristic = "min_fill"
) -> int:
    """The width achieved by greedy elimination (an upper bound)."""
    return decompose(structure, heuristic).width
