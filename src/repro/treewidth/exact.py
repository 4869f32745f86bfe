"""Exact treewidth for small graphs.

The paper cites Bodlaender's linear-time algorithm for fixed k [Bod93]; its
constants make it purely theoretical, so — as in every practical treewidth
tool — we provide an exact dynamic program over vertex subsets (the
Bodlaender–Koster / Held–Karp-style recurrence, O(2ⁿ·n²)) for graphs up to
~18 vertices, used by the tests to certify the heuristic bounds.

``Q(S, v)`` = the number of vertices outside ``S ∪ {v}`` reachable from
``v`` through ``S``; a graph has treewidth ≤ w iff there is an elimination
order whose every prefix ``S`` extends by a vertex ``v`` with
``Q(S, v) ≤ w``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Hashable

from repro.structures.gaifman import gaifman_graph
from repro.structures.structure import Structure

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["exact_treewidth", "is_treewidth_at_most", "exact_treewidth_graph"]

Element = Hashable


def exact_treewidth_graph(graph: nx.Graph) -> int:
    """The exact treewidth of a graph (exponential-time DP).

    The treewidth of an edgeless (or empty) graph is conventionally 0
    here (single-vertex bags); the paper's convention of "width = max bag
    − 1" gives the same number.
    """
    nodes = sorted(graph.nodes, key=repr)
    n = len(nodes)
    if n == 0:
        return 0
    index_of = {v: i for i, v in enumerate(nodes)}
    adjacency = [0] * n
    for u, v in graph.edges:
        if u == v:
            continue
        adjacency[index_of[u]] |= 1 << index_of[v]
        adjacency[index_of[v]] |= 1 << index_of[u]

    full = (1 << n) - 1

    @lru_cache(maxsize=None)
    def q(eliminated: int, vertex: int) -> int:
        """|N(component of `vertex` in eliminated ∪ {vertex}) \\ eliminated|."""
        # Flood fill inside `eliminated` starting from vertex's neighbours.
        seen = 1 << vertex
        frontier = adjacency[vertex]
        boundary = 0
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            if seen & bit:
                continue
            seen |= bit
            position = bit.bit_length() - 1
            if eliminated & bit:
                frontier |= adjacency[position] & ~seen
            else:
                boundary |= bit
        return bin(boundary).count("1")

    @lru_cache(maxsize=None)
    def feasible(eliminated: int, width: int) -> bool:
        if eliminated == full:
            return True
        remaining = full & ~eliminated
        scan = remaining
        while scan:
            bit = scan & -scan
            scan ^= bit
            vertex = bit.bit_length() - 1
            if q(eliminated, vertex) <= width:
                if feasible(eliminated | bit, width):
                    return True
        return False

    for width in range(n):
        feasible.cache_clear()
        if feasible(0, width):
            return width
    return n - 1


def exact_treewidth(structure: Structure) -> int:
    """Exact treewidth of a structure, via its Gaifman graph (Lemma 5.1)."""
    return exact_treewidth_graph(gaifman_graph(structure))


def is_treewidth_at_most(structure: Structure, width: int) -> bool:
    """Whether the structure's treewidth is at most ``width``."""
    return exact_treewidth(structure) <= width
