"""Tree-decomposition heuristics via elimination orderings.

The classical route: pick a vertex order on the Gaifman graph, eliminate
vertices one by one (connecting their remaining neighbours into a clique);
the bags ``{v} ∪ N(v)`` at elimination time form a tree decomposition whose
width is the largest bag minus one.  *Min-degree* and *min-fill* are the
standard greedy orders.  Bodlaender's linear-time exact algorithm [Bod93]
cited by the paper is galactic; greedy elimination plus the exact
branch-and-bound in :mod:`repro.treewidth.exact` for small inputs is what
practical systems use.
"""

from __future__ import annotations

from typing import Hashable, Literal, Sequence

import networkx as nx

from repro.structures.gaifman import gaifman_graph
from repro.structures.structure import Structure, _sort_key
from repro.treewidth.decomposition import TreeDecomposition

__all__ = [
    "elimination_order",
    "decomposition_from_order",
    "decompose",
    "cached_decomposition",
    "treewidth_upper_bound",
]

Element = Hashable


def elimination_order(
    graph: nx.Graph, heuristic: Literal["min_degree", "min_fill"] = "min_fill"
) -> list[Element]:
    """A greedy elimination order of the graph's vertices."""
    work = graph.copy()
    order: list[Element] = []

    def fill_in(vertex: Element) -> int:
        neighbours = list(work.neighbors(vertex))
        missing = 0
        for i, u in enumerate(neighbours):
            for v in neighbours[i + 1 :]:
                if not work.has_edge(u, v):
                    missing += 1
        return missing

    while work.number_of_nodes():
        if heuristic == "min_degree":
            vertex = min(
                work.nodes, key=lambda v: (work.degree(v), _sort_key(v))
            )
        elif heuristic == "min_fill":
            vertex = min(
                work.nodes, key=lambda v: (fill_in(v), _sort_key(v))
            )
        else:
            raise ValueError(f"unknown heuristic {heuristic!r}")
        neighbours = list(work.neighbors(vertex))
        for i, u in enumerate(neighbours):
            for v in neighbours[i + 1 :]:
                work.add_edge(u, v)
        work.remove_node(vertex)
        order.append(vertex)
    return order


def decomposition_from_order(
    graph: nx.Graph, order: Sequence[Element]
) -> TreeDecomposition:
    """The tree decomposition induced by an elimination order.

    Bag of the i-th eliminated vertex v: {v} ∪ (neighbours of v among the
    not-yet-eliminated, in the fill-in graph); its parent is the bag of the
    earliest-eliminated vertex in that neighbourhood.
    """
    if not order:
        return TreeDecomposition([frozenset()], [])
    position = {v: i for i, v in enumerate(order)}
    work = graph.copy()
    work.add_nodes_from(order)
    bags: list[frozenset[Element]] = []
    later_neighbours: list[list[Element]] = []
    for vertex in order:
        neighbours = [
            u for u in work.neighbors(vertex) if position[u] > position[vertex]
        ]
        bags.append(frozenset([vertex, *neighbours]))
        later_neighbours.append(neighbours)
        for i, u in enumerate(neighbours):
            for v in neighbours[i + 1 :]:
                work.add_edge(u, v)
    edges = []
    for index, neighbours in enumerate(later_neighbours):
        if neighbours:
            parent_vertex = min(neighbours, key=lambda u: position[u])
            edges.append((index, position[parent_vertex]))
        elif index + 1 < len(order):
            # Disconnected component: chain the bag to the next one so the
            # decomposition graph stays a tree.
            edges.append((index, index + 1))
    return TreeDecomposition(bags, edges)


def decompose(
    structure: Structure,
    heuristic: Literal["min_degree", "min_fill"] = "min_fill",
) -> TreeDecomposition:
    """A (heuristic) tree decomposition of a structure via its Gaifman
    graph (Lemma 5.1)."""
    graph = gaifman_graph(structure)
    order = elimination_order(graph, heuristic)
    decomposition = decomposition_from_order(graph, order)
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
    structure: Structure,
    heuristic: Literal["min_degree", "min_fill"] = "min_fill",
) -> int:
    """The width achieved by greedy elimination (an upper bound)."""
    return decompose(structure, heuristic).width
