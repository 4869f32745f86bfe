"""The reference greedy tree decomposition, on networkx graphs.

The elimination-order heuristics as first written: a networkx Gaifman
graph, each step's scores recomputed over every remaining vertex with
``has_edge``, and the bags rebuilt by a second elimination pass.
:func:`repro.treewidth.heuristics.decompose` runs the same heuristics on
int bitmasks and must give the same bags and edges in the same order.
"""

from __future__ import annotations

from typing import Hashable, Literal, Sequence

import networkx as nx

from repro.structures.structure import Structure, _sort_key
from repro.treewidth.decomposition import TreeDecomposition

Element = Hashable


def gaifman_graph(structure: Structure) -> nx.Graph:
    """Elements as nodes; an edge between elements sharing a fact."""
    graph = nx.Graph()
    graph.add_nodes_from(structure.universe)
    for _name, fact in structure.facts():
        distinct = list(dict.fromkeys(fact))
        for i, u in enumerate(distinct):
            for v in distinct[i + 1 :]:
                graph.add_edge(u, v)
    return graph


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
    """The greedy decomposition of the structure's Gaifman graph."""
    graph = gaifman_graph(structure)
    return decomposition_from_order(graph, elimination_order(graph, heuristic))
