"""Gaifman graphs and incidence graphs of relational structures.

Section 5 of the paper defines the treewidth of a structure via its *Gaifman
graph* (elements are nodes; two elements are adjacent iff they co-occur in a
tuple) and proves (Lemma 5.1) that tree decompositions of a structure and of
its Gaifman graph coincide.  The closing discussion of Section 5 compares
this with the *incidence graph* (bipartite: tuples vs. elements), whose
treewidth can be much smaller — e.g. a single ``n``-ary tuple has Gaifman
treewidth ``n − 1`` but incidence treewidth 1.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

from repro.structures.structure import Structure

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["gaifman_graph", "gaifman_masks", "incidence_graph", "primal_edges"]

Element = Hashable


def gaifman_masks(
    structure: Structure,
) -> tuple[tuple[Element, ...], list[int]]:
    """The Gaifman graph as ``(sorted_universe, masks)``: bit ``j`` of
    ``masks[i]`` marks an edge between elements ``i`` and ``j``."""
    elements = structure.sorted_universe
    index = {element: i for i, element in enumerate(elements)}
    masks = [0] * len(elements)
    for _symbol, facts in structure.relations():
        for fact in facts:
            scope = 0
            for element in fact:
                scope |= 1 << index[element]
            for element in fact:
                masks[index[element]] |= scope
    return elements, [mask & ~(1 << i) for i, mask in enumerate(masks)]


def primal_edges(structure: Structure) -> set[frozenset[Element]]:
    """The edge set of the Gaifman graph, as 2-element frozensets."""
    edges: set[frozenset[Element]] = set()
    for _name, fact in structure.facts():
        distinct = set(fact)
        for u in distinct:
            for v in distinct:
                if u != v:
                    edges.add(frozenset((u, v)))
    return edges


def gaifman_graph(structure: Structure) -> nx.Graph:
    """The Gaifman (primal) graph of a structure as a networkx graph."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(structure.universe)
    for edge in primal_edges(structure):
        u, v = tuple(edge)
        graph.add_edge(u, v)
    return graph


def incidence_graph(structure: Structure) -> nx.Graph:
    """The bipartite incidence graph of a structure.

    Tuple nodes are tagged ``("tuple", relation name, fact)`` and element
    nodes ``("element", element)`` so the two parts cannot collide.
    """
    import networkx as nx

    graph = nx.Graph()
    for element in structure.universe:
        graph.add_node(("element", element), bipartite=0)
    for name, fact in structure.facts():
        tuple_node = ("tuple", name, fact)
        graph.add_node(tuple_node, bipartite=1)
        for element in set(fact):
            graph.add_edge(tuple_node, ("element", element))
    return graph
