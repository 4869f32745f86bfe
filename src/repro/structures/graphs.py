"""Graphs as relational structures, and the paper's stock examples.

Graphs are structures over the vocabulary ``{E/2}``.  Undirected graphs are
encoded symmetrically (both ``(u, v)`` and ``(v, u)``), matching the paper's
usage: CSP(K₂) is 2-colorability, CSP(Kₖ) is k-colorability, CSP(C₄) for the
*directed* 4-cycle is Example 3.8, cliques vs. graphs give the
non-uniformizable clique problem of Section 2, and paths give Hamiltonian
path.
"""

from __future__ import annotations

import random
from typing import Hashable, Iterable

from repro.structures.structure import Structure
from repro.structures.vocabulary import RelationSymbol, Vocabulary

__all__ = [
    "GRAPH_VOCABULARY",
    "EDGE",
    "graph_structure",
    "digraph_structure",
    "to_networkx",
    "clique",
    "path",
    "cycle",
    "directed_cycle",
    "random_graph",
    "random_digraph",
    "is_two_colorable",
]

Element = Hashable

EDGE = RelationSymbol("E", 2)
GRAPH_VOCABULARY = Vocabulary([EDGE])


def graph_structure(
    vertices: Iterable[Element], edges: Iterable[tuple[Element, Element]]
) -> Structure:
    """An *undirected* graph as a structure (edges stored symmetrically)."""
    facts: set[tuple[Element, Element]] = set()
    for u, v in edges:
        facts.add((u, v))
        facts.add((v, u))
    return Structure(GRAPH_VOCABULARY, vertices, {"E": facts})


def digraph_structure(
    vertices: Iterable[Element], edges: Iterable[tuple[Element, Element]]
) -> Structure:
    """A *directed* graph as a structure (edges stored as given)."""
    return Structure(GRAPH_VOCABULARY, vertices, {"E": set(map(tuple, edges))})


def to_networkx(structure: Structure, *, directed: bool = False):
    """Convert an ``{E/2}`` structure to a networkx (Di)Graph."""
    import networkx as nx

    graph = nx.DiGraph() if directed else nx.Graph()
    graph.add_nodes_from(structure.universe)
    graph.add_edges_from(structure.relation("E"))
    return graph


def clique(k: int) -> Structure:
    """The complete graph K_k; CSP(K_k) is k-colorability (k ≥ 1)."""
    if k < 1:
        raise ValueError("clique size must be at least 1")
    vertices = range(k)
    edges = [(i, j) for i in vertices for j in vertices if i != j]
    return digraph_structure(vertices, edges)


def path(n: int) -> Structure:
    """The undirected path with ``n`` vertices ``0 — 1 — ⋯ — n-1``."""
    if n < 1:
        raise ValueError("path length must be at least 1")
    return graph_structure(range(n), [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Structure:
    """The undirected cycle Cₙ (n ≥ 3)."""
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return graph_structure(range(n), [(i, (i + 1) % n) for i in range(n)])


def directed_cycle(n: int) -> Structure:
    """The directed cycle on ``n`` vertices; ``directed_cycle(4)`` is the C₄
    of Example 3.8."""
    if n < 1:
        raise ValueError("directed cycle needs at least 1 vertex")
    return digraph_structure(range(n), [(i, (i + 1) % n) for i in range(n)])


def random_graph(
    n: int, edge_probability: float, *, seed: int | None = None
) -> Structure:
    """An Erdős–Rényi G(n, p) undirected graph as a structure."""
    rng = random.Random(seed)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < edge_probability
    ]
    return graph_structure(range(n), edges)


def random_digraph(
    n: int, edge_probability: float, *, seed: int | None = None
) -> Structure:
    """A random directed graph (no self-loops) as a structure."""
    rng = random.Random(seed)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and rng.random() < edge_probability
    ]
    return digraph_structure(range(n), edges)


def is_two_colorable(structure: Structure) -> bool:
    """Bipartiteness of the underlying undirected graph.

    Used as an oracle in tests of Examples 3.7/3.8: a directed graph maps
    homomorphically to C₄ iff it is 2-colorable.
    """
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(structure.universe)
    graph.add_edges_from(structure.relation("E"))
    graph.remove_edges_from(nx.selfloop_edges(graph))
    if any(u == v for u, v in structure.relation("E")):
        return False
    return nx.is_bipartite(graph)
