"""Tree decompositions of relational structures (Section 5).

A tree decomposition of a structure ``A`` is a tree whose nodes are labeled
by bags of elements such that (1) every fact's elements lie together in
some bag, (2) the bags containing any given element form a subtree, and —
implicitly — every element occurs in some bag.  Its *width* is the maximum
bag size minus one.  Lemma 5.1: tree decompositions of ``A`` and of its
Gaifman graph coincide, so all graph-theoretic machinery applies verbatim.
"""

from __future__ import annotations

from functools import cached_property
from typing import Hashable, Iterable, Sequence

from repro.exceptions import DecompositionError
from repro.structures.structure import Structure

__all__ = ["TreeDecomposition"]

Element = Hashable


class TreeDecomposition:
    """An immutable tree decomposition: bags plus tree edges.

    ``bags`` is a sequence of element sets; ``edges`` connects bag indices.
    A single-bag decomposition needs no edges.  Validity with respect to a
    structure is checked by :meth:`validate`.  Pickles carry only the
    bags and edges: the tree's adjacency and the kernel's program memo
    are rebuilt on demand.
    """

    def __init__(
        self,
        bags: Sequence[Iterable[Element]],
        edges: Iterable[tuple[int, int]] = (),
    ) -> None:
        self.bags: tuple[frozenset[Element], ...] = tuple(
            frozenset(bag) for bag in bags
        )
        self.edges: tuple[tuple[int, int], ...] = tuple(
            (min(i, j), max(i, j)) for i, j in edges
        )
        if not self.bags:
            raise DecompositionError("a decomposition needs at least one bag")
        count = len(self.bags)
        for i, j in self.edges:
            if not (0 <= i < count and 0 <= j < count):
                raise DecompositionError(f"edge ({i}, {j}) out of range")
            if i == j:
                raise DecompositionError("self-loop in the decomposition tree")
        # n - 1 distinct edges that reach every node from node 0: a tree.
        if len(set(self.edges)) != count - 1 or len(self.rooted(0)) != count:
            raise DecompositionError("decomposition graph is not a tree")

    def __getstate__(self) -> dict:
        return {"bags": self.bags, "edges": self.edges}

    # -- basic views ------------------------------------------------------------

    @cached_property
    def _neighbours(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbour lists of the tree, indexed by bag."""
        neighbours: list[list[int]] = [[] for _ in self.bags]
        for i, j in set(self.edges):
            neighbours[i].append(j)
            neighbours[j].append(i)
        return tuple(tuple(sorted(adjacent)) for adjacent in neighbours)

    def tree(self):
        """The decomposition tree as a networkx graph over bag indices."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(len(self.bags)))
        graph.add_edges_from(self.edges)
        return graph

    @property
    def width(self) -> int:
        """Maximum bag size minus one."""
        return max(len(bag) for bag in self.bags) - 1

    def __len__(self) -> int:
        return len(self.bags)

    def __repr__(self) -> str:
        return (
            f"TreeDecomposition(bags={len(self.bags)}, width={self.width})"
        )

    # -- validity -----------------------------------------------------------------

    def validate(self, structure: Structure) -> None:
        """Raise :class:`DecompositionError` unless this is a valid tree
        decomposition of ``structure``."""
        occurs: dict[Element, list[int]] = {}
        for index, bag in enumerate(self.bags):
            for element in bag:
                occurs.setdefault(element, []).append(index)
        missing = structure.universe - occurs.keys()
        if missing:
            raise DecompositionError(
                f"elements missing from every bag: {sorted(map(repr, missing))}"
            )
        bags = self.bags
        for symbol, facts in structure.relations():
            for fact in facts:
                # A covering bag holds the fact's first element.
                if fact and not any(
                    bags[index].issuperset(fact) for index in occurs[fact[0]]
                ):
                    raise DecompositionError(
                        f"fact {symbol.name}{fact!r} is not inside any bag"
                    )
        # Connectivity: the bags containing each element form a subtree.
        neighbours = self._neighbours
        for element, nodes in occurs.items():
            inside = set(nodes)
            reached = {nodes[0]}
            frontier = [nodes[0]]
            while frontier:
                for node in neighbours[frontier.pop()]:
                    if node in inside and node not in reached:
                        reached.add(node)
                        frontier.append(node)
            if len(reached) != len(inside):
                raise DecompositionError(
                    f"bags containing {element!r} are not connected"
                )

    def is_valid_for(self, structure: Structure) -> bool:
        """Boolean form of :meth:`validate`."""
        try:
            self.validate(structure)
        except DecompositionError:
            return False
        return True

    # -- traversal --------------------------------------------------------------

    def rooted(self, root: int = 0) -> list[tuple[int, int | None]]:
        """Nodes in BFS order as ``(node, parent)`` pairs (root first)."""
        if not 0 <= root < len(self.bags):
            raise DecompositionError(f"root {root} out of range")
        neighbours = self._neighbours
        order: list[tuple[int, int | None]] = [(root, None)]
        seen = {root}
        for node, _parent in order:  # the list is the BFS queue
            for neighbour in neighbours[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    order.append((neighbour, node))
        return order

    def assign_facts(
        self, structure: Structure
    ) -> dict[int, list[tuple[str, tuple[Element, ...]]]]:
        """Assign every fact to one node whose bag covers it.

        Used by the dynamic-programming solver; raises on uncovered facts.
        """
        assignment: dict[int, list[tuple[str, tuple[Element, ...]]]] = {
            index: [] for index in range(len(self.bags))
        }
        for name, fact in structure.facts():
            needed = set(fact)
            for index, bag in enumerate(self.bags):
                if needed <= bag:
                    assignment[index].append((name, fact))
                    break
            else:
                raise DecompositionError(
                    f"fact {name}{fact!r} is not inside any bag"
                )
        return assignment
