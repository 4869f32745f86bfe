"""Finite relational structures.

A finite relational structure ``A`` over a vocabulary σ consists of a finite
universe and, for every relation symbol ``R ∈ σ`` of arity ``r``, a finite
set of ``r``-tuples over the universe.  Structures are the common currency of
the whole paper: conjunctive queries become canonical databases, CSP
instances become structure pairs, and the homomorphism problem is stated
directly on structures (Section 2).

Structures here are immutable after construction; use :class:`StructureBuilder`
for incremental assembly.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Iterator, Mapping

from repro.exceptions import VocabularyError
from repro.structures.vocabulary import RelationSymbol, Vocabulary

__all__ = ["Structure", "StructureBuilder"]

Element = Hashable
Fact = tuple[Element, ...]


def _sort_key(value: Any) -> tuple[str, str]:
    """A total order over heterogeneous hashable universes.

    Python cannot compare e.g. ints with strs, yet deterministic iteration
    order matters for reproducible solver behaviour, so we order first by
    type name then by repr.
    """
    return (type(value).__name__, repr(value))


class Structure:
    """An immutable finite relational structure.

    Parameters
    ----------
    vocabulary:
        The signature.  Every relation name used in ``relations`` must be
        declared here (extra symbols are fine and denote empty relations).
    universe:
        The elements of the structure.  Elements mentioned in facts are
        added automatically, so an explicit universe is only needed for
        isolated elements.
    relations:
        ``{name: iterable of tuples}``.  Tuple widths must match arities.
    """

    __slots__ = (
        "_vocabulary",
        "_universe",
        "_relations",
        "_hash",
        "_fingerprint",
        "_compiled_source",
        "_compiled_target",
        "_decomposition",
    )

    def __init__(
        self,
        vocabulary: Vocabulary,
        universe: Iterable[Element] = (),
        relations: Mapping[str, Iterable[Fact]] | None = None,
    ) -> None:
        relations = relations or {}
        elements: set[Element] = set(universe)
        cleaned: dict[str, frozenset[Fact]] = {}
        for name, facts in relations.items():
            symbol = vocabulary.get(name)
            if symbol is None:
                raise VocabularyError(
                    f"relation {name!r} not declared in the vocabulary"
                )
            fact_set = set()
            for fact in facts:
                fact = tuple(fact)
                if len(fact) != symbol.arity:
                    raise VocabularyError(
                        f"fact {fact!r} has width {len(fact)}, but "
                        f"{symbol} has arity {symbol.arity}"
                    )
                fact_set.add(fact)
                elements.update(fact)
            cleaned[name] = frozenset(fact_set)
        for symbol in vocabulary:
            cleaned.setdefault(symbol.name, frozenset())
        self._vocabulary = vocabulary
        self._universe = frozenset(elements)
        self._relations = cleaned
        self._hash: int | None = None
        #: Memo for repro.structures.fingerprint.canonical_fingerprint.
        self._fingerprint: str | None = None
        #: Memos for repro.kernel.compile_source / compile_target.
        self._compiled_source: object | None = None
        self._compiled_target: object | None = None
        #: Memo for repro.treewidth.heuristics.cached_decomposition.
        self._decomposition: object | None = None

    # -- basic accessors -----------------------------------------------------

    @property
    def vocabulary(self) -> Vocabulary:
        return self._vocabulary

    @property
    def universe(self) -> frozenset[Element]:
        return self._universe

    @property
    def sorted_universe(self) -> tuple[Element, ...]:
        """The universe in a deterministic order (stable across runs)."""
        return tuple(sorted(self._universe, key=_sort_key))

    def relation(self, name: str) -> frozenset[Fact]:
        """The set of facts of relation ``name`` (empty if undeclared facts)."""
        if name not in self._relations:
            raise KeyError(name)
        return self._relations[name]

    def relations(self) -> Iterator[tuple[RelationSymbol, frozenset[Fact]]]:
        """Iterate ``(symbol, facts)`` pairs in deterministic symbol order."""
        for symbol in self._vocabulary:
            yield symbol, self._relations[symbol.name]

    def facts(self) -> Iterator[tuple[str, Fact]]:
        """Iterate all facts as ``(relation name, tuple)`` pairs."""
        for symbol, rel in self.relations():
            for fact in sorted(rel, key=lambda t: tuple(map(_sort_key, t))):
                yield symbol.name, fact

    # -- sizes ----------------------------------------------------------------

    def __len__(self) -> int:
        """Number of elements in the universe (``|A|`` in the paper)."""
        return len(self._universe)

    @property
    def num_facts(self) -> int:
        """Total number of tuples across all relations."""
        return sum(len(rel) for rel in self._relations.values())

    @property
    def size(self) -> int:
        """Encoding size ``‖A‖``: elements plus total tuple cells.

        This matches the paper's cost measure for uniform algorithms
        (e.g. the O(‖A‖·‖B‖) bound of Theorem 3.4).
        """
        cells = sum(
            len(rel) * symbol.arity for symbol, rel in self.relations()
        )
        return len(self._universe) + cells

    # -- predicates -----------------------------------------------------------

    def holds(self, name: str, fact: Fact) -> bool:
        """True when ``fact`` belongs to relation ``name``."""
        return tuple(fact) in self._relations[name]

    @property
    def is_boolean(self) -> bool:
        """True when the universe is a subset of ``{0, 1}`` (Section 3)."""
        return self._universe <= {0, 1}

    def occurrences(self) -> dict[Element, list[tuple[str, Fact, int]]]:
        """Index every occurrence of every element.

        Returns ``{element: [(relation name, fact, position), ...]}``.  This
        is the linked-list preprocessing step that Theorem 3.4 relies on to
        reach O(‖A‖·‖B‖): when an element changes state, all tuples it
        appears in can be revisited without scanning the whole structure.
        """
        index: dict[Element, list[tuple[str, Fact, int]]] = {
            element: [] for element in self._universe
        }
        for name, fact in self.facts():
            for position, element in enumerate(fact):
                index[element].append((name, fact, position))
        return index

    # -- pickling -------------------------------------------------------------

    def __getstate__(self) -> dict[str, Any]:
        """Pickle only the mathematical content, not the memo slots.

        The compiled-kernel memos (``_compiled_source`` /
        ``_compiled_target``) hold the full bitset index of the structure —
        shipping them to another process would multiply the payload for
        data the receiver can rebuild in linear time; they also must not
        alias across processes.  The greedy tree decomposition memo
        (``_decomposition``) is dropped for the same reason: receivers
        re-derive it through their own fingerprint-keyed cache.  The
        fingerprint is a small stable string, so it *is* kept: the
        worker's cache lookups reuse it directly.
        """
        return {
            "_vocabulary": self._vocabulary,
            "_universe": self._universe,
            "_relations": self._relations,
            "_fingerprint": self._fingerprint,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        self._vocabulary = state["_vocabulary"]
        self._universe = state["_universe"]
        self._relations = state["_relations"]
        self._fingerprint = state.get("_fingerprint")
        self._hash = None
        self._compiled_source = None
        self._compiled_target = None
        self._decomposition = None

    # -- equality / hashing -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Structure):
            return NotImplemented
        return (
            self._vocabulary == other._vocabulary
            and self._universe == other._universe
            and self._relations == other._relations
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (
                    self._vocabulary,
                    self._universe,
                    tuple(sorted(
                        (name, rel) for name, rel in self._relations.items()
                    )),
                )
            )
        return self._hash

    def __repr__(self) -> str:
        rels = ", ".join(
            f"{symbol.name}:{len(rel)}" for symbol, rel in self.relations()
        )
        return f"Structure(|A|={len(self)}, {rels})"

    # -- derived structures -------------------------------------------------

    def restrict(self, elements: Iterable[Element]) -> "Structure":
        """The induced substructure on ``elements``."""
        keep = set(elements)
        if not keep <= self._universe:
            raise VocabularyError("restriction elements outside the universe")
        relations = {
            symbol.name: {
                fact for fact in rel if all(e in keep for e in fact)
            }
            for symbol, rel in self.relations()
        }
        return Structure(self._vocabulary, keep, relations)

    def rename_elements(
        self, mapping: Mapping[Element, Element]
    ) -> "Structure":
        """Apply an *injective* renaming of elements.

        For the (possibly non-injective) image of a structure under an
        arbitrary map, see :func:`repro.structures.homomorphism.image`.
        """
        image = [mapping.get(e, e) for e in self._universe]
        if len(set(image)) != len(image):
            raise VocabularyError("element renaming must be injective")
        relations = {
            symbol.name: {
                tuple(mapping.get(e, e) for e in fact) for fact in rel
            }
            for symbol, rel in self.relations()
        }
        return Structure(self._vocabulary, image, relations)

    def with_vocabulary(self, vocabulary: Vocabulary) -> "Structure":
        """Re-type the structure over a larger vocabulary (new symbols get
        empty relations)."""
        if not self._vocabulary.issubset(vocabulary):
            raise VocabularyError(
                "target vocabulary must contain the current one"
            )
        return Structure(
            vocabulary,
            self._universe,
            {name: rel for name, rel in self._relations.items()},
        )


class StructureBuilder:
    """Mutable helper for assembling a :class:`Structure` incrementally.

    The builder infers the vocabulary from the facts added, so callers do
    not need to declare arities up front::

        builder = StructureBuilder()
        builder.add_fact("E", (1, 2))
        builder.add_fact("E", (2, 3))
        graph = builder.build()
    """

    def __init__(self) -> None:
        self._arities: dict[str, int] = {}
        self._relations: dict[str, set[Fact]] = {}
        self._universe: set[Element] = set()

    def add_element(self, element: Element) -> "StructureBuilder":
        self._universe.add(element)
        return self

    def add_elements(self, elements: Iterable[Element]) -> "StructureBuilder":
        self._universe.update(elements)
        return self

    def declare(self, name: str, arity: int) -> "StructureBuilder":
        """Declare a relation (useful for relations that stay empty)."""
        existing = self._arities.get(name)
        if existing is not None and existing != arity:
            raise VocabularyError(
                f"relation {name!r} declared with arities {existing} and {arity}"
            )
        self._arities[name] = arity
        self._relations.setdefault(name, set())
        return self

    def add_fact(self, name: str, fact: Iterable[Element]) -> "StructureBuilder":
        fact = tuple(fact)
        self.declare(name, len(fact))
        self._relations[name].add(fact)
        self._universe.update(fact)
        return self

    def build(self) -> Structure:
        vocabulary = Vocabulary.from_arities(self._arities)
        return Structure(vocabulary, self._universe, self._relations)
