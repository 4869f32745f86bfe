"""Algebraic operations on structures: disjoint union, direct product, cores.

These are the standard category-theoretic companions of the homomorphism
problem.  They are used throughout the tests as oracles (e.g. ``A → B×C``
iff ``A → B`` and ``A → C``) and by the conjunctive-query minimization code:
the *core* of the canonical database of a query is exactly the canonical
database of the minimal equivalent query (Chandra–Merlin).
"""

from __future__ import annotations

from typing import Hashable

from repro.exceptions import VocabularyError
from repro.kernel.corek import core_structure, is_core_structure, retraction
from repro.structures.structure import Structure

__all__ = [
    "disjoint_union",
    "direct_product",
    "power",
    "core",
    "is_core",
    "retract_onto",
]

Element = Hashable


def disjoint_union(a: Structure, b: Structure) -> Structure:
    """The disjoint union ``A ⊎ B`` with elements tagged ``(0, a)``/``(1, b)``.

    ``A ⊎ B → C`` iff ``A → C`` and ``B → C`` — the coproduct property.
    """
    if a.vocabulary != b.vocabulary:
        raise VocabularyError("disjoint union requires a common vocabulary")
    universe = [(0, e) for e in a.universe] + [(1, e) for e in b.universe]
    relations: dict[str, set[tuple[Element, ...]]] = {}
    for symbol, rel in a.relations():
        relations[symbol.name] = {
            tuple((0, e) for e in fact) for fact in rel
        }
    for symbol, rel in b.relations():
        relations.setdefault(symbol.name, set()).update(
            tuple((1, e) for e in fact) for fact in rel
        )
    return Structure(a.vocabulary, universe, relations)


def direct_product(a: Structure, b: Structure) -> Structure:
    """The direct (categorical) product ``A × B``.

    Universe: pairs ``(x, y)``; a tuple of pairs is a fact iff its left
    projection is a fact of ``A`` and its right projection a fact of ``B``.
    ``C → A×B`` iff ``C → A`` and ``C → B``.
    """
    if a.vocabulary != b.vocabulary:
        raise VocabularyError("direct product requires a common vocabulary")
    universe = [(x, y) for x in a.universe for y in b.universe]
    relations: dict[str, set[tuple[Element, ...]]] = {}
    for symbol, rel_a in a.relations():
        rel_b = b.relation(symbol.name)
        relations[symbol.name] = {
            tuple(zip(fact_a, fact_b))
            for fact_a in rel_a
            for fact_b in rel_b
        }
    return Structure(a.vocabulary, universe, relations)


def power(a: Structure, exponent: int) -> Structure:
    """The ``exponent``-fold direct product ``A × ⋯ × A`` (exponent ≥ 1)."""
    if exponent < 1:
        raise ValueError("exponent must be at least 1")
    result = a
    for _ in range(exponent - 1):
        result = direct_product(result, a)
    return result


def retract_onto(
    a: Structure, elements: frozenset[Element] | set[Element]
) -> dict[Element, Element] | None:
    """A retraction of ``A`` onto the substructure induced by ``elements``.

    A retraction is a homomorphism ``A → A`` that fixes ``elements``
    pointwise and whose image lies inside ``elements``.  Returns the map or
    ``None`` when no retraction exists.  The kernel searches with masked
    domains instead of materializing the induced substructure.
    """
    return retraction(a, elements)


def core(a: Structure) -> Structure:
    """The core of ``A``: a minimum homomorphically-equivalent substructure.

    Repeatedly look for an endomorphism missing some element — i.e. a
    homomorphism ``A → A∖{v}`` for some ``v`` — and shrink ``A`` to that
    homomorphism's image.  (Greedy *retractions* dropping one element do
    not suffice: C₆ retracts onto an edge but onto no 5-element
    substructure.)  The result is a core, unique up to isomorphism; cores
    of canonical databases give minimal conjunctive queries (Section 2 of
    the paper, via Chandra–Merlin).

    Worst-case exponential (deciding core-ness is NP-hard), fine for the
    query-minimization workloads in this library.  Runs on the compiled
    bitset engine (:mod:`repro.kernel.corek`), whose masked search visits
    the same tree as a search against the materialized substructures.
    """
    return core_structure(a)


def is_core(a: Structure) -> bool:
    """True when ``A`` admits no homomorphism into a proper substructure.

    Equivalently (for finite structures), every endomorphism of ``A`` is
    an automorphism.
    """
    return is_core_structure(a)
