"""The homomorphism problem for finite relational structures.

Given structures ``A`` and ``B`` over the same vocabulary, a *homomorphism*
``h: A → B`` is a map on universes such that every fact of ``A`` is sent to a
fact of ``B``:  ``(c₁, …, c_r) ∈ Rᴬ`` implies ``(h(c₁), …, h(c_r)) ∈ Rᴮ``.

The paper's central observation (Section 2) is that conjunctive-query
containment, conjunctive-query evaluation, and constraint satisfaction are all
this one problem.  This module provides:

* :func:`is_homomorphism` — check a candidate map;
* :func:`find_homomorphism` — the generic NP backtracking search used as the
  baseline everywhere (MRV variable ordering + forward checking);
* :func:`all_homomorphisms` / :func:`count_homomorphisms` — enumeration;
* :func:`image` — the homomorphic image of a structure under a map.

The backtracking search is deliberately the *uniform* general-case algorithm:
Sections 3–5 of the paper are about inputs where it can be replaced by a
polynomial algorithm, and the benchmark suite compares those algorithms
against this one.

The search runs on the compiled bitset kernel (:mod:`repro.kernel`).
The randomized parity suite holds it to the pure-dict reference search
of ``reference/homomorphism.py``: same answers, in the same
deterministic order, with the same :class:`SearchStats` counters.
"""

from __future__ import annotations

from typing import Hashable, Iterator, Mapping, Sequence

from repro.exceptions import VocabularyError
from repro.kernel.search import count_solutions, search_homomorphisms
from repro.structures.structure import Structure

__all__ = [
    "is_homomorphism",
    "find_homomorphism",
    "all_homomorphisms",
    "count_homomorphisms",
    "homomorphism_exists",
    "image",
    "SearchStats",
]

Element = Hashable
Assignment = dict[Element, Element]


def _check_same_vocabulary(a: Structure, b: Structure) -> None:
    if a.vocabulary != b.vocabulary:
        raise VocabularyError(
            "homomorphism requires both structures over the same vocabulary; "
            f"got {a.vocabulary!r} and {b.vocabulary!r}"
        )


def is_homomorphism(
    mapping: Mapping[Element, Element], source: Structure, target: Structure
) -> bool:
    """True when ``mapping`` is a homomorphism from ``source`` to ``target``.

    ``mapping`` must be defined on the whole universe of ``source`` and land
    inside the universe of ``target``.
    """
    _check_same_vocabulary(source, target)
    universe = source.universe
    if not all(e in mapping for e in universe):
        return False
    if not all(mapping[e] in target.universe for e in universe):
        return False
    for name, fact in source.facts():
        if tuple(mapping[e] for e in fact) not in target.relation(name):
            return False
    return True


class SearchStats:
    """Mutable counters exposed by the backtracking search.

    The benchmark harness reads these to report work done (nodes visited,
    backtracks) alongside wall-clock time.
    """

    __slots__ = ("nodes", "backtracks")

    def __init__(self) -> None:
        self.nodes = 0
        self.backtracks = 0

    def __repr__(self) -> str:
        return f"SearchStats(nodes={self.nodes}, backtracks={self.backtracks})"


def find_homomorphism(
    source: Structure,
    target: Structure,
    *,
    order: Sequence[Element] | None = None,
    stats: SearchStats | None = None,
    fixed: Mapping[Element, Element] | None = None,
) -> Assignment | None:
    """Find one homomorphism ``source → target`` or return ``None``.

    This is the generic (worst-case exponential) baseline solver.  ``order``
    fixes a static variable order; by default MRV dynamic ordering is used.
    ``fixed`` pre-pins the images of some elements (used e.g. to search for
    retractions).  Pass a :class:`SearchStats` to collect search counters.
    """
    _check_same_vocabulary(source, target)
    if source.universe and not target.universe:
        return None
    stats = stats if stats is not None else SearchStats()
    for assignment in search_homomorphisms(
        source, target, stats=stats, order=order, fixed=fixed
    ):
        return assignment
    return None


def homomorphism_exists(
    source: Structure,
    target: Structure,
    *,
    order: Sequence[Element] | None = None,
    stats: SearchStats | None = None,
) -> bool:
    """Decision-problem convenience wrapper around :func:`find_homomorphism`.

    Accepts and propagates the same ``order=`` / ``stats=`` keywords as
    :func:`find_homomorphism`.
    """
    return (
        find_homomorphism(source, target, order=order, stats=stats)
        is not None
    )


def all_homomorphisms(
    source: Structure,
    target: Structure,
    *,
    order: Sequence[Element] | None = None,
    stats: SearchStats | None = None,
) -> Iterator[Assignment]:
    """Yield every homomorphism ``source → target`` (deterministic order).

    ``order=`` / ``stats=`` work as in :func:`find_homomorphism`.
    """
    _check_same_vocabulary(source, target)
    if source.universe and not target.universe:
        return
    stats = stats if stats is not None else SearchStats()
    yield from search_homomorphisms(source, target, stats=stats, order=order)


def count_homomorphisms(
    source: Structure,
    target: Structure,
    *,
    order: Sequence[Element] | None = None,
    stats: SearchStats | None = None,
) -> int:
    """The number of homomorphisms ``source → target``.

    Accepts and propagates the same ``order=`` / ``stats=`` keywords as
    :func:`find_homomorphism`.  The count comes from
    :func:`repro.kernel.search.count_solutions`, which walks the search
    tree but only tallies the leaves instead of materializing one
    assignment dict per homomorphism.
    """
    _check_same_vocabulary(source, target)
    if source.universe and not target.universe:
        return 0
    stats = stats if stats is not None else SearchStats()
    return count_solutions(source, target, stats=stats, order=order)


def image(
    source: Structure,
    mapping: Mapping[Element, Element],
    universe: Sequence[Element] | None = None,
) -> Structure:
    """The homomorphic image of ``source`` under ``mapping``.

    The image has universe ``mapping[source.universe]`` (extended by the
    optional explicit ``universe``) and relations the pointwise images of the
    relations of ``source``.  There is always a surjective homomorphism from
    ``source`` onto its image, a fact exploited by the core/minimization code.
    """
    elements = {mapping[e] for e in source.universe}
    if universe is not None:
        elements.update(universe)
    relations = {
        symbol.name: {tuple(mapping[e] for e in fact) for fact in rel}
        for symbol, rel in source.relations()
    }
    return Structure(source.vocabulary, elements, relations)
