"""The reference conjunctive-query paths: every call rebuilds the
canonical databases and decides by the reference search, core loop and
DP.  The compiled query plane (:mod:`repro.cq`) returns identical answers.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from reference.homomorphism import (
    all_homomorphisms,
    core,
    find_homomorphism,
    solve_by_treewidth,
)
from repro.cq.canonical import (
    DISTINGUISHED_PREFIX,
    body_structure,
    canonical_database,
)
from repro.cq.query import Atom, ConjunctiveQuery, check_compatible

Element = Hashable


def containment_witness(
    q1: ConjunctiveQuery, q2: ConjunctiveQuery
) -> dict[Element, Element] | None:
    """The containment homomorphism ``D_{Q2} → D_{Q1}``, or ``None``."""
    check_compatible(q1, q2)
    union = q1.vocabulary.union(q2.vocabulary)
    d1 = canonical_database(q1, union)
    d2 = canonical_database(q2, union)
    return find_homomorphism(d2, d1)


def contains(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """Decide ``Q1 ⊆ Q2`` (Chandra–Merlin)."""
    return containment_witness(q1, q2) is not None


def contains_via_evaluation(
    q1: ConjunctiveQuery, q2: ConjunctiveQuery
) -> bool:
    """Decide ``Q1 ⊆ Q2`` as ``(X1, …, Xn) ∈ Q2(D_{Q1})``, evaluating Q2
    by enumerating the homomorphisms of its body into Q1's."""
    check_compatible(q1, q2)
    union = q1.vocabulary.union(q2.vocabulary)
    answers = {
        tuple(hom[v] for v in q2.head_variables)
        for hom in all_homomorphisms(
            body_structure(q2, union), body_structure(q1, union)
        )
    }
    return tuple(q1.head_variables) in answers


def equivalent(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """Query equivalence: containment in both directions."""
    return contains(q1, q2) and contains(q2, q1)


def containment_matrix(
    queries: Iterable[ConjunctiveQuery],
) -> list[list[bool]]:
    """``matrix[i][j]`` iff ``Qi ⊆ Qj``, one :func:`contains` per pair."""
    queries = list(queries)
    for query in queries[1:]:
        check_compatible(queries[0], query)
    return [[contains(qi, qj) for qj in queries] for qi in queries]


def minimize(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """The minimal equivalent query, read back from the core of ``D_Q``."""
    minimal = core(canonical_database(query))
    atoms = [
        Atom(name, fact)
        for name, fact in minimal.facts()
        if not name.startswith(DISTINGUISHED_PREFIX)
    ]
    return ConjunctiveQuery(list(query.head_variables), atoms, query.name)


def contains_bounded_width(
    q1: ConjunctiveQuery, q2: ConjunctiveQuery
) -> bool:
    """Decide ``Q1 ⊆ Q2`` by the reference treewidth DP on ``D_{Q2}``."""
    check_compatible(q1, q2)
    union = q1.vocabulary.union(q2.vocabulary)
    return (
        solve_by_treewidth(
            canonical_database(q2, union), canonical_database(q1, union)
        )
        is not None
    )
