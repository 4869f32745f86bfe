"""Conjunctive-query evaluation.

Two independent evaluators are provided and cross-checked in the tests:

* :func:`evaluate` — the homomorphism route of Theorem 2.1: answers are the
  projections onto the head variables of the homomorphisms from the query's
  body structure into the database;
* :func:`evaluate_join` — the classical database route: a left-deep plan of
  hash joins over the subgoals followed by a projection (select–project–join
  evaluation, the equivalence the paper's introduction recalls from
  [Ull89/GJC94]).

Both use active-domain semantics for head variables that do not occur in
the body.
"""

from __future__ import annotations

from typing import Hashable

from repro.cq.compiled import compile_query
from repro.cq.query import ConjunctiveQuery
from repro.exceptions import VocabularyError
from repro.structures.homomorphism import all_homomorphisms
from repro.structures.structure import Structure, _sort_key

__all__ = ["evaluate", "evaluate_join", "holds"]

Element = Hashable
Row = tuple[Element, ...]


def _aligned(query: ConjunctiveQuery, database: Structure) -> Structure:
    """The database re-typed over the union vocabulary of query and data."""
    if not query.vocabulary.issubset(database.vocabulary):
        try:
            union = database.vocabulary.union(query.vocabulary)
        except VocabularyError as error:
            raise VocabularyError(
                f"query and database vocabularies clash: {error}"
            ) from error
        return database.with_vocabulary(union)
    return database


def evaluate(query: ConjunctiveQuery, database: Structure) -> set[Row]:
    """All answers of ``query`` on ``database`` via homomorphisms.

    For a Boolean query the result is ``{()}`` (true) or ``set()`` (false).
    The body structure comes from the compiled query artifact
    (:mod:`repro.cq.compiled`), so evaluating the same query repeatedly —
    against one database, or a fleet sharing a vocabulary — reuses one
    build and its kernel compilation.
    """
    database = _aligned(query, database)
    body = compile_query(query).body_for(database.vocabulary)
    answers: set[Row] = set()
    for hom in all_homomorphisms(body, database):
        answers.add(tuple(hom[v] for v in query.head_variables))
    return answers


def holds(query: ConjunctiveQuery, database: Structure) -> bool:
    """Truth of a Boolean query (or non-emptiness of an n-ary one)."""
    database = _aligned(query, database)
    body = compile_query(query).body_for(database.vocabulary)
    for _hom in all_homomorphisms(body, database):
        return True
    return False


def evaluate_join(query: ConjunctiveQuery, database: Structure) -> set[Row]:
    """All answers of ``query`` on ``database`` via hash joins.

    Processes subgoals in a connectivity-aware order (each step prefers an
    atom sharing variables with those already joined), joining intermediate
    relations on their shared variables, then projects onto the head.
    """
    database = _aligned(query, database)
    atoms = list(query.atoms)

    # Choose a join order greedily by shared variables to keep
    # intermediates small on chain/star/tree queries.
    ordered = []
    seen_vars: set[str] = set()
    remaining = list(atoms)
    while remaining:
        best_index = 0
        if seen_vars:
            scored = [
                (len(set(atom.terms) & seen_vars), -index)
                for index, atom in enumerate(remaining)
            ]
            best = max(range(len(remaining)), key=lambda i: scored[i])
            best_index = best
        atom = remaining.pop(best_index)
        ordered.append(atom)
        seen_vars.update(atom.terms)

    # Intermediate relation: (variable order, set of rows).
    columns: list[str] = []
    rows: set[Row] = {()}
    for atom in ordered:
        facts = database.relation(atom.relation)
        # Bindings a single fact induces, or None when inconsistent with
        # repeated variables inside the atom.
        atom_columns = []
        for term in atom.terms:
            if term not in atom_columns:
                atom_columns.append(term)

        def bind(fact: Row) -> Row | None:
            values: dict[str, Element] = {}
            for term, value in zip(atom.terms, fact):
                if values.setdefault(term, value) != value:
                    return None
            return tuple(values[c] for c in atom_columns)

        atom_rows = {
            bound for bound in (bind(fact) for fact in facts)
            if bound is not None
        }
        shared = [c for c in atom_columns if c in columns]
        new_columns = [c for c in atom_columns if c not in columns]
        shared_left = [columns.index(c) for c in shared]
        shared_right = [atom_columns.index(c) for c in shared]
        new_right = [atom_columns.index(c) for c in new_columns]
        # Hash join on the shared variables.
        index: dict[Row, list[Row]] = {}
        for row in atom_rows:
            key = tuple(row[i] for i in shared_right)
            index.setdefault(key, []).append(
                tuple(row[i] for i in new_right)
            )
        joined: set[Row] = set()
        for row in rows:
            key = tuple(row[i] for i in shared_left)
            for extension in index.get(key, ()):
                joined.add(row + extension)
        columns = columns + new_columns
        rows = joined
        if not rows:
            break

    # Head variables not in the body range over the active domain.
    missing = [v for v in query.head_variables if v not in columns]
    domain = sorted(database.universe, key=_sort_key)
    if missing and not domain:
        return set()
    distinct_missing = []
    for v in missing:
        if v not in distinct_missing:
            distinct_missing.append(v)
    expanded: set[Row] = set()
    for row in rows:
        assignments = [dict(zip(columns, row))]
        for v in distinct_missing:
            assignments = [
                {**assignment, v: value}
                for assignment in assignments
                for value in domain
            ]
        for assignment in assignments:
            expanded.add(
                tuple(assignment[v] for v in query.head_variables)
            )
    return expanded
