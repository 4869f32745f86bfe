"""Conjunctive-query minimization via cores.

Chandra–Merlin: every conjunctive query has a unique (up to variable
renaming) minimal equivalent query, obtained as the *core* of its canonical
database.  Minimization is the classical application of the containment
machinery — it is how query optimizers remove redundant joins.

Two implementations are provided and cross-checked:

* :func:`minimize` — computes the core of the canonical database (markers
  included, so distinguished variables are pinned) and reads the query back;
* :func:`minimize_by_atom_removal` — greedily drops body atoms while the
  result stays equivalent to the original.

Both run on the compiled query plane by default: the canonical database
comes from the memoized :class:`repro.cq.compiled.CompiledQuery`, the core
from the kernel's masked endomorphism search
(:mod:`repro.kernel.corek`), and the minimized query is memoized on the
compiled artifact — repeated minimization of a hot query is free.
The parity suite holds both to the rebuild-per-call paths of
``reference/cq.py``: the identical minimized query.
"""

from __future__ import annotations

from repro.cq.canonical import DISTINGUISHED_PREFIX
from repro.cq.compiled import compile_query
from repro.cq.containment import equivalent
from repro.cq.query import Atom, ConjunctiveQuery
from repro.structures.product import core

__all__ = ["minimize", "minimize_by_atom_removal", "is_minimal"]


def minimize(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """The minimal equivalent query, via the core of ``D_Q``.

    The unary distinguished markers make the head variables rigid: every
    retraction fixes them, so the core's marker facts still identify the
    head.  Body atoms are read back from the core's non-marker facts.
    """
    compiled = compile_query(query)
    if compiled._minimized is not None:
        return compiled._minimized
    minimal = core(compiled.canonical)
    head = list(query.head_variables)
    atoms = [
        Atom(name, fact)
        for name, fact in minimal.facts()
        if not name.startswith(DISTINGUISHED_PREFIX)
    ]
    result = ConjunctiveQuery(head, atoms, query.name)
    compiled._minimized = result
    return result


def minimize_by_atom_removal(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """Greedy minimization: drop atoms while equivalence is preserved.

    Independent of :func:`minimize`; by the uniqueness of minimal
    conjunctive queries both return queries with the same number of atoms.
    """
    atoms = list(query.atoms)
    changed = True
    while changed:
        changed = False
        for index in range(len(atoms)):
            candidate_atoms = atoms[:index] + atoms[index + 1 :]
            candidate = ConjunctiveQuery(
                query.head_variables, candidate_atoms, query.name
            )
            if equivalent(candidate, query):
                atoms = candidate_atoms
                changed = True
                break
    return ConjunctiveQuery(query.head_variables, atoms, query.name)


def is_minimal(query: ConjunctiveQuery) -> bool:
    """True when no single body atom can be dropped."""
    for index in range(len(query.atoms)):
        candidate = ConjunctiveQuery(
            query.head_variables,
            query.atoms[:index] + query.atoms[index + 1 :],
            query.name,
        )
        if equivalent(candidate, query):
            return False
    return True
