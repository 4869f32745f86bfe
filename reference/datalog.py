"""The reference semi-naive Datalog evaluator over dict bindings.  The
kernel (:mod:`repro.kernel.datalogk`) returns the identical database, and
its Theorem 4.2 route the same verdict as ρ_B materialized here.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from repro.cq.query import Atom
from repro.datalog.canonical_program import canonical_program
from repro.datalog.program import DatalogProgram, Rule
from repro.exceptions import DatalogError
from repro.structures.structure import Structure, _sort_key

Element = Hashable
Row = tuple[Element, ...]
Database = dict[str, set[Row]]


def _match_atom(
    atom: Atom,
    relation: Iterable[Row],
    bindings: list[dict[str, Element]],
) -> list[dict[str, Element]]:
    """Extend each binding with matches of ``atom`` against ``relation``."""
    extended: list[dict[str, Element]] = []
    rows = list(relation)
    for binding in bindings:
        for row in rows:
            candidate = dict(binding)
            ok = True
            for term, value in zip(atom.terms, row):
                existing = candidate.get(term)
                if existing is None:
                    candidate[term] = value
                elif existing != value:
                    ok = False
                    break
            if ok:
                extended.append(candidate)
    return extended


def _fire_rule(
    rule: Rule,
    relations: Mapping[str, set[Row]],
    domain: list[Element],
    delta_focus: tuple[int, set[Row]] | None,
) -> set[Row]:
    """All head tuples derivable by one rule.

    ``delta_focus = (body index, delta rows)`` restricts that one body atom
    to the newly derived rows (the semi-naive trick); ``None`` evaluates
    the rule in full.
    """
    bindings: list[dict[str, Element]] = [{}]
    for index, atom in enumerate(rule.body):
        if delta_focus is not None and index == delta_focus[0]:
            rows: Iterable[Row] = delta_focus[1]
        else:
            rows = relations.get(atom.relation, set())
        bindings = _match_atom(atom, rows, bindings)
        if not bindings:
            return set()

    unsafe = sorted(rule.unsafe_variables)
    derived: set[Row] = set()
    for binding in bindings:
        assignments = [binding]
        for variable in unsafe:
            assignments = [
                {**assignment, variable: value}
                for assignment in assignments
                for value in domain
            ]
        for assignment in assignments:
            derived.add(
                tuple(assignment[t] for t in rule.head.terms)
            )
    return derived


def evaluate_program(
    program: DatalogProgram, structure: Structure
) -> Database:
    """The least fixed point: every predicate mapped to its final facts."""
    relations: Database = {}
    for symbol, rel in structure.relations():
        expected = program._arities.get(symbol.name)
        if expected is not None and expected != symbol.arity:
            raise DatalogError(
                f"EDB predicate {symbol.name!r} has arity {symbol.arity} "
                f"in the structure but {expected} in the program"
            )
        relations[symbol.name] = set(rel)
    for predicate in program.idb_predicates:
        if predicate in relations and relations[predicate]:
            raise DatalogError(
                f"IDB predicate {predicate!r} already populated by the "
                "input structure"
            )
        relations.setdefault(predicate, set())
    for predicate in program.edb_predicates:
        relations.setdefault(predicate, set())

    domain = sorted(structure.universe, key=_sort_key)

    # Round 0: fire every rule in full.
    delta: Database = {p: set() for p in program.idb_predicates}
    for rule in program.rules:
        new = _fire_rule(rule, relations, domain, None)
        fresh = new - relations[rule.head.relation]
        relations[rule.head.relation] |= fresh
        delta[rule.head.relation] |= fresh

    # Semi-naive rounds: a rule re-fires once per body atom whose predicate
    # changed, with that atom restricted to the delta.
    while any(delta.values()):
        next_delta: Database = {p: set() for p in program.idb_predicates}
        for rule in program.rules:
            for index, atom in enumerate(rule.body):
                changed = delta.get(atom.relation)
                if not changed:
                    continue
                new = _fire_rule(
                    rule, relations, domain, (index, changed)
                )
                fresh = new - relations[rule.head.relation]
                relations[rule.head.relation] |= fresh
                next_delta[rule.head.relation] |= fresh
        delta = next_delta
    return relations


def goal_holds(program: DatalogProgram, structure: Structure) -> bool:
    """Non-emptiness of the goal relation in the full fixpoint."""
    return bool(evaluate_program(program, structure)[program.goal])


def immediate_consequences(
    program: DatalogProgram,
    database: Mapping[str, set[Row]],
    domain: Iterable[Element],
) -> Database:
    """One application of T_P: every rule fired once against ``database``,
    unsafe head variables ranging over ``domain``."""
    derived: Database = {p: set() for p in program.idb_predicates}
    ordered = sorted(domain, key=_sort_key)
    for rule in program.rules:
        derived[rule.head.relation] |= _fire_rule(
            rule, database, ordered, None
        )
    return derived


def canonical_refutes(source: Structure, target: Structure, k: int) -> bool:
    """Does ρ_B, built and evaluated bottom-up, derive its goal on A?"""
    return goal_holds(canonical_program(target, k), source)
