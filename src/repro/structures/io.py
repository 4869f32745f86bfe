"""Serialization of structures, queries, and Datalog programs.

Plain-dict (JSON-compatible) representations plus text round-trips, so
experiment inputs can be stored, diffed, and replayed.  Elements are
serialized as-is when they are JSON scalars; tuples inside facts become
lists in JSON and are converted back on load.

Only scalar (str/int/bool/float/None) elements survive a JSON round-trip;
structures with richer element types (tuples, frozensets — e.g. binary
encodings) can still be round-tripped through :func:`structure_to_dict` /
:func:`structure_from_dict` in memory.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Hashable, Mapping

from repro.exceptions import ParseError
from repro.structures.structure import Structure
from repro.structures.vocabulary import Vocabulary

if TYPE_CHECKING:  # imported lazily at runtime to avoid package cycles
    from repro.cq.query import ConjunctiveQuery
    from repro.datalog.program import DatalogProgram

__all__ = [
    "structure_to_dict",
    "structure_from_dict",
    "structure_to_json",
    "structure_from_json",
    "query_to_text",
    "query_from_text",
    "program_to_text",
    "program_from_text",
]

Element = Hashable


def structure_to_dict(structure: Structure) -> dict[str, Any]:
    """A plain-dict form: vocabulary arities, universe, relations."""
    return {
        "vocabulary": {
            symbol.name: symbol.arity for symbol in structure.vocabulary
        },
        "universe": list(structure.sorted_universe),
        "relations": {
            symbol.name: sorted((list(fact) for fact in rel), key=repr)
            for symbol, rel in structure.relations()
        },
    }


def _sequence(value: Any, what: str) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise ParseError(f"malformed structure dict: {what} must be a list")
    return value


def structure_from_dict(data: dict[str, Any]) -> Structure:
    """Inverse of :func:`structure_to_dict`.

    Raises :class:`ParseError` on any shape error — a non-mapping
    vocabulary or relations, a universe, fact list or fact that is not a
    list — and :class:`VocabularyError` on a bad symbol or fact width.
    A string is never iterated into its characters.
    """
    try:
        arities = data["vocabulary"]
        raw_relations = data.get("relations", {})
        if not isinstance(arities, Mapping):
            raise ParseError(
                "malformed structure dict: vocabulary must be a mapping"
            )
        if not isinstance(raw_relations, Mapping):
            raise ParseError(
                "malformed structure dict: relations must be a mapping"
            )
        vocabulary = Vocabulary.from_arities(arities)
        relations = {
            name: {
                tuple(_sequence(fact, f"a fact of {name!r}"))
                for fact in _sequence(facts, f"the facts of {name!r}")
            }
            for name, facts in raw_relations.items()
        }
        universe = _sequence(data.get("universe", ()), "universe")
        return Structure(vocabulary, universe, relations)
    except (KeyError, TypeError) as error:
        raise ParseError(f"malformed structure dict: {error}") from error


def structure_to_json(structure: Structure, *, indent: int | None = None) -> str:
    """JSON text form (requires JSON-scalar elements)."""
    return json.dumps(structure_to_dict(structure), indent=indent)


def structure_from_json(text: str) -> Structure:
    """Inverse of :func:`structure_to_json`."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise ParseError(f"invalid JSON: {error}") from error
    return structure_from_dict(data)


def query_to_text(query: "ConjunctiveQuery") -> str:
    """The rule-form text of a query (parsable back)."""
    return str(query)


def query_from_text(text: str) -> "ConjunctiveQuery":
    """Parse a rule-form query (alias of :func:`repro.cq.parse_query`)."""
    from repro.cq.parser import parse_query

    return parse_query(text)


def program_to_text(program: "DatalogProgram") -> str:
    """One rule per line, followed by a goal comment."""
    return f"{program}\n# goal: {program.goal}\n"


def program_from_text(
    text: str, goal: str | None = None
) -> "DatalogProgram":
    """Parse a program; the goal may come from a ``# goal:`` comment."""
    from repro.datalog.program import parse_program

    if goal is None:
        for line in text.splitlines():
            stripped = line.strip()
            if stripped.startswith("# goal:"):
                goal = stripped.split(":", 1)[1].strip()
                break
    if goal is None:
        raise ParseError("no goal given and no '# goal:' comment found")
    return parse_program(text, goal)
