"""Tests for serialization round-trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cq.parser import parse_query
from repro.datalog.program import parse_program
from repro.exceptions import ParseError, VocabularyError
from repro.structures.graphs import cycle, directed_cycle
from repro.structures.io import (
    program_from_text,
    program_to_text,
    query_from_text,
    query_to_text,
    structure_from_dict,
    structure_from_json,
    structure_to_dict,
    structure_to_json,
)
from repro.structures.structure import Structure

from conftest import structures

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=12,
)
SYMBOL_MAPS = st.dictionaries(st.sampled_from("ER"), JSON_VALUES, max_size=2)
#: Dicts with the structure keys present more often than raw JSON has them.
STRUCTURE_SHAPED = st.fixed_dictionaries(
    {},
    optional={
        "vocabulary": JSON_VALUES | SYMBOL_MAPS,
        "universe": JSON_VALUES,
        "relations": JSON_VALUES | SYMBOL_MAPS,
    },
)


class TestStructureRoundtrip:
    def test_dict_roundtrip(self):
        s = cycle(5)
        assert structure_from_dict(structure_to_dict(s)) == s

    def test_json_roundtrip(self):
        s = directed_cycle(4)
        assert structure_from_json(structure_to_json(s)) == s

    def test_json_pretty(self):
        text = structure_to_json(cycle(3), indent=2)
        assert "\n" in text
        assert structure_from_json(text) == cycle(3)

    def test_isolated_elements_survive(self):
        from repro.structures.structure import Structure

        s = Structure(cycle(3).vocabulary, {0, 1, 2, 9},
                      {"E": {(0, 1)}})
        assert structure_from_dict(structure_to_dict(s)) == s

    def test_empty_relations_survive(self):
        from repro.structures.structure import Structure
        from repro.structures.vocabulary import Vocabulary

        s = Structure(Vocabulary.from_arities({"E": 2, "P": 1}), {0})
        assert structure_from_dict(structure_to_dict(s)) == s

    def test_malformed_dict_rejected(self):
        with pytest.raises(ParseError):
            structure_from_dict({"relations": {}})
        # Shapes that used to escape as AttributeError or decode by
        # iterating a string into its characters.
        for shape_error in (
            {"vocabulary": [["E", 2]]},
            {"vocabulary": {"E": 2}, "relations": [1]},
            {"vocabulary": {"E": 2}, "universe": "abc"},
            {"vocabulary": {"E": 2}, "relations": {"E": ["ab"]}},
            {"vocabulary": {"E": 2}, "relations": {"E": "ab"}},
            ["vocabulary"],
        ):
            with pytest.raises(ParseError):
                structure_from_dict(shape_error)
        # Arities that used to decode and then fail at solve time.
        for arity in (1.5, True, "2", None):
            with pytest.raises(VocabularyError):
                structure_from_dict({"vocabulary": {"E": arity}})

    @given(JSON_VALUES | STRUCTURE_SHAPED)
    @settings(max_examples=200, deadline=None)
    def test_decoder_raises_only_typed_errors(self, data):
        """Any JSON-shaped value decodes or raises a typed 400 error."""
        try:
            decoded = structure_from_dict(data)
        except (ParseError, VocabularyError):
            return
        assert isinstance(decoded, Structure)

    def test_malformed_json_rejected(self):
        with pytest.raises(ParseError):
            structure_from_json("{not json")

    @given(structures())
    @settings(max_examples=40, deadline=None)
    def test_random_roundtrip(self, s):
        assert structure_from_dict(structure_to_dict(s)) == s
        assert structure_from_json(structure_to_json(s)) == s


class TestQueryRoundtrip:
    def test_text_roundtrip(self):
        q = parse_query("Q(X1, X2) :- P(X1, Z1, Z2), R(Z2, X2).")
        assert query_from_text(query_to_text(q)) == q

    def test_boolean_query_roundtrip(self):
        q = parse_query("Q :- E(X, Y).")
        assert query_from_text(query_to_text(q)) == q


class TestProgramRoundtrip:
    PROGRAM = "T(X, Y) :- E(X, Y)\nT(X, Y) :- T(X, Z), E(Z, Y)"

    def test_text_roundtrip_with_goal_comment(self):
        program = parse_program(self.PROGRAM, goal="T")
        text = program_to_text(program)
        again = program_from_text(text)
        assert again.goal == "T"
        assert len(again) == len(program)

    def test_explicit_goal_overrides(self):
        program = program_from_text(self.PROGRAM, goal="T")
        assert program.goal == "T"

    def test_missing_goal_rejected(self):
        with pytest.raises(ParseError):
            program_from_text(self.PROGRAM)
