"""Tests for the exception hierarchy and error ergonomics."""

import pytest

from repro.exceptions import (
    DatalogError,
    DecompositionError,
    NotBooleanError,
    NotSchaeferError,
    ParseError,
    ReproError,
    ResourceBudgetError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    ShardCrashedError,
    SolveTimeoutError,
    VocabularyError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exception",
        [
            VocabularyError,
            ParseError,
            NotBooleanError,
            NotSchaeferError,
            DecompositionError,
            DatalogError,
            ResourceBudgetError,
            SolveTimeoutError,
        ],
    )
    def test_all_derive_from_repro_error(self, exception):
        assert issubclass(exception, ReproError)
        with pytest.raises(ReproError):
            raise exception("boom")

    @pytest.mark.parametrize(
        "exception",
        [
            SolveTimeoutError,
            ServiceClosedError,
            ServiceOverloadedError,
            ShardCrashedError,
        ],
    )
    def test_service_side_errors_are_service_errors(self, exception):
        # A service client catching ServiceError sees every way the
        # serving layer (as opposed to the instance) can fail it.
        assert issubclass(exception, ServiceError)


class TestErrorMessages:
    def test_vocabulary_error_names_symbol(self):
        from repro.structures.vocabulary import RelationSymbol, Vocabulary

        with pytest.raises(VocabularyError, match="E"):
            Vocabulary([RelationSymbol("E", 2), RelationSymbol("E", 3)])

    def test_parse_error_shows_offending_text(self):
        from repro.cq.parser import parse_query

        with pytest.raises(ParseError, match=":-"):
            parse_query("no arrow here")

    def test_schaefer_error_names_class(self):
        from repro.boolean.formulas import horn_defining_formula
        from repro.boolean.relations import BooleanRelation

        with pytest.raises(NotSchaeferError, match="Horn"):
            horn_defining_formula(
                BooleanRelation(2, [(0, 1), (1, 0)])
            )

    def test_decomposition_error_names_fact(self):
        from repro.structures.graphs import path
        from repro.treewidth.decomposition import TreeDecomposition

        d = TreeDecomposition([{0, 1}, {2, 3}], [(0, 1)])
        with pytest.raises(DecompositionError):
            d.validate(path(4))

    def test_datalog_error_on_bad_goal(self):
        from repro.datalog.program import parse_program

        with pytest.raises(DatalogError, match="goal"):
            parse_program("T(X) :- E(X, X)", goal="Missing")
