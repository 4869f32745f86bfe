"""Tests for the direct quadratic algorithms of Theorem 3.4.

Every solver is cross-checked against the generic backtracking search on
random instances — hom existence must agree and returned maps must verify.
"""

import pytest
from hypothesis import given, settings

from repro.boolean.direct import (
    solve_bijunctive_csp,
    solve_dual_horn_csp,
    solve_horn_csp,
)
from repro.exceptions import NotBooleanError, NotSchaeferError
from repro.structures.homomorphism import (
    homomorphism_exists,
    is_homomorphism,
)
from repro.structures.structure import Structure
from repro.structures.vocabulary import Vocabulary

from conftest import boolean_structures, structures

BINARY = Vocabulary.from_arities({"R": 2})


def _boolean(vocabulary, relations):
    return Structure(vocabulary, {0, 1}, relations)


class TestHornDirect:
    def test_forced_chain(self):
        # R = {(1,1),(0,0),(1,0)} wait -- use implication-like relation
        target = _boolean(BINARY, {"R": {(1, 1), (0, 0), (0, 1)}})
        # facts: chain 0-1, 1-2; relation says: first=1 forces second=1
        source = Structure(BINARY, range(3), {"R": {(0, 1), (1, 2)}})
        hom = solve_horn_csp(source, target)
        assert hom is not None
        assert is_homomorphism(hom, source, target)

    def test_unsatisfiable(self):
        # R needs exactly (1,0); loop fact (a,a) cannot be satisfied
        target = _boolean(BINARY, {"R": {(1, 0)}})
        source = Structure(BINARY, {0}, {"R": {(0, 0)}})
        assert solve_horn_csp(source, target) is None

    def test_empty_target_relation(self):
        target = _boolean(BINARY, {"R": set()})
        source = Structure(BINARY, range(2), {"R": {(0, 1)}})
        assert solve_horn_csp(source, target) is None

    def test_source_with_no_facts(self):
        target = _boolean(BINARY, {"R": {(1, 1)}})
        source = Structure(BINARY, range(3), {})
        hom = solve_horn_csp(source, target)
        assert hom is not None and set(hom.values()) <= {0, 1}

    def test_non_horn_rejected(self):
        target = _boolean(BINARY, {"R": {(0, 1), (1, 0)}})
        source = Structure(BINARY, range(2), {"R": {(0, 1)}})
        with pytest.raises(NotSchaeferError):
            solve_horn_csp(source, target)

    def test_minimality_of_one_set(self):
        # all-ones forced only where required: target {(1,1),(0,0)}
        target = _boolean(BINARY, {"R": {(1, 1), (0, 0)}})
        source = Structure(BINARY, range(4), {"R": {(0, 1), (2, 3)}})
        hom = solve_horn_csp(source, target)
        # minimal model maps everything to 0
        assert hom == {0: 0, 1: 0, 2: 0, 3: 0}

    @given(structures(BINARY, max_elements=4, max_facts=5),
           boolean_structures(closure="horn", vocabulary=BINARY))
    @settings(max_examples=60, deadline=None)
    def test_against_backtracking(self, source, target):
        hom = solve_horn_csp(source, target)
        assert (hom is not None) == homomorphism_exists(source, target)
        if hom is not None:
            assert is_homomorphism(hom, source, target)


class TestDualHornDirect:
    def test_simple(self):
        target = _boolean(BINARY, {"R": {(0, 0), (1, 1), (1, 0)}})
        source = Structure(BINARY, range(3), {"R": {(0, 1), (1, 2)}})
        hom = solve_dual_horn_csp(source, target)
        assert hom is not None and is_homomorphism(hom, source, target)

    def test_non_dual_horn_rejected(self):
        target = _boolean(BINARY, {"R": {(0, 1), (1, 0)}})
        source = Structure(BINARY, range(2), {"R": {(0, 1)}})
        with pytest.raises(NotSchaeferError):
            solve_dual_horn_csp(source, target)

    @given(structures(BINARY, max_elements=4, max_facts=5),
           boolean_structures(closure="dual_horn", vocabulary=BINARY))
    @settings(max_examples=60, deadline=None)
    def test_against_backtracking(self, source, target):
        hom = solve_dual_horn_csp(source, target)
        assert (hom is not None) == homomorphism_exists(source, target)
        if hom is not None:
            assert is_homomorphism(hom, source, target)


class TestBijunctiveDirect:
    def test_two_coloring(self):
        target = _boolean(BINARY, {"R": {(0, 1), (1, 0)}})
        # even cycle of facts
        source = Structure(
            BINARY, range(4), {"R": {(0, 1), (1, 2), (2, 3), (3, 0)}}
        )
        hom = solve_bijunctive_csp(source, target)
        assert hom is not None and is_homomorphism(hom, source, target)

    def test_odd_cycle_unsat(self):
        target = _boolean(BINARY, {"R": {(0, 1), (1, 0)}})
        source = Structure(
            BINARY, range(3), {"R": {(0, 1), (1, 2), (2, 0)}}
        )
        assert solve_bijunctive_csp(source, target) is None

    def test_unit_propagation_pre_phase(self):
        # column 0 is constantly 1: every first component forced to 1
        target = _boolean(BINARY, {"R": {(1, 0), (1, 1)}})
        source = Structure(BINARY, range(2), {"R": {(0, 1)}})
        hom = solve_bijunctive_csp(source, target)
        assert hom is not None and hom[0] == 1

    def test_empty_target_relation(self):
        target = _boolean(BINARY, {"R": set()})
        source = Structure(BINARY, range(2), {"R": {(0, 1)}})
        assert solve_bijunctive_csp(source, target) is None

    def test_non_bijunctive_rejected(self):
        vocabulary = Vocabulary.from_arities({"R": 3})
        target = Structure(
            vocabulary,
            {0, 1},
            {"R": {(1, 0, 0), (0, 1, 0), (0, 0, 1)}},
        )
        source = Structure(vocabulary, range(3), {"R": {(0, 1, 2)}})
        with pytest.raises(NotSchaeferError):
            solve_bijunctive_csp(source, target)

    @given(structures(BINARY, max_elements=4, max_facts=5),
           boolean_structures(closure="bijunctive", vocabulary=BINARY))
    @settings(max_examples=80, deadline=None)
    def test_against_backtracking(self, source, target):
        hom = solve_bijunctive_csp(source, target)
        assert (hom is not None) == homomorphism_exists(source, target)
        if hom is not None:
            assert is_homomorphism(hom, source, target)


class TestBooleanUniverse:
    """A target over {0} or {1} alone is not Boolean in the paper's sense.

    Widening it to {0, 1} let the solvers answer with maps outside the
    target's universe (Horn and bijunctive mapped into 0 over {1}, dual
    Horn into 1 over {0}); every solver must refuse it instead.
    """

    SOLVERS = (solve_horn_csp, solve_dual_horn_csp, solve_bijunctive_csp)

    @pytest.mark.parametrize("solver", SOLVERS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("value", [0, 1])
    def test_single_value_target_rejected(self, solver, value):
        target = Structure(BINARY, {value}, {})
        source = Structure(BINARY, {0}, {})
        with pytest.raises(NotBooleanError):
            solver(source, target)

    @pytest.mark.parametrize("solver", SOLVERS, ids=lambda f: f.__name__)
    def test_fact_free_boolean_target_maps_into_universe(self, solver):
        target = _boolean(BINARY, {})
        source = Structure(BINARY, {0, 1}, {})
        hom = solver(source, target)
        assert hom is not None and set(hom.values()) <= {0, 1}
        assert is_homomorphism(hom, source, target)
