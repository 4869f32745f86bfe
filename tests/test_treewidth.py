"""Tests for tree decompositions, heuristics, exact treewidth, and the DP."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.csp.generators import bounded_treewidth_structure
from repro.exceptions import DecompositionError
from repro.structures.graphs import clique, cycle, graph_structure, path
from repro.structures.homomorphism import (
    homomorphism_exists,
    is_homomorphism,
)
from repro.structures.structure import Structure
from repro.structures.vocabulary import Vocabulary
from repro.treewidth.decomposition import TreeDecomposition
from repro.treewidth.dp import (
    homomorphism_exists_by_treewidth,
    solve_by_treewidth,
)
from repro.treewidth.exact import (
    exact_treewidth,
    exact_treewidth_graph,
    is_treewidth_at_most,
)
from repro.treewidth.heuristics import (
    decompose,
    elimination_order,
    treewidth_upper_bound,
)

from conftest import structure_pairs, structures


class TestTreeDecomposition:
    def test_width(self):
        d = TreeDecomposition([{0, 1}, {1, 2}], [(0, 1)])
        assert d.width == 1

    def test_no_bags_rejected(self):
        with pytest.raises(DecompositionError):
            TreeDecomposition([], [])

    def test_cycle_in_tree_rejected(self):
        with pytest.raises(DecompositionError):
            TreeDecomposition(
                [{0}, {1}, {2}], [(0, 1), (1, 2), (2, 0)]
            )

    def test_self_loop_rejected(self):
        with pytest.raises(DecompositionError):
            TreeDecomposition([{0}], [(0, 0)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(DecompositionError):
            TreeDecomposition([{0}], [(0, 5)])

    def test_validate_path_decomposition(self):
        p = path(4)
        d = TreeDecomposition(
            [{0, 1}, {1, 2}, {2, 3}], [(0, 1), (1, 2)]
        )
        d.validate(p)
        assert d.is_valid_for(p)

    def test_validate_rejects_uncovered_fact(self):
        d = TreeDecomposition([{0, 1}, {2, 3}], [(0, 1)])
        assert not d.is_valid_for(path(4))  # fact (1,2) uncovered

    def test_validate_rejects_missing_element(self):
        d = TreeDecomposition([{0, 1}], [])
        with pytest.raises(DecompositionError):
            d.validate(Structure(path(2).vocabulary, {0, 1, 9},
                                 {"E": {(0, 1), (1, 0)}}))

    def test_validate_rejects_disconnected_occurrences(self):
        # element 0 in bags 0 and 2 but not 1
        d = TreeDecomposition(
            [{0, 1}, {1, 2}, {0, 2}], [(0, 1), (1, 2)]
        )
        s = graph_structure([0, 1, 2], [(0, 1), (1, 2)])
        with pytest.raises(DecompositionError):
            d.validate(s)

    def test_rooted_traversal(self):
        d = TreeDecomposition(
            [{0, 1}, {1, 2}, {2, 3}], [(0, 1), (1, 2)]
        )
        order = d.rooted(0)
        assert order[0] == (0, None)
        assert (1, 0) in order and (2, 1) in order

    def test_assign_facts_covers_everything(self):
        p = path(4)
        d = TreeDecomposition(
            [{0, 1}, {1, 2}, {2, 3}], [(0, 1), (1, 2)]
        )
        assignment = d.assign_facts(p)
        total = sum(len(facts) for facts in assignment.values())
        assert total == p.num_facts


class TestHeuristics:
    @pytest.mark.parametrize("heuristic", ["min_degree", "min_fill"])
    def test_decomposition_valid_and_reasonable(self, heuristic):
        for structure in (path(6), cycle(6), clique(4)):
            d = decompose(structure, heuristic)
            d.validate(structure)

    def test_path_width_one(self):
        assert treewidth_upper_bound(path(8)) == 1

    def test_cycle_width_two(self):
        assert treewidth_upper_bound(cycle(8)) == 2

    def test_clique_width_n_minus_one(self):
        assert treewidth_upper_bound(clique(5)) == 4

    def test_elimination_order_covers_all_vertices(self):
        c = cycle(6)
        order = elimination_order(c)
        assert sorted(order) == sorted(c.universe)

    def test_unknown_heuristic_rejected(self):
        with pytest.raises(ValueError):
            elimination_order(path(3), "bogus")

    def test_disconnected_graph_decomposes(self):
        s = graph_structure(range(6), [(0, 1), (3, 4)])
        d = decompose(s)
        d.validate(s)

    @given(structures(max_elements=6, max_facts=7))
    @settings(max_examples=30, deadline=None)
    def test_heuristic_upper_bounds_exact(self, s):
        assert treewidth_upper_bound(s) >= exact_treewidth(s)


class TestExactTreewidth:
    def test_known_values(self):
        assert exact_treewidth(path(6)) == 1
        assert exact_treewidth(cycle(6)) == 2
        assert exact_treewidth(clique(5)) == 4
        assert exact_treewidth(Structure(path(2).vocabulary, {0})) == 0

    def test_grid_3x3_width_3(self):
        import networkx as nx

        grid = nx.grid_2d_graph(3, 3)
        assert exact_treewidth_graph(grid) == 3

    def test_is_treewidth_at_most(self):
        assert is_treewidth_at_most(cycle(5), 2)
        assert not is_treewidth_at_most(cycle(5), 1)

    def test_single_wide_tuple(self):
        # Section 5's closing example: one n-ary tuple has treewidth n-1
        s = Structure(
            Vocabulary.from_arities({"T": 4}), (), {"T": {(0, 1, 2, 3)}}
        )
        assert exact_treewidth(s) == 3


class TestTreewidthDP:
    def test_coloring_decisions(self):
        assert solve_by_treewidth(cycle(6), clique(2)) is not None
        assert solve_by_treewidth(cycle(5), clique(2)) is None
        assert solve_by_treewidth(cycle(5), clique(3)) is not None

    def test_returned_map_verifies(self):
        hom = solve_by_treewidth(cycle(6), clique(2))
        assert is_homomorphism(hom, cycle(6), clique(2))

    def test_with_explicit_decomposition(self):
        structure, bags, tree_edges = bounded_treewidth_structure(
            8, 2, seed=5
        )
        d = TreeDecomposition(bags, tree_edges)
        got = solve_by_treewidth(structure, clique(3), d)
        want = homomorphism_exists(structure, clique(3))
        assert (got is not None) == want

    def test_invalid_decomposition_rejected(self):
        d = TreeDecomposition([{0}], [])
        with pytest.raises(DecompositionError):
            solve_by_treewidth(path(3), clique(2), d)

    def test_empty_source(self):
        empty = Structure(path(2).vocabulary)
        assert solve_by_treewidth(empty, clique(2)) == {}

    def test_empty_target(self):
        empty = Structure(path(2).vocabulary)
        assert solve_by_treewidth(path(3), empty) is None

    @given(structure_pairs(max_elements=4, max_facts=5))
    @settings(max_examples=50, deadline=None)
    def test_against_backtracking(self, pair):
        a, b = pair
        hom = solve_by_treewidth(a, b)
        assert (hom is not None) == homomorphism_exists(a, b)
        if hom is not None:
            assert is_homomorphism(hom, a, b)

    def test_decision_wrapper(self):
        assert homomorphism_exists_by_treewidth(cycle(6), clique(2))
        assert not homomorphism_exists_by_treewidth(cycle(5), clique(2))
