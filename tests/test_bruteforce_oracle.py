"""Exhaustive-oracle tests: the search engine vs all possible maps.

On tiny instances we can enumerate *every* function from A's universe to
B's universe and check the homomorphism condition directly — a ground
truth independent of all library search code.
"""

from itertools import product

from hypothesis import given, settings

from repro.core.pipeline import SolveContext, StructureCache, solve
from repro.core.strategies import default_strategies
from repro.structures.homomorphism import (
    all_homomorphisms,
    count_homomorphisms,
    find_homomorphism,
    is_homomorphism,
)

from conftest import structure_pairs


def brute_force_homomorphisms(a, b):
    """Every map A→B satisfying the homomorphism condition, exhaustively."""
    elements = sorted(a.universe, key=repr)
    values = sorted(b.universe, key=repr)
    found = []
    for image in product(values, repeat=len(elements)):
        mapping = dict(zip(elements, image))
        if all(
            tuple(mapping[e] for e in fact) in b.relation(name)
            for name, fact in a.facts()
        ):
            found.append(mapping)
    return found


class TestAgainstExhaustiveEnumeration:
    @given(structure_pairs(max_elements=3, max_facts=4))
    @settings(max_examples=60, deadline=None)
    def test_existence_agrees(self, pair):
        a, b = pair
        expected = bool(brute_force_homomorphisms(a, b))
        assert (find_homomorphism(a, b) is not None) == expected

    @given(structure_pairs(max_elements=3, max_facts=3))
    @settings(max_examples=40, deadline=None)
    def test_count_agrees(self, pair):
        a, b = pair
        assert count_homomorphisms(a, b) == len(
            brute_force_homomorphisms(a, b)
        )

    @given(structure_pairs(max_elements=3, max_facts=3))
    @settings(max_examples=30, deadline=None)
    def test_enumeration_is_exactly_the_brute_force_set(self, pair):
        a, b = pair
        ours = {
            tuple(sorted(h.items(), key=repr))
            for h in all_homomorphisms(a, b)
        }
        truth = {
            tuple(sorted(h.items(), key=repr))
            for h in brute_force_homomorphisms(a, b)
        }
        assert ours == truth

    @given(structure_pairs(max_elements=3, max_facts=3))
    @settings(max_examples=30, deadline=None)
    def test_is_homomorphism_matches_condition(self, pair):
        a, b = pair
        for mapping in brute_force_homomorphisms(a, b):
            assert is_homomorphism(mapping, a, b)


#: Solve options each route is tried under: planning on throughout, with
#: and without a pebble count, and with the width threshold at 0 so the
#: planner's pebble and search routes are reached on tiny sources too.
ROUTE_CONTEXTS = [
    {"width_threshold": threshold, "pebble_k": k, "datalog_k": k}
    for threshold in (0, 3)
    for k in (None, 2)
]


class TestRoutesAgainstExhaustiveEnumeration:
    @given(structure_pairs(max_elements=3, max_facts=4))
    @settings(max_examples=60, deadline=None)
    def test_every_applicable_route_agrees(self, pair):
        a, b = pair
        expected = bool(brute_force_homomorphisms(a, b))
        for options in ROUTE_CONTEXTS:
            for strategy in default_strategies():
                context = SolveContext(
                    cache=StructureCache(), plan_enabled=True, **options
                )
                if not strategy.applies(a, b, context):
                    continue
                solution = strategy.run(a, b, context)
                assert solution.exists == expected, (
                    solution.strategy,
                    options,
                )
                if solution.exists:
                    assert is_homomorphism(solution.homomorphism, a, b)

    @given(structure_pairs(max_elements=3, max_facts=4))
    @settings(max_examples=60, deadline=None)
    def test_theorem_4_2_and_pebble_options_agree(self, pair):
        a, b = pair
        expected = bool(brute_force_homomorphisms(a, b))
        for k in (1, 2, 3):
            for solution in (
                solve(a, b, plan=True, try_canonical_datalog=k),
                solve(a, b, try_pebble_refutation=k),
            ):
                assert solution.exists == expected, (solution.strategy, k)
                if solution.exists:
                    assert is_homomorphism(solution.homomorphism, a, b)
