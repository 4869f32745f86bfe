"""The kernel count mode vs the reference enumerator (satellite of P3)."""

from __future__ import annotations

import random

from reference import homomorphism as reference_hom
from repro.kernel.search import count_solutions, search_homomorphisms
from repro.csp.generators import random_structure
from repro.structures.homomorphism import SearchStats, count_homomorphisms
from repro.structures.structure import Structure
from repro.structures.vocabulary import Vocabulary

BINARY = Vocabulary.from_arities({"R": 2})
MIXED = Vocabulary.from_arities({"R": 2, "T": 3})


def random_pair(seed: int, vocabulary=BINARY):
    rng = random.Random(seed)
    source = random_structure(
        vocabulary, rng.randint(1, 5), rng.randint(0, 8), seed=seed
    )
    target = random_structure(
        vocabulary, rng.randint(1, 4), rng.randint(0, 8), seed=seed + 5000
    )
    return source, target


class TestCountParity:
    def test_matches_legacy_on_random_instances(self):
        for seed in range(120):
            vocabulary = BINARY if seed % 2 else MIXED
            source, target = random_pair(seed, vocabulary)
            kernel_stats, legacy_stats = SearchStats(), SearchStats()
            kernel = count_homomorphisms(source, target, stats=kernel_stats)
            legacy = reference_hom.count_homomorphisms(
                source, target, stats=legacy_stats
            )
            assert kernel == legacy, seed
            # Identical search tree, not just an identical total.
            assert kernel_stats.nodes == legacy_stats.nodes, seed
            assert kernel_stats.backtracks == legacy_stats.backtracks, seed

    def test_matches_enumeration_with_static_order(self):
        source, target = random_pair(7)
        order = source.sorted_universe
        assert count_homomorphisms(source, target, order=order) == sum(
            1
            for _ in search_homomorphisms(source, target, order=order)
        )

    def test_counts_leaves_not_dicts(self):
        # A solution-dense instance: |B|^|A| total homomorphisms since the
        # source has no facts.
        source = Structure(BINARY, range(5))
        target = Structure(BINARY, range(4), {"R": [(0, 1)]})
        assert count_homomorphisms(source, target) == 4**5


class TestCountEdgeCases:
    def test_empty_source_counts_the_empty_map(self):
        empty = Structure(BINARY)
        target = Structure(BINARY, {0, 1}, {"R": [(0, 1)]})
        assert count_homomorphisms(empty, target) == 1

    def test_empty_target_counts_zero(self):
        source = Structure(BINARY, {0})
        empty = Structure(BINARY)
        assert count_homomorphisms(source, empty) == 0

    def test_fixed_prunes_the_count(self):
        source, target = random_pair(11)
        element = source.sorted_universe[0]
        for value in target.sorted_universe:
            fixed_count = count_solutions(
                source, target, fixed={element: value}
            )
            by_filter = sum(
                1
                for h in search_homomorphisms(source, target)
                if h[element] == value
            )
            assert fixed_count == by_filter

    def test_unsatisfiable_counts_zero(self):
        # A reflexive source fact against a loopless target.
        source = Structure(BINARY, {0}, {"R": [(0, 0)]})
        target = Structure(BINARY, {0, 1}, {"R": [(0, 1), (1, 0)]})
        assert count_homomorphisms(source, target) == 0
