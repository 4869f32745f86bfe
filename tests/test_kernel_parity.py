"""Randomized kernel-vs-reference parity: the reference solvers as oracle.

Seeded, hypothesis-style loops over the workload generators of
:mod:`repro.csp.generators` assert that the compiled bitset kernel and the
pure-dict implementations of the top-level ``reference`` package agree —
not just on sat/unsat but, for the search, on the exact assignment,
enumeration order, and ``SearchStats`` counters, since the kernel
mirrors the reference search tree.  Every found map is additionally
verified by ``is_homomorphism``.

240 seeded instances run through the main parity loop (the acceptance
floor is 200); the pebble and enumeration loops use the smaller prefix
of the same stream to stay fast.
"""

from __future__ import annotations

import random

from reference import homomorphism as reference_hom
from repro.csp.ac3 import establish_arc_consistency
from repro.csp.backtracking import solve_backtracking
from repro.csp.generators import (
    bounded_treewidth_structure,
    coloring_instance,
    random_boolean_target,
    random_structure,
)
from repro.kernel import spoiler_wins_k2
from repro.structures.homomorphism import (
    SearchStats,
    all_homomorphisms,
    count_homomorphisms,
    find_homomorphism,
    homomorphism_exists,
    is_homomorphism,
)
from repro.structures.vocabulary import Vocabulary

BINARY = Vocabulary.from_arities({"E": 2})
TERNARY = Vocabulary.from_arities({"T": 3})
MIXED = Vocabulary.from_arities({"U": 1, "E": 2, "T": 3})

NUM_INSTANCES = 240


def _instance(seed: int):
    """One deterministic random (source, target) pair per seed."""
    rng = random.Random(seed)
    shape = seed % 5
    if shape == 0:
        n = rng.randint(2, 5)
        m = rng.randint(2, 4)
        return (
            random_structure(BINARY, n, rng.randint(2, 2 * n), seed=seed),
            random_structure(BINARY, m, rng.randint(2, 2 * m), seed=seed + 1),
        )
    if shape == 1:
        n = rng.randint(2, 4)
        m = rng.randint(2, 3)
        return (
            random_structure(TERNARY, n, rng.randint(2, 6), seed=seed),
            random_structure(TERNARY, m, rng.randint(2, 6), seed=seed + 1),
        )
    if shape == 2:
        graph, _bags, _tree = bounded_treewidth_structure(
            rng.randint(4, 7),
            2,
            edge_keep_probability=0.7,
            seed=seed,
        )
        return coloring_instance(graph, rng.randint(2, 3))
    if shape == 3:
        source = random_structure(TERNARY, rng.randint(2, 4), 5, seed=seed)
        target = random_boolean_target(TERNARY, rng.randint(2, 6), seed=seed)
        return source, target
    n = rng.randint(2, 4)
    m = rng.randint(2, 3)
    return (
        random_structure(MIXED, n, rng.randint(1, 4), seed=seed),
        random_structure(MIXED, m, rng.randint(1, 4), seed=seed + 1),
    )


class TestSearchParity:
    def test_find_homomorphism_exact_parity(self):
        """Same assignment, same counters, on every seeded instance."""
        sat = unsat = 0
        for seed in range(NUM_INSTANCES):
            a, b = _instance(seed)
            kernel_stats, legacy_stats = SearchStats(), SearchStats()
            kernel = find_homomorphism(a, b, stats=kernel_stats)
            legacy = reference_hom.find_homomorphism(
                a, b, stats=legacy_stats
            )
            assert kernel == legacy, f"seed {seed}: answers differ"
            assert (kernel_stats.nodes, kernel_stats.backtracks) == (
                legacy_stats.nodes,
                legacy_stats.backtracks,
            ), f"seed {seed}: search trees differ"
            if kernel is None:
                unsat += 1
            else:
                sat += 1
                assert is_homomorphism(kernel, a, b), f"seed {seed}"
        # the stream must actually exercise both outcomes
        assert sat >= 20 and unsat >= 20

    def test_enumeration_order_parity(self):
        for seed in range(0, NUM_INSTANCES, 4):
            a, b = _instance(seed)
            if len(a) > 4 or len(b) > 3:
                continue
            kernel = list(all_homomorphisms(a, b))
            legacy = list(reference_hom.all_homomorphisms(a, b))
            assert kernel == legacy, f"seed {seed}: enumeration differs"
            assert count_homomorphisms(a, b) == len(legacy)

    def test_exists_and_facade_agree(self):
        for seed in range(0, NUM_INSTANCES, 3):
            a, b = _instance(seed)
            expected = reference_hom.find_homomorphism(a, b) is not None
            assert homomorphism_exists(a, b) == expected
            for use_degree in (False, True):
                kernel = solve_backtracking(
                    a, b, use_degree_order=use_degree
                )
                bail_out = reference_hom.solve_backtracking(
                    a, b, use_degree_order=use_degree
                )
                assert (kernel is not None) == expected, f"seed {seed}"
                assert (bail_out is not None) == expected, f"seed {seed}"
                if kernel is not None:
                    assert is_homomorphism(kernel, a, b), f"seed {seed}"


class TestPropagationParity:
    def test_arc_consistency_exact_parity(self):
        for seed in range(NUM_INSTANCES):
            a, b = _instance(seed)
            kernel = establish_arc_consistency(a, b)
            legacy = reference_hom.establish_arc_consistency(a, b)
            assert kernel == legacy, f"seed {seed}: AC closures differ"

    def test_arc_consistency_parity_on_custom_domains(self):
        for seed in range(0, NUM_INSTANCES, 5):
            a, b = _instance(seed)
            rng = random.Random(seed * 31 + 7)
            # include the occasional out-of-universe value, which the
            # reference prunes like any unsupported one
            values = sorted(b.universe, key=repr) + ["out-of-universe"]
            domains = {
                e: {
                    v
                    for v in values
                    if rng.random() < 0.7
                }
                for e in a.universe
            }
            kernel = establish_arc_consistency(a, b, domains)
            legacy = reference_hom.establish_arc_consistency(a, b, domains)
            assert kernel == legacy, f"seed {seed}: custom-domain AC differs"


class TestPebbleParity:
    def test_two_pebble_game_parity(self):
        wins = losses = 0
        for seed in range(0, NUM_INSTANCES, 3):
            a, b = _instance(seed)
            if len(a) > 4 or len(b) > 4:
                continue
            expected = reference_hom.spoiler_wins(a, b, 2)
            assert spoiler_wins_k2(a, b) == expected, f"seed {seed}"
            if expected:
                wins += 1
            else:
                losses += 1
        assert wins >= 5 and losses >= 5
