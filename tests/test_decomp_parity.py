"""Randomized decomposition-kernel parity: four engines, one verdict.

Seeded loops over the workload generators assert that, on every
instance, the following all agree:

* the compiled decomposition DP (``repro.kernel.decomp``),
* the reference bag-map DP
  (``reference.homomorphism.solve_by_treewidth``),
* the kernel backtracking search (``repro.kernel.search.solve``),
* and — where the target's cCSP is k-Datalog-expressible — the
  generalized k-pebble decision.

Existence must match exactly; every produced witness must verify as a
homomorphism (witness *elements* may differ between DP engines — both
are correct answers).  The pebble engines are additionally held to
*exact* family/table parity against both reference fixpoints, and the
k-consistency verdicts to the Theorem 4.8 relationships (soundness of a
Spoiler win for every k; completeness at k = 3 for 2-colorability).

160 instances run through the main loop (the acceptance floor is 150);
the pebble loops use a prefix of the same stream to stay fast.
"""

from __future__ import annotations

import random

from reference import homomorphism as reference_hom
from repro.csp.generators import (
    bounded_treewidth_structure,
    coloring_instance,
    random_structure,
)
from repro.kernel.decomp import solve_decomposition
from repro.kernel.pebblek import (
    kernel_consistency_tables,
    pebble_game_family,
    spoiler_wins_k,
)
from repro.kernel.search import solve as kernel_search
from repro.structures.graphs import clique
from repro.structures.homomorphism import is_homomorphism
from repro.structures.vocabulary import Vocabulary
from repro.treewidth.decomposition import TreeDecomposition
from repro.treewidth.dp import solve_by_treewidth

BINARY = Vocabulary.from_arities({"E": 2})
TERNARY = Vocabulary.from_arities({"T": 3})
MIXED = Vocabulary.from_arities({"U": 1, "E": 2, "T": 3})

NUM_INSTANCES = 160


def _instance(seed: int):
    """One deterministic random instance per seed; some come with a
    width certificate."""
    rng = random.Random(seed)
    shape = seed % 5
    if shape == 0:
        n = rng.randint(2, 6)
        m = rng.randint(2, 4)
        return (
            random_structure(BINARY, n, rng.randint(2, 2 * n), seed=seed),
            random_structure(BINARY, m, rng.randint(2, 2 * m), seed=seed + 1),
            None,
        )
    if shape == 1:
        n = rng.randint(2, 4)
        m = rng.randint(2, 3)
        return (
            random_structure(TERNARY, n, rng.randint(2, 6), seed=seed),
            random_structure(TERNARY, m, rng.randint(2, 6), seed=seed + 1),
            None,
        )
    if shape == 2:
        width = rng.choice((1, 2, 3))
        graph, bags, tree_edges = bounded_treewidth_structure(
            rng.randint(width + 2, 9),
            width,
            edge_keep_probability=0.8,
            seed=seed,
        )
        source, target = coloring_instance(graph, rng.randint(2, 3))
        return source, target, TreeDecomposition(bags, tree_edges)
    if shape == 3:
        graph, bags, tree_edges = bounded_treewidth_structure(
            rng.randint(6, 10), 2, edge_keep_probability=0.9, seed=seed
        )
        return graph, clique(rng.randint(2, 4)), TreeDecomposition(
            bags, tree_edges
        )
    n = rng.randint(2, 4)
    m = rng.randint(2, 3)
    return (
        random_structure(MIXED, n, rng.randint(1, 5), seed=seed),
        random_structure(MIXED, m, rng.randint(1, 5), seed=seed + 1),
        None,
    )


class TestDecompositionParity:
    def test_four_way_agreement(self):
        """Kernel DP, reference DP, kernel search: same verdict everywhere;
        all witnesses verify; a Spoiler win always refutes."""
        sat = unsat = 0
        for seed in range(NUM_INSTANCES):
            a, b, certificate = _instance(seed)
            kernel = solve_decomposition(a, b, certificate)
            legacy = reference_hom.solve_by_treewidth(a, b, certificate)
            search = kernel_search(a, b)
            exists = kernel is not None
            assert (legacy is not None) == exists, f"seed {seed}: DP engines"
            assert (search is not None) == exists, f"seed {seed}: search"
            if exists:
                sat += 1
                assert is_homomorphism(kernel, a, b), f"seed {seed}: kernel"
                assert is_homomorphism(legacy, a, b), f"seed {seed}: legacy"
                assert is_homomorphism(search, a, b), f"seed {seed}: search"
                # Soundness (Theorem 4.8, easy direction): the Spoiler
                # never wins on a satisfiable instance.
                assert not spoiler_wins_k(a, b, 2), f"seed {seed}"
            else:
                unsat += 1
        # the stream must exercise both outcomes
        assert sat >= 30 and unsat >= 30

    def test_engine_flag_roundtrip(self):
        """The facade dispatches straight to the kernel DP."""
        for seed in range(0, NUM_INSTANCES, 16):
            a, b, certificate = _instance(seed)
            via_flag = solve_by_treewidth(a, b, certificate)
            direct = solve_decomposition(a, b, certificate)
            assert via_flag == direct, f"seed {seed}"

    def test_pebble_decision_parity(self):
        """Generalized kernel game vs reference deletion loop, k = 1..3."""
        for seed in range(0, NUM_INSTANCES, 2):
            a, b, _certificate = _instance(seed)
            for k in (1, 2, 3):
                kernel = spoiler_wins_k(a, b, k)
                legacy = reference_hom.spoiler_wins(a, b, k)
                assert kernel == legacy, f"seed {seed} k={k}"
                tables = reference_hom.consistency_tables(a, b, k) is not None
                assert kernel == (not tables), f"seed {seed} k={k} tables"

    def test_pebble_family_and_tables_exact(self):
        """The kernel fixpoint is the *identical* greatest family."""
        for seed in range(0, NUM_INSTANCES, 8):
            a, b, _certificate = _instance(seed)
            for k in (2, 3):
                legacy_game = reference_hom.solve_pebble_game(a, b, k)
                assert pebble_game_family(a, b, k) == legacy_game.family, (
                    f"seed {seed} k={k} family"
                )
                assert kernel_consistency_tables(
                    a, b, k
                ) == reference_hom.consistency_tables(a, b, k), (
                    f"seed {seed} k={k} tables"
                )

    def test_k3_decides_two_colorability_via_kernel(self):
        """Theorem 4.8 completeness on a Datalog-expressible target: the
        generalized kernel game at k = 3 decides 2-colorability, and the
        DP agrees."""
        k2 = clique(2)
        decided = 0
        for seed in range(0, NUM_INSTANCES, 2):
            a, b, certificate = _instance(seed)
            if b != k2:
                continue
            exists = solve_decomposition(a, b, certificate) is not None
            assert spoiler_wins_k(a, b, 3) == (not exists), f"seed {seed}"
            decided += 1
        assert decided >= 5
