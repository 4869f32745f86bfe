"""Randomized query-plane parity: the reference one-shot paths as oracle.

Seeded loops over the query generators of :mod:`repro.csp.generators`
assert that the compiled query plane — memoized :class:`CompiledQuery`
artifacts, the kernel core engine, the batch containment layer — returns
*identical* answers to the rebuild-per-probe paths of ``reference.cq``: same
containment verdicts, same witnesses, same minimized queries (not merely
equivalent ones), same cores (not merely isomorphic ones).  The same
pattern as ``test_kernel_parity.py`` / ``test_decomp_parity.py``, one
level up the stack.
"""

from __future__ import annotations

import random
from unittest import mock

from reference import cq as reference_cq
from reference import homomorphism as reference_hom
from repro.cq.compiled import compile_query, query_fingerprint
from repro.cq.containment import (
    containment_matrix,
    containment_witness,
    contains,
    contains_via_evaluation,
    equivalence_classes,
    equivalent,
    plan_containment,
)
from repro.cq.minimize import is_minimal, minimize, minimize_by_atom_removal
from repro.cq.query import ConjunctiveQuery
from repro.cq.saraiya import two_atom_contains
from repro.cq.width import contains_bounded_width
from repro.csp.generators import (
    random_chain_query,
    random_query,
    random_star_query,
    random_structure,
    random_two_atom_query,
)
from repro.structures.product import core, is_core, retract_onto
from repro.structures.vocabulary import Vocabulary

VOC = Vocabulary.from_arities({"E": 2, "T": 3})
BINARY = Vocabulary.from_arities({"E": 2})
MIXED = Vocabulary.from_arities({"U": 1, "E": 2})

NUM_PAIRS = 120
NUM_STRUCTURES = 120


def _fresh(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """A structurally equal rebuild with no memoized compilation."""
    return ConjunctiveQuery(query.head_variables, query.atoms, query.name)


def _query_pair(seed: int) -> tuple[ConjunctiveQuery, ConjunctiveQuery]:
    """One deterministic random containment-compatible pair per seed."""
    rng = random.Random(seed)
    shape = seed % 4
    if shape == 0:
        width = rng.randint(0, 2)
        return (
            random_query(rng.randint(2, 4), rng.randint(2, 4), VOC,
                         head_width=width, seed=seed),
            random_query(rng.randint(2, 4), rng.randint(2, 4), VOC,
                         head_width=width, seed=seed + 1),
        )
    if shape == 1:
        width = rng.randint(0, 1)
        return (
            random_two_atom_query(2, rng.randint(2, 4), head_width=width,
                                  seed=seed),
            random_two_atom_query(2, rng.randint(2, 4), head_width=width,
                                  seed=seed + 1),
        )
    if shape == 2:
        return (
            random_chain_query(rng.randint(1, 4)),
            random_chain_query(rng.randint(1, 4)),
        )
    return (
        random_star_query(rng.randint(1, 3)),
        random_star_query(rng.randint(1, 3)),
    )


def _structure(seed: int):
    rng = random.Random(seed)
    vocabulary = BINARY if seed % 2 else MIXED
    n = rng.randint(2, 6)
    return random_structure(vocabulary, n, rng.randint(1, 2 * n), seed=seed)


class TestContainmentParity:
    def test_contains_engine_parity(self):
        """Kernel and reference agree on verdict and exact witness."""
        positive = negative = 0
        for seed in range(NUM_PAIRS):
            q1, q2 = _query_pair(seed)
            kernel = containment_witness(q1, q2)
            legacy = reference_cq.containment_witness(q1, q2)
            assert kernel == legacy, f"seed {seed}: witnesses differ"
            verdict = kernel is not None
            assert contains(q1, q2) == verdict, f"seed {seed}"
            assert reference_cq.contains(q1, q2) == verdict, f"seed {seed}"
            assert contains_via_evaluation(q1, q2) == verdict, f"seed {seed}"
            assert (
                reference_cq.contains_via_evaluation(q1, q2) == verdict
            ), f"seed {seed}"
            if verdict:
                positive += 1
            else:
                negative += 1
        # the stream must exercise both outcomes
        assert positive >= 20 and negative >= 20

    def test_process_default_engine_parity(self):
        """Cold rebuilds with no memoized compilation agree with the
        reference path."""
        for seed in range(0, NUM_PAIRS, 5):
            q1, q2 = _query_pair(seed)
            legacy = reference_cq.contains(_fresh(q1), _fresh(q2))
            kernel = contains(_fresh(q1), _fresh(q2))
            assert kernel == legacy, f"seed {seed}"

    def test_compiled_vs_uncompiled_entry_points(self):
        """A memoized CompiledQuery answers like a fresh rebuild."""
        for seed in range(0, NUM_PAIRS, 3):
            q1, q2 = _query_pair(seed)
            warm = contains(q1, q2)
            # same objects again: served off the memoized artifacts
            assert contains(q1, q2) == warm
            # structurally equal rebuilds with cold memos
            assert contains(_fresh(q1), _fresh(q2)) == warm
            assert q1._compiled is not None  # the memo actually exists
            assert (
                query_fingerprint(q1)
                == compile_query(_fresh(q1)).fingerprint
            )

    def test_equivalent_and_planner_routes_parity(self):
        for seed in range(0, NUM_PAIRS, 3):
            q1, q2 = _query_pair(seed)
            expected = contains(q1, q2)
            assert equivalent(q1, q2) == reference_cq.equivalent(q1, q2)
            assert contains(q1, q2, plan=True) == expected, f"seed {seed}"
            assert contains_bounded_width(q1, q2) == expected, f"seed {seed}"
            assert (
                reference_cq.contains_bounded_width(q1, q2) == expected
            ), f"seed {seed}"
            if q1.is_two_atom:
                assert two_atom_contains(q1, q2) == expected, f"seed {seed}"
            plan = plan_containment(q1, q2)
            assert plan.route in ("saraiya", "dp", "search")


class TestMinimizationParity:
    def test_minimize_engine_parity(self):
        """Identical minimized queries — same head, same atoms — on both
        paths, and the greedy remover lands on the same atom count.  The
        greedy remover and the minimality check also run with the
        reference equivalence test in place of the kernel's."""
        for seed in range(NUM_PAIRS):
            query, _ = _query_pair(seed)
            kernel = minimize(query)
            legacy = reference_cq.minimize(query)
            assert kernel == legacy, f"seed {seed}: minimized queries differ"
            removal = minimize_by_atom_removal(query)
            with mock.patch(
                "repro.cq.minimize.equivalent", reference_cq.equivalent
            ):
                removal_legacy = minimize_by_atom_removal(query)
                legacy_minimal = is_minimal(kernel)
            assert removal == removal_legacy, f"seed {seed}"
            assert len(kernel.atoms) == len(removal.atoms), f"seed {seed}"
            assert is_minimal(kernel) and legacy_minimal, f"seed {seed}"

    def test_minimize_memo_matches_cold_path(self):
        for seed in range(0, NUM_PAIRS, 4):
            query, _ = _query_pair(seed)
            warm = minimize(query)
            assert minimize(query) is warm  # memoized on the artifact
            assert minimize(_fresh(query)) == warm


class TestCoreParity:
    def test_core_engine_parity(self):
        """The kernel's masked endomorphism search returns the *same*
        core as the reference substructure loop — equality, not just
        isomorphism — on every seeded structure."""
        shrunk = unchanged = 0
        for seed in range(NUM_STRUCTURES):
            a = _structure(seed)
            kernel = core(a)
            legacy = reference_hom.core(a)
            assert kernel == legacy, f"seed {seed}: cores differ"
            assert is_core(a) == reference_hom.is_core(a), f"seed {seed}"
            if len(kernel) < len(a):
                shrunk += 1
            else:
                unchanged += 1
        assert shrunk >= 10 and unchanged >= 10

    def test_retraction_engine_parity(self):
        for seed in range(0, NUM_STRUCTURES, 2):
            a = _structure(seed)
            rng = random.Random(seed * 17 + 3)
            subset = {e for e in a.universe if rng.random() < 0.6}
            kernel = retract_onto(a, subset)
            legacy = reference_hom.retract_onto(a, subset)
            assert kernel == legacy, f"seed {seed}: retractions differ"


class TestBatchParity:
    def _batch(self, seed: int, size: int) -> list[ConjunctiveQuery]:
        rng = random.Random(seed)
        width = rng.randint(0, 1)
        return [
            random_query(rng.randint(2, 3), rng.randint(2, 4), VOC,
                         head_width=width, seed=seed * 100 + i)
            for i in range(size)
        ]

    def test_matrix_matches_legacy_pairwise_loop(self):
        for seed in range(8):
            queries = self._batch(seed, 6)
            # duplicates exercise the fingerprint dedup path
            queries.append(_fresh(queries[0]))
            kernel = containment_matrix(queries)
            legacy = reference_cq.containment_matrix(queries)
            assert kernel == legacy, f"seed {seed}: matrices differ"
            unplanned = containment_matrix(
                [_fresh(q) for q in queries], plan=False
            )
            assert unplanned == legacy, f"seed {seed}: plan=False differs"

    def test_equivalence_classes_engine_parity(self):
        for seed in range(8):
            queries = self._batch(seed, 5)
            queries.append(_fresh(queries[1]))
            kernel = equivalence_classes(queries)
            # the same grouping over the reference pairwise matrix
            with mock.patch(
                "repro.cq.containment.containment_matrix",
                lambda qs, **_options: reference_cq.containment_matrix(qs),
            ):
                legacy = equivalence_classes(queries)
            assert kernel == legacy, f"seed {seed}: classes differ"
            # a duplicated query must share its original's class
            last = len(queries) - 1
            for members in kernel:
                if 1 in members:
                    assert last in members
