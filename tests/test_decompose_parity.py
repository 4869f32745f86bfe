"""The bitset greedy decomposition against the networkx oracle.

:func:`repro.treewidth.heuristics.decompose` must give the bags and the
edges, in the same order, of ``reference.decomposition`` under both
heuristics: on every ``perfbench`` mix source (seeds 1–10), on the
``tiny-hot`` sources and on hypothesis structures.  Every output also
passes :meth:`TreeDecomposition.validate` on every generator family.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from perfbench.workloads import mix_block, tiny_instances
from reference.decomposition import decompose as reference_decompose
from reference.decomposition import elimination_order as reference_order
from reference.decomposition import gaifman_graph
from repro.cq.canonical import body_structure
from repro.csp.generators import (
    bounded_treewidth_structure,
    coloring_instance,
    random_boolean_target,
    random_chain_query,
    random_query,
    random_schaefer_target,
    random_star_query,
    random_structure,
    random_two_atom_query,
)
from repro.structures.binary_encoding import binary_encoding
from repro.structures.graphs import (
    clique,
    cycle,
    directed_cycle,
    path,
    random_digraph,
    random_graph,
)
from repro.structures.product import direct_product, disjoint_union
from repro.structures.structure import Structure
from repro.structures.vocabulary import Vocabulary
from repro.treewidth.heuristics import decompose, elimination_order

from conftest import structure_pairs

HEURISTICS = ("min_fill", "min_degree")


def _corpus_sources() -> list[Structure]:
    return [
        source
        for seed in range(1, 11)
        for _family, source, _target in mix_block(seed) + tiny_instances(seed)
    ]


def _assert_parity(source: Structure, heuristic: str) -> None:
    got = decompose(source, heuristic)
    want = reference_decompose(source, heuristic)
    assert got.bags == want.bags
    assert got.edges == want.edges


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_parity_on_perfbench_sources(heuristic):
    for source in _corpus_sources():
        _assert_parity(source, heuristic)


@pytest.mark.parametrize("heuristic", HEURISTICS)
@given(pair=structure_pairs(max_elements=6, max_facts=7))
@settings(max_examples=60, deadline=None)
def test_parity_on_hypothesis_sources(heuristic, pair):
    _assert_parity(pair[0], heuristic)


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_elimination_order_matches_the_oracle(heuristic):
    for source in _corpus_sources():
        want = reference_order(gaifman_graph(source), heuristic)
        assert elimination_order(source, heuristic) == want


def _generator_families() -> list[tuple[str, Structure]]:
    binary = Vocabulary.from_arities({"R": 2})
    mixed = Vocabulary.from_arities({"R": 2, "T": 3, "U": 1})
    families: list[tuple[str, Structure]] = []
    for seed in range(4):
        families += [
            ("random_structure", random_structure(mixed, 9, 6, seed=seed)),
            ("boolean_target", random_boolean_target(binary, 3, seed=seed)),
            (
                "schaefer_target",
                random_schaefer_target(binary, 3, "horn", seed=seed),
            ),
            ("chain_query", body_structure(random_chain_query(6, seed=seed))),
            ("star_query", body_structure(random_star_query(5, seed=seed))),
            (
                "random_query",
                body_structure(random_query(6, 5, mixed, seed=seed)),
            ),
            (
                "two_atom_query",
                body_structure(random_two_atom_query(3, 5, 3, seed=seed)),
            ),
            (
                "bounded_treewidth",
                bounded_treewidth_structure(
                    14, 1 + seed, edge_keep_probability=0.7, seed=seed
                )[0],
            ),
            ("random_graph", random_graph(12, 0.3, seed=seed)),
            ("random_digraph", random_digraph(10, 0.2, seed=seed)),
            (
                "binary_encoding",
                binary_encoding(random_structure(mixed, 6, 3, seed=seed)),
            ),
        ]
    source, target = coloring_instance(cycle(7), 3)
    families += [
        ("coloring_source", source),
        ("coloring_target", target),
        ("clique", clique(5)),
        ("path", path(6)),
        ("cycle", cycle(9)),
        ("directed_cycle", directed_cycle(4)),
        ("disjoint_union", disjoint_union(cycle(4), path(3))),
        ("direct_product", direct_product(cycle(4), path(3))),
        ("isolated", Structure(binary, range(4))),
        ("empty", Structure(binary)),
    ]
    return families


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_every_generator_family_decomposes_validly(heuristic):
    for name, structure in _generator_families():
        decomposition = decompose(structure, heuristic)
        assert decomposition.is_valid_for(structure), name
        _assert_parity(structure, heuristic)
