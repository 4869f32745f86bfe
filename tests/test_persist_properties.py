"""Property suite: store round-trips preserve results and kernel work.

Every artifact kind is round-tripped through a real on-disk store on
hypothesis-generated inputs, asserting two things:

* **content** — the restored artifact is mathematically identical to
  the original (same supports, same bags, same canonical database);
* **behavior** — a pipeline whose cache reads the restored artifacts
  produces the *identical* :class:`Solution` — same verdict, same
  witness validity — and, once both generations run on warmed caches,
  the identical ``SolveStats.kernel`` counter bag: a decoded artifact
  drives the kernel through exactly the same work as a computed one.
"""

from __future__ import annotations

import tempfile

from hypothesis import given, settings

from conftest import conjunctive_queries, structure_pairs
from repro.core.pipeline import SolverPipeline, StructureCache
from repro.cq.compiled import compile_query
from repro.kernel.compile import compile_target
from repro.persist import ArtifactStore
from repro.structures.fingerprint import canonical_fingerprint
from repro.structures.homomorphism import is_homomorphism
from repro.structures.structure import Structure


def _rebuild(structure: Structure) -> Structure:
    """A structurally equal structure with no compile memos attached."""
    return Structure(
        structure.vocabulary,
        structure.sorted_universe,
        {symbol.name: set(rel) for symbol, rel in structure.relations()},
    )


@settings(deadline=None, max_examples=25)
@given(pair=structure_pairs(max_elements=4, max_facts=5))
def test_structure_artifacts_round_trip(pair):
    source, target = pair
    with tempfile.TemporaryDirectory() as tmp:
        store = ArtifactStore(tmp, register_metrics=False)
        try:
            compiled = compile_target(target)
            fp = canonical_fingerprint(target)
            assert store.put("ctarget", fp, compiled)
            restored = store.get("ctarget", fp)
            assert restored is not None
            assert restored.values == compiled.values
            assert restored.supports == compiled.supports
            assert restored.tuples == compiled.tuples
            assert restored.structure == compiled.structure
        finally:
            store.close()


@settings(deadline=None, max_examples=25)
@given(pair=structure_pairs(max_elements=4, max_facts=5))
def test_solve_parity_and_identical_kernel_counters(pair):
    """Cold-computed vs store-decoded artifacts: same answer, same work."""
    source, target = pair
    with tempfile.TemporaryDirectory() as tmp:
        store = ArtifactStore(tmp, register_metrics=False)
        try:
            # Generation 1 computes and persists; its *second* solve runs
            # on a fully warmed cache — the pure solving work.
            pipeline_1 = SolverPipeline(cache=StructureCache(store=store))
            first = pipeline_1.solve(source, target)
            warm_1 = pipeline_1.solve(source, target)

            # Generation 2: fresh structures, fresh cache, same store —
            # every structure artifact decodes instead of recompiling.
            source_2, target_2 = _rebuild(source), _rebuild(target)
            pipeline_2 = SolverPipeline(cache=StructureCache(store=store))
            second = pipeline_2.solve(source_2, target_2)
            warm_2 = pipeline_2.solve(source_2, target_2)
        finally:
            store.close()

    assert second.exists == first.exists
    assert second.strategy == first.strategy
    if second.homomorphism is not None:
        assert is_homomorphism(second.homomorphism, source_2, target_2)
    # The decoded generation never compiled a target.
    assert (second.stats.kernel or {}).get("compile.targets", 0) == 0
    # Warm-on-warm: identical kernel counter bags — a decoded artifact
    # is indistinguishable from a computed one to the solving engines.
    assert warm_2.stats.kernel == warm_1.stats.kernel
    assert warm_2.exists == warm_1.exists


@settings(deadline=None, max_examples=25)
@given(query=conjunctive_queries(max_variables=3, max_atoms=3))
def test_query_artifacts_round_trip(query):
    with tempfile.TemporaryDirectory() as tmp:
        store = ArtifactStore(tmp, register_metrics=False)
        try:
            compiled = compile_query(query)
            canonical = compiled.canonical
            body = compiled.body
            assert store.put("query", compiled.fingerprint, compiled)
            restored = store.get("query", compiled.fingerprint)
            assert restored is not None
            assert restored.fingerprint == compiled.fingerprint
            assert restored.query == query
            assert restored.canonical == canonical
            assert restored.body == body
            # The restored artifact serves as its query's compile memo.
            assert compile_query(restored.query) is restored
        finally:
            store.close()


@settings(deadline=None, max_examples=25)
@given(pair=structure_pairs(max_elements=4, max_facts=5))
def test_classification_and_decomposition_round_trip(pair):
    source, target = pair
    with tempfile.TemporaryDirectory() as tmp:
        store = ArtifactStore(tmp, register_metrics=False)
        try:
            cache_1 = StructureCache(store=store)
            decomp = cache_1.decomposition(source)
            fp = canonical_fingerprint(source)
            restored = store.get("decomposition", fp)
            assert restored is not None
            assert restored.bags == decomp.bags
            assert restored.width == decomp.width
            # Boolean targets also persist their Schaefer class.
            if set(target.universe) <= {0, 1} and target.universe:
                classification = cache_1.classification(target)
                stored = store.get(
                    "classification", canonical_fingerprint(target)
                )
                assert stored == classification
        finally:
            store.close()
