"""Unit tests for the compiled bitset kernel."""

from reference import homomorphism as reference_hom
from repro.core.pipeline import SolveContext, SolverPipeline, StructureCache
from repro.csp.ac3 import establish_arc_consistency
from repro.csp.backtracking import degree_order, solve_backtracking
from repro.kernel import (
    CompiledSource,
    CompiledTarget,
    compile_source,
    compile_target,
    initial_domains,
    propagate,
    search_homomorphisms,
    solve,
    spoiler_wins_k2,
)
from repro.structures.graphs import clique, cycle, path
from repro.structures.homomorphism import SearchStats
from repro.structures.structure import Structure
from repro.structures.vocabulary import Vocabulary

GRAPH = Vocabulary.from_arities({"E": 2})
MIXED = Vocabulary.from_arities({"R": 3, "U": 1})


class TestCompile:
    def test_values_follow_sorted_universe(self):
        target = cycle(4)
        compiled = compile_target(target)
        assert compiled.values == target.sorted_universe
        assert compiled.full_mask == (1 << 4) - 1

    def test_supports_index_tuples_by_position_and_value(self):
        vocabulary = Vocabulary.from_arities({"R": 2})
        target = Structure(
            vocabulary, range(3), {"R": {(0, 1), (0, 2), (1, 2)}}
        )
        compiled = compile_target(target)
        rows = compiled.tuples["R"]
        assert sorted(rows) == [(0, 1), (0, 2), (1, 2)]
        supports = compiled.supports["R"]
        # every tuple's bit is set in the support of each of its values
        for j, row in enumerate(rows):
            for position, value in enumerate(row):
                assert supports[position][value] >> j & 1
        # value 0 at position 0 supports tuples (0,1) and (0,2) only
        assert supports[0][0].bit_count() == 2
        assert supports[0][1].bit_count() == 1
        assert supports[1][2].bit_count() == 2
        # position masks: values occurring at each position
        assert compiled.position_masks["R"] == (0b011, 0b110)
        assert compiled.all_tuples_masks["R"] == 0b111

    def test_compilation_memoized_on_structure(self):
        target = cycle(3)
        assert compile_target(target) is compile_target(target)
        assert compile_source(target) is compile_source(target)
        # idempotent on already-compiled arguments
        compiled = compile_target(target)
        assert compile_target(compiled) is compiled

    def test_source_scopes_and_occurrences(self):
        source = Structure(
            MIXED, range(3), {"R": {(0, 1, 1)}, "U": {(2,)}}
        )
        compiled = compile_source(source)
        assert isinstance(compiled, CompiledSource)
        assert set(compiled.constraints) == {("R", (0, 1, 1)), ("U", (2,))}
        (r_index,) = [
            i
            for i, (name, _scope) in enumerate(compiled.constraints)
            if name == "R"
        ]
        # each constraint listed once per touched variable
        assert compiled.constraints_of[1] == (r_index,)
        assert compiled.degrees == (1, 2, 1)

    def test_degree_order_matches_facade(self):
        star = Structure(
            GRAPH, range(4), {"E": {(0, 1), (0, 2), (0, 3)}}
        )
        assert degree_order(star)[0] == 0
        assert compile_source(star).degree_order[0] == 0

    def test_initial_domains_node_consistency(self):
        vocabulary = Vocabulary.from_arities({"R": 2})
        target = Structure(vocabulary, range(3), {"R": {(0, 1)}})
        source = Structure(vocabulary, range(2), {"R": {(0, 1)}})
        domains = initial_domains(compile_source(source), compile_target(target))
        assert domains == [0b001, 0b010]

    def test_initial_domains_wipeout(self):
        vocabulary = Vocabulary.from_arities({"R": 2})
        target = Structure(vocabulary, {0, 1}, {"R": {(0, 1)}})
        source = Structure(vocabulary, {0}, {"R": {(0, 0)}})
        assert (
            initial_domains(compile_source(source), compile_target(target))
            is None
        )


class TestPropagate:
    def test_chain_pruning_to_singletons(self):
        vocabulary = Vocabulary.from_arities({"R": 2})
        target = Structure(
            vocabulary, {0, 1, 2}, {"R": {(0, 1), (0, 2), (1, 2)}}
        )
        source = Structure(vocabulary, range(3), {"R": {(0, 1), (1, 2)}})
        csource = compile_source(source)
        ctarget = compile_target(target)
        domains = initial_domains(csource, ctarget)
        assert propagate(csource, ctarget, domains) is not None
        assert domains == [0b001, 0b010, 0b100]

    def test_wipeout_returns_none(self):
        vocabulary = Vocabulary.from_arities({"R": 2})
        target = Structure(vocabulary, {0, 1}, {"R": {(0, 1)}})
        source = Structure(vocabulary, range(2), {"R": {(0, 1), (1, 0)}})
        csource = compile_source(source)
        ctarget = compile_target(target)
        assert propagate(csource, ctarget, [0b11, 0b11]) is None

    def test_ac3_facade_matches_legacy_on_custom_domains(self):
        a, b = cycle(4), clique(2)
        custom = {e: {0} for e in a.universe}
        assert establish_arc_consistency(a, b, custom) is None
        assert reference_hom.establish_arc_consistency(a, b, custom) is None

    def test_untouched_elements_pass_through(self):
        lonely = Structure(GRAPH, {0, 1}, {"E": set()})
        target = clique(2)
        got = establish_arc_consistency(lonely, target, {0: {0}, 1: {1}})
        assert got == {0: {0}, 1: {1}}

    def test_out_of_universe_domains_match_legacy(self):
        # a touched element whose given domain holds only values outside
        # the target universe: the reference prunes them all (wipe-out)
        looped = Structure(GRAPH, {0}, {"E": {(0, 0)}})
        target = Structure(GRAPH, {0, 1}, {"E": {(0, 0), (1, 1)}})
        bogus = {0: {"nope"}}
        assert establish_arc_consistency(looped, target, bogus) is None
        assert (
            reference_hom.establish_arc_consistency(looped, target, bogus)
            is None
        )
        # ... but a given *empty* set on that element is never pruned by
        # the reference loop, so it passes through in both engines
        empty = {0: set()}
        assert establish_arc_consistency(looped, target, empty) == empty
        assert (
            reference_hom.establish_arc_consistency(looped, target, empty)
            == empty
        )
        # mixed in- and out-of-universe values: the survivors agree
        mixed = {0: {0, "nope"}}
        assert establish_arc_consistency(
            looped, target, mixed
        ) == reference_hom.establish_arc_consistency(looped, target, mixed)


class TestSearch:
    def test_matches_legacy_tree_exactly(self):
        for a, b in [
            (cycle(6), clique(2)),
            (cycle(5), clique(2)),
            (cycle(5), clique(3)),
            (clique(3), clique(3)),
            (path(5), clique(2)),
        ]:
            kernel_stats, reference_stats = SearchStats(), SearchStats()
            kernel = list(search_homomorphisms(a, b, stats=kernel_stats))
            reference = list(
                reference_hom.all_homomorphisms(a, b, stats=reference_stats)
            )
            assert kernel == reference
            assert (kernel_stats.nodes, kernel_stats.backtracks) == (
                reference_stats.nodes,
                reference_stats.backtracks,
            )

    def test_fixed_and_order(self):
        pinned = next(
            search_homomorphisms(cycle(4), clique(2), fixed={0: 1})
        )
        assert pinned[0] == 1
        assert (
            next(search_homomorphisms(cycle(4), clique(2), order=[3, 2, 1, 0]))
            is not None
        )
        assert (
            list(search_homomorphisms(cycle(4), clique(2), fixed={0: 0, 1: 0}))
            == []
        )

    def test_empty_source_and_empty_target(self):
        empty = Structure(GRAPH)
        assert list(search_homomorphisms(empty, cycle(3))) == [{}]
        assert solve(cycle(3), empty) is None

    def test_solve_uses_propagated_domains(self):
        assignment = solve(cycle(6), clique(2))
        assert assignment is not None
        vocabulary = Vocabulary.from_arities({"R": 2})
        target = Structure(vocabulary, {0, 1}, {"R": {(0, 1)}})
        source = Structure(vocabulary, {0}, {"R": {(0, 0)}})
        assert solve(source, target) is None

    def test_solve_backtracking_preprocess_shortcut_keeps_stats_zero(self):
        stats = SearchStats()
        vocabulary = Vocabulary.from_arities({"R": 2})
        target = Structure(vocabulary, {0, 1}, {"R": {(0, 1)}})
        source = Structure(vocabulary, {0}, {"R": {(0, 0)}})
        assert solve_backtracking(source, target, stats=stats) is None
        assert stats.nodes == 0


class TestPebble2:
    def test_agrees_with_generic_game(self):
        instances = [
            (cycle(5), clique(2)),
            (cycle(4), clique(2)),
            (clique(3), clique(2)),
            (path(4), clique(3)),
            (Structure(GRAPH, {0}, {"E": {(0, 0)}}), clique(2)),
        ]
        for a, b in instances:
            # reference side: the pure-dict deletion loop —
            # repro.pebble.game runs the same kernel as spoiler_wins_k2
            assert spoiler_wins_k2(a, b) == reference_hom.spoiler_wins(
                a, b, 2
            )

    def test_higher_arity_facts_ignored_like_reference(self):
        vocabulary = Vocabulary.from_arities({"R": 3})
        # one fact over three distinct elements: under two pebbles it is
        # never fully covered, so neither implementation refutes
        source = Structure(vocabulary, range(3), {"R": {(0, 1, 2)}})
        target = Structure(vocabulary, {0, 1}, {"R": set()})
        assert reference_hom.spoiler_wins(source, target, 2) is False
        assert spoiler_wins_k2(source, target) is False

    def test_empty_cases(self):
        empty = Structure(GRAPH)
        assert spoiler_wins_k2(empty, clique(2)) is False
        assert spoiler_wins_k2(cycle(3), empty) is True


class TestCacheIntegration:
    def test_structure_cache_compiles_once_per_fingerprint(self):
        cache = StructureCache()
        first = cycle(4)
        rebuilt = Structure(GRAPH, range(4), {"E": first.relation("E")})
        compiled = cache.compiled_target(first)
        assert isinstance(compiled, CompiledTarget)
        assert cache.stats.misses == 1
        # structurally equal rebuild hits the fingerprint key
        assert cache.compiled_target(rebuilt) is compiled
        assert cache.stats.hits == 1
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0

    def test_solve_context_memoizes_per_solve(self):
        cache = StructureCache()
        context = SolveContext(cache=cache)
        target = clique(2)
        assert context.compiled_target(target) is context.compiled_target(
            target
        )
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0

    def test_pipeline_backtracking_route_still_correct(self):
        # clique source: width 4 skips the treewidth route, non-Boolean
        # target skips Schaefer — the kernel-backed fallback decides it
        pipeline = SolverPipeline()
        solution = pipeline.solve(clique(5), clique(5))
        assert solution.strategy == "backtracking"
        assert solution.exists
        refuted = pipeline.solve(clique(5), clique(4))
        assert refuted.strategy == "backtracking"
        assert not refuted.exists

    def test_pipeline_pebble_fast_path(self):
        # K5 plus a loop: high-width source, and the loop wipes the
        # k=2 singleton domain, so the fast path refutes
        looped = Structure(
            GRAPH, range(5), {"E": set(clique(5).relation("E")) | {(0, 0)}}
        )
        pipeline = SolverPipeline()
        solution = pipeline.solve(
            looped, clique(4), try_pebble_refutation=2
        )
        assert solution.strategy == "pebble-refutation(k=2)"
        assert not solution.exists
        # a non-refutable instance falls through to backtracking
        fallthrough = pipeline.solve(
            clique(5), clique(5), try_pebble_refutation=2
        )
        assert fallthrough.strategy == "backtracking"
        assert fallthrough.exists
