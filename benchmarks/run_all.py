#!/usr/bin/env python3
"""Print the experiment report: one table per experiment E1–E15, P1–P7.

This is the "rows/series" harness of EXPERIMENTS.md: each table reports
wall-clock medians for every algorithm on the shared workloads of
``_workloads.py``, so the shapes (who wins, scaling trend, crossovers)
can be read off directly.  pytest-benchmark gives the statistically
careful numbers; this runner gives the at-a-glance reproduction report.
P1 exercises the solver pipeline itself (routing overhead, fingerprint
cache, ``solve_many``); P2 compares the compiled bitset kernel against
the legacy pure-dict solver (the ``reference`` package, kept as the
test oracle) on the backtracking-heavy workloads; P4
does the same for the decomposition kernel — the compiled treewidth DP
(E10) and the generalized k-pebble engine (E8) — see
``bench_p04_decomp.py`` for the full version with planner routing; P5
compares the compiled query plane (batch containment matrix, kernel
cores) against the legacy one-shot paths — see ``bench_p05_query.py``
for the full version with the containment planner; P6 compares the
bitset Datalog engine against the legacy evaluator and the Theorem 4.2
decision routes, with parity asserted inline — see
``bench_p06_datalog.py`` for the full version with the service route;
P7 summarizes the plan-vs-actual calibration log on planned solves —
see ``bench_p07_obs.py`` for the full calibration tables and the
kernel-counter overhead gate.

Run:  python benchmarks/run_all.py [--repeat 3] [--json out.json]

``--json`` additionally dumps every table's medians (raw numbers, not
the formatted strings) to a JSON file, so perf snapshots can be
committed and compared across commits (see BENCH_kernel.json).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import _paths  # noqa: F401  (puts src/ and benchmarks/ on sys.path)

import _workloads as W  # noqa: E402
from reference import cq as reference_cq  # noqa: E402
from reference import datalog as reference_datalog  # noqa: E402
from reference import homomorphism as reference_hom  # noqa: E402
from repro.boolean.booleanize import booleanize  # noqa: E402
from repro.boolean.direct import (  # noqa: E402
    solve_bijunctive_csp,
    solve_horn_csp,
)
from repro.boolean.schaefer import classify_structure  # noqa: E402
from repro.boolean.uniform import solve_schaefer_csp  # noqa: E402
from repro.csp.backtracking import solve_backtracking  # noqa: E402
from repro.csp.generators import random_boolean_target  # noqa: E402
from repro.core.pipeline import SolverPipeline  # noqa: E402
from repro.cq.acyclic import yannakakis_holds  # noqa: E402
from repro.cq.containment import (  # noqa: E402
    contains,
    contains_via_evaluation,
)
from repro.cq.evaluation import holds  # noqa: E402
from repro.cq.query import Atom, ConjunctiveQuery  # noqa: E402
from repro.cq.saraiya import two_atom_contains  # noqa: E402
from repro.datalog.canonical_program import canonical_program  # noqa: E402
from repro.datalog.evaluation import goal_holds  # noqa: E402
from repro.fo.evaluation import satisfies  # noqa: E402
from repro.fo.from_decomposition import structure_to_formula  # noqa: E402
from repro.pebble.game import spoiler_wins  # noqa: E402
from repro.pebble.kconsistency import strong_k_consistent  # noqa: E402
from repro.structures.binary_encoding import binary_encoding  # noqa: E402
from repro.structures.graphs import (  # noqa: E402
    clique,
    random_digraph,
    random_graph,
)
from repro.treewidth.dp import solve_by_treewidth  # noqa: E402

REPEAT = 3

#: Tables recorded by ``table()`` for the optional ``--json`` dump.
REPORT: list[dict] = []


def timed(fn, *args, **kwargs) -> float:
    """Median wall-clock milliseconds over REPEAT runs."""
    samples = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        fn(*args, **kwargs)
        samples.append((time.perf_counter() - start) * 1000)
    return statistics.median(samples)


class _Cell(str):
    """A formatted cell that remembers the raw number for the JSON dump."""

    raw: float


def table(title: str, header: list[str], rows: list[list]) -> None:
    REPORT.append(
        {
            "title": title,
            "header": list(header),
            "rows": [
                [
                    cell.raw if isinstance(cell, _Cell) else cell
                    for cell in row
                ]
                for row in rows
            ],
        }
    )
    print(f"\n### {title}")
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows))
        for i in range(len(header))
    ]
    line = " | ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print(line)
    print("-+-".join("-" * w for w in widths))
    for row in rows:
        print(" | ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def ms(value: float) -> _Cell:
    cell = _Cell(f"{value:8.2f}ms")
    cell.raw = value
    return cell


def ratio(value: float) -> _Cell:
    cell = _Cell(f"{value:6.1f}x")
    cell.raw = value
    return cell


def e01() -> None:
    rows = []
    for tuples in (4, 8, 16, 32):
        target = random_boolean_target(W.TERNARY, tuples, seed=tuples)
        rows.append([tuples, ms(timed(classify_structure, target))])
    table("E1 Schaefer recognition (Thm 3.1)", ["|R|", "classify"], rows)


def e03() -> None:
    from repro.boolean.schaefer import SchaeferClass
    from repro.boolean.uniform import build_instance_formula
    from repro.sat.horn import solve_horn

    rows = []
    for n in (10, 20, 40, 80):
        source, target = W.satisfiable_horn_instance(n, seed=n)

        def formula_route():
            # Force the Horn construction: the generated targets are also
            # 0-valid, and letting pick_class take the constant-map
            # shortcut would make the comparison vacuous.
            formula, _vars = build_instance_formula(
                source, target, SchaeferClass.HORN
            )
            return solve_horn(formula)

        rows.append(
            [
                n,
                ms(timed(solve_horn_csp, source, target)),
                ms(timed(formula_route)),
                ms(timed(solve_backtracking, source, target)),
            ]
        )
    table(
        "E3 Horn uniform CSP (Thm 3.4 vs 3.3 vs baseline)",
        ["‖A‖", "direct", "formula", "backtracking"],
        rows,
    )


def e04() -> None:
    rows = []
    for n in (8, 16, 32, 64):
        source, target = W.two_coloring_instance(n, seed=n)
        bz = booleanize(source, target)
        rows.append(
            [
                n,
                ms(timed(solve_bijunctive_csp, bz.source, bz.target)),
                ms(timed(solve_schaefer_csp, bz.source, bz.target)),
                ms(timed(solve_backtracking, source, target)),
            ]
        )
    table(
        "E4 Bijunctive uniform CSP (Thm 3.4)",
        ["n", "direct", "formula", "backtracking"],
        rows,
    )


def e05_e06() -> None:
    rows = []
    for n in (8, 16, 32, 64):
        source, target = W.c4_instance(n, seed=n)

        def boolean_route():
            bz = booleanize(source, target)
            return solve_schaefer_csp(bz.source, bz.target)

        rows.append(
            [
                n,
                ms(timed(boolean_route)),
                ms(timed(solve_backtracking, source, target)),
            ]
        )
    table(
        "E5/E6 CSP(C4) via Booleanization+affine (Lemma 3.5, Ex 3.8)",
        ["n", "booleanize+GF(2)", "backtracking"],
        rows,
    )


def e07() -> None:
    rows = []
    for size in (2, 4, 6, 8):
        q1, q2 = W.containment_pair(size, seed=size)
        rows.append(
            [
                size,
                ms(timed(two_atom_contains, q1, q2)),
                ms(timed(contains, q1, q2)),
            ]
        )
    table(
        "E7 Two-atom containment (Prop 3.6)",
        ["#preds", "saraiya", "general"],
        rows,
    )


def e08() -> None:
    rows = []
    for n in (4, 6, 8):
        source, target = W.two_coloring_instance(n, seed=n)
        rows.append(
            [
                n,
                ms(timed(spoiler_wins, source, target, 2)),
                ms(timed(spoiler_wins, source, target, 3)),
                ms(timed(strong_k_consistent, source, target, 3)),
                ms(timed(solve_backtracking, source, target)),
            ]
        )
    table(
        "E8 Existential k-pebble game (Thm 4.7/4.9)",
        ["n", "game k=2", "game k=3", "tables k=3", "backtracking"],
        rows,
    )


def e09() -> None:
    rho = canonical_program(clique(2), 2)
    rows = []
    for n in (3, 4, 5, 6):
        source, target = W.two_coloring_instance(n, seed=n)
        kernel_says = goal_holds(rho, source)
        legacy_says = reference_datalog.goal_holds(rho, source)
        game_says = spoiler_wins(source, target, 2)
        assert kernel_says == legacy_says == game_says, f"E9 parity n={n}"
        rows.append(
            [
                n,
                ms(timed(goal_holds, rho, source)),
                ms(timed(reference_datalog.goal_holds, rho, source)),
                ms(timed(spoiler_wins, source, target, 2)),
            ]
        )
    table(
        "E9 Canonical program rho_B (Thm 4.7.2)",
        ["n", "datalog kernel", "datalog legacy", "direct game"],
        rows,
    )


def e10_e11() -> None:
    rows = []
    for n in (10, 20, 40):
        source, target, decomposition = W.treewidth_instance(n, 2, seed=n)

        def fo_route():
            formula = structure_to_formula(source, decomposition)
            return satisfies(target, formula)

        rows.append(
            [
                n,
                ms(timed(solve_by_treewidth, source, target, decomposition)),
                ms(timed(fo_route)),
                ms(timed(solve_backtracking, source, target)),
            ]
        )
    table(
        "E10/E11 width-2 sources vs K3 (Thm 5.4, Lemma 5.2)",
        ["n", "treewidth DP", "FO^{k+1}", "backtracking"],
        rows,
    )


def e12() -> None:
    rows = []
    for n in (4, 8, 16):
        source = W.random_structure(W.TERNARY, n, n, seed=n)
        rows.append(
            [
                n,
                ms(timed(binary_encoding, source, "full")),
                ms(timed(binary_encoding, source, "chain")),
                binary_encoding(source, "full").num_facts,
                binary_encoding(source, "chain").num_facts,
            ]
        )
    table(
        "E12 binary(A) encoding (Lemma 5.5)",
        ["n", "full (ms)", "chain (ms)", "full tuples", "chain tuples"],
        rows,
    )


def e13() -> None:
    graph = random_graph(18, 0.5, seed=99)
    rows = []
    for k in (3, 4, 5, 6):
        rows.append(
            [k, ms(timed(solve_backtracking, clique(k), graph))]
        )
    table(
        "E13 clique CSP does not uniformize (Section 2)",
        ["k", "find K_k in G(18, .5)"],
        rows,
    )


def e14() -> None:
    rows = []
    for size in (2, 4, 6):
        q1, q2 = W.containment_pair(size, seed=size)
        rows.append(
            [
                size,
                ms(timed(contains, q1, q2)),
                ms(timed(contains_via_evaluation, q1, q2)),
            ]
        )
    table(
        "E14 Chandra-Merlin routes (Thm 2.1)",
        ["#preds", "hom route", "eval route"],
        rows,
    )


def e15() -> None:
    database = random_digraph(12, 0.2, seed=21)
    rows = []
    for length in (2, 4, 8, 16):
        atoms = [
            Atom("E", (f"X{i}", f"X{i + 1}")) for i in range(length)
        ]
        query = ConjunctiveQuery((), atoms)
        rows.append(
            [
                length,
                ms(timed(yannakakis_holds, query, database)),
                ms(timed(holds, query, database)),
            ]
        )
    table(
        "E15 Yannakakis acyclic evaluation (introduction's lineage)",
        ["chain", "semi-join", "general"],
        rows,
    )


def p01() -> None:
    """The pipeline itself: cached classification and batch amortization."""
    target = random_boolean_target(W.TERNARY, 16, seed=3)
    sources = [
        W.random_structure(W.TERNARY, n, 2 * n, seed=n)
        for n in (8, 12, 16, 20)
    ]
    pairs = [(source, target) for source in sources]

    def cold() -> None:
        # a fresh pipeline per call: classification recomputed each time,
        # which is exactly what the seed dispatcher did
        for source, tgt in pairs:
            SolverPipeline().solve(source, tgt)

    def warm() -> None:
        SolverPipeline().solve_many(pairs)

    rows = [
        [len(pairs), ms(timed(cold)), ms(timed(warm))],
    ]
    table(
        "P1 pipeline batch vs per-call (fingerprint cache amortization)",
        ["batch size", "cold (per-call)", "warm (solve_many)"],
        rows,
    )
    pipeline = SolverPipeline()
    solutions = pipeline.solve_many(pairs)
    hits = sum(s.stats.cache_hits for s in solutions)
    misses = sum(s.stats.cache_misses for s in solutions)
    print(
        f"(shared target classified once: {misses} cache miss(es), "
        f"{hits} hit(s) across {len(solutions)} solves)"
    )


def p02() -> None:
    """The compiled kernel vs the legacy solver, backtracking-heavy only."""
    graph = random_graph(18, 0.5, seed=99)
    coloring_8 = W.two_coloring_instance(8, seed=8)
    coloring_64 = W.two_coloring_instance(64, seed=64)
    q1, q2 = W.containment_pair(6, seed=6)
    # (label, kernel, reference) per row.
    workloads = [
        (
            "E8 2-coloring n=8",
            lambda: solve_backtracking(*coloring_8),
            lambda: reference_hom.solve_backtracking(*coloring_8),
        ),
        (
            "E8 2-coloring n=64",
            lambda: solve_backtracking(*coloring_64),
            lambda: reference_hom.solve_backtracking(*coloring_64),
        ),
        (
            "E13 K5 into G(18,.5)",
            lambda: solve_backtracking(clique(5), graph),
            lambda: reference_hom.solve_backtracking(clique(5), graph),
        ),
        (
            "E13 K6 into G(18,.5)",
            lambda: solve_backtracking(clique(6), graph),
            lambda: reference_hom.solve_backtracking(clique(6), graph),
        ),
        (
            "E14 containment #preds=6",
            lambda: contains(q1, q2),
            lambda: reference_cq.contains(q1, q2),
        ),
    ]
    rows = []
    for label, kernel_fn, reference_fn in workloads:
        kernel = timed(kernel_fn)
        legacy = timed(reference_fn)
        rows.append([label, ms(kernel), ms(legacy), ratio(legacy / kernel)])
    table(
        "P2 compiled kernel vs legacy solver (backtracking-heavy)",
        ["workload", "kernel", "legacy", "speedup"],
        rows,
    )


def p04() -> None:
    """The decomposition kernel vs legacy: treewidth DP and k-pebble."""
    from _workloads import bounded_treewidth_family

    # (label, kernel, reference) per row; default arguments bind the
    # loop variables now, not at call time.
    workloads = []
    for label, source, target, certificate in bounded_treewidth_family(
        n=40, seed=40
    ):
        workloads.append(
            (
                f"E10 {label} K{len(target)}",
                lambda s=source, t=target, d=certificate: solve_by_treewidth(
                    s, t, d
                ),
                lambda s=source, t=target, d=certificate: (
                    reference_hom.solve_by_treewidth(s, t, d)
                ),
            )
        )
    for n in (6, 8):
        source, target = W.two_coloring_instance(n, seed=n)
        workloads.append(
            (
                f"E8 pebble k=3 n={n}",
                lambda s=source, t=target: spoiler_wins(s, t, 3),
                lambda s=source, t=target: reference_hom.spoiler_wins(
                    s, t, 3
                ),
            )
        )
        workloads.append(
            (
                f"E8 tables k=3 n={n}",
                lambda s=source, t=target: strong_k_consistent(s, t, 3),
                lambda s=source, t=target: (
                    reference_hom.consistency_tables(s, t, 3) is not None
                ),
            )
        )
    rows = []
    for label, kernel_fn, reference_fn in workloads:
        kernel = timed(kernel_fn)
        legacy = timed(reference_fn)
        rows.append([label, ms(kernel), ms(legacy), ratio(legacy / kernel)])
    table(
        "P4 decomposition kernel vs legacy (E8/E10)",
        ["workload", "kernel", "legacy", "speedup"],
        rows,
    )


def p05() -> None:
    """The compiled query plane vs the legacy one-shot paths."""
    from bench_p05_query import fresh, query_family, redundant_chain
    from repro.cq.containment import containment_matrix
    from repro.cq.minimize import minimize

    def legacy_matrix() -> None:
        queries = query_family(16)
        [[reference_cq.contains(a, b) for b in queries] for a in queries]

    def compiled_matrix() -> None:
        containment_matrix(query_family(16))

    redundant = redundant_chain(5, 4, seed=5)
    rows = [
        [
            "P5 matrix 16 queries (256 pairs)",
            ms(timed(compiled_matrix)),
            ms(timed(legacy_matrix)),
        ],
        [
            "P5 minimize chain 5+4 redundant",
            ms(timed(lambda: minimize(fresh(redundant)))),
            ms(timed(lambda: reference_cq.minimize(fresh(redundant)))),
        ],
    ]
    for row in rows:
        row.append(ratio(row[2].raw / row[1].raw))
    table(
        "P5 compiled query plane vs legacy (containment, minimization)",
        ["workload", "compiled", "legacy", "speedup"],
        rows,
    )


def p06() -> None:
    """The compiled Datalog plane vs the legacy engine, parity inline."""
    from repro.datalog.canonical_program import canonical_refutes
    from repro.datalog.evaluation import evaluate_program
    from repro.datalog.program import parse_program

    rho = canonical_program(clique(2), 2)
    tc = parse_program(
        "T(X, Y) :- E(X, Y)\nT(X, Y) :- T(X, Z), E(Z, Y)", goal="T"
    )
    rows = []
    for label, program, structure in (
        ("rho_K2 fixpoint n=8", rho, W.two_coloring_instance(8, seed=8)[0]),
        ("rho_K2 fixpoint n=10", rho, W.two_coloring_instance(10, seed=10)[0]),
        ("TC n=16", tc, random_digraph(16, 0.3, seed=16)),
    ):
        kernel_db = evaluate_program(program, structure)
        legacy_db = reference_datalog.evaluate_program(program, structure)
        assert kernel_db == legacy_db, f"P6 parity: {label}"
        kernel = timed(evaluate_program, program, structure)
        legacy = timed(reference_datalog.evaluate_program, program, structure)
        rows.append([label, ms(kernel), ms(legacy), ratio(legacy / kernel)])
    source = random_digraph(8, 0.3, seed=8)
    assert canonical_refutes(
        source, clique(2), 2
    ) == reference_datalog.canonical_refutes(
        source, clique(2), 2
    ) == spoiler_wins(source, clique(2), 2), "P6 parity: Thm 4.2 decision"
    kernel = timed(canonical_refutes, source, clique(2), 2)
    legacy = timed(reference_datalog.canonical_refutes, source, clique(2), 2)
    rows.append(
        ["Thm 4.2 decision n=8 k=2", ms(kernel), ms(legacy),
         ratio(legacy / kernel)]
    )
    table(
        "P6 compiled Datalog plane vs legacy (evaluation, Thm 4.2)",
        ["workload", "kernel", "legacy", "speedup"],
        rows,
    )


def p07() -> None:
    """Plan-vs-actual calibration: planner cost guess vs kernel work."""
    from repro.obs.calibration import ROUTE_WORK_COUNTER, CalibrationLog

    pipeline = SolverPipeline()
    log = CalibrationLog()
    for source, target in (
        *(
            (item[1], item[2])
            for item in W.bounded_treewidth_family(widths=(2,), n=36, seed=0)
        ),
        (clique(5), random_graph(16, 0.5, seed=0)),
        W.pebble_two_coloring_instance(40, seed=0),
    ):
        solution = pipeline.solve(source, target, plan=True)
        if solution.stats is not None:
            log.observe_solve(solution.stats)
    rows = []
    for route, entry in log.report().items():
        rows.append(
            [
                route,
                ROUTE_WORK_COUNTER.get(route, "-"),
                f"{entry['predicted_median']:.0f}",
                f"{entry.get('observed_median', '-')}",
                f"{entry.get('ratio_median', '-')}",
                ms(entry["latency_median_ms"]),
            ]
        )
    table(
        "P7 plan-vs-actual calibration (see bench_p07_obs.py for the "
        "overhead gate)",
        ["route", "work counter", "predicted", "observed", "ratio", "median"],
        rows,
    )


def main() -> None:
    global REPEAT
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="dump every table's medians (raw numbers) to this JSON file",
    )
    args = parser.parse_args()
    REPEAT = max(1, args.repeat)
    print("Experiment report — Kolaitis & Vardi reproduction")
    print("(median wall-clock per call; see EXPERIMENTS.md for shapes)")
    for experiment in (
        e01, e03, e04, e05_e06, e07, e08, e09, e10_e11, e12, e13, e14,
        e15, p01, p02, p04, p05, p06, p07,
    ):
        experiment()
    if args.json is not None:
        payload = {
            "report": "Kolaitis & Vardi reproduction",
            "repeat": REPEAT,
            "python": sys.version.split()[0],
            "tables": REPORT,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"\n(wrote {len(REPORT)} tables to {args.json})")


if __name__ == "__main__":
    main()
