"""P4 — the decomposition kernel: compiled DP, generalized pebble, planner.

Three tables, answers asserted identical before anything is written:

1. **DP kernel vs legacy** on the E10 bounded-treewidth workload
   (widths 2–4 with certificate decompositions, clique targets): the
   compiled bag-table DP (``repro.kernel.decomp``) against the legacy
   bag-map enumeration kept as the test oracle
   (``reference.homomorphism.solve_by_treewidth``).
2. **Generalized k-pebble vs legacy** on the E8 two-coloring workload at
   k = 3 (plus the table-based legacy variant): the compiled bitset
   fixpoint (``repro.kernel.pebblek``) against the deletion loop of
   ``reference.homomorphism``.
3. **Planner routing**: the width-aware planner on three instance
   families — bounded-width k-trees (→ dp), clique-into-dense-graph
   searches (→ search), and dense almost-surely-non-2-colorable graphs
   against a non-Boolean two-element target (→ pebble) — with the route,
   the cost signals, and the winning strategy label per instance.

Run directly (writes ``BENCH_decomp.json``)::

    python benchmarks/bench_p04_decomp.py --repeat 3
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import time

import _paths  # noqa: F401  (sys.path setup for a bare checkout)

from reference import homomorphism as reference_hom
from repro.core.pipeline import SolverPipeline
from repro.kernel.decomp import solve_decomposition
from repro.kernel.pebblek import spoiler_wins_k
from repro.structures.graphs import clique, random_graph
from repro.structures.homomorphism import is_homomorphism

from _workloads import (
    bounded_treewidth_family,
    pebble_two_coloring_instance,
    treewidth_instance,
    two_coloring_instance,
)

REPEAT = 3


def timed(fn, *args):
    """(median wall-clock ms over REPEAT runs, last result)."""
    result = None
    samples = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        result = fn(*args)
        samples.append((time.perf_counter() - start) * 1000)
    return statistics.median(samples), result


def bench_dp() -> dict:
    """Table 1: kernel vs legacy DP on the E10 workload."""
    instances = []
    source, target, certificate = treewidth_instance(40, 2, seed=40)
    instances.append(("E10 n=40 w=2 K3", source, target, certificate))
    for n in (40, 60):
        for label, source, target, certificate in bounded_treewidth_family(
            n=n, seed=n
        ):
            instances.append(
                (
                    f"E10 {label} n={n} K{len(target)}",
                    source,
                    target,
                    certificate,
                )
            )
    rows = []
    for label, source, target, certificate in instances:
        kernel_ms, kernel = timed(
            solve_decomposition, source, target, certificate
        )
        legacy_ms, legacy = timed(
            lambda: reference_hom.solve_by_treewidth(
                source, target, certificate
            )
        )
        if (kernel is None) != (legacy is None):
            raise SystemExit(f"parity FAILED on {label}: verdicts differ")
        for witness in (kernel, legacy):
            if witness is not None and not is_homomorphism(
                witness, source, target
            ):
                raise SystemExit(f"parity FAILED on {label}: bad witness")
        rows.append(
            {
                "workload": label,
                "kernel_ms": round(kernel_ms, 3),
                "legacy_ms": round(legacy_ms, 3),
                "speedup": round(legacy_ms / kernel_ms, 1),
                "exists": kernel is not None,
            }
        )
    return {"title": "P4.1 kernel DP vs legacy (E10 workload)", "rows": rows}


def bench_pebble() -> dict:
    """Table 2: generalized kernel game vs both legacy fixpoints, k=3."""
    rows = []
    for n in (4, 6, 8, 12):
        source, target = two_coloring_instance(n, seed=n)
        kernel_ms, kernel = timed(spoiler_wins_k, source, target, 3)
        game_ms, game = timed(
            lambda: reference_hom.spoiler_wins(source, target, 3)
        )
        tables_ms, tables = timed(
            lambda: reference_hom.consistency_tables(source, target, 3)
            is not None
        )
        if kernel != game or kernel == tables:
            raise SystemExit(f"parity FAILED on E8 n={n}: verdicts differ")
        rows.append(
            {
                "workload": f"E8 2-coloring n={n} k=3",
                "kernel_ms": round(kernel_ms, 3),
                "legacy_game_ms": round(game_ms, 3),
                "legacy_tables_ms": round(tables_ms, 3),
                "speedup_vs_game": round(game_ms / kernel_ms, 1),
                "spoiler_wins": kernel,
            }
        )
    return {
        "title": "P4.2 generalized k-pebble vs legacy (E8, k=3)",
        "rows": rows,
    }


def bench_planner() -> dict:
    """Table 3: planner routing across three instance families."""
    pipeline = SolverPipeline()
    instances = []
    for seed in (0, 1):
        for label, source, target, _cert in bounded_treewidth_family(
            widths=(2, 3), n=36, seed=seed
        ):
            instances.append((label, source, target))
        instances.append(
            (f"clique-5 s={seed}", clique(5), random_graph(16, 0.5, seed=seed))
        )
        instances.append(
            (
                f"dense-2col s={seed}",
                *pebble_two_coloring_instance(40, seed=seed),
            )
        )
    rows = []
    for label, source, target in instances:
        tick = time.perf_counter()
        solution = pipeline.solve(source, target, plan=True)
        elapsed_ms = (time.perf_counter() - tick) * 1000
        baseline = pipeline.solve(source, target)
        if solution.exists != baseline.exists:
            raise SystemExit(f"parity FAILED on {label}: planner answer")
        plan = solution.stats.plan or {}
        rows.append(
            {
                "workload": label,
                "route": plan.get("route"),
                "strategy": solution.strategy,
                "width": plan.get("width"),
                "search_cost": plan.get("search_cost"),
                "dp_cost": plan.get("dp_cost"),
                "pebble_cost": plan.get("pebble_cost"),
                "ms": round(elapsed_ms, 3),
                "exists": solution.exists,
            }
        )
    routes = sorted({row["route"] for row in rows if row["route"]})
    return {
        "title": "P4.3 width-aware planner routing",
        "rows": rows,
        "distinct_routes": routes,
    }


def main() -> None:
    global REPEAT
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--out", default="BENCH_decomp.json")
    args = parser.parse_args()
    REPEAT = max(1, args.repeat)

    dp = bench_dp()
    pebble = bench_pebble()
    planner = bench_planner()

    for table in (dp, pebble, planner):
        print(f"\n### {table['title']}")
        for row in table["rows"]:
            print("  " + json.dumps(row))

    dp_speedups = [row["speedup"] for row in dp["rows"]]
    pebble_speedups = [row["speedup_vs_game"] for row in pebble["rows"]]
    headline = {
        # Workload-level speedup: total legacy wall-clock over total
        # kernel wall-clock across every row — the time saved actually
        # serving the whole E10 mix.
        "dp_speedup_workload": round(
            sum(r["legacy_ms"] for r in dp["rows"])
            / sum(r["kernel_ms"] for r in dp["rows"]),
            1,
        ),
        "dp_speedup_median": statistics.median(dp_speedups),
        "dp_speedup_min": min(dp_speedups),
        "dp_speedup_max": max(dp_speedups),
        "pebble_k3_speedup_workload": round(
            sum(r["legacy_game_ms"] for r in pebble["rows"])
            / sum(r["kernel_ms"] for r in pebble["rows"]),
            1,
        ),
        "pebble_k3_speedup_median": statistics.median(pebble_speedups),
        "pebble_k3_speedup_min": min(pebble_speedups),
        "pebble_k3_speedup_max": max(pebble_speedups),
        "planner_distinct_routes": planner["distinct_routes"],
    }
    print("\nheadline:", json.dumps(headline))
    if len(planner["distinct_routes"]) < 3:
        raise SystemExit(
            "planner FAILED to route three families to three engines"
        )

    report = {
        "report": "P4 decomposition kernel",
        "python": platform.python_version(),
        "repeat": REPEAT,
        "headline": headline,
        "tables": [dp, pebble, planner],
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
