"""P6 — the compiled Datalog plane: bitset semi-naive vs the legacy engine.

The legacy side is the pure-dict evaluator kept as the test oracle in
``reference.datalog``.

Three tables, answers asserted identical before anything is written:

1. **Evaluation: kernel vs legacy** on the extended E9 workload — the
   canonical program ρ_{K2} decided on growing 2-coloring sources
   (``goal_holds``, the early-exiting decision) and fully evaluated
   (``evaluate_program``, exact IDB parity required fact-for-fact), plus
   transitive-closure rows on random digraphs.  The acceptance floor is
   a 5x aggregate speedup across the table with exact parity on every
   row.
2. **Theorem 4.2 decision route**: ``canonical_refutes`` through the
   compiled pebble game (which never materializes ρ_B) vs the legacy
   route that builds ρ_B and evaluates it bottom-up — verdict parity on
   every instance, including against the reference game.
3. **Service route**: ``submit_datalog`` batches under coalescing —
   wall-clock for a duplicate-heavy batch plus the stats snapshot
   (datalog_requests, coalesce_hits, the "datalog" latency bucket).

Run directly (writes ``BENCH_datalog.json``)::

    python benchmarks/bench_p06_datalog.py --repeat 3
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import random
import statistics
import time

import _paths  # noqa: F401  (sys.path setup for a bare checkout)

from _workloads import two_coloring_instance
from reference import datalog as reference_datalog
from repro.datalog.canonical_program import (
    canonical_program,
    canonical_refutes,
)
from repro.datalog.evaluation import evaluate_program, goal_holds
from repro.datalog.program import parse_program
from repro.pebble.game import spoiler_wins
from repro.service import ServiceConfig, SolveService
from repro.structures.graphs import clique, random_digraph

REPEAT = 3

RHO = canonical_program(clique(2), 2)
TC = parse_program(
    "T(X, Y) :- E(X, Y)\nT(X, Y) :- T(X, Z), E(Z, Y)", goal="T"
)


def timed(fn, *args):
    """(median wall-clock ms over REPEAT runs, last result)."""
    result = None
    samples = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        result = fn(*args)
        samples.append((time.perf_counter() - start) * 1000)
    return statistics.median(samples), result


def bench_evaluation(max_n: int) -> dict:
    """Table 1: kernel vs legacy on the extended E9 workload."""
    rows = []
    kernel_total = legacy_total = 0.0
    for n in range(3, max_n + 1):
        source, _target = two_coloring_instance(n, seed=n)
        kernel_ms, kernel_says = timed(goal_holds, RHO, source)
        legacy_ms, legacy_says = timed(
            lambda: reference_datalog.goal_holds(RHO, source)
        )
        if kernel_says != legacy_says:
            raise SystemExit(f"parity FAILED: goal_holds differs at n={n}")
        kernel_total += kernel_ms
        legacy_total += legacy_ms
        rows.append(
            {
                "workload": f"rho_K2 goal_holds n={n}",
                "kernel_ms": round(kernel_ms, 3),
                "legacy_ms": round(legacy_ms, 3),
                "speedup": round(legacy_ms / kernel_ms, 1),
                "refutes": kernel_says,
            }
        )
    for n in (6, 8, 10):
        source, _target = two_coloring_instance(n, seed=n)
        kernel_ms, kernel_db = timed(
            lambda: evaluate_program(RHO, source)
        )
        legacy_ms, legacy_db = timed(
            lambda: reference_datalog.evaluate_program(RHO, source)
        )
        if kernel_db != legacy_db:
            raise SystemExit(f"parity FAILED: rho_K2 IDB differs at n={n}")
        kernel_total += kernel_ms
        legacy_total += legacy_ms
        rows.append(
            {
                "workload": f"rho_K2 full fixpoint n={n}",
                "kernel_ms": round(kernel_ms, 3),
                "legacy_ms": round(legacy_ms, 3),
                "speedup": round(legacy_ms / kernel_ms, 1),
                "idb_facts": sum(len(f) for f in kernel_db.values()),
            }
        )
    for n in (12, 16, 20):
        graph = random_digraph(n, 0.3, seed=n)
        kernel_ms, kernel_db = timed(
            lambda: evaluate_program(TC, graph)
        )
        legacy_ms, legacy_db = timed(
            lambda: reference_datalog.evaluate_program(TC, graph)
        )
        if kernel_db != legacy_db:
            raise SystemExit(f"parity FAILED: TC differs at n={n}")
        kernel_total += kernel_ms
        legacy_total += legacy_ms
        rows.append(
            {
                "workload": f"transitive closure n={n}",
                "kernel_ms": round(kernel_ms, 3),
                "legacy_ms": round(legacy_ms, 3),
                "speedup": round(legacy_ms / kernel_ms, 1),
                "idb_facts": len(kernel_db["T"]),
            }
        )
    return {
        "title": "P6.1 Datalog evaluation: bitset kernel vs legacy",
        "rows": rows,
        "aggregate_speedup": round(legacy_total / kernel_total, 1),
    }


def bench_decision() -> dict:
    """Table 2: the Theorem 4.2 route vs materializing ρ_B."""
    rows = []
    for n, k in ((6, 2), (8, 2), (10, 2), (6, 3)):
        rng = random.Random(n * 31 + k)
        source = random_digraph(n, 0.3, seed=rng.randrange(10_000))
        target = clique(2) if k == 2 else clique(3)
        kernel_ms, kernel_says = timed(
            canonical_refutes, source, target, k
        )
        legacy_ms, legacy_says = timed(
            lambda: reference_datalog.canonical_refutes(source, target, k)
        )
        if kernel_says != legacy_says:
            raise SystemExit(
                f"parity FAILED: canonical_refutes differs at n={n} k={k}"
            )
        if kernel_says != spoiler_wins(source, target, k):
            raise SystemExit(
                f"parity FAILED: reference game differs at n={n} k={k}"
            )
        rows.append(
            {
                "workload": f"refute K{len(target.universe)} n={n} k={k}",
                "pebblek_ms": round(kernel_ms, 3),
                "materialized_rho_ms": round(legacy_ms, 3),
                "speedup": round(legacy_ms / kernel_ms, 1),
                "refutes": kernel_says,
            }
        )
    return {
        "title": "P6.2 Theorem 4.2 decision: pebblek route vs materialized rho_B",
        "rows": rows,
    }


def bench_service() -> dict:
    """Table 3: submit_datalog batches under coalescing."""
    instances = []
    for seed in range(12):
        rng = random.Random(seed * 13 + 7)
        source = random_digraph(rng.randint(4, 7), 0.3, seed=seed)
        instances.append((source, clique(3)))
    batch = instances + instances[:6]  # 6 duplicate resubmissions

    async def drive():
        config = ServiceConfig(thread_workers=4)
        async with SolveService(config) as service:
            waiters = [
                service.submit_datalog(source, target, k=2)
                for source, target in batch
            ]
            await asyncio.gather(*waiters)
            return service.stats.snapshot()

    start = time.perf_counter()
    snapshot = asyncio.run(drive())
    elapsed_ms = (time.perf_counter() - start) * 1000
    row = {
        "workload": f"{len(batch)} submits ({len(instances)} distinct)",
        "wall_ms": round(elapsed_ms, 3),
        "datalog_requests": snapshot["datalog_requests"],
        "coalesce_hits": snapshot["coalesce_hits"],
        "route_count": snapshot["routes"]["datalog"]["count"],
        "route_p95_ms": snapshot["routes"]["datalog"]["p95_ms"],
    }
    if row["datalog_requests"] != len(batch):
        raise SystemExit("service FAILED to count every datalog submit")
    if row["coalesce_hits"] < 1:
        raise SystemExit("service FAILED to coalesce duplicate submits")
    return {
        "title": "P6.3 service submit_datalog under coalescing",
        "rows": [row],
    }


def main() -> None:
    global REPEAT
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--max-n", type=int, default=14)
    parser.add_argument("--out", default="BENCH_datalog.json")
    args = parser.parse_args()
    REPEAT = max(1, args.repeat)

    evaluation = bench_evaluation(args.max_n)
    decision = bench_decision()
    service = bench_service()

    for table in (evaluation, decision, service):
        print(f"\n### {table['title']}")
        for row in table["rows"]:
            print("  " + json.dumps(row))

    headline = {
        "evaluation_speedup_aggregate": evaluation["aggregate_speedup"],
        "evaluation_speedup_max": max(
            row["speedup"] for row in evaluation["rows"]
        ),
        "decision_speedup_median": statistics.median(
            row["speedup"] for row in decision["rows"]
        ),
        "service_coalesce_hits": service["rows"][0]["coalesce_hits"],
    }
    print("\nheadline:", json.dumps(headline))
    if headline["evaluation_speedup_aggregate"] < 5:
        raise SystemExit(
            "datalog kernel FAILED the 5x aggregate acceptance floor"
        )

    report = {
        "report": "P6 compiled Datalog plane",
        "python": platform.python_version(),
        "repeat": REPEAT,
        "headline": headline,
        "tables": [evaluation, decision, service],
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
