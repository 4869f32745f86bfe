"""P5 — the compiled query plane: batch containment, cores, planner.

Three tables, answers asserted identical before anything is written:

1. **Containment matrix vs legacy pairwise loop**: ``containment_matrix``
   (fingerprint-deduped compiles, one shared union vocabulary, planner
   routing) against the seed-era loop of one-shot ``contains`` calls that
   rebuilds both canonical databases per pair (``reference.cq``) — on a
   mixed family of ≥ 40 seeded queries.  The acceptance floor is a 5x speedup with exact
   matrix parity.
2. **Minimization: compiled kernel vs legacy**: ``minimize`` on
   redundant chain queries — the kernel core engine (masked bitset
   endomorphism search) against the legacy materialize-a-substructure
   loop (``reference.cq.minimize``); identical minimized queries
   required.
3. **Containment planner routing**: route distribution and per-route
   verdict parity across three pair families (small/mixed → search,
   bounded-width → dp-eligible, large two-atom → saraiya-eligible).

Run directly (writes ``BENCH_query.json``)::

    python benchmarks/bench_p05_query.py --repeat 3
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import statistics
import time

import _paths  # noqa: F401  (sys.path setup for a bare checkout)

from reference import cq as reference_cq
from repro.cq.containment import (
    containment_matrix,
    contains,
    equivalence_classes,
    plan_containment,
)
from repro.cq.minimize import minimize
from repro.cq.query import Atom, ConjunctiveQuery
from repro.csp.generators import (
    random_chain_query,
    random_query,
    random_star_query,
    random_two_atom_query,
)
from repro.structures.vocabulary import Vocabulary

REPEAT = 3

VOC = Vocabulary.from_arities({"E": 2, "T": 3})


def timed(fn, *args):
    """(median wall-clock ms over REPEAT runs, last result)."""
    result = None
    samples = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        result = fn(*args)
        samples.append((time.perf_counter() - start) * 1000)
    return statistics.median(samples), result


def fresh(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """A structurally equal rebuild with cold memos (fair cold timing)."""
    return ConjunctiveQuery(query.head_variables, query.atoms, query.name)


def query_family(count: int, *, seed: int = 0) -> list[ConjunctiveQuery]:
    """A mixed family of unary-head queries (the matrix workload)."""
    queries: list[ConjunctiveQuery] = []
    for i in range(count):
        kind = i % 4
        s = seed * 1000 + i
        if kind == 0:
            queries.append(
                random_query(3, 4, VOC, head_width=1, seed=s)
            )
        elif kind == 1:
            queries.append(
                random_two_atom_query(2, 4, head_width=1, seed=s)
            )
        elif kind == 2:
            chain = random_chain_query(1 + i % 4)
            queries.append(
                ConjunctiveQuery((chain.head_variables[0],), chain.atoms)
            )
        else:
            queries.append(random_star_query(1 + i % 3))
    return queries


def redundant_chain(
    length: int, extra: int, *, seed: int = 0
) -> ConjunctiveQuery:
    """A chain query with ``extra`` dangling atoms its core folds away."""
    rng = random.Random(seed)
    atoms = [Atom("E", (f"X{i}", f"X{i + 1}")) for i in range(length)]
    for j in range(extra):
        start = rng.randint(0, length - 1)
        atoms.append(Atom("E", (f"X{start}", f"Y{j}")))
    return ConjunctiveQuery(("X0", f"X{length}"), atoms)


def bench_matrix(num_queries: int) -> dict:
    """Table 1: the batch matrix vs the legacy pairwise loop."""
    queries = query_family(num_queries)

    def legacy_loop(qs):
        return [[reference_cq.contains(a, b) for b in qs] for a in qs]

    legacy_ms, legacy = timed(lambda: legacy_loop(query_family(num_queries)))
    cold_ms, cold = timed(
        lambda: containment_matrix(query_family(num_queries))
    )
    warm_ms, warm = timed(lambda: containment_matrix(queries))
    if cold != legacy or warm != legacy:
        raise SystemExit("parity FAILED: matrix differs from legacy loop")
    classes = equivalence_classes(queries)
    row = {
        "workload": f"mixed family n={num_queries} "
        f"({num_queries * num_queries} pairs)",
        "legacy_pairwise_ms": round(legacy_ms, 3),
        "matrix_cold_ms": round(cold_ms, 3),
        "matrix_warm_ms": round(warm_ms, 3),
        "speedup_cold": round(legacy_ms / cold_ms, 1),
        "speedup_warm": round(legacy_ms / warm_ms, 1),
        "equivalence_classes": len(classes),
    }
    return {
        "title": "P5.1 containment matrix vs legacy pairwise loop",
        "rows": [row],
    }


def bench_minimize() -> dict:
    """Table 2: kernel core engine vs legacy on redundant queries."""
    rows = []
    for length, extra in ((4, 3), (5, 4), (6, 5)):
        query = redundant_chain(length, extra, seed=length)
        kernel_ms, kernel = timed(lambda q=query: minimize(fresh(q)))
        legacy_ms, legacy = timed(
            lambda q=query: reference_cq.minimize(fresh(q))
        )
        if kernel != legacy:
            raise SystemExit(
                f"parity FAILED: minimize differs on chain {length}+{extra}"
            )
        rows.append(
            {
                "workload": f"chain {length} + {extra} redundant atoms",
                "kernel_ms": round(kernel_ms, 3),
                "legacy_ms": round(legacy_ms, 3),
                "speedup": round(legacy_ms / kernel_ms, 1),
                "atoms_removed": extra,
                "minimal_atoms": len(kernel.atoms),
            }
        )
    return {
        "title": "P5.2 minimization: kernel core engine vs legacy",
        "rows": rows,
    }


def bench_planner() -> dict:
    """Table 3: containment planner routing across three pair families."""
    wide_voc = Vocabulary.from_arities({f"R{i}": 2 for i in range(12)})
    pairs = []
    for seed in (0, 1, 2):
        a, b = query_family(2, seed=seed + 7)[:2]
        pairs.append((f"mixed s={seed}", a, b))
        length = 40 + 10 * seed
        pairs.append(
            (f"chain-4 ⊆ chain-{length}", random_chain_query(4),
             random_chain_query(length))
        )
        big1 = random_two_atom_query(12, 60, head_width=1, seed=seed)
        big2 = random_query(80, 60, wide_voc, head_width=1, seed=seed + 1)
        pairs.append((f"two-atom-big s={seed}", big1, big2))
    rows = []
    for label, q1, q2 in pairs:
        plan = plan_containment(q1, q2)
        tick = time.perf_counter()
        routed = contains(q1, q2, plan=True)
        elapsed_ms = (time.perf_counter() - tick) * 1000
        direct = contains(q1, q2)
        if routed != direct:
            raise SystemExit(f"parity FAILED on {label}: routed verdict")
        rows.append(
            {
                "workload": label,
                "route": plan.route,
                "saraiya_eligible": plan.saraiya_eligible,
                "search_cost": round(plan.search_cost, 1),
                "dp_cost": plan.dp_cost,
                "width": plan.width,
                "ms": round(elapsed_ms, 3),
                "contains": routed,
            }
        )
    routes = sorted({row["route"] for row in rows})
    return {
        "title": "P5.3 containment planner routing",
        "rows": rows,
        "distinct_routes": routes,
    }


def main() -> None:
    global REPEAT
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--queries", type=int, default=48)
    parser.add_argument("--out", default="BENCH_query.json")
    args = parser.parse_args()
    REPEAT = max(1, args.repeat)

    matrix = bench_matrix(max(40, args.queries))
    minimization = bench_minimize()
    planner = bench_planner()

    for table in (matrix, minimization, planner):
        print(f"\n### {table['title']}")
        for row in table["rows"]:
            print("  " + json.dumps(row))

    minimize_speedups = [row["speedup"] for row in minimization["rows"]]
    headline = {
        "matrix_speedup_cold": matrix["rows"][0]["speedup_cold"],
        "matrix_speedup_warm": matrix["rows"][0]["speedup_warm"],
        "minimize_speedup_median": statistics.median(minimize_speedups),
        "minimize_speedup_min": min(minimize_speedups),
        "minimize_speedup_max": max(minimize_speedups),
        "planner_routes": planner["distinct_routes"],
    }
    print("\nheadline:", json.dumps(headline))
    if headline["matrix_speedup_cold"] < 5:
        raise SystemExit(
            "matrix FAILED the 5x acceptance floor over the legacy loop"
        )
    if len(planner["distinct_routes"]) < 3:
        raise SystemExit(
            "planner FAILED to route three pair families to three routes"
        )

    report = {
        "report": "P5 compiled query plane",
        "python": platform.python_version(),
        "repeat": REPEAT,
        "headline": headline,
        "tables": [matrix, minimization, planner],
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
