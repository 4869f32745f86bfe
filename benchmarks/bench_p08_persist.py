"""P8 — the persistent artifact store: cold vs warm time-to-first-answer.

Two tables, parity asserted before anything is written:

1. **Pipeline TTFA** — a fresh cache generation solving a mixed corpus
   cold (computes + persists) vs warm (every structure artifact decodes
   from the store).  The warm run must report **zero** target
   compilations in its kernel counters — the decode path never runs
   ``CompiledTarget.__init__`` — with exact verdict parity per instance.
2. **Service TTFA** — wall-clock from ``SolveService.start()`` to the
   first answer of the batch, store-less vs warm-started from a
   populated store (eager cache seeding included).  This is the restart
   story in one number: how long until a respawned service gives its
   first useful answer.

Run directly (writes ``BENCH_persist.json``)::

    python benchmarks/bench_p08_persist.py --repeat 3
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import statistics
import tempfile
import time

import _paths  # noqa: F401  (sys.path setup for a bare checkout)

from repro.core.pipeline import SolverPipeline, StructureCache
from repro.csp.generators import random_schaefer_target, random_structure
from repro.datalog.canonical_program import _cached_canonical_program
from repro.persist import ArtifactStore
from repro.service import ServiceConfig, SolveService
from repro.structures.graphs import clique, random_graph
from repro.structures.structure import Structure
from repro.structures.vocabulary import Vocabulary

BINARY = Vocabulary.from_arities({"R": 2})

REPEAT = 3


def corpus():
    """Fresh structure objects every call — no memos ride along."""
    instances = [
        (
            random_structure(BINARY, 7, 12, seed=seed),
            random_schaefer_target(BINARY, 3, "horn", seed=seed + 1),
        )
        for seed in range(8)
    ]
    instances += [
        (clique(3), random_graph(14, 0.5, seed=seed)) for seed in range(4)
    ]
    instances += [
        (random_graph(10, 0.7, seed=seed), clique(3)) for seed in range(4)
    ]
    return instances


def rebuild(structure: Structure) -> Structure:
    return Structure(
        structure.vocabulary,
        structure.sorted_universe,
        {symbol.name: set(rel) for symbol, rel in structure.relations()},
    )


def timed_batch(pipeline, instances):
    """(total ms, time-to-first-answer ms, verdicts, compile counts)."""
    verdicts = []
    compiles = 0
    ttfa = None
    start = time.perf_counter()
    for source, target in instances:
        solution = pipeline.solve(source, target)
        if ttfa is None:
            ttfa = (time.perf_counter() - start) * 1000
        verdicts.append(solution.exists)
        compiles += (solution.stats.kernel or {}).get("compile.targets", 0)
    total = (time.perf_counter() - start) * 1000
    return total, ttfa, verdicts, compiles


def bench_pipeline(store_dir: str) -> dict:
    """Table 1: cold compute-and-persist vs warm decode-from-store."""
    cold_samples, warm_samples = [], []
    cold_verdicts = warm_verdicts = None
    warm_compiles = 0
    store_hits = 0
    for repeat in range(REPEAT):
        with tempfile.TemporaryDirectory() as tmp:
            with ArtifactStore(tmp, register_metrics=False) as store:
                instances = corpus()
                cold_total, cold_ttfa, cold_verdicts, cold_compiles = (
                    timed_batch(
                        SolverPipeline(cache=StructureCache(store=store)),
                        instances,
                    )
                )
                fresh = [
                    (rebuild(source), rebuild(target))
                    for source, target in instances
                ]
                warm_total, warm_ttfa, warm_verdicts, warm_compiles = (
                    timed_batch(
                        SolverPipeline(cache=StructureCache(store=store)),
                        fresh,
                    )
                )
                store_hits = store.stats.hits
        if cold_verdicts != warm_verdicts:
            raise SystemExit("parity FAILED: warm verdicts differ from cold")
        if warm_compiles != 0:
            raise SystemExit(
                f"warm run FAILED zero-recompilation: "
                f"{warm_compiles} targets compiled"
            )
        if cold_compiles < 1:
            raise SystemExit("cold run compiled nothing — corpus too warm")
        cold_samples.append((cold_total, cold_ttfa))
        warm_samples.append((warm_total, warm_ttfa))
    cold_total = statistics.median(s[0] for s in cold_samples)
    warm_total = statistics.median(s[0] for s in warm_samples)
    row = {
        "workload": f"{len(corpus())} mixed instances",
        "cold_total_ms": round(cold_total, 3),
        "warm_total_ms": round(warm_total, 3),
        "cold_ttfa_ms": round(
            statistics.median(s[1] for s in cold_samples), 3
        ),
        "warm_ttfa_ms": round(
            statistics.median(s[1] for s in warm_samples), 3
        ),
        "speedup_total": round(cold_total / warm_total, 2),
        "warm_target_compiles": warm_compiles,
        "warm_store_hits": store_hits,
    }
    return {
        "title": "P8.1 pipeline: cold compute-and-persist vs warm decode",
        "rows": [row],
    }


def bench_service(store_dir: str) -> dict:
    """Table 2: service restart TTFA, store-less vs warm-started."""
    instances = corpus()

    async def drive(config, batch):
        started = time.perf_counter()
        service = SolveService(config)
        await service.start()
        try:
            waiters = [
                service.submit(source, target) for source, target in batch
            ]
            first = await waiters[0]
            ttfa_ms = (time.perf_counter() - started) * 1000
            rest = await asyncio.gather(*waiters[1:])
            verdicts = [first.exists] + [s.exists for s in rest]
            total_ms = (time.perf_counter() - started) * 1000
        finally:
            await service.drain(timeout=30.0)
        return ttfa_ms, total_ms, verdicts

    # Populate the store once, through a service generation that exits
    # via drain (flush + close) like a production restart would.
    async def populate():
        config = ServiceConfig(store_path=store_dir)
        service = SolveService(config)
        await service.start()
        try:
            await asyncio.gather(
                *[service.submit(s, t) for s, t in instances]
            )
        finally:
            await service.drain(timeout=30.0)

    asyncio.run(populate())

    cold_rows, warm_rows = [], []
    baseline = None
    for repeat in range(REPEAT):
        batch = [(rebuild(s), rebuild(t)) for s, t in corpus()]
        cold = asyncio.run(
            drive(ServiceConfig(), batch)
        )
        batch = [(rebuild(s), rebuild(t)) for s, t in corpus()]
        warm = asyncio.run(
            drive(
                ServiceConfig(store_path=store_dir),
                batch,
            )
        )
        if cold[2] != warm[2]:
            raise SystemExit("parity FAILED: warm service differs from cold")
        baseline = cold[2]
        cold_rows.append(cold)
        warm_rows.append(warm)
    row = {
        "workload": f"start → {len(instances)} answers",
        "storeless_ttfa_ms": round(
            statistics.median(r[0] for r in cold_rows), 3
        ),
        "warm_ttfa_ms": round(
            statistics.median(r[0] for r in warm_rows), 3
        ),
        "storeless_total_ms": round(
            statistics.median(r[1] for r in cold_rows), 3
        ),
        "warm_total_ms": round(
            statistics.median(r[1] for r in warm_rows), 3
        ),
        "verdicts_sat": sum(1 for v in baseline if v),
    }
    return {
        "title": "P8.2 service restart: store-less vs warm-started",
        "rows": [row],
    }


def main() -> None:
    global REPEAT
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--out", default="BENCH_persist.json")
    args = parser.parse_args()
    REPEAT = max(1, args.repeat)

    _cached_canonical_program.cache_clear()
    with tempfile.TemporaryDirectory() as store_dir:
        pipeline_table = bench_pipeline(store_dir)
    with tempfile.TemporaryDirectory() as store_dir:
        service_table = bench_service(store_dir)

    for table in (pipeline_table, service_table):
        print(f"\n### {table['title']}")
        for row in table["rows"]:
            print("  " + json.dumps(row))

    headline = {
        "pipeline_speedup_total": pipeline_table["rows"][0]["speedup_total"],
        "warm_target_compiles": pipeline_table["rows"][0][
            "warm_target_compiles"
        ],
        "service_warm_ttfa_ms": service_table["rows"][0]["warm_ttfa_ms"],
        "service_storeless_ttfa_ms": service_table["rows"][0][
            "storeless_ttfa_ms"
        ],
    }
    print("\nheadline:", json.dumps(headline))

    report = {
        "report": "P8 persistent artifact store",
        "python": platform.python_version(),
        "repeat": REPEAT,
        "headline": headline,
        "tables": [pipeline_table, service_table],
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
