"""P3 — service load: concurrent serving vs a serial ``solve()`` loop.

The load generator models the north-star serving shape: a mixed stream
(Horn/bijunctive/affine fast routes, 2-coloring, treewidth DP, CQ
evaluation, and the backtracking-heavy clique searches of E13) in which
each distinct instance is requested several times — many users, few
distinct queries.  The serial baseline answers the stream one
``SolverPipeline.solve`` at a time (its ``StructureCache`` still
amortizes per-target analysis, so the comparison is fair); the service
answers it through :class:`repro.service.SolveService`, which adds
in-flight coalescing of duplicates and a pool of worker threads.  The
service is thread-only; multi-core serving is the edge's job (see
``bench_p09_edge.py``).

Run directly (writes ``BENCH_service.json``)::

    python benchmarks/bench_p03_service_load.py --duplication 6

The JSON records wall-clock throughput for both runs, the speedup,
p50/p95/p99 latencies, coalesce-hit counts, and the full service stats
snapshot.  Answers are asserted identical between the two runs before
anything is written.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import random
import time

import _paths  # noqa: F401  (sys.path setup for a bare checkout)

from repro.core.pipeline import SolverPipeline
from repro.service import ServiceConfig, SolveService
from repro.service.stats import LatencyHistogram

from _workloads import mixed_service_workload


def build_request_stream(
    *, seed: int, variants: int, duplication: int, clique_sizes: tuple[int, ...]
) -> tuple[list[tuple[str, object, object]], int]:
    """The request stream: each unique instance ``duplication`` times, shuffled."""
    unique = mixed_service_workload(
        seed=seed, variants=variants, clique_sizes=clique_sizes
    )
    stream = [instance for instance in unique for _ in range(duplication)]
    random.Random(seed).shuffle(stream)
    return stream, len(unique)


def run_serial(stream) -> dict:
    """Answer the stream with one pipeline, one call at a time."""
    pipeline = SolverPipeline()
    histogram = LatencyHistogram()
    answers = []
    start = time.perf_counter()
    for _label, source, target in stream:
        tick = time.perf_counter()
        solution = pipeline.solve(source, target)
        histogram.record((time.perf_counter() - tick) * 1000)
        answers.append(solution)
    elapsed = time.perf_counter() - start
    return {
        "answers": answers,
        "seconds": elapsed,
        "throughput_rps": len(stream) / elapsed,
        "latency": histogram.snapshot(),
    }


def run_service(stream, config: ServiceConfig) -> dict:
    """Answer the stream through the concurrent service."""

    async def drive():
        async with SolveService(config) as service:
            start = time.perf_counter()
            answers = await service.submit_many(
                (source, target) for _label, source, target in stream
            )
            elapsed = time.perf_counter() - start
            return answers, elapsed, service.stats.snapshot()

    answers, elapsed, snapshot = asyncio.run(drive())
    return {
        "answers": answers,
        "seconds": elapsed,
        "throughput_rps": len(stream) / elapsed,
        "stats": snapshot,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--variants", type=int, default=2,
        help="seeded variants per workload family",
    )
    parser.add_argument(
        "--duplication", type=int, default=6,
        help="how many times each unique instance is requested",
    )
    parser.add_argument(
        "--max-clique", type=int, default=5,
        help="largest clique size in the backtracking-heavy part",
    )
    parser.add_argument("--thread-workers", type=int, default=4)
    parser.add_argument("--out", default="BENCH_service.json")
    args = parser.parse_args()

    clique_sizes = tuple(range(4, args.max_clique + 1))
    # Two independently built (structurally equal) streams: compilation
    # and fingerprints are memoized on the Structure objects themselves,
    # so sharing objects would let whichever run goes second inherit the
    # first run's warm memos.
    stream, unique = build_request_stream(
        seed=args.seed,
        variants=args.variants,
        duplication=args.duplication,
        clique_sizes=clique_sizes,
    )
    service_stream, _ = build_request_stream(
        seed=args.seed,
        variants=args.variants,
        duplication=args.duplication,
        clique_sizes=clique_sizes,
    )
    print(
        f"P3 service load: {len(stream)} requests "
        f"({unique} unique instances x {args.duplication})"
    )

    serial = run_serial(stream)
    print(
        f"  serial : {serial['seconds']:8.3f}s  "
        f"{serial['throughput_rps']:8.1f} req/s"
    )

    config = ServiceConfig(thread_workers=args.thread_workers)
    service = run_service(service_stream, config)
    print(
        f"  service: {service['seconds']:8.3f}s  "
        f"{service['throughput_rps']:8.1f} req/s  "
        f"(coalesce hits: {service['stats']['coalesce_hits']})"
    )
    speedup = serial["seconds"] / service["seconds"]
    print(f"  speedup: {speedup:8.2f}x")

    mismatches = sum(
        1
        for ours, theirs in zip(service["answers"], serial["answers"])
        if ours.exists != theirs.exists
        or ours.homomorphism != theirs.homomorphism
    )
    if mismatches:
        raise SystemExit(
            f"parity FAILED: {mismatches} answers differ from the serial run"
        )
    print("  parity : service answers == serial answers")

    report = {
        "report": "P3 service load",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "requests": len(stream),
        "unique_instances": unique,
        "duplication": args.duplication,
        "workload_families": sorted({label for label, _s, _t in stream}),
        "serial": {
            "seconds": round(serial["seconds"], 4),
            "throughput_rps": round(serial["throughput_rps"], 2),
            "latency": serial["latency"],
        },
        "service": {
            "seconds": round(service["seconds"], 4),
            "throughput_rps": round(service["throughput_rps"], 2),
            "config": {"thread_workers": config.thread_workers},
            "stats": service["stats"],
        },
        "speedup": round(speedup, 3),
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"  wrote  : {args.out}")


if __name__ == "__main__":
    main()
