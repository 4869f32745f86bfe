"""The repo's edge-to-kernel benchmark (manifest: ``BENCHMARK.json``).

Run from the root of a checkout::

    python3 perfbench/run.py --workload mix-cold --seed 1 --seconds 25 --trace 0

It launches the real ``python -m repro.edge`` (2 shards), drives it over
TCP with 2 closed-loop ``EdgeClient`` threads for ``--seconds``, checks
every answer against an in-process reference, and prints one JSON object
as its last line.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` repeats the loop with benchmark-side spans, replays a
request sequence through every layer at concurrency 1, runs the route
oracle, and reports the per-layer metrics.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Edge launches per run; ``setup_s`` is their median.
SETUP_LAUNCHES = 3
#: The timed phase is cut into this many windows; the throughput,
#: latency and CPU metrics are the median over windows.
WINDOWS = 5
#: Requests replayed through every layer by the traced run's ledger,
#: and how many of its distinct instances the route oracle solves.
LEDGER_LENGTH = {"mix-cold": 48, "tiny-hot": 48, "query-store": 48}
ORACLE_INSTANCES = 24

END_TO_END = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_req": "ms",
    "rss_mb": "MB",
    "setup_s": "s",
}

KERNEL_METRICS = {
    "kernel.search_nodes": "search.nodes",
    "kernel.search_backtracks": "search.backtracks",
    "kernel.ac_revisions": "propagate.revisions",
    "kernel.dp_bag_cells": "dp.bag_cells",
    "kernel.pebble_steps": "pebble.steps",
    "kernel.datalog_rounds": "datalog.rounds",
    "kernel.compile_targets": "compile.targets",
    "kernel.compile_sources": "compile.sources",
}

LEDGER_COUNTS = {
    "ledger.search_nodes": "search.nodes",
    "ledger.dp_bag_cells": "dp.bag_cells",
    "ledger.pebble_steps": "pebble.steps",
}

PER_LAYER = {
    "edge.http.self_ms": "ms",
    "edge.protocol.json_us": "us",
    "edge.cpu_ms_per_req": "ms",
    "edge.router.self_ms": "ms",
    "edge.router.shard_skew": "ratio",
    "shard.cpu_ms_per_req": "ms",
    "service.self_ms": "ms",
    "service.latency_p50_ms": "ms",
    "service.coalesce_frac": "ratio",
    "service.retries": "count",
    "service.rejected": "count",
    "core.self_ms": "ms",
    "core.solve_ms": "ms",
    "core.plan_ms": "ms",
    "core.oracle_ratio": "ratio",
    "core.worst_ratio": "ratio",
    "kernel.search_ms": "ms",
    **{name: "1/req" for name in KERNEL_METRICS},
    "cq.contains_ms": "ms",
    "datalog.solve_ms": "ms",
    "persist.bytes_per_req": "B/req",
    "persist.records": "count",
    "persist.warm_start_ms": "ms",
    **{name: "count" for name in LEDGER_COUNTS},
    "trace.throughput_rps": "1/s",
    "trace.latency_p50_ms": "ms",
    "trace.overhead_p50": "ratio",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("mix-cold", "tiny-hot", "query-store")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out",
        default=os.path.join(HERE, "_out"),
        help="where reports, span files, logs and stores go",
    )
    return parser.parse_args(argv)


def _median(values) -> float:
    from perfbench.stats import median

    return median(values) if values else 0.0


def _window_metrics(loop) -> list[dict[str, float]]:
    """Throughput, latency percentiles and CPU per request, per window.

    A request belongs to the window its reply arrived in; the CPU of a
    window is the fleet's ``/proc`` tick growth between its boundaries.
    """
    from perfbench.scrape import ticks_ms
    from perfbench.stats import percentile

    rows = []
    edges = list(zip(loop.boundaries, loop.readings))
    for (start, ticks_start), (end, ticks_end) in zip(edges, edges[1:]):
        last = end == loop.boundaries[-1]
        samples = [
            ms
            for ms, at in zip(loop.latencies_ms, loop.completed_at)
            if start <= at < end or (last and at == end)
        ]
        if not samples:
            continue
        rows.append(
            {
                "throughput_rps": len(samples) / (end - start),
                "latency_p50_ms": percentile(samples, 50).value,
                "latency_p90_ms": percentile(samples, 90).value,
                "cpu_ms_per_req": ticks_ms(ticks_end - ticks_start) / len(samples),
                "samples": len(samples),
            }
        )
    return rows


def _layer_metrics(loop, before, after) -> dict[str, float]:
    """Per-layer numbers scraped around the traced closed loop."""
    from perfbench.scrape import kernel_delta, service_delta, ticks_ms

    answered = len(loop.answered)
    completed = service_delta(before, after, "completed")
    weights = sum(completed) or 1
    service_p50 = sum(
        shard["service"]["latency"]["p50_ms"] * share
        for shard, share in zip(after.shards, completed)
    ) / weights
    out = {
        "edge.cpu_ms_per_req": ticks_ms(after.edge_ticks - before.edge_ticks) / answered,
        "shard.cpu_ms_per_req": ticks_ms(after.shard_ticks - before.shard_ticks) / answered,
        "edge.router.shard_skew": max(completed) / (sum(completed) / len(completed))
        if sum(completed)
        else 0.0,
        "service.latency_p50_ms": service_p50,
        "service.coalesce_frac": sum(service_delta(before, after, "coalesce_hits"))
        / loop.attempted,
        "service.retries": sum(service_delta(before, after, "retries")),
        "service.rejected": sum(service_delta(before, after, "rejected")),
    }
    for name, key in KERNEL_METRICS.items():
        out[name] = kernel_delta(before, after, key) / answered
    return out


def _ledger_metrics(ledger: dict, oracle: dict) -> dict[str, float]:
    self_ms = ledger["self_ms"]
    counts = ledger["kernel_counts"]
    by_op = ledger["core_by_op"]
    return {
        "edge.http.self_ms": self_ms["edge"],
        "edge.router.self_ms": self_ms["router"],
        "service.self_ms": self_ms["service"],
        "core.self_ms": self_ms["core"],
        "core.solve_ms": ledger["median_ms"]["core"],
        "kernel.search_ms": ledger["median_ms"]["kernel"],
        "core.plan_ms": _median(ledger["plan_ms"]),
        "edge.protocol.json_us": _median(ledger["json_us"]),
        "cq.contains_ms": _median(by_op.get("containment", [])),
        "datalog.solve_ms": _median(by_op.get("datalog", [])),
        "core.oracle_ratio": oracle["ratio"],
        "core.worst_ratio": oracle["worst_ratio"],
        **{name: counts.get(key, 0) for name, key in LEDGER_COUNTS.items()},
    }


def run(args, out: str) -> tuple[dict, list[str]]:
    """One benchmark run; returns ``(report, correctness errors)``."""
    from repro.edge.client import EdgeClient

    from perfbench import ledger as layer_ledger
    from perfbench.loop import closed_loop, serve_once
    from perfbench.scrape import (
        EdgeProcess,
        Scrape,
        cpu_ticks,
        store_bytes,
        store_records,
    )
    from perfbench.stats import Tracer, percentile
    from perfbench.workloads import build, check_responses

    log = os.path.join(out, "edge.log")
    workload = build(args.workload, args.seed, args.seconds)
    store = None
    if args.workload == "query-store":
        # Untimed: populate the store with the seen half, then drain.
        store = os.path.join(out, "store")
        edge = EdgeProcess(ROOT, store=store, log=log)
        try:
            serve_once(edge, [workload.items[i] for i in workload.seen])
        finally:
            edge.stop()

    setup_s = []
    for launch in range(SETUP_LAUNCHES):
        edge = EdgeProcess(ROOT, store=store, log=log)
        setup_s.append(edge.setup_s)
        if launch < SETUP_LAUNCHES - 1:
            edge.stop()

    tracer = Tracer() if args.trace else None
    loops = []
    try:
        serve_once(edge, workload.warmup)
        with EdgeClient(edge.host, edge.port, timeout=60.0) as scraper:
            if tracer is None:
                before = Scrape.take(scraper, edge, store)
                pids = [edge.pid, *edge.shard_pids]
                loops.append(
                    closed_loop(
                        edge,
                        workload,
                        args.seconds,
                        windows=WINDOWS,
                        sample=lambda: sum(cpu_ticks(pid) for pid in pids),
                    )
                )
                after = Scrape.take(scraper, edge, store)
            else:
                # Half untraced, half traced: the tracing overhead is
                # their difference on the same edge, in the same run.
                # Unseen query-store items are appended to the store in
                # the first half, so disk growth spans both halves.
                store_start = store_bytes(store)
                loops.append(closed_loop(edge, workload, args.seconds / 2))
                with tracer.span("traced-loop") as root:
                    with tracer.span("scrape.before", parent=root.id):
                        before = Scrape.take(scraper, edge, store)
                    with tracer.span("loop", parent=root.id) as loop_span:
                        loops.append(
                            closed_loop(
                                edge,
                                workload,
                                args.seconds / 2,
                                start_at=loops[0].next_position,
                                tracer=tracer,
                                parent=loop_span.id,
                            )
                        )
                    with tracer.span("scrape.after", parent=root.id):
                        after = Scrape.take(scraper, edge, store)
    finally:
        drain_rc = edge.stop()

    errors = []
    for loop in loops:
        errors += check_responses(workload, loop.answered)
    if drain_rc != 0:
        errors.append(f"edge exited rc={drain_rc} on SIGTERM drain")
    measured = loops[-1]
    failures: dict[str, int] = {}
    for loop in loops:
        for (layer, name), count in loop.failures.items():
            failures[f"{layer}:{name}"] = failures.get(f"{layer}:{name}", 0) + count
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": sum(loop.attempted for loop in loops),
        "failed": sum(loop.failed for loop in loops),
        "failures": failures,
        "latency_samples": len(measured.latencies_ms),
        "setup_launches_s": setup_s,
    }
    if tracer is None:
        windows = _window_metrics(measured)
        metrics = {
            name: _median([row[name] for row in windows])
            for name in ("throughput_rps", "latency_p50_ms", "latency_p90_ms", "cpu_ms_per_req")
        }
        metrics["rss_mb"] = after.rss_kb / 1024.0
        metrics["setup_s"] = _median(setup_s)
        report["metrics"] = metrics
        report["windows"] = windows
        return report, errors

    untraced, traced = loops
    metrics = _layer_metrics(traced, before, after)
    untraced_p50 = percentile(untraced.latencies_ms, 50).value
    traced_p50 = percentile(traced.latencies_ms, 50).value
    metrics["trace.throughput_rps"] = len(traced.answered) / traced.elapsed_s
    metrics["trace.latency_p50_ms"] = traced_p50
    metrics["trace.overhead_p50"] = traced_p50 / untraced_p50 - 1.0
    metrics["persist.bytes_per_req"] = (after.store_bytes - store_start) / sum(
        len(loop.answered) for loop in loops
    )
    metrics["persist.records"] = store_records(store) if store else 0
    metrics["persist.warm_start_ms"] = (
        layer_ledger.warm_start_ms(os.path.join(store, "shard-0"), out)
        if store
        else 0.0
    )
    sequence = [
        workload.items[index]
        for index in workload.stream[: LEDGER_LENGTH[args.workload]]
    ]
    ledger = layer_ledger.run_ledger(ROOT, sequence, tracer, log)
    distinct = list({item.key: item for item in sequence}.values())
    oracle = layer_ledger.route_oracle(distinct[:ORACLE_INSTANCES])
    metrics.update(_ledger_metrics(ledger, oracle))
    report["metrics"] = metrics
    report["ledger_kernel_counts"] = ledger["kernel_counts"]
    report["ledger_median_ms"] = ledger["median_ms"]
    report["oracle"] = oracle["rows"]
    spans = os.path.join(out, "spans.json")
    tracer.dump(spans, workload=args.workload, seed=args.seed)
    report["span_file"] = os.path.relpath(spans, ROOT)
    return report, errors


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no src/repro under {ROOT}; nothing to run", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.scrape import become_subreaper, reap_children

    out = os.path.join(args.out, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    become_subreaper()
    try:
        report, errors = run(args, out)
    finally:
        # No process the run started may outlive it, on any path out.
        reap_children()
    if report["workload"] == "query-store":
        shutil.rmtree(os.path.join(out, "store"), ignore_errors=True)
    units = END_TO_END if args.trace == 0 else PER_LAYER
    metrics = {
        name: {"value": float(report["metrics"][name]), "unit": unit}
        for name, unit in units.items()
    }
    report["correct"] = not errors
    report["errors"] = errors[:20]
    with open(os.path.join(out, "report.json"), "w") as handle:
        json.dump(report, handle, indent=1, default=str)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"attempted={report['attempted']} failed={report['failed']} "
        f"{report['failures']} latency samples={report['latency_samples']}"
    )
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:14.4f} {metric['unit']}")
    for error in errors[:20]:
        print(f"  WRONG: {error}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
