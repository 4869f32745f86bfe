"""The concurrency-1 layer ledger, the route oracle, and warm start.

The ledger replays one request sequence through each public entry point,
outermost first::

    EdgeClient → ShardRouter (in-process) → SolveService → core/cq → kernel

Every layer gets a fresh instance (a new edge process, a new router, a
new service, a new pipeline) and freshly built structures, so no cache
or per-structure memo carries over from one layer to the next.  A
layer's marginal is its time minus the next inner layer's time for the
same request.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import time
from collections import Counter

from perfbench.stats import marginals, median
from perfbench.workloads import Item, witness_instance

LAYERS = ("edge", "router", "service", "core", "kernel")
PEBBLE_K = 3
WARM_START_REPEATS = 3


def _shard_service_config(**overrides):
    """The ``ServiceConfig`` a shard builds (see ``repro.edge.router``)."""
    from repro.service import ServiceConfig

    options = dict(
        process_workers=0,
        plan=True,
        thread_workers=2,
        max_pending=256,
        retry_budget=2,
        drain_timeout=30.0,
        store_path=None,
        trace=False,
    )
    options.update(overrides)
    return ServiceConfig(**options)


def _payload(item: Item) -> dict:
    if item.op == "containment":
        return {"q1": item.q1, "q2": item.q2, "timeout": None}
    payload = {"source": item.source, "target": item.target, "timeout": None}
    if item.op == "datalog":
        payload["k"] = item.k
    return payload


def _timed(call) -> tuple[float, object]:
    started = time.perf_counter()
    value = call()
    return (time.perf_counter() - started) * 1000.0, value


async def _timed_async(awaitable) -> tuple[float, object]:
    started = time.perf_counter()
    value = await awaitable
    return (time.perf_counter() - started) * 1000.0, value


def _edge_layer(root: str, sequence: list[Item], log: str) -> tuple[list[float], list[dict]]:
    from repro.edge.client import EdgeClient
    from perfbench.scrape import EdgeProcess

    edge = EdgeProcess(root, log=log)
    times, responses = [], []
    try:
        with EdgeClient(edge.host, edge.port, timeout=60.0) as client:
            for item in sequence:
                fresh = item.fresh()
                ms, response = _timed(lambda: fresh.send(client))
                times.append(ms)
                responses.append(response)
    finally:
        edge.stop()
    return times, responses


async def _router_layer(sequence: list[Item]) -> list[float]:
    from repro.edge.router import RouterConfig, ShardRouter

    router = ShardRouter(RouterConfig(num_shards=2), loop=asyncio.get_running_loop())
    await router.start()
    try:
        times = []
        for item in sequence:
            fresh = item.fresh()
            call = getattr(router, fresh.op)
            ms, _ = await _timed_async(call(_payload(fresh)))
            times.append(ms)
        return times
    finally:
        await router.drain(5.0)


async def _service_layer(sequence: list[Item]) -> list[float]:
    from repro.cq.parser import parse_query
    from repro.service import SolveService

    service = SolveService(_shard_service_config())
    await service.start()
    try:
        times = []
        for item in sequence:
            fresh = item.fresh()
            if fresh.op == "containment":
                q1, q2 = parse_query(fresh.q1), parse_query(fresh.q2)
            started = time.perf_counter()
            if fresh.op == "containment":
                await service.submit_containment(q1, q2)
            elif fresh.op == "datalog":
                await service.submit_datalog(fresh.source, fresh.target, k=fresh.k)
            else:
                await service.submit(fresh.source, fresh.target)
            times.append((time.perf_counter() - started) * 1000.0)
        return times
    finally:
        await service.drain(5.0)


def _core_layer(sequence: list[Item]) -> tuple[list[float], list[float], Counter]:
    """``core.solve`` (or ``cq.contains``) per request, plus plan time."""
    from repro.core.pipeline import SolverPipeline
    from repro.cq import contains
    from repro.cq.parser import parse_query
    from repro.kernel import plan_instance

    pipeline = SolverPipeline()
    times, plans = [], []
    counts_before = _kernel_counts()
    for item in sequence:
        fresh = item.fresh()
        if fresh.op == "containment":
            q1, q2 = parse_query(fresh.q1), parse_query(fresh.q2)
            ms, _ = _timed(lambda: contains(q1, q2))
        else:
            k = fresh.k if fresh.op == "datalog" else None
            ms, _ = _timed(
                lambda: pipeline.solve(
                    fresh.source, fresh.target, plan=True, try_canonical_datalog=k
                )
            )
            # As the service plans: a fresh source, the cached target.
            planned = item.fresh()
            ctarget = pipeline.cache.compiled_target(planned.target)
            plan_ms, _ = _timed(
                lambda: plan_instance(
                    planned.source, planned.target, ctarget=ctarget, datalog_k=k
                )
            )
            plans.append(plan_ms)
        times.append(ms)
    counts = _kernel_counts()
    counts.subtract(counts_before)
    return times, plans, counts


def _kernel_counts() -> Counter:
    """This process's kernel work counters (exact at concurrency 1)."""
    from repro.obs.metrics import KERNEL_COUNTERS, default_registry

    registry = default_registry()
    return Counter(
        {
            key: registry.counter(family, help_text).value()
            for key, (family, help_text) in KERNEL_COUNTERS.items()
        }
    )


def _kernel_layer(sequence: list[Item]) -> list[float]:
    from repro.kernel import solve as kernel_solve

    times = []
    for item in sequence:
        source, target = witness_instance(item.fresh())
        ms, _ = _timed(lambda: kernel_solve(source, target))
        times.append(ms)
    return times


def json_protocol_us(sequence: list[Item], responses: list[dict]) -> list[float]:
    """Per request: decode its body + encode its result, in microseconds."""
    from repro.edge import protocol
    from repro.structures.io import structure_to_dict

    decoders = {
        "solve": protocol.decode_solve,
        "containment": protocol.decode_containment,
        "datalog": protocol.decode_datalog,
    }
    out = []
    for item, response in zip(sequence, responses):
        if item.op == "containment":
            body = {"q1": item.q1, "q2": item.q2}
        else:
            body = {
                "source": structure_to_dict(item.source),
                "target": structure_to_dict(item.target),
            }
            if item.op == "datalog":
                body["k"] = item.k
        raw = protocol.dumps(body)
        result = dict(response)
        pairs = response["witness"]
        result["witness"] = None if pairs is None else {a: b for a, b in pairs}
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            decoders[item.op](raw)
            protocol.dumps(protocol.encode_result(result))
            best = min(best, time.perf_counter() - started)
        out.append(best * 1e6)
    return out


def run_ledger(root: str, sequence: list[Item], tracer, log: str) -> dict:
    """Replay ``sequence`` through every layer; per-layer times + marginals."""
    times: dict[str, list[float]] = {}
    times["edge"], responses = _edge_layer(root, sequence, log)
    times["router"] = asyncio.run(_router_layer(sequence))
    times["service"] = asyncio.run(_service_layer(sequence))
    times["core"], plan_ms, counts = _core_layer(sequence)
    times["kernel"] = _kernel_layer(sequence)
    for position, item in enumerate(sequence):
        parent = None
        for layer in LAYERS:
            # Layers ran one after another; each span is laid out at its
            # own measured duration under the outer layer's span.
            parent = tracer.record(
                f"ledger.{layer}",
                0.0,
                times[layer][position] / 1000.0,
                parent=parent,
                trace=f"ledger-{position}:{item.op}",
            )
    self_ms = {
        outer: median(marginals(times[outer], times[inner]))
        for outer, inner in zip(LAYERS, LAYERS[1:])
    }
    by_op: dict[str, list[float]] = {}
    for item, ms in zip(sequence, times["core"]):
        by_op.setdefault(item.op, []).append(ms)
    return {
        "times_ms": times,
        "self_ms": self_ms,
        "median_ms": {layer: median(values) for layer, values in times.items()},
        "plan_ms": plan_ms,
        "core_by_op": by_op,
        "kernel_counts": dict(sorted(counts.items())),
        "json_us": json_protocol_us(sequence, responses),
    }


# -- the route oracle ----------------------------------------------------------


def _route_pipelines():
    """Each route as a one-strategy pipeline with the options it needs."""
    from repro.core.pipeline import SolverPipeline
    from repro.core.strategies import (
        BacktrackingStrategy,
        PebbleRefutationStrategy,
        TreewidthStrategy,
        default_strategies,
    )

    routes = []
    for strategy in default_strategies():
        name = strategy.name
        if name == "pebble-refutation":
            # Refutation-only: backtracking decides what the game cannot.
            routes.append((name, lambda: SolverPipeline(
                [PebbleRefutationStrategy(), BacktrackingStrategy()]
            ), {"try_pebble_refutation": PEBBLE_K}))
        elif name == "treewidth-dp":
            # Forced at any width; the DP's own cell budget falls back to
            # search where the bag tables would not fit.
            routes.append((name, lambda: SolverPipeline([TreewidthStrategy()]),
                           {"width_threshold": 1 << 20}))
        else:
            routes.append((name, lambda s=type(strategy): SolverPipeline([s()]),
                           {"plan": True}))
    return routes


def route_oracle(items: list[Item]) -> dict:
    """Time every route that decides each instance; cross-check verdicts."""
    from repro.core.pipeline import SolverPipeline

    routes = _route_pipelines()
    rows = []
    for item in items:
        source, target = witness_instance(item.fresh())
        k = item.k if item.op == "datalog" else None
        planned_ms, planned = _timed(
            lambda: SolverPipeline().solve(
                source, target, plan=True, try_canonical_datalog=k
            )
        )
        best, verdicts = None, {}
        for name, make, options in routes:
            fresh_source, fresh_target = witness_instance(item.fresh())
            try:
                ms, solution = _timed(
                    lambda: make().solve(fresh_source, fresh_target, **options)
                )
            except RuntimeError:
                continue  # the route does not apply to this instance
            verdicts[name] = solution.exists
            if best is None or ms < best[1]:
                best = (name, ms)
        if set(verdicts.values()) != {planned.exists}:
            raise AssertionError(
                f"route verdicts disagree on {item.family}: {verdicts} "
                f"vs planned {planned.exists}"
            )
        rows.append(
            {
                "family": item.family,
                "planned": planned.strategy,
                "planned_ms": planned_ms,
                "best_route": best[0],
                "best_ms": best[1],
            }
        )
    total = sum(row["planned_ms"] for row in rows)
    best_total = sum(row["best_ms"] for row in rows)
    return {
        "ratio": total / best_total,
        "worst_ratio": max(row["planned_ms"] / row["best_ms"] for row in rows),
        "rows": rows,
    }


# -- persist: warm start ------------------------------------------------------------


async def _start_ms(store_path: str | None) -> float:
    from repro.service import SolveService

    service = SolveService(_shard_service_config(store_path=store_path))
    started = time.perf_counter()
    await service.start()
    elapsed = (time.perf_counter() - started) * 1000.0
    await service.drain(5.0)
    return elapsed


def warm_start_ms(partition: str, scratch: str) -> float:
    """Median ``SolveService.start()`` on a copy of ``partition``, minus store-less."""
    warm, cold = [], []
    for _ in range(WARM_START_REPEATS):
        copy = os.path.join(scratch, "warm-copy")
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(partition, copy)
        warm.append(asyncio.run(_start_ms(copy)))
        cold.append(asyncio.run(_start_ms(None)))
        shutil.rmtree(copy, ignore_errors=True)
    return median(warm) - median(cold)
