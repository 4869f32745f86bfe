"""The observability plane (P7): tracing, telemetry, calibration.

Covers the :mod:`repro.obs` package in isolation (span trees, registry
exposition, the flight recorder, the calibration log) and its wiring
through the stack: per-solve kernel counters on ``SolveStats.kernel``,
the ``repro`` logger hierarchy, and a service solve yielding *one*
trace whose spans cover the service dispatch and the kernel phases under
the same trace id.
"""

from __future__ import annotations

import asyncio
import json
import logging
import pathlib
import re

import pytest

from repro.core.pipeline import SolverPipeline
from repro.obs import (
    CalibrationLog,
    FlightRecorder,
    KERNEL_COUNTERS,
    LatencyHistogram,
    MetricsRegistry,
    Span,
    TraceLog,
    collect_kernel_counters,
    current_span,
    default_registry,
    get_logger,
    kcount,
    kernel_counter_name,
    kernel_metrics_enabled,
    maybe_span,
    observed_work,
    root_logger,
    set_kernel_metrics_enabled,
    span_scope,
)
from repro.service import ServiceConfig, SolveService
from repro.structures.graphs import clique, random_graph

SRC_ROOT = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: Prometheus text format 0.0.4: a comment line or a sample line.
_SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")*\})?"  # labels
    r" (\+Inf|-Inf|NaN|-?[0-9][0-9.e+-]*)$"  # value
)


def assert_parses_as_prometheus(text: str) -> list[str]:
    """Validate exposition line-by-line; returns the sample lines."""
    samples = []
    for line in text.strip().splitlines():
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            continue
        assert _SAMPLE_LINE.match(line), f"bad exposition line: {line!r}"
        samples.append(line)
    return samples


# -- spans ----------------------------------------------------------------


class TestSpan:
    def test_tree_export_shares_one_trace_id(self):
        root = Span.new_root("request", seq=7)
        child = root.child("plan")
        grandchild = child.child("kernel.search", nodes=3)
        grandchild.end()
        child.end()
        root.end()
        exported = root.export()
        ids = {node["trace_id"] for node in root.iter_spans()}
        assert ids == {root.trace_id}
        names = {node["name"] for node in root.iter_spans()}
        assert names == {"request", "plan", "kernel.search"}
        assert exported["attributes"] == {"seq": 7}
        assert exported["duration_ms"] >= 0.0
        # Round-trips through JSON (what the service's trace log holds).
        assert json.loads(root.to_json())["trace_id"] == root.trace_id

    def test_remote_graft_keeps_the_trace_id(self):
        root = Span.new_root("request")
        dispatch = root.child("backend.process")
        # The worker side: rebuilt from pickled coordinates only.
        remote = Span.new_remote(
            "worker.solve", dispatch.trace_id, dispatch.span_id
        )
        remote.child("pipeline.solve").end()
        remote.end()
        dispatch.add_exported(remote.export())
        dispatch.end()
        root.end()
        spans = list(root.iter_spans())
        assert {node["trace_id"] for node in spans} == {root.trace_id}
        assert "worker.solve" in {node["name"] for node in spans}
        by_name = {node["name"]: node for node in spans}
        assert by_name["worker.solve"]["parent_id"] == dispatch.span_id

    def test_maybe_span_is_shared_noop_without_ambient(self):
        assert current_span() is None
        scope_a = maybe_span("kernel.search")
        scope_b = maybe_span("kernel.dp")
        assert scope_a is scope_b  # the singleton fast path
        with scope_a as span:
            assert span is None
            scope_a.set(nodes=1)  # also a no-op, not an error

    def test_maybe_span_nests_and_restores_under_ambient(self):
        root = Span.new_root("request")
        with span_scope(root):
            with maybe_span("outer") as outer:
                assert current_span() is outer
                with maybe_span("inner", depth=2) as inner:
                    assert current_span() is inner
                    assert inner.parent_id == outer.span_id
                assert current_span() is outer
            assert current_span() is root
        assert current_span() is None
        assert [c.name for c in root.children] == ["outer"]
        assert [c.name for c in root.children[0].children] == ["inner"]

    def test_trace_log_is_bounded_and_searchable(self):
        log = TraceLog(capacity=2)
        exports = [Span.new_root(f"r{i}").export() for i in range(3)]
        for exported in exports:
            log.append(exported)
        assert len(log) == 2
        assert log.find(exports[0]["trace_id"]) is None  # evicted
        assert log.find(exports[2]["trace_id"])["name"] == "r2"
        assert log.last()["name"] == "r2"


# -- metrics --------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_gauge_histogram_exposition_parses(self):
        registry = MetricsRegistry()
        requests = registry.counter("t_requests_total", "Requests.", ("route",))
        requests.inc(3, route="dp")
        requests.inc(route="search")
        depth = registry.gauge("t_queue_depth", "Depth.")
        depth.set(4)
        depth.dec()
        latency = registry.histogram(
            "t_latency_ms", "Latency.", buckets=(1.0, 10.0)
        )
        for value in (0.5, 5.0, 50.0):
            latency.observe(value)
        text = registry.exposition()
        samples = assert_parses_as_prometheus(text)
        assert 't_requests_total{route="dp"} 3' in samples
        assert "t_queue_depth 3" in samples
        # Cumulative buckets with the +Inf catch-all, sum and count.
        assert 't_latency_ms_bucket{le="1"} 1' in samples
        assert 't_latency_ms_bucket{le="10"} 2' in samples
        assert 't_latency_ms_bucket{le="+Inf"} 3' in samples
        assert "t_latency_ms_sum 55.5" in samples
        assert "t_latency_ms_count 3" in samples
        snapshot = registry.snapshot()
        assert snapshot["t_requests_total"]["kind"] == "counter"
        json.dumps(snapshot)  # JSON-ready

    def test_label_escaping_survives_exposition(self):
        registry = MetricsRegistry()
        registry.counter("t_esc_total", "", ("name",)).inc(
            name='a"b\\c\nd'
        )
        assert_parses_as_prometheus(registry.exposition())

    def test_type_mismatch_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("t_family")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("t_family")

    def test_collectors_register_and_unregister(self):
        registry = MetricsRegistry()
        collector_counter = MetricsRegistry().counter("t_derived_total")
        collector_counter.inc(9)
        collector = lambda: (collector_counter,)  # noqa: E731
        registry.register_collector(collector)
        assert "t_derived_total 9" in registry.exposition()
        registry.unregister_collector(collector)
        assert "t_derived_total" not in registry.exposition()


class TestKernelCounters:
    def test_solve_populates_stats_kernel_and_the_registry(self):
        pipeline = SolverPipeline()
        solution = pipeline.solve(clique(3), random_graph(8, 0.7, seed=1))
        stats = solution.stats
        assert stats is not None and stats.kernel, (
            "an instrumented solve must carry its kernel counters"
        )
        exposition = default_registry().exposition()
        for key, value in stats.kernel.items():
            assert key in KERNEL_COUNTERS
            assert value >= 0
            assert kernel_counter_name(key) in exposition
        assert_parses_as_prometheus(exposition)

    def test_disabled_mode_records_nothing(self):
        previous = set_kernel_metrics_enabled(False)
        try:
            assert not kernel_metrics_enabled()
            with collect_kernel_counters() as bag:
                kcount("search.nodes", 100)
            assert bag == {}
        finally:
            set_kernel_metrics_enabled(previous)

    def test_nested_collection_scopes_shadow(self):
        with collect_kernel_counters() as outer:
            kcount("search.nodes", 1)
            with collect_kernel_counters() as inner:
                kcount("search.nodes", 5)
            kcount("search.backtracks", 2)
        assert inner == {"search.nodes": 5}
        assert outer == {"search.nodes": 1, "search.backtracks": 2}


# -- flight recorder ------------------------------------------------------


class TestFlightRecorder:
    def test_ring_bounds_and_counts(self):
        recorder = FlightRecorder(capacity=4)
        for index in range(6):
            recorder.record("request.admitted", seq=index)
        recorder.record("worker.crash", error="boom")
        assert len(recorder) == 4
        assert recorder.total_recorded == 7
        assert recorder.dropped == 3
        counts = recorder.counts()
        assert counts == {"request.admitted": 3, "worker.crash": 1}
        crash = recorder.events("worker.crash")[0]
        assert crash["error"] == "boom" and crash["seq"] == 7
        dump = recorder.dump()
        assert dump["capacity"] == 4 and dump["dropped"] == 3
        json.loads(recorder.to_json())

    def test_capacity_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_RECORDER_SIZE", "7")
        assert FlightRecorder().capacity == 7


# -- satellite: timing sources and the histogram move ---------------------


class TestTimingHygiene:
    def test_no_wall_clock_deltas_anywhere_in_src(self):
        """Every duration in the repo comes from ``perf_counter`` (or
        ``monotonic`` for deadlines) — ``time.time()`` drifts with NTP
        and breaks latency math, so it must not appear at all."""
        offenders = [
            str(path.relative_to(SRC_ROOT))
            for path in sorted(SRC_ROOT.rglob("*.py"))
            if "time.time()" in path.read_text(encoding="utf-8")
        ]
        assert offenders == []

    def test_latency_histogram_reexport_is_the_same_class(self):
        from repro.obs.metrics import LatencyHistogram as moved
        from repro.service import LatencyHistogram as via_service
        from repro.service.stats import LatencyHistogram as via_stats

        assert via_stats is moved and via_service is moved
        histogram = LatencyHistogram(max_samples=4)
        for value in (1.0, 2.0, 3.0, 4.0, 5.0):
            histogram.record(value)
        assert histogram.count == 5
        assert histogram.percentile(100) == 5.0


# -- logger hierarchy -----------------------------------------------------


class TestLoggerHierarchy:
    def test_root_has_nullhandler_and_children_nest(self):
        root = root_logger()
        assert root.name == "repro"
        assert any(
            isinstance(handler, logging.NullHandler)
            for handler in root.handlers
        )
        child = get_logger("kernel")
        assert child.name == "repro.kernel"
        assert child.parent is root



# -- calibration ----------------------------------------------------------


class _FakeStats:
    def __init__(self, plan, kernel, timings):
        self.plan = plan
        self.kernel = kernel
        self.timings = timings


class TestCalibration:
    def test_observe_solve_folds_plan_and_work_counter(self):
        log = CalibrationLog()
        log.observe_solve(
            _FakeStats(
                plan={"route": "search", "predicted_cost": 100.0},
                kernel={"search.nodes": 250, "search.backtracks": 3},
                timings={"total": 12.5},
            )
        )
        log.observe_solve(
            _FakeStats(
                plan={
                    "route": "dp",
                    "predicted_cost": 40.0,
                    "dp_fallback": "search-budget",
                },
                kernel={"dp.bag_cells": 20},
                timings={"total": 2.0},
            )
        )
        log.observe_solve(_FakeStats(plan=None, kernel=None, timings={}))
        assert len(log) == 2
        report = log.report()
        assert report["search"]["ratio_median"] == 2.5
        assert report["search"]["observed_median"] == 250
        assert report["dp"]["fallbacks"] == 1
        json.loads(log.to_json())

    def test_observed_work_picks_the_route_native_counter(self):
        kernel = {"search.nodes": 9, "dp.bag_cells": 4}
        assert observed_work("search", kernel) == 9
        assert observed_work("dp", kernel) == 4
        assert observed_work("pebble", kernel) is None
        assert observed_work("search", None) is None

    def test_planned_solve_folds_into_a_caller_log(self):
        # The solve path keeps no log: a caller folds solution.stats in,
        # as bench_p07_obs.py and run_all.py's P7 do.
        pipeline = SolverPipeline()
        solution = pipeline.solve(
            clique(3), random_graph(8, 0.7, seed=1), plan=True
        )
        assert solution.stats is not None and solution.stats.plan
        log = CalibrationLog()
        log.observe_solve(solution.stats)
        assert len(log) == 1
        row = log.rows()[-1]
        assert row["route"] == solution.stats.plan["route"]
        assert row["predicted_cost"] > 0

    def test_planned_datalog_solve_observes_pebble_steps(self):
        # The datalog route plays the k-pebble game (Theorem 4.2), so
        # its observed work is the game's step count.
        solution = SolverPipeline().solve(
            clique(4),
            clique(3),
            plan=True,
            try_canonical_datalog=3,
            width_threshold=1,
        )
        assert solution.stats.plan["route"] == "datalog"
        log = CalibrationLog()
        log.observe_solve(solution.stats)
        observed = log.rows()[-1]["observed"]
        assert observed is not None
        assert observed == solution.stats.kernel["pebble.steps"] > 0



# -- the service end-to-end (acceptance criteria) -------------------------


def _graph_instance():
    return clique(3), random_graph(10, 0.6, seed=5)


def _slow_instance():
    return clique(7), random_graph(26, 0.55, seed=2)


def _span_names(trace):
    names = []
    stack = [trace]
    while stack:
        node = stack.pop()
        names.append(node["name"])
        stack.extend(node.get("children", ()))
    return names


def _trace_ids(trace):
    ids = set()
    stack = [trace]
    while stack:
        node = stack.pop()
        ids.add(node["trace_id"])
        stack.extend(node.get("children", ()))
    return ids


class TestServiceTracing:
    def test_thread_solve_traces_without_processes(self):
        config = ServiceConfig(
            thread_workers=1, trace=True
        )

        async def scenario():
            async with SolveService(config) as service:
                await service.submit(*_graph_instance())
            return service

        service = asyncio.run(scenario())
        trace = service.trace_log.last()
        names = _span_names(trace)
        assert "backend.thread" in names
        assert "pipeline.solve" in names
        assert len(_trace_ids(trace)) == 1

    def test_coalesced_follower_links_to_the_leader_trace(self):
        config = ServiceConfig(
            thread_workers=1, trace=True
        )

        async def scenario():
            async with SolveService(config) as service:
                leader = asyncio.ensure_future(
                    service.submit(*_slow_instance())
                )
                await asyncio.sleep(0.05)  # the leader is dispatched
                follower = asyncio.ensure_future(
                    service.submit(*_slow_instance())
                )
                await asyncio.gather(leader, follower)
                await asyncio.sleep(0)  # drain done-callbacks
                assert service.stats.coalesce_hits == 1
            return service

        service = asyncio.run(scenario())
        traces = service.trace_log.dump()
        leaders = [t for t in traces if t["name"] == "request"]
        followers = [t for t in traces if t["name"] == "request.coalesced"]
        assert len(leaders) == 1 and len(followers) == 1
        link = followers[0]["attributes"]
        assert link["link_trace_id"] == leaders[0]["trace_id"]
        assert followers[0]["trace_id"] != leaders[0]["trace_id"]

    def test_tracing_off_leaves_no_spans(self):
        config = ServiceConfig(
            thread_workers=1, trace=False
        )

        async def scenario():
            async with SolveService(config) as service:
                await service.submit(*_graph_instance())
            return service

        service = asyncio.run(scenario())
        assert len(service.trace_log) == 0

    def test_trace_default_comes_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert ServiceConfig().trace is True
        monkeypatch.setenv("REPRO_TRACE", "0")
        assert ServiceConfig().trace is False

    def test_service_exposition_parses_with_service_families(self):
        config = ServiceConfig(thread_workers=1)

        async def scenario():
            async with SolveService(config) as service:
                await service.submit(*_graph_instance())
                text = service.exposition()
            return text

        text = asyncio.run(scenario())
        samples = assert_parses_as_prometheus(text)
        assert any(
            line.startswith(
                'repro_service_requests_total{outcome="completed"} 1'
            )
            for line in samples
        )
        assert any(
            line.startswith("repro_service_latency_ms{") for line in samples
        )
        # No breaker or per-backend family is exported.
        assert "repro_service_breaker_" not in text
        assert "repro_service_solves_total" not in text
        # Kernel counters share the same registry and exposition.
        assert "repro_kernel_" in text
