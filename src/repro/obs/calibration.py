"""Plan-vs-actual calibration: did the planner's cost guess hold up?

A :class:`CalibrationLog` folds planned solves' ``SolveStats`` into
observations: the route the planner chose, the cost it predicted
(:class:`repro.kernel.estimate.Plan`), and what the kernel *actually
did* — the work counter native to that route (search nodes for
backtracking, bag cells for the treewidth DP, pebble steps for the
pebble route) plus wall latency.  The solve path writes no log: ``benchmarks/bench_p07_obs.py``
and ``benchmarks/run_all.py`` (P7) each build their own from
``solution.stats`` and turn it into per-route calibration tables
(median predicted vs. median observed, ratio spread), the evidence base
for replacing the heuristic cost model with theory-backed bounds.

The log is bounded and thread-safe.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from collections.abc import Mapping
from statistics import median
from typing import Any

__all__ = ["CalibrationLog", "observed_work"]

#: Which kernel counter measures the "work" a route predicted.
ROUTE_WORK_COUNTER: dict[str, str] = {
    "search": "search.nodes",
    "dp": "dp.bag_cells",
    "pebble": "pebble.steps",
}


def observed_work(route: str, kernel: Mapping[str, int] | None) -> int | None:
    """The route-native observed work counter, if the solve recorded one."""
    if not kernel:
        return None
    counter = ROUTE_WORK_COUNTER.get(route)
    if counter is None:
        return None
    value = kernel.get(counter)
    return int(value) if value is not None else None


class CalibrationLog:
    """Bounded, thread-safe log of (plan, observed) pairs."""

    DEFAULT_CAPACITY = 4096

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._lock = threading.Lock()
        self._rows: deque[dict[str, Any]] = deque(maxlen=capacity)

    def observe_solve(self, stats: Any) -> None:
        """Fold one finished ``SolveStats`` in, if it carries a plan."""
        plan = getattr(stats, "plan", None)
        if not plan:
            return
        route = plan.get("route")
        predicted = plan.get("predicted_cost")
        if route is None or predicted is None:
            return
        timings = getattr(stats, "timings", None) or {}
        row = {
            "route": route,
            "predicted_cost": float(predicted),
            "observed": observed_work(route, getattr(stats, "kernel", None)),
            "total_ms": float(timings.get("total", 0.0)),  # already in ms
            "fallback": any(key.endswith("_fallback") for key in plan),
        }
        with self._lock:
            self._rows.append(row)

    def rows(self, route: str | None = None) -> list[dict[str, Any]]:
        with self._lock:
            snapshot = list(self._rows)
        if route is None:
            return snapshot
        return [row for row in snapshot if row["route"] == route]

    def __len__(self) -> int:
        with self._lock:
            return len(self._rows)

    def report(self) -> dict[str, Any]:
        """Per-route calibration summary (JSON-ready).

        ``ratio`` statistics are ``observed / predicted`` over rows
        where both sides are positive — a well-calibrated model keeps
        the median ratio stable across instance families even if its
        absolute scale is off.
        """
        by_route: dict[str, list[dict[str, Any]]] = {}
        for row in self.rows():
            by_route.setdefault(row["route"], []).append(row)
        report: dict[str, Any] = {}
        for route, rows in sorted(by_route.items()):
            predicted = [row["predicted_cost"] for row in rows]
            observed = [
                row["observed"] for row in rows if row["observed"] is not None
            ]
            latencies = [row["total_ms"] for row in rows]
            ratios = [
                row["observed"] / row["predicted_cost"]
                for row in rows
                if row["observed"] and row["predicted_cost"] > 0
            ]
            entry: dict[str, Any] = {
                "count": len(rows),
                "fallbacks": sum(1 for row in rows if row["fallback"]),
                "predicted_median": round(median(predicted), 2),
                "latency_median_ms": round(median(latencies), 4),
            }
            if observed:
                entry["observed_median"] = median(observed)
            if ratios:
                entry["ratio_median"] = round(median(ratios), 4)
                entry["ratio_min"] = round(min(ratios), 4)
                entry["ratio_max"] = round(max(ratios), 4)
            report[route] = entry
        return report

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.report(), indent=indent, sort_keys=True)
