"""The built-in routes of the uniform solver, one module per island.

Each module implements the :class:`repro.core.pipeline.Strategy` protocol
for one of the paper's tractable cases (plus the two total fallbacks).
:func:`default_strategies` assembles them in the seed dispatcher's
preference order — the order is semantic: Schaefer targets are checked
trivial-first (a 0-valid target needs no search at all), structure-based
routes come before search, and backtracking is the total fallback.
The Schaefer islands claim only targets whose universe is exactly
{0, 1}: their algorithms answer over both values, so a target over {0}
or {1} alone goes to the general routes, which map into its universe.

Adding an island is a drop-in: write a module with an ``applies``/``run``
class and splice an instance in via :meth:`SolverPipeline.register`.
"""

from __future__ import annotations

from repro.core.strategies.affine import AffineStrategy
from repro.core.strategies.backtracking import BacktrackingStrategy
from repro.core.strategies.bijunctive import BijunctiveStrategy
from repro.core.strategies.dual_horn import DualHornStrategy
from repro.core.strategies.horn import HornStrategy
from repro.core.strategies.pebble import PebbleRefutationStrategy
from repro.core.strategies.planner import WidthPlannerStrategy
from repro.core.strategies.treewidth import TreewidthStrategy
from repro.core.strategies.trivial import (
    OneValidStrategy,
    ZeroValidStrategy,
)

__all__ = [
    "AffineStrategy",
    "BacktrackingStrategy",
    "BijunctiveStrategy",
    "CONTAINMENT_ROUTE",
    "DATALOG_ROUTE",
    "DualHornStrategy",
    "HornStrategy",
    "OneValidStrategy",
    "PebbleRefutationStrategy",
    "TreewidthStrategy",
    "WidthPlannerStrategy",
    "ZeroValidStrategy",
    "base_route",
    "default_strategies",
    "route_names",
    "service_route_names",
]

#: The service-level route label for query–query (containment) traffic.
#: Containment requests are homomorphism solves underneath — a pipeline
#: strategy still decides each one — but the serving layer accounts for
#: them as their own route so query-plane latency is separable from
#: plain solve traffic.
CONTAINMENT_ROUTE = "containment"

#: The service-level route label for canonical-Datalog (Theorem 4.2)
#: traffic admitted via ``SolveService.submit_datalog``.  Underneath it
#: is a planner-routed solve, but the serving layer accounts for it as
#: its own bucket so Datalog-plane latency is separable.
DATALOG_ROUTE = "datalog"


def default_strategies():
    """Fresh instances of the built-in routes, in dispatch order."""
    return [
        ZeroValidStrategy(),
        OneValidStrategy(),
        HornStrategy(),
        DualHornStrategy(),
        BijunctiveStrategy(),
        AffineStrategy(),
        WidthPlannerStrategy(),
        TreewidthStrategy(),
        PebbleRefutationStrategy(),
        BacktrackingStrategy(),
    ]


def route_names() -> tuple[str, ...]:
    """The base route names of the default registry, in dispatch order.

    The solve service pre-registers these as its per-route latency
    buckets, so a stats snapshot lists every built-in route even before
    (or without) traffic on it.
    """
    return tuple(strategy.name for strategy in default_strategies())


def service_route_names() -> tuple[str, ...]:
    """Every latency-bucket route a solve service pre-registers.

    The pipeline's strategy routes plus the service-level
    :data:`CONTAINMENT_ROUTE` and :data:`DATALOG_ROUTE`, so a stats
    snapshot enumerates the query- and Datalog-plane buckets even before
    (or without) traffic on them.
    """
    return route_names() + (CONTAINMENT_ROUTE, DATALOG_ROUTE)


def base_route(strategy_label: str) -> str:
    """Collapse a parametrized strategy label to its route name.

    Solutions carry labels like ``"treewidth-dp(width=2)"``; per-route
    accounting buckets them by the route, not the parameters.
    """
    return strategy_label.split("(", 1)[0]
