"""Deterministic fault injection for the chaos suite.

The service's failure contract (every request ends in a parity-correct
answer or a typed error; deadlines propagate into the kernels) is only
trustworthy if its failure paths are *exercised*, and real failures — a
kernel bug, a slow dispatch, a table that will not fit — do not show up
on demand.  This module plants named injection points on the hot paths
and drives them from a seeded plan, so ``tests/test_chaos.py`` can
replay the exact same storm of kernel exceptions, delays, and budget
breaches on every run of a given seed.  (Process deaths are not
injected here: the edge chaos suite, ``tests/test_edge_chaos.py``,
SIGKILLs real shard processes instead.)

Design constraints, in order:

* **Zero cost when disarmed.**  Every hook compiles to one module-global
  read and a ``None`` test; no plan object, no dict lookup, no RNG.
  Production traffic never pays for the harness (the P3 throughput gate
  holds with the harness merely imported).
* **Deterministic per point.**  Each injection point draws from its own
  ``random.Random(f"{seed}:{point}")`` stream under a lock, so whether
  the *n*-th hit of a point fires depends only on the seed and *n* —
  not on how the scheduler interleaved other points.  (Which request
  suffers the *n*-th hit still depends on scheduling; the chaos suite
  therefore asserts *invariants* — every request terminates correctly —
  not specific victims.)

The planted points:

====================================  =======================================
``service.dispatch.delay``            sleep before executing a request
``kernel.compile.raise``              :class:`FaultInjectedError` from
                                      ``compile_target``
``decomp.budget``                     forced :class:`ResourceBudgetError`
                                      at the bag-table guard
====================================  =======================================
"""

from __future__ import annotations

import random
import threading
from typing import Mapping

from repro.exceptions import FaultInjectedError

__all__ = [
    "FaultPlan",
    "current",
    "delay_seconds",
    "fires",
    "install",
    "raise_fault",
    "uninstall",
]


class FaultPlan:
    """A seeded assignment of firing probabilities to injection points.

    ``points`` maps point names to probabilities in ``[0, 1]``; missing
    points never fire.  ``delay_ms`` bounds the uniform draw of the
    delay points.
    """

    def __init__(
        self,
        seed: int,
        points: Mapping[str, float],
        *,
        delay_ms: tuple[float, float] = (1.0, 25.0),
    ) -> None:
        self.seed = seed
        self.points = dict(points)
        self.delay_ms = (float(delay_ms[0]), float(delay_ms[1]))
        self._lock = threading.Lock()
        self._rngs: dict[str, random.Random] = {}
        #: Per-point counters of hits and fires (observability for tests).
        self.hits: dict[str, int] = {}
        self.fired: dict[str, int] = {}

    def _rng(self, point: str) -> random.Random:
        rng = self._rngs.get(point)
        if rng is None:
            rng = self._rngs[point] = random.Random(f"{self.seed}:{point}")
        return rng

    def fires(self, point: str) -> bool:
        """Whether this hit of ``point`` fires (one seeded draw)."""
        probability = self.points.get(point, 0.0)
        if probability <= 0.0:
            return False
        with self._lock:
            self.hits[point] = self.hits.get(point, 0) + 1
            fired = self._rng(point).random() < probability
            if fired:
                self.fired[point] = self.fired.get(point, 0) + 1
            return fired

    def delay(self, point: str) -> float:
        """Seconds to sleep at a delay point; ``0.0`` when it did not fire."""
        if not self.fires(point):
            return 0.0
        low, high = self.delay_ms
        with self._lock:
            return self._rng(point + ".amount").uniform(low, high) / 1000.0


#: The installed plan; ``None`` (the default, always, in production)
#: short-circuits every hook to a single global read.
_plan: FaultPlan | None = None


def install(plan: FaultPlan) -> None:
    """Arm ``plan`` in this process."""
    global _plan
    _plan = plan


def uninstall() -> None:
    """Disarm fault injection."""
    global _plan
    _plan = None


def current() -> FaultPlan | None:
    return _plan


def fires(point: str) -> bool:
    """Hook: one seeded draw at ``point``; always ``False`` when disarmed."""
    plan = _plan
    return plan is not None and plan.fires(point)


def delay_seconds(point: str) -> float:
    """Hook: the sleep a delay point asks for; ``0.0`` when disarmed."""
    plan = _plan
    return plan.delay(point) if plan is not None else 0.0


def raise_fault(point: str) -> None:
    """Hook: raise :class:`FaultInjectedError` when ``point`` fires."""
    plan = _plan
    if plan is not None and plan.fires(point):
        raise FaultInjectedError(f"injected fault at {point!r}")
