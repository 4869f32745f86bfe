"""Seeded fault points for the chaos suite, patched in from the test side.

The service's failure contract (every request ends in a parity-correct
answer or a typed error; deadlines propagate into the kernels) is only
trustworthy if its failure paths are *exercised*, and real failures — a
kernel bug, a slow dispatch, a table that will not fit — do not show up
on demand.  Production code carries no injection hooks, so
:func:`armed` reaches three points with :mod:`unittest.mock` and drives
them from a seeded :class:`FaultPlan`:

==========================  ==============================================
``kernel.compile.raise``    :class:`InjectedFault` from ``compile_target``
                            where the pipeline's structure cache calls it
                            on a miss (``repro.core.pipeline``)
``decomp.budget``           the decomposition DP's real bag-table budget
                            guard trips (:class:`ResourceBudgetError`)
``service.dispatch.delay``  a sleep before ``SolveService._thread_solve``
==========================  ==============================================

Each point draws from its own ``random.Random(f"{seed}:{point}")``
stream under a lock, so whether the *n*-th hit of a point fires depends
only on the seed and *n* — not on how the scheduler interleaved other
points.  Which request suffers the *n*-th hit still depends on
scheduling, so the chaos suite asserts invariants, not victims.
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import contextmanager
from typing import Iterator, Mapping
from unittest import mock

import repro.core.pipeline as pipeline_module
import repro.kernel.decomp as decomp
from repro.exceptions import ReproError
from repro.service import SolveService


class InjectedFault(ReproError):
    """A seeded fault point fired (only ever raised under :func:`armed`)."""


class FaultPlan:
    """A seeded assignment of firing probabilities to fault points.

    ``points`` maps point names to probabilities in ``[0, 1]``; missing
    points never fire.  ``delay_ms`` bounds the uniform draw of the
    delay point.
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
        #: Per-point counters of hits and fires.
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


class _DrawnBudget(int):
    """``decomp.MAX_TABLE_CELLS`` whose guard check also draws a fault.

    The guard reads ``worst_table > budget``.  For an ``int`` subclass
    on the right, Python tries the reflected ``budget < worst_table``
    first, so each guard check is one draw at ``decomp.budget`` on top
    of the real comparison — and a fire trips the real guard.
    """

    plan: FaultPlan

    def __new__(cls, value: int, plan: FaultPlan) -> "_DrawnBudget":
        budget = super().__new__(cls, value)
        budget.plan = plan
        return budget

    def __lt__(self, other):
        return int.__lt__(self, other) or self.plan.fires("decomp.budget")


@contextmanager
def armed(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Patch the three fault points to draw from ``plan``; undo on exit."""
    compile_target = pipeline_module.compile_target
    thread_solve = SolveService._thread_solve

    def faulty_compile_target(target):
        if plan.fires("kernel.compile.raise"):
            raise InjectedFault("injected fault at 'kernel.compile.raise'")
        return compile_target(target)

    def delayed_thread_solve(service, request):
        delay = plan.delay("service.dispatch.delay")
        if delay > 0.0:
            time.sleep(delay)
        return thread_solve(service, request)

    budget = _DrawnBudget(decomp.MAX_TABLE_CELLS, plan)
    with mock.patch.object(
        pipeline_module, "compile_target", faulty_compile_target
    ), mock.patch.object(decomp, "MAX_TABLE_CELLS", budget), mock.patch.object(
        SolveService, "_thread_solve", delayed_thread_solve
    ):
        yield plan
