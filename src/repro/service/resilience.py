"""Retry classification and circuit breakers for the solve service.

The service's failure handling follows one rule: *an error that names a
transient cause is worth retrying; an error that names a structural
cause is worth routing around.*  This module supplies both halves:

* :func:`classify` — maps an exception from one solve attempt to a
  :class:`FailureKind`, deciding whether the attempt is retried within
  the request's remaining deadline and which breaker (if any) records
  the failure;
* :class:`CircuitBreaker` — a classic closed → open → half-open machine,
  one per degradable route.  ``threshold`` consecutive failures open the
  breaker; after ``cooldown`` seconds one *probe* request is let through
  (half-open); its outcome closes or re-opens the breaker.  While open,
  the service degrades the route to its semantically equivalent
  fallback — compiled kernel → legacy engine, canonical Datalog →
  planner search — so answers stay exact, only slower.

Every breaker method runs on the service's event-loop thread, so the
state machine needs no locking; the optional ``on_transition`` callback
is how :class:`~repro.service.stats.ServiceStats` observes transitions
without the breaker importing the stats module.
"""

from __future__ import annotations

import time
from enum import Enum
from typing import Callable

from repro.exceptions import (
    FaultInjectedError,
    ResourceBudgetError,
    SolveTimeoutError,
)
from repro.obs.logs import get_logger

__all__ = ["BreakerState", "CircuitBreaker", "FailureKind", "classify"]

_log = get_logger("service.resilience")


class BreakerState(str, Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """A per-route closed → open → half-open failure breaker.

    ``allow()`` is the gate: ``True`` means "take the guarded route".
    It has a side effect only at the open → half-open boundary (it
    claims the single probe slot), so callers must only consult it when
    they would actually take the route — a request that never asked for
    canonical Datalog must not consume the datalog breaker's probe.
    """

    __slots__ = (
        "name",
        "threshold",
        "cooldown",
        "_state",
        "_failures",
        "_opened_at",
        "_probing",
        "transitions",
        "on_transition",
        "_clock",
    )

    def __init__(
        self,
        name: str,
        *,
        threshold: int = 5,
        cooldown: float = 1.0,
        on_transition: Callable[[str, BreakerState], None] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError("threshold must be at least 1")
        self.name = name
        self.threshold = threshold
        self.cooldown = cooldown
        self._state = BreakerState.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False
        #: Cumulative transition counts keyed by the state entered.
        self.transitions: dict[str, int] = {}
        self.on_transition = on_transition
        self._clock = clock

    @property
    def state(self) -> BreakerState:
        return self._state

    def _transition(self, state: BreakerState) -> None:
        self._state = state
        self.transitions[state.value] = self.transitions.get(state.value, 0) + 1
        _log.warning(
            "circuit breaker %r entered %s",
            self.name,
            state.value,
            extra={
                "event": "breaker.transition",
                "breaker": self.name,
                "state": state.value,
                "failures": self._failures,
            },
        )
        if self.on_transition is not None:
            self.on_transition(self.name, state)

    def allow(self) -> bool:
        """May the caller take the guarded route right now?"""
        if self._state is BreakerState.CLOSED:
            return True
        if self._state is BreakerState.OPEN:
            if self._clock() - self._opened_at >= self.cooldown:
                self._transition(BreakerState.HALF_OPEN)
                self._probing = True
                return True
            return False
        # Half-open: exactly one probe in flight at a time.
        if self._probing:
            return False
        self._probing = True
        return True

    def record_success(self) -> None:
        """The guarded route worked; close (or stay closed and reset)."""
        self._failures = 0
        self._probing = False
        if self._state is not BreakerState.CLOSED:
            self._transition(BreakerState.CLOSED)

    def record_failure(self) -> None:
        """The guarded route failed; count toward (re)opening."""
        self._probing = False
        if self._state is BreakerState.HALF_OPEN:
            # The probe failed: straight back to open, fresh cooldown.
            self._opened_at = self._clock()
            self._transition(BreakerState.OPEN)
            return
        self._failures += 1
        if self._state is BreakerState.CLOSED and self._failures >= self.threshold:
            self._opened_at = self._clock()
            self._transition(BreakerState.OPEN)

    def snapshot(self) -> dict:
        return {
            "state": self._state.value,
            "failures": self._failures,
            "transitions": dict(self.transitions),
        }


class FailureKind(Enum):
    """What one failed attempt means for the request's next attempt."""

    #: Worth another attempt as-is (an injected transient fired) — the
    #: cause is not a property of the instance.
    TRANSIENT = "transient"
    #: Worth another attempt with the route degraded (strip the canonical
    #: Datalog ask) — the cause is a budget the fallback route avoids.
    DEGRADE_DATALOG = "degrade_datalog"
    #: Worth another attempt only if the request's deadline was extended
    #: (a coalesced waiter attached with more patience) — otherwise final.
    TIMEOUT = "timeout"
    #: Final: retrying reproduces the same answer (a genuine error).
    PERMANENT = "permanent"


def classify(exc: BaseException) -> tuple[FailureKind, str | None]:
    """Map one attempt's exception to (kind, breaker name or ``None``).

    :class:`FaultInjectedError` is transient (the *next* attempt may
    land on a healthy code path);
    :class:`ResourceBudgetError` is structural but *degradable* — the
    fallback route avoids the table that would not fit;
    :class:`SolveTimeoutError` is retryable only with new budget, which
    the caller checks against the request's live deadline.  Everything
    else is permanent: the same instance will fail the same way.
    """
    if isinstance(exc, FaultInjectedError):
        return FailureKind.TRANSIENT, "kernel"
    if isinstance(exc, ResourceBudgetError):
        return FailureKind.DEGRADE_DATALOG, "datalog"
    if isinstance(exc, SolveTimeoutError):
        return FailureKind.TIMEOUT, None
    return FailureKind.PERMANENT, None
