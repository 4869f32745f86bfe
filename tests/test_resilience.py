"""Unit tests for the failure-path primitives.

Covers the building blocks the chaos suite (``tests/test_chaos.py``)
exercises end to end: deadlines and cooperative cancellation tokens,
and the seeded fault-injection plan.
"""

from __future__ import annotations

import os

import pytest

from repro import faultinject
from repro.exceptions import FaultInjectedError, SolveTimeoutError
from repro.core.cancellation import (
    CancellationToken,
    Deadline,
    cancel_scope,
    checkpoint,
    combine_deadlines,
    current_token,
)
from repro.faultinject import FaultPlan


class TestDeadline:
    def test_after_and_remaining(self):
        deadline = Deadline.after(10.0)
        assert 9.0 < deadline.remaining() <= 10.0
        assert not deadline.expired()
        assert Deadline.after(-0.001).expired()

    def test_extend_to_later_wins(self):
        deadline = Deadline.after(1.0)
        deadline.extend_to(Deadline.after(10.0))
        assert deadline.remaining() > 5.0
        before = deadline.expires_at
        deadline.extend_to(Deadline.after(0.5))  # earlier: no-op
        deadline.extend_to(None)  # None: no-op
        assert deadline.expires_at == before

    def test_combine_loosest_wins(self):
        short, long = Deadline.after(1.0), Deadline.after(10.0)
        assert combine_deadlines(short, long) is long
        assert combine_deadlines(long, short) is long
        assert combine_deadlines(None, short) is None
        assert combine_deadlines(short, None) is None
        assert combine_deadlines(None, None) is None


class TestCancellationToken:
    def test_unbounded_token_never_raises(self):
        token = CancellationToken()
        token.check()
        assert not token.expired()

    def test_cancel_makes_check_raise(self):
        token = CancellationToken()
        token.cancel()
        assert token.expired()
        with pytest.raises(SolveTimeoutError):
            token.check()

    def test_expired_deadline_makes_check_raise(self):
        token = CancellationToken(Deadline.after(-0.001))
        with pytest.raises(SolveTimeoutError):
            token.check()

    def test_extension_rescues_a_running_token(self):
        # The coalescing rule in miniature: a more patient waiter
        # attaches, the shared deadline moves out, and the running
        # computation's next check passes instead of raising.
        token = CancellationToken(Deadline.after(-0.001))
        token.deadline.extend_to(Deadline.after(10.0))
        token.check()

    def test_scope_installs_and_restores(self):
        assert current_token() is None
        outer, inner = CancellationToken(), CancellationToken()
        with cancel_scope(outer):
            assert current_token() is outer
            with cancel_scope(inner):
                assert current_token() is inner
            assert current_token() is outer
        assert current_token() is None

    def test_checkpoint_checks_the_ambient_token(self):
        checkpoint()  # no scope: no-op
        token = CancellationToken()
        token.cancel()
        with cancel_scope(token):
            with pytest.raises(SolveTimeoutError):
                checkpoint()


class TestFaultPlan:
    def test_per_point_streams_ignore_interleaving(self):
        # The n-th draw of a point depends only on (seed, point, n) —
        # hammering another point in between must not change it.
        plain = FaultPlan(7, {"a": 0.5, "b": 0.5})
        reference = [plain.fires("a") for _ in range(50)]
        noisy = FaultPlan(7, {"a": 0.5, "b": 0.5})
        interleaved = []
        for _ in range(50):
            noisy.fires("b")
            interleaved.append(noisy.fires("a"))
            noisy.fires("b")
        assert interleaved == reference

    def test_different_seeds_differ(self):
        draws = lambda seed: [  # noqa: E731
            FaultPlan(seed, {"a": 0.5}).fires("a") for _ in range(64)
        ]
        assert draws(1) != draws(2)

    def test_counters_and_missing_points(self):
        plan = FaultPlan(0, {"always": 1.0, "never": 0.0})
        assert plan.fires("always") and not plan.fires("never")
        assert not plan.fires("unknown")
        assert plan.hits == {"always": 1}  # zero-probability: no draw
        assert plan.fired == {"always": 1}

    def test_delay_stays_in_bounds(self):
        plan = FaultPlan(0, {"d": 1.0}, delay_ms=(2.0, 9.0))
        for _ in range(20):
            assert 0.002 <= plan.delay("d") <= 0.009
        assert FaultPlan(0, {}).delay("d") == 0.0

    def test_install_uninstall_and_env_round_trip(self):
        environ = dict(os.environ)
        assert faultinject.current() is None
        assert not faultinject.fires("x")
        assert faultinject.delay_seconds("x") == 0.0
        faultinject.raise_fault("x")  # disarmed: no-op
        plan = FaultPlan(1, {"x": 1.0})
        try:
            faultinject.install(plan)
            assert faultinject.current() is plan
            with pytest.raises(FaultInjectedError):
                faultinject.raise_fault("x")
        finally:
            faultinject.uninstall()
        assert faultinject.current() is None
        # Plans arm this process only: nothing is exported to, or left
        # behind in, the environment.
        assert dict(os.environ) == environ
