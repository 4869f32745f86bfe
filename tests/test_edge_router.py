"""The shard pipe, driven in-process through :class:`ShardRouter`.

The router talks to each shard over an unnamed socket pair with asyncio
streams at both ends.  These tests pin what that buys and what it must
survive: no thread is spent on pipe I/O on either side, a frame far
larger than the stream buffers crosses intact without wedging the
requests behind it, and a truncated frame is a crash like any other —
in-flight calls fail typed and the shard comes back.  Shutdown is
bounded: the drain grace bounds an in-flight solve, and a closing shard
fails its requests at once instead of waiting for a respawn.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import threading
import time

import pytest

from repro.core import solve
from repro.edge.router import RouterConfig, ShardRouter, _HEADER
from repro.exceptions import ShardCrashedError, SolveTimeoutError
from repro.structures.graphs import clique, cycle, random_graph

#: ``thread_workers`` a shard's service runs with unless overridden.
SHARD_THREAD_WORKERS = 2


def _run(config: RouterConfig, scenario):
    """Run ``scenario(router)`` against a started router, then drain it."""

    async def main():
        router = ShardRouter(config, loop=asyncio.get_running_loop())
        await router.start()
        try:
            result = await scenario(router)
        finally:
            await router.drain(10.0)
        # Drained means no reader task is left pending.
        assert asyncio.all_tasks() == {asyncio.current_task()}
        return result

    return asyncio.run(main())


def _thread_count(pid: int) -> int:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    raise AssertionError(f"no Threads: line for pid {pid}")


def test_pipe_io_spends_no_threads():
    before = set(threading.enumerate())
    shard_threads: list[int] = []

    async def serve(router):
        for n in range(3, 23):
            result = await router.solve(
                {"source": cycle(n), "target": clique(3)}
            )
            assert result["verdict"] is True
        # Measured while the router is up: the edge gained no thread.
        assert set(threading.enumerate()) - before == set()
        if os.path.exists(f"/proc/{os.getpid()}/status"):
            shard_threads.extend(
                _thread_count(state["pid"]) for state in router.shard_states()
            )

    _run(RouterConfig(num_shards=2), serve)
    # Each shard runs its main thread plus at most its service's pool.
    for count in shard_threads:
        assert count <= 1 + SHARD_THREAD_WORKERS


def test_large_frame_crosses_intact():
    big = {"source": cycle(58_000), "target": clique(2)}
    small = {"source": cycle(5), "target": clique(3)}
    frame = pickle.dumps((0, "solve", big), pickle.HIGHEST_PROTOCOL)
    assert len(frame) >= 1 << 20
    expected = solve(big["source"], big["target"], plan=True)
    assert expected.exists and len(expected.homomorphism) == 58_000

    async def serve(router):
        return await asyncio.gather(router.solve(big), router.solve(small))

    big_result, small_result = _run(RouterConfig(num_shards=1), serve)
    assert big_result["verdict"] is True
    assert big_result["witness"] == expected.homomorphism
    assert big_result["shard"] == small_result["shard"] == 0
    assert small_result["verdict"] is True


def test_truncated_frame_is_a_crash():
    slow = {"source": random_graph(100, 0.2, seed=17), "target": clique(4)}

    async def serve(router):
        handle = router._handles[0]
        old_process, old_generation = handle.process, handle.generation
        # The handle's own call: no crash retry hides the failure.
        in_flight = asyncio.ensure_future(handle.call("solve", slow))
        while handle.inflight == 0:
            await asyncio.sleep(0)
        # Half a frame, then EOF: the header promises 64 bytes, 5 arrive.
        handle.frames.reader.feed_data(_HEADER.pack(64) + b"\x80\x05abc")
        handle.frames.reader.feed_eof()
        with pytest.raises(ShardCrashedError):
            await in_flight
        await asyncio.wait_for(handle._alive.wait(), 60.0)
        assert handle.generation == old_generation + 1
        assert handle.process is not old_process
        assert handle.crashes == 1
        old_process.join(10.0)
        assert not old_process.is_alive()
        return await router.solve({"source": cycle(4), "target": clique(2)})

    result = _run(RouterConfig(num_shards=1), serve)
    assert result["verdict"] is True


#: K10 into a dense G(60, 0.6): runs for minutes without a deadline.
SLOW = {"source": clique(10), "target": random_graph(60, 0.6, seed=2)}


async def _start_slow(router) -> asyncio.Future:
    """Send ``SLOW`` through the router; return once it is in flight."""
    in_flight = asyncio.ensure_future(router.solve(dict(SLOW)))
    while router.shard_states()[0]["inflight"] == 0:
        await asyncio.sleep(0.01)
    return in_flight


def test_drain_grace_bounds_an_inflight_solve():
    async def serve(router):
        in_flight = await _start_slow(router)
        started = time.monotonic()
        clean = await router.drain(0.5)
        elapsed = time.monotonic() - started
        with pytest.raises(SolveTimeoutError):
            await in_flight
        return clean, elapsed

    clean, elapsed = _run(RouterConfig(num_shards=1), serve)
    assert clean is False
    assert elapsed < 10.0


def test_closing_shard_fails_inflight_requests_at_once():
    async def serve(router):
        handle = router._handles[0]
        in_flight = await _start_slow(router)
        draining = asyncio.ensure_future(router.drain(30.0))
        while not handle._closing:
            await asyncio.sleep(0)
        handle.process.kill()  # a crash mid-close: no respawn follows
        started = time.monotonic()
        with pytest.raises(ShardCrashedError):
            await asyncio.wait_for(in_flight, 5.0)
        assert time.monotonic() - started < 5.0
        assert await draining is False
        with pytest.raises(ShardCrashedError):
            await router.solve({"source": cycle(4), "target": clique(2)})

    _run(RouterConfig(num_shards=1), serve)
