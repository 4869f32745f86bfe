"""One typed configuration from edge to shard, and the limits it sets.

``EdgeConfig`` holds a ``RouterConfig``, which holds the frozen
``ServiceConfig`` every shard runs.  These tests read each field back
from a live shard through ``/v1/healthz?full=1``, pin the construction
errors and the router's ownership of ``store_path``, and drive the
limits the tree configures over real HTTP: the edge's
``max_open_requests`` and a shard's ``max_pending`` (both 429 +
``retry-after``) and a shard's ``default_timeout`` (504).
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time

import pytest

from _edge_harness import RunningEdge, wait_for
from repro.edge import EdgeClient, EdgeConfig, RouterConfig
from repro.edge import protocol
from repro.service import ServiceConfig
from repro.structures.graphs import clique, cycle, random_graph
from repro.structures.io import structure_to_dict

#: K10 into a dense G(60, 0.6): runs for minutes without a deadline.
SLOW_SOURCE = clique(10)


def _slow(seed: int, **extra) -> dict:
    return {
        "source": structure_to_dict(SLOW_SOURCE),
        "target": structure_to_dict(random_graph(60, 0.6, seed=seed)),
        **extra,
    }


def _full_health(edge: RunningEdge) -> dict:
    with EdgeClient(edge.host, edge.port, timeout=60.0) as client:
        status, _headers, body = client.request("GET", "/v1/healthz?full=1", None)
    assert status == 200
    return json.loads(body)


def _shard_inflight(edge: RunningEdge) -> int:
    with EdgeClient(edge.host, edge.port, timeout=60.0) as client:
        return sum(shard["inflight"] for shard in client.healthz()["shards"])


class _InFlight:
    """One slow request held open on its own connection."""

    def __init__(self, edge: RunningEdge, payload: dict) -> None:
        self.response: tuple[int, dict, bytes] | None = None

        def send() -> None:
            with EdgeClient(edge.host, edge.port, timeout=120.0) as client:
                self.response = client.request(
                    "POST", "/v1/solve", protocol.dumps(payload)
                )

        self.thread = threading.Thread(target=send, daemon=True)
        self.thread.start()
        wait_for(
            lambda: _shard_inflight(edge) >= 1,
            timeout=60,
            what="the slow request to reach its shard",
        )

    def join(self) -> tuple[int, dict, bytes]:
        self.thread.join(120)
        assert self.response is not None
        return self.response


def _error(body: bytes) -> dict:
    return json.loads(body)["error"]


# -- the typed tree ----------------------------------------------------------


def test_every_service_field_reaches_the_shard():
    shard_default = RouterConfig().service
    service = ServiceConfig(
        thread_workers=3,
        max_pending=17,
        default_timeout=42.5,
        cache_maxsize=123,
        plan=False,
        retry_budget=5,
        trace=True,
        store_path=None,
        store_max_bytes=1 << 20,
        store_warm=False,
        drain_timeout=12.5,
    )
    set_here = {
        f.name for f in dataclasses.fields(ServiceConfig)
    } - {"store_path", "process_workers"}
    for name in set_here:
        assert getattr(service, name) != getattr(shard_default, name), name

    config = EdgeConfig(router=RouterConfig(num_shards=2, service=service))
    with RunningEdge(config) as edge:
        shards = _full_health(edge)["shards"]
    assert [shard["index"] for shard in shards] == [0, 1]
    for shard in shards:
        assert shard["config"] == dataclasses.asdict(service)


def test_misspelt_or_removed_field_is_a_type_error():
    with pytest.raises(TypeError):
        ServiceConfig(thread_worker=2)
    with pytest.raises(TypeError):
        RouterConfig(service_options={"plan": True})
    with pytest.raises(TypeError):
        RouterConfig(queue_limit=64)
    with pytest.raises(TypeError):
        RouterConfig(retry_budget=0)
    with pytest.raises(TypeError):
        EdgeConfig(num_shards=2)


def test_store_less_router_ignores_repro_store(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env-store"))
    service = ServiceConfig(plan=True, thread_workers=1)
    assert service.store_path == str(tmp_path / "env-store")
    config = EdgeConfig(router=RouterConfig(num_shards=2, service=service))
    with RunningEdge(config) as edge:
        shards = _full_health(edge)["shards"]
    assert [shard["config"]["store_path"] for shard in shards] == [None, None]
    assert not (tmp_path / "env-store").exists()


def test_shard_default_is_what_the_ledger_measures(monkeypatch):
    from perfbench.ledger import _shard_service_config

    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_STORE_MAX_BYTES", raising=False)
    assert RouterConfig().service == _shard_service_config()


# -- the limits it sets, over HTTP -----------------------------------------


def test_edge_ceiling_answers_429():
    config = EdgeConfig(
        router=RouterConfig(num_shards=1), max_open_requests=1
    )
    with RunningEdge(config) as edge:
        slow = _InFlight(edge, _slow(seed=2, timeout=5.0))
        with EdgeClient(edge.host, edge.port) as client:
            status, headers, body = client.request(
                "POST",
                "/v1/solve",
                protocol.dumps(
                    {
                        "source": structure_to_dict(cycle(4)),
                        "target": structure_to_dict(clique(2)),
                    }
                ),
            )
        assert status == 429
        assert headers["retry-after"] == "1"
        assert _error(body)["type"] == "ServiceOverloadedError"
        status, _headers, body = slow.join()
        assert status == 504
        assert _error(body)["type"] == "SolveTimeoutError"
        assert edge.sentry.messages() == []


def test_shard_ceiling_answers_429_through_the_pipe():
    service = ServiceConfig(
        plan=True, thread_workers=1, max_pending=1, store_path=None
    )
    config = EdgeConfig(router=RouterConfig(num_shards=1, service=service))
    with RunningEdge(config) as edge:
        slow = _InFlight(edge, _slow(seed=2, timeout=5.0))
        with EdgeClient(edge.host, edge.port) as client:
            second = _slow(seed=3)
            status, headers, body = client.request(
                "POST", "/v1/solve", protocol.dumps(second)
            )
            assert status == 429
            assert headers["retry-after"] == "1"
            assert _error(body)["type"] == "ServiceOverloadedError"
            assert "max_pending=1" in _error(body)["message"]

            batch_status, _headers, batch_body = client.request(
                "POST", "/v1/batch", protocol.dumps([{"op": "solve", **second}])
            )
        assert batch_status == 200
        assert json.loads(batch_body) == [json.loads(body)]
        status, _headers, body = slow.join()
        assert status == 504
        assert edge.sentry.messages() == []


def test_shard_default_timeout_bounds_a_request_without_one():
    service = ServiceConfig(
        plan=True,
        thread_workers=2,
        max_pending=256,
        default_timeout=0.5,
        store_path=None,
    )
    config = EdgeConfig(router=RouterConfig(num_shards=1, service=service))
    with RunningEdge(config) as edge:
        with EdgeClient(edge.host, edge.port, timeout=60.0) as client:
            started = time.monotonic()
            status, _headers, body = client.request(
                "POST", "/v1/solve", protocol.dumps(_slow(seed=2))
            )
            elapsed = time.monotonic() - started
    assert status == 504
    assert _error(body)["type"] == "SolveTimeoutError"
    assert elapsed < 5.0
