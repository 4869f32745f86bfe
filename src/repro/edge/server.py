"""The edge server: five endpoints in front of the shard router.

================== ====== =====================================================
endpoint           method semantics
================== ====== =====================================================
``/v1/solve``       POST  JSON homomorphism instance → verdict + witness
``/v1/containment`` POST  JSON ``q1``/``q2`` rule texts → Theorem 2.1 verdict
``/v1/datalog``     POST  JSON instance + ``k`` → Theorem 4.2 verdict
``/v1/batch``       POST  JSON array of op objects → JSON array of results
``/v1/metrics``     GET   Prometheus text: the edge's :mod:`repro.obs`
                          registry + the shards' kernel counters merged
                          in as ``shard``-labelled series
``/v1/healthz``     GET   liveness + per-shard states (pids, generations)
================== ====== =====================================================

One admission ceiling per process, each answering **429 +
Retry-After**: the edge's ``max_open_requests``, and each shard
service's ``max_pending``, whose ``ServiceOverloadedError`` crosses
the shard pipe typed.  A *draining* edge (SIGTERM, or
:meth:`EdgeServer.drain` directly) instead answers **503 + Retry-After**
on everything but ``/v1/metrics`` and ``/v1/healthz`` while in-flight
requests run to completion — the shutdown contract
``SolveService.drain`` promises, finally reachable from a signal.

Every error a request can hit leaves as a typed JSON envelope
(``{"error": {"type", "status", "message"}}``) with the status from
:data:`repro.edge.protocol.ERROR_STATUS` — a malformed frame, a crashed
shard, or an overload can never surface as an unhandled exception; the
conformance suite asserts the server log stays clean while it fuzzes.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable

from repro.exceptions import (
    EdgeProtocolError,
    ReproError,
    ServiceOverloadedError,
)
from repro.edge import protocol
from repro.edge.http import HttpRequest, read_request, response_bytes
from repro.edge.router import RouterConfig, ShardRouter
from repro.obs.metrics import KERNEL_COUNTERS, default_registry

logger = logging.getLogger("repro.edge.server")

__all__ = ["EdgeConfig", "EdgeServer"]

_ROUTES = frozenset({"solve", "containment", "datalog", "batch"})


@dataclass(frozen=True)
class EdgeConfig:
    """Tuning knobs of an :class:`EdgeServer`.

    ``port=0`` binds an ephemeral port (read it back from
    ``server.port`` — the tests do).  ``router`` is the fleet behind
    the edge, each shard's ``ServiceConfig`` included (see
    :class:`~repro.edge.router.RouterConfig`).  ``max_open_requests``
    is the edge process's admission ceiling.  ``retry_after`` is the
    hint sent with every 429/503.
    """

    host: str = "127.0.0.1"
    port: int = 0
    router: RouterConfig = field(default_factory=RouterConfig)
    max_body_bytes: int = 8 * 1024 * 1024
    read_timeout: float = 30.0
    max_open_requests: int = 256
    retry_after: int = 1
    batch_max_items: int = 256
    drain_timeout: float = 30.0


class EdgeServer:
    """One edge process: HTTP front door + fingerprint-sharded router."""

    def __init__(self, config: EdgeConfig | None = None) -> None:
        self.config = config or EdgeConfig()
        self.router: ShardRouter | None = None
        self._server: asyncio.base_events.Server | None = None
        self._open_requests = 0
        self._draining = False
        self._drained = asyncio.Event()
        self._drained.set()
        registry = default_registry()
        self._requests_total = registry.counter(
            "repro_edge_requests_total",
            "Requests answered by the edge, by route and status.",
            labelnames=("route", "status"),
        )
        self._latency = {
            route: registry.histogram(
                f"repro_edge_{route}_latency_ms",
                f"Edge-observed latency of /v1/{route} in milliseconds.",
            )
            for route in ("solve", "containment", "datalog", "batch")
        }
        self._open_gauge = registry.gauge(
            "repro_edge_open_requests",
            "Requests currently open on the edge.",
        )

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> "EdgeServer":
        self.router = ShardRouter(
            self.config.router, loop=asyncio.get_running_loop()
        )
        await self.router.start()
        self._server = await asyncio.start_server(
            self._serve_connection, self.config.host, self.config.port
        )
        return self

    async def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting, finish in-flight work, drain every shard.

        New requests get 503 + Retry-After the moment this is called
        (``/v1/metrics`` and ``/v1/healthz`` keep answering, so an
        orchestrator can watch the drain); the listening socket closes
        only after the last in-flight request completes and the shards
        have drained their services.  Returns ``True`` when nothing was
        cut short.  Idempotent.
        """
        if timeout is None:
            timeout = self.config.drain_timeout
        if self._draining:
            await self._drained.wait()
            return True
        self._draining = True
        clean = True
        deadline = time.monotonic() + timeout
        while self._open_requests > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        if self._open_requests > 0:
            clean = False
        if self.router is not None:
            clean = await self.router.drain(max(deadline - time.monotonic(), 0.0)) and clean
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._drained.set()
        return clean

    async def stop(self) -> None:
        """Fast shutdown (tests): zero-grace drain."""
        await self.drain(0.0)

    async def __aenter__(self) -> "EdgeServer":
        return await self.start()

    async def __aexit__(self, *_exc_info) -> None:
        if not self._draining:
            await self.stop()

    # -- the connection loop ---------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(
                        reader,
                        max_body_bytes=self.config.max_body_bytes,
                        read_timeout=self.config.read_timeout,
                    )
                except EdgeProtocolError as exc:
                    # The stream position after a framing violation is
                    # unknowable — answer typed, then close.
                    await self._write(
                        writer,
                        response_bytes(
                            exc.status,
                            protocol.error_body(
                                "EdgeProtocolError", str(exc), exc.status
                            ),
                            close=True,
                        ),
                    )
                    break
                if request is None:
                    break  # peer closed between requests
                payload = await self._respond(request)
                if request.close:
                    # Echo the close we are about to perform (RFC 9112
                    # §9.6); responses place ``connection`` last, so the
                    # splice keeps the deterministic header order.
                    head, sep, body = payload.partition(b"\r\n\r\n")
                    if b"\r\nconnection: close" not in head:
                        payload = head + b"\r\nconnection: close" + sep + body
                await self._write(writer, payload)
                if request.close:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _write(self, writer: asyncio.StreamWriter, payload: bytes) -> None:
        writer.write(payload)
        await writer.drain()

    # -- dispatch ----------------------------------------------------------

    async def _respond(self, request: HttpRequest) -> bytes:
        """One request → one deterministic response byte string."""
        route = request.path.removeprefix("/v1/")
        started = time.perf_counter()
        try:
            response = await self._dispatch(request, route)
        except EdgeProtocolError as exc:
            response = self._error_response(
                "EdgeProtocolError", str(exc), exc.status
            )
        except ReproError as exc:
            name = type(exc).__name__
            response = self._error_response(
                name, str(exc), protocol.status_for(name)
            )
        except Exception as exc:  # noqa: BLE001 — the wall: nothing unhandled escapes
            logger.exception("unhandled error on %s", request.path)
            response = self._error_response(
                "ReproError", f"internal error: {exc!r}", 500
            )
        if route in self._latency:
            self._latency[route].observe(
                (time.perf_counter() - started) * 1000.0
            )
        status = int(response.split(b" ", 2)[1])
        self._requests_total.inc(route=route, status=str(status))
        return response

    async def _dispatch(self, request: HttpRequest, route: str) -> bytes:
        if request.path == "/v1/healthz":
            self._expect_method(request, "GET")
            body = self._health_body()
            if "full" in request.query:
                # The expensive view: a stats round-trip to every live
                # shard — service-stats snapshot + kernel counters (the
                # chaos suite reads ``compile.targets`` here to prove a
                # respawned shard came back warm).
                assert self.router is not None
                body["shards"] = await self.router.shard_stats()
            return self._json_response(200, body)
        if request.path == "/v1/metrics":
            self._expect_method(request, "GET")
            text = default_registry().exposition() + await self._shard_exposition()
            return response_bytes(
                200,
                text.encode(),
                content_type="text/plain; version=0.0.4",
            )
        if route not in _ROUTES or request.path != f"/v1/{route}":
            raise EdgeProtocolError(404, f"no such endpoint: {request.path}")
        self._expect_method(request, "POST")
        if self._draining:
            return self._error_response(
                "ServiceClosedError", "edge is draining", 503
            )
        if self._open_requests >= self.config.max_open_requests:
            return self._error_response(
                "ServiceOverloadedError",
                f"{self._open_requests} requests open "
                f"(limit {self.config.max_open_requests})",
                429,
            )
        self._open_requests += 1
        self._open_gauge.set(self._open_requests)
        try:
            return await self._handle_json(request, route)
        finally:
            self._open_requests -= 1
            self._open_gauge.set(self._open_requests)

    async def _shard_exposition(self) -> str:
        """The shards' kernel counters as ``shard``-labelled series.

        The kernel does its work in the shard processes, so their
        counters never appear in the edge process's own registry; this
        merges them into the scrape (one stats round-trip per live
        shard) so one ``/v1/metrics`` endpoint covers the fleet.  A
        shard mid-respawn is simply absent from the scrape.
        """
        assert self.router is not None
        try:
            shards = await self.router.shard_stats()
        except ReproError:
            return ""
        lines: list[str] = []
        for key, (family, help_text) in KERNEL_COUNTERS.items():
            samples = [
                (shard["index"], shard["kernel"][key])
                for shard in shards
                if shard.get("alive") and key in shard.get("kernel", {})
            ]
            if not samples:
                continue
            lines.append(f"# HELP {family} {help_text}")
            lines.append(f"# TYPE {family} counter")
            lines.extend(
                f'{family}{{shard="{index}"}} {value}'
                for index, value in samples
            )
        return "\n".join(lines) + "\n" if lines else ""

    def _expect_method(self, request: HttpRequest, method: str) -> None:
        if request.method != method:
            raise EdgeProtocolError(
                405, f"{request.path} only accepts {method}"
            )

    async def _handle_json(self, request: HttpRequest, route: str) -> bytes:
        content_type = request.content_type()
        if content_type != "application/json":
            raise EdgeProtocolError(
                415,
                f"/v1/{route} takes application/json, "
                f"not {content_type or '(none)'!r}",
            )
        assert self.router is not None
        if route == "batch":
            return self._json_response(200, await self._batch(request.body))
        decode: Callable[[bytes], dict]
        run: Callable[[dict], Awaitable[dict]]
        if route == "solve":
            decode, run = protocol.decode_solve, self.router.solve
        elif route == "containment":
            decode, run = protocol.decode_containment, self.router.containment
        else:
            decode, run = protocol.decode_datalog, self.router.datalog
        result = await run(decode(request.body))
        return self._json_response(200, protocol.encode_result(result))

    async def _batch(self, body: bytes) -> list[dict]:
        """The batch endpoint: decode the array, fan out, answer in order.

        Items fail *independently*: each slot of the response carries
        either the result object or an ``{"error": ...}`` object, in
        input order, so one malformed or overloaded item can't poison
        its batch-mates.  The HTTP status is 200 whenever the envelope
        itself (a JSON array within the item cap) was sound.
        """
        items = protocol.decode_batch(
            body, max_items=self.config.batch_max_items
        )
        assert self.router is not None

        async def one(item: object, index: int) -> dict:
            try:
                payload = protocol.decode_batch_item(item, index)
                return protocol.encode_result(
                    await self.router.dispatch(payload)
                )
            except ReproError as exc:
                name = type(exc).__name__
                status = (
                    exc.status
                    if isinstance(exc, EdgeProtocolError)
                    else protocol.status_for(name)
                )
                return protocol.error_envelope(name, str(exc), status)

        return await asyncio.gather(
            *(one(item, index) for index, item in enumerate(items))
        )

    # -- response helpers --------------------------------------------------

    def _health_body(self) -> dict:
        assert self.router is not None
        return {
            "status": "draining" if self._draining else "ok",
            "draining": self._draining,
            "num_shards": self.config.router.num_shards,
            "open_requests": self._open_requests,
            "shards": self.router.shard_states(),
        }

    def _json_response(self, status: int, payload: dict | list) -> bytes:
        return response_bytes(status, protocol.dumps(payload))

    def _error_response(self, name: str, message: str, status: int) -> bytes:
        extra = ()
        if status in protocol.RETRYABLE_STATUSES:
            extra = (("retry-after", str(self.config.retry_after)),)
        return response_bytes(
            status,
            protocol.error_body(name, message, status),
            extra_headers=extra,
        )


async def serve_forever(config: EdgeConfig) -> None:
    """Run an edge until SIGTERM/SIGINT, then drain and exit.

    This is the fix for "``SolveService.drain()`` is unreachable from
    any external signal": ``python -m repro.edge`` installs handlers
    that flip the server into draining mode — 503 on new work, in-flight
    requests completed, shard services drained and their stores flushed
    — before the process exits.
    """
    import signal

    server = EdgeServer(config)
    await server.start()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    print(
        json.dumps(
            {
                "listening": f"{config.host}:{server.port}",
                "num_shards": config.router.num_shards,
                "store_path": config.router.store_path,
            }
        ),
        flush=True,
    )
    await stop.wait()
    logger.warning("signal received: draining edge")
    clean = await server.drain()
    logger.warning("edge drained (clean=%s)", clean)
