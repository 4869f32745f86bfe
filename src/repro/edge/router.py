"""The fingerprint-sharded router: N ``SolveService`` worker processes.

The edge partitions traffic by instance fingerprint across ``N`` shard
processes, each running one :class:`~repro.service.SolveService` that
owns its shard of the structure-cache keyspace and warms from its own
partition of a shared artifact-store directory (``<root>/shard-<i>`` —
partitioned because the store is single-writer, and partitioning keeps
every warm artifact owned by exactly the process that will be asked for
it again).  The routing rule is a slice of the canonical fingerprint:

    ``shard = int(fingerprint[:8], 16) % num_shards``

so "same fingerprint → same shard" holds fleet-wide and each service's
in-process in-flight coalescing becomes fleet-wide coalescing for free.

The shards are the stack's only process boundary (each shard's service
runs threads only), so the router is also its only supervisor and, used
in-process without the HTTP front end, its multi-core API.  A reader
task per shard turns EOF (or a truncated frame) on its socket into a
crash signal, in-flight requests fail with a typed
:class:`~repro.exceptions.ShardCrashedError` (retried once, see
``CRASH_RETRIES``), and a single-flight respawn with exponential backoff
brings the shard back *warm* — the replacement process re-opens the dead
shard's store partition, whose per-record flushes survive SIGKILL, and
seeds its caches before answering.

IPC is deliberately boring: a ``socket.socketpair()`` per shard, one
end inherited by the spawned process, asyncio streams at both ends (no
thread or executor), carrying length-prefixed pickle frames of
``(request_id, op, payload)`` down and ``(request_id, ok, result)`` up,
with errors crossing as ``(class_name, message)`` pairs — exception
*instances* never cross the boundary (a crashed shard can't be trusted
to produce serializable ones).  Spawn context, not fork: the edge may
host threads, and forking a threaded process is how you inherit locks
in undefined states.

Configuration is one typed tree: :class:`RouterConfig` holds the
shard's frozen :class:`~repro.service.ServiceConfig`, which crosses the
spawn as one pickled object, so every service field set on the edge
reaches the shard and a misspelt one is a ``TypeError`` at
construction.  Each shard's ``max_pending`` is its one admission
ceiling; the router keeps no window of its own.
"""

from __future__ import annotations

import asyncio
import hashlib
import logging
import multiprocessing
import os
import pickle
import socket
import struct
from dataclasses import asdict, dataclass, field, replace
from typing import Any

from repro.exceptions import ReproError, ShardCrashedError
from repro.service import ServiceConfig, SolveService
from repro.structures.fingerprint import instance_fingerprint
from repro.edge.protocol import rebuild_error

logger = logging.getLogger("repro.edge.router")

#: Extra attempts a request gets after its shard crashes under it.
CRASH_RETRIES = 1
#: How long a (re)spawned shard may take to answer its readiness ping.
SPAWN_TIMEOUT = 60.0
#: Respawn backoff: doubles per consecutive failed respawn, up to the cap.
RESPAWN_BACKOFF = 0.05
RESPAWN_BACKOFF_CAP = 2.0

__all__ = ["RouterConfig", "ShardRouter", "shard_for", "shard_main"]


def shard_for(fingerprint: str, num_shards: int) -> int:
    """The routing rule: a fingerprint's first 32 bits mod ``num_shards``."""
    return int(fingerprint[:8], 16) % num_shards


def containment_fingerprint(q1_text: str, q2_text: str) -> str:
    """The routing fingerprint for a containment pair.

    Hashes the *rule texts* — cheap enough for the edge process, and
    textually identical pairs (the coalescing case worth routing for)
    land on the same shard.  Semantically equivalent but differently
    written pairs may route to different shards; each still computes an
    exact answer, so this costs a cache hit, never correctness.
    """
    digest = hashlib.sha256()
    digest.update(q1_text.encode())
    digest.update(b"\x00\xe2\x8a\x86\x00")  # a ⊆ separator no rule text contains
    digest.update(q2_text.encode())
    return digest.hexdigest()


def _shard_default() -> ServiceConfig:
    """The shard default: a planning service with 2 worker threads."""
    return ServiceConfig(
        plan=True, thread_workers=2, max_pending=256, store_path=None
    )


@dataclass(frozen=True)
class RouterConfig:
    """The shape of a :class:`ShardRouter` fleet.

    ``service`` is the :class:`~repro.service.ServiceConfig` every shard
    runs; it crosses the spawn as one pickled object.  Its default is
    the shard default (:func:`_shard_default`); every field it leaves
    unset keeps its ``ServiceConfig`` default.  The shard's
    ``max_pending`` is its one admission ceiling; a refusal crosses the
    pipe as :class:`~repro.exceptions.ServiceOverloadedError`.

    The router owns ``store_path``: it is the *shared root*, and shard
    ``i`` runs with ``store_path=<root>/shard-<i>``, or with no store
    when the root is ``None`` — ``service.store_path`` is overridden
    either way, so ``REPRO_STORE`` never gives a store-less router's
    shards a store.
    """

    num_shards: int = 2
    store_path: str | None = None
    service: ServiceConfig = field(default_factory=_shard_default)


_HEADER = struct.Struct("!Q")  # a frame: its byte length, then a pickle


class _Frames:
    """One end of a shard pipe.  ``send`` holds a lock across ``write`` +
    ``drain``: older CPython releases, early 3.10s among them, allow one
    ``drain`` waiter at a time."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer
        self._lock = asyncio.Lock()

    async def recv(self):
        """The next frame; ``IncompleteReadError`` at EOF or mid-frame."""
        (size,) = _HEADER.unpack(await self.reader.readexactly(_HEADER.size))
        return pickle.loads(await self.reader.readexactly(size))

    async def send(self, message: tuple) -> None:
        body = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        async with self._lock:
            self.writer.write(_HEADER.pack(len(body)) + body)
            await self.writer.drain()


# ---------------------------------------------------------------------------
# The shard process
# ---------------------------------------------------------------------------


def shard_main(index: int, sock, config: ServiceConfig) -> None:
    """Entry point of one shard process (spawn target)."""
    logging.basicConfig(level=logging.WARNING)
    try:
        asyncio.run(_shard_serve(index, sock, config))
    except KeyboardInterrupt:
        pass


async def _shard_serve(index: int, sock, config: ServiceConfig) -> None:
    from repro.obs.metrics import KERNEL_COUNTERS, default_registry

    service = SolveService(config)
    await service.start()

    frames = _Frames(*await asyncio.open_unix_connection(sock=sock))

    async def reply(request_id, ok: bool, result) -> None:
        try:
            await frames.send((request_id, ok, result))
        except OSError:
            pass  # the edge died; the drain path below will notice EOF

    registry = default_registry()

    def _stats_payload() -> dict[str, Any]:
        return {
            "index": index,
            "pid": os.getpid(),
            "config": asdict(service.config),
            "service": service.stats.snapshot(),
            "kernel": {
                key: registry.counter(family, help).value()
                for key, (family, help) in KERNEL_COUNTERS.items()
            },
        }

    async def handle(request_id, op: str, payload: dict[str, Any]) -> None:
        try:
            if op == "ping":
                await reply(request_id, True, {"pid": os.getpid()})
                return
            if op == "stats":
                await reply(request_id, True, _stats_payload())
                return
            result = await _execute(service, op, payload)
            await reply(request_id, True, result)
        except ReproError as exc:
            await reply(request_id, False, (type(exc).__name__, str(exc)))
        except Exception as exc:  # noqa: BLE001 — never let a request kill the shard
            logger.exception("shard %d: unexpected error in %s", index, op)
            await reply(
                request_id, False, ("ReproError", f"shard error: {exc!r}")
            )

    pending: set[asyncio.Task] = set()
    draining = False
    while not draining:
        try:
            request_id, op, payload = await frames.recv()
        except (asyncio.IncompleteReadError, OSError):
            break  # the edge process died; shut down quietly
        if op == "drain":
            draining = True
            # One loop turn lets every received request reach its submit;
            # then the service's grace bounds them (it cancels stragglers,
            # which fail typed), so the handlers finish promptly after it.
            await asyncio.sleep(0)
            clean = await service.drain(payload.get("timeout"))
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            await reply(request_id, True, {"clean": clean})
            break
        task = asyncio.ensure_future(handle(request_id, op, payload))
        pending.add(task)
        task.add_done_callback(pending.discard)

    if pending:
        await asyncio.gather(*pending, return_exceptions=True)
    if not draining:
        await service.drain(0.0)
    frames.writer.close()


async def _execute(service, op: str, payload: dict[str, Any]) -> dict[str, Any]:
    """Run one solve-family op on this shard's service.

    Coalescing is observed race-free: ``submit`` attaches coalesced
    waiters (and bumps ``stats.coalesce_hits``) synchronously on the
    loop thread, so a before/after read brackets exactly this request.
    """
    timeout = payload.get("timeout")
    kwargs = {} if timeout is None else {"timeout": timeout}
    before = service.stats.coalesce_hits
    if op == "solve":
        waiter = service.submit(payload["source"], payload["target"], **kwargs)
    elif op == "containment":
        from repro.cq.parser import parse_query

        q1 = parse_query(payload["q1"])
        q2 = parse_query(payload["q2"])
        waiter = service.submit_containment(q1, q2, **kwargs)
    elif op == "datalog":
        waiter = service.submit_datalog(
            payload["source"], payload["target"], k=payload["k"], **kwargs
        )
    else:
        raise ReproError(f"unknown shard op: {op!r}")
    coalesced = service.stats.coalesce_hits > before
    solution = await waiter
    return {
        "verdict": solution.exists,
        "witness": solution.homomorphism,
        "strategy": solution.strategy,
        "route": op,
        "coalesced": coalesced,
    }


# ---------------------------------------------------------------------------
# The edge side
# ---------------------------------------------------------------------------


class _ShardHandle:
    """One shard process as seen from the edge event loop.

    Owns the process, its socket as :class:`_Frames`, and one reader
    task per spawned process (EOF or a truncated frame is the crash
    signal).  Respawn is single-flight behind ``_respawn_lock`` with
    exponential backoff, and every frame carries through a generation
    check so a stale reader task from a dead process can never touch
    the replacement's in-flight table.
    """

    def __init__(
        self,
        index: int,
        service: ServiceConfig,
        loop: asyncio.AbstractEventLoop,
    ) -> None:
        self.index = index
        self.service = service
        self.loop = loop
        self.generation = 0
        self.crashes = 0
        self.process: multiprocessing.Process | None = None
        self.frames: _Frames | None = None
        self.pid: int | None = None
        self._inflight: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._alive = asyncio.Event()
        self._respawn_lock = asyncio.Lock()
        self._respawn_streak = 0
        self._closing = False
        self._reader_task: asyncio.Task | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        await self._spawn()

    async def _spawn(self) -> None:
        ctx = multiprocessing.get_context("spawn")
        parent_sock, child_sock = socket.socketpair()
        frames = _Frames(*await asyncio.open_unix_connection(sock=parent_sock))
        process = ctx.Process(
            target=shard_main,
            args=(self.index, child_sock, self.service),
            name=f"repro-edge-shard-{self.index}",
            daemon=True,
        )
        process.start()
        child_sock.close()
        self.generation += 1
        self.process = process
        self.frames = frames
        self.pid = process.pid
        self._reader_task = self.loop.create_task(
            self._read_loop(frames, self.generation)
        )
        # The first ping doubles as the readiness barrier: the shard
        # answers only once its service has started (and warmed).
        pong = await asyncio.wait_for(self.call("ping", {}), SPAWN_TIMEOUT)
        self.pid = pong["pid"]
        self._respawn_streak = 0
        self._alive.set()

    async def _read_loop(self, frames: _Frames, generation: int) -> None:
        try:
            while True:
                self._deliver(generation, await frames.recv())
        except (asyncio.IncompleteReadError, OSError):
            pass
        self._on_disconnect(generation)

    def _deliver(self, generation: int, message: tuple) -> None:
        if generation != self.generation:
            return
        request_id, ok, result = message
        future = self._inflight.pop(request_id, None)
        if future is None or future.done():
            return
        if ok:
            future.set_result(result)
        else:
            name, text = result
            future.set_exception(rebuild_error(name, text))

    def _on_disconnect(self, generation: int) -> None:
        if generation != self.generation:
            return
        self._alive.clear()
        self.frames.writer.close()  # this generation's socket is done
        inflight, self._inflight = self._inflight, {}
        for future in inflight.values():
            if not future.done():
                future.set_exception(
                    ShardCrashedError(
                        f"shard {self.index} (pid {self.pid}) died with "
                        f"{len(inflight)} request(s) in flight"
                    )
                )
        if self._closing:
            return
        # A broken stream is a crash even if the process still runs: it
        # holds the store partition its replacement must open.
        self.process.kill()
        self.crashes += 1
        logger.warning(
            "shard %d (pid %s) died; respawning warm", self.index, self.pid
        )
        self.loop.create_task(self._respawn())

    async def _respawn(self) -> None:
        async with self._respawn_lock:
            if self._alive.is_set() or self._closing:
                return  # another task already brought the shard back
            self._respawn_streak += 1
            backoff = min(
                RESPAWN_BACKOFF * 2 ** (self._respawn_streak - 1),
                RESPAWN_BACKOFF_CAP,
            )
            await asyncio.sleep(backoff)
            if self._closing:
                return
            try:
                await self._spawn()
            except Exception:  # noqa: BLE001 — keep trying; shard stays down meanwhile
                logger.exception("shard %d respawn failed", self.index)
                if not self._closing:
                    self.loop.create_task(self._respawn())

    async def close(self, timeout: float) -> bool:
        """Drain the shard's service and let its process exit."""
        self._closing = True
        clean = True
        if self._alive.is_set():
            try:
                result = await asyncio.wait_for(
                    self.call("drain", {"timeout": timeout}),
                    timeout + SPAWN_TIMEOUT,
                )
                clean = bool(result.get("clean", False))
            except (ShardCrashedError, asyncio.TimeoutError):
                clean = False
        process = self.process
        if process is not None:
            await self.loop.run_in_executor(None, process.join, 10.0)
            if process.is_alive():
                process.kill()
                clean = False
        if self._reader_task is not None:
            await self._reader_task  # ends at the shard's EOF
        return clean

    # -- requests ------------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self._alive.is_set()

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    async def call(self, op: str, payload: dict[str, Any]):
        """Send one op and await its reply (no retry)."""
        request_id = self._next_id
        self._next_id += 1
        future = self.loop.create_future()
        self._inflight[request_id] = future
        try:
            await self.frames.send((request_id, op, payload))
            return await future
        except OSError:
            raise ShardCrashedError(
                f"shard {self.index} pipe is broken"
            ) from None
        finally:
            self._inflight.pop(request_id, None)


class ShardRouter:
    """Routes requests to shards by fingerprint, with crash retries."""

    def __init__(
        self,
        config: RouterConfig | None = None,
        *,
        loop: asyncio.AbstractEventLoop | None = None,
    ) -> None:
        self.config = config or RouterConfig()
        if self.config.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self._loop = loop or asyncio.get_event_loop()
        self._handles = [
            _ShardHandle(index, self._shard_service(index), self._loop)
            for index in range(self.config.num_shards)
        ]
        self._started = False

    def _shard_service(self, index: int) -> ServiceConfig:
        """Shard ``index``'s config: its store partition, or no store."""
        root = self.config.store_path
        store_path = None if root is None else os.path.join(root, f"shard-{index}")
        return replace(self.config.service, store_path=store_path)

    async def start(self) -> "ShardRouter":
        if not self._started:
            await asyncio.gather(
                *(handle.start() for handle in self._handles)
            )
            self._started = True
        return self

    async def drain(self, timeout: float = 30.0) -> bool:
        """Drain every shard; ``True`` when no shard cut work short."""
        results = await asyncio.gather(
            *(handle.close(timeout) for handle in self._handles)
        )
        self._started = False
        return all(results)

    # -- routing -------------------------------------------------------------

    def shard_for(self, fingerprint: str) -> int:
        return shard_for(fingerprint, self.config.num_shards)

    async def solve(self, payload: dict[str, Any]) -> dict[str, Any]:
        fingerprint = instance_fingerprint(
            payload["source"], payload["target"]
        )
        return await self._request(self.shard_for(fingerprint), "solve", payload)

    async def containment(self, payload: dict[str, Any]) -> dict[str, Any]:
        fingerprint = containment_fingerprint(payload["q1"], payload["q2"])
        return await self._request(
            self.shard_for(fingerprint), "containment", payload
        )

    async def datalog(self, payload: dict[str, Any]) -> dict[str, Any]:
        fingerprint = instance_fingerprint(
            payload["source"], payload["target"]
        )
        return await self._request(
            self.shard_for(fingerprint), "datalog", payload
        )

    async def dispatch(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Route one batch item by its ``op`` field."""
        op = payload["op"]
        body = {k: v for k, v in payload.items() if k != "op"}
        if op == "solve":
            return await self.solve(body)
        if op == "containment":
            return await self.containment(body)
        return await self.datalog(body)

    async def _request(
        self, shard_index: int, op: str, payload: dict[str, Any]
    ) -> dict[str, Any]:
        handle = self._handles[shard_index]
        attempts = CRASH_RETRIES + 1
        for attempt in range(attempts):
            # A closing shard is never respawned: fail at once instead of
            # waiting out SPAWN_TIMEOUT for it.
            if handle._closing:
                raise ShardCrashedError(f"shard {shard_index} is closing")
            if not handle.alive:
                # A dead shard sheds load instead of queueing blind: the
                # respawn takes ~a backoff; clients retry after it.
                if attempt == attempts - 1:
                    raise ShardCrashedError(
                        f"shard {shard_index} is down (respawning)"
                    )
                await self._await_respawn(handle)
                continue
            try:
                result = await handle.call(op, payload)
            except ShardCrashedError:
                if attempt == attempts - 1 or handle._closing:
                    raise
                await self._await_respawn(handle)
                continue
            result["shard"] = shard_index
            return result
        raise AssertionError("unreachable")

    async def _await_respawn(self, handle: _ShardHandle) -> None:
        try:
            await asyncio.wait_for(handle._alive.wait(), SPAWN_TIMEOUT)
        except asyncio.TimeoutError:
            raise ShardCrashedError(
                f"shard {handle.index} did not respawn in time"
            ) from None

    # -- introspection -------------------------------------------------------

    def shard_states(self) -> list[dict[str, Any]]:
        """Cheap per-shard health (no pipe round-trip) for ``/v1/healthz``."""
        return [
            {
                "index": handle.index,
                "pid": handle.pid,
                "alive": handle.alive,
                "generation": handle.generation,
                "crashes": handle.crashes,
                "inflight": handle.inflight,
            }
            for handle in self._handles
        ]

    async def shard_stats(self) -> list[dict[str, Any]]:
        """Full per-shard stats (pipe round-trip to each live shard)."""
        async def one(handle: _ShardHandle):
            if not handle.alive:
                return {"index": handle.index, "alive": False}
            try:
                stats = await handle.call("stats", {})
            except ShardCrashedError:
                return {"index": handle.index, "alive": False}
            stats["alive"] = True
            stats["generation"] = handle.generation
            return stats

        return list(
            await asyncio.gather(*(one(handle) for handle in self._handles))
        )
