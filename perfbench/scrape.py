"""The edge process under test, and everything read from outside it.

:class:`EdgeProcess` launches ``python -m repro.edge`` in a session of
its own and times it to its ``{"listening": ...}`` readiness line
(``setup_s``); stopping it waits until every process of that session
(the edge, its shards, multiprocessing's resource tracker) has ended.
:func:`reap_children` is the last step of every run: the benchmark is a
child subreaper (:func:`become_subreaper`), so anything its children
left behind is its own child by then, and is waited for.  The scrape
helpers read only what the program already exposes:

* ``/v1/healthz?full=1`` — per-shard ``ServiceStats`` snapshots and
  kernel work counters (``/v1/metrics`` carries no ``repro_service_*``
  or ``repro_store_*`` families, so it cannot serve here);
* ``/proc/<pid>/stat`` and ``/proc/<pid>/status`` — CPU ticks and RSS of
  the edge pid and the shard pids that healthz names;
* the artifact store's ``shard-<i>`` partitions — bytes on disk, and the
  record count through a read-only ``ArtifactStore``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any

CLK_TCK = os.sysconf("SC_CLK_TCK")
NUM_SHARDS = 2


class EdgeProcess:
    """One ``python -m repro.edge`` on an ephemeral port, 2 shards."""

    def __init__(self, root: str, *, store: str | None = None, log: str | None = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
        )
        command = [
            sys.executable, "-m", "repro.edge",
            "--port", "0", "--shards", str(NUM_SHARDS),
        ]
        if store is not None:
            command += ["--store", store]
        self._log = open(log, "ab") if log else subprocess.DEVNULL
        self.shard_pids: list[int] = []
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
            cwd=root,
            text=True,
            start_new_session=True,
        )
        self.pid = self.process.pid
        try:
            line = self.process.stdout.readline()
            self.setup_s = time.perf_counter() - started
            if not line:
                raise RuntimeError("edge exited before listening")
            host, _, port = json.loads(line)["listening"].rpartition(":")
            self.host, self.port = host, int(port)
        except BaseException:
            self.stop()
            raise

    def stop(self) -> int:
        """SIGTERM (graceful drain), wait, then wait out the whole session.

        The edge's shards and its resource tracker share its process
        group; they exit once the edge has drained them and closed its
        pipes.  Whatever is still there after a grace period is killed.
        """
        process = self.process
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)
        if not _group_ended(self.pid, grace_s=10.0):
            _signal_group(self.pid, signal.SIGKILL)
            _group_ended(self.pid, grace_s=10.0)
        if process.stdout is not None:
            process.stdout.close()
        if self._log is not subprocess.DEVNULL:
            self._log.close()
        return process.returncode


def _signal_group(pgid: int, signum: int) -> bool:
    """Signal a process group; ``False`` when it has no member left."""
    try:
        os.killpg(pgid, signum)
    except ProcessLookupError:
        return False
    return True


def _reap_group(pgid: int) -> None:
    """Collect the exit status of our children in a process group."""
    while True:
        try:
            pid, _status = os.waitpid(-pgid, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _group_ended(pgid: int, *, grace_s: float) -> bool:
    """Wait up to ``grace_s`` for every member of a group to end."""
    deadline = time.monotonic() + grace_s
    while True:
        _reap_group(pgid)
        if not _signal_group(pgid, 0):
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux ``PR_SET_CHILD_SUBREAPER``).

    Without it, a process whose parent has exited is adopted by init and
    :func:`reap_children` cannot wait for it.
    """
    import ctypes

    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (AttributeError, OSError):
        pass


def child_pids() -> list[int]:
    """Pids whose parent is this process, zombies included."""
    me = os.getpid()
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as handle:
                ppid = int(handle.read().rpartition(")")[2].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            out.append(int(name))
    return out


def reap_children(grace_s: float = 10.0) -> None:
    """Stop and wait for every child this process still has.

    Multiprocessing's resource tracker is told to exit first (it lives
    until its pipe closes); any other child gets ``grace_s`` to end on
    its own, then SIGKILL.  Loops until no child is left, since killing
    one may hand us its own children.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except (ChildProcessError, OSError):
            pass
    deadline = time.monotonic() + grace_s
    while True:
        children = child_pids()
        if not children:
            return
        for pid in children:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        if time.monotonic() >= deadline:
            for pid in child_pids():
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):
                    pass
        else:
            time.sleep(0.01)


def cpu_ticks(pid: int) -> int:
    """utime + stime of one process, in clock ticks."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rpartition(")")[2].split()
    return int(fields[11]) + int(fields[12])


def rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    return 0


def healthz_full(client) -> dict[str, Any]:
    status, _headers, body = client.request("GET", "/v1/healthz?full=1", None)
    if status != 200:
        raise RuntimeError(f"/v1/healthz?full=1 answered {status}")
    return json.loads(body)


def store_bytes(root: str | None) -> int:
    """Bytes on disk under every ``shard-<i>`` partition of a store root."""
    if root is None or not os.path.isdir(root):
        return 0
    total = 0
    for directory, _dirs, files in os.walk(root):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(directory, name))
            except OSError:
                pass
    return total


def store_records(root: str) -> int:
    """Records indexed across the partitions, via read-only stores."""
    from repro.persist import ArtifactStore

    total = 0
    for name in sorted(os.listdir(root)):
        if name.startswith("shard-"):
            store = ArtifactStore(
                os.path.join(root, name), mode="ro", register_metrics=False
            )
            try:
                total += len(store)
            finally:
                store.close()
    return total


@dataclass
class Scrape:
    """One outside-in reading of the fleet."""

    at: float
    edge_ticks: int
    shard_ticks: int
    shards: list[dict[str, Any]]
    store_bytes: int
    rss_kb: int

    @classmethod
    def take(cls, client, edge: EdgeProcess, store: str | None) -> "Scrape":
        health = healthz_full(client)
        shards = sorted(health["shards"], key=lambda s: s["index"])
        if not all(shard.get("alive") for shard in shards):
            raise RuntimeError(f"a shard is down: {shards}")
        edge.shard_pids = [shard["pid"] for shard in shards]
        pids = [edge.pid, *edge.shard_pids]
        return cls(
            at=time.perf_counter(),
            edge_ticks=cpu_ticks(edge.pid),
            shard_ticks=sum(cpu_ticks(pid) for pid in edge.shard_pids),
            shards=shards,
            store_bytes=store_bytes(store),
            rss_kb=sum(rss_kb(pid) for pid in pids),
        )


def ticks_ms(ticks: int) -> float:
    return ticks * 1000.0 / CLK_TCK


def service_delta(before: Scrape, after: Scrape, key: str) -> list[int]:
    """Per-shard growth of one ``ServiceStats`` counter."""
    return [
        b["service"][key] - a["service"][key]
        for a, b in zip(before.shards, after.shards)
    ]


def kernel_delta(before: Scrape, after: Scrape, key: str) -> int:
    """Fleet-wide growth of one kernel work counter."""
    return sum(
        b["kernel"].get(key, 0) - a["kernel"].get(key, 0)
        for a, b in zip(before.shards, after.shards)
    )
