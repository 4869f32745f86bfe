"""Chaos at the edge: SIGKILL a shard mid-flight under real load.

The termination invariant, extended across the network boundary: when a
shard process is SIGKILLed with requests in flight, **every** request
that entered the edge still terminates — with a parity-correct answer
(the router's crash retry rode out the respawn) or a *typed* 5xx
(:class:`ShardCrashedError` et al. mapped to 503) — never a hang, never
an unhandled exception, never a wrong answer.

And the respawn is *warm*: the replacement process re-opens the dead
shard's store partition (whose per-record flushes survive SIGKILL),
seeds its caches before answering its readiness ping, and then serves
the same fingerprints with ``compile.targets == 0`` on its kernel
counters — the PR 9 observability plane proving the PR 9 persistence
plane, through the PR 10 edge.

Seeds are fixed (17/29/43, the persist-chaos convention): a failure
reproduces by running the same seed.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from _edge_harness import RunningEdge, wait_for
from _workloads import mixed_service_workload
from repro.core import solve
from repro.edge import EdgeClient, EdgeConfig, RouterConfig, shard_for
from repro.exceptions import EdgeProtocolError, ReproError
from repro.structures.fingerprint import instance_fingerprint
from repro.structures.graphs import clique, random_graph
from repro.structures.io import structure_from_dict, structure_to_dict

FIXED_SEEDS = (17, 29, 43)
NUM_SHARDS = 2
STORM_TIMEOUT = 300.0


def _corpus(seed: int):
    """The storm mix: the P3 families plus one deliberately slow solve.

    The slow instance (~1s of backtracking, verdict False) guarantees
    its shard has work in flight when the SIGKILL lands; its shard is
    therefore the victim.
    """
    instances = [
        (f"{index}:{label}", source, target)
        for index, (label, source, target) in enumerate(
            mixed_service_workload(seed=seed, variants=2, clique_sizes=(3, 4))
        )
    ]
    instances.append(
        ("slow-k4", random_graph(100, 0.2, seed=seed), clique(4))
    )
    return instances


def _shard_of(source, target) -> int:
    roundtrip = lambda s: structure_from_dict(structure_to_dict(s))  # noqa: E731
    return shard_for(
        instance_fingerprint(roundtrip(source), roundtrip(target)), NUM_SHARDS
    )


def _shard_state(client: EdgeClient, index: int) -> dict:
    return next(
        s for s in client.healthz()["shards"] if s["index"] == index
    )


@pytest.mark.parametrize("seed", FIXED_SEEDS)
def test_sigkill_shard_mid_flight(seed, tmp_path):
    corpus = _corpus(seed)
    expected = {
        label: solve(source, target, plan=True).exists
        for label, source, target in corpus
    }
    config = EdgeConfig(
        router=RouterConfig(
            num_shards=NUM_SHARDS, store_path=str(tmp_path / "store")
        ),
        max_body_bytes=8 * 1024 * 1024,
    )
    with RunningEdge(config) as edge:
        client = EdgeClient(edge.host, edge.port, timeout=STORM_TIMEOUT)

        # -- Phase 1: warm pass.  Every instance once through the edge:
        # verdict parity, and every compiled artifact lands in the
        # shards' store partitions (flushed per record — SIGKILL-proof).
        for label, source, target in corpus:
            result = client.solve(source, target)
            assert result["verdict"] == expected[label], (seed, label)

        slow_label, slow_source, slow_target = corpus[-1]
        victim = _shard_of(slow_source, slow_target)
        victim_pid = _shard_state(client, victim)["pid"]

        # -- Phase 2: the storm.  Four closed-loop workers replay the
        # corpus concurrently; once the victim shard has the slow solve
        # in flight, SIGKILL it.
        outcomes: list[tuple[str, object]] = []
        outcome_lock = threading.Lock()

        def worker(worker_index: int) -> None:
            with EdgeClient(edge.host, edge.port, timeout=STORM_TIMEOUT) as c:
                jobs = list(corpus)
                if worker_index == 0:
                    # Worker 0 leads with the slow instance so the
                    # victim is mid-solve when the kill lands.
                    jobs = [corpus[-1]] + jobs[:-1]
                for label, source, target in jobs:
                    try:
                        result = c.solve(source, target)
                        outcome = result["verdict"]
                    except ReproError as exc:
                        outcome = exc
                    with outcome_lock:
                        outcomes.append((label, outcome))

        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        wait_for(
            lambda: _shard_state(client, victim)["inflight"] > 0,
            timeout=60,
            what="in-flight work on the victim shard",
        )
        os.kill(victim_pid, signal.SIGKILL)
        killed_at = time.monotonic()
        for thread in threads:
            thread.join(timeout=STORM_TIMEOUT)
            assert not thread.is_alive(), "a storm request hung"

        # -- The termination invariant: every request terminated with a
        # parity-correct verdict or a typed (non-protocol) error.
        assert len(outcomes) == 4 * len(corpus)
        typed_failures = 0
        for label, outcome in outcomes:
            if isinstance(outcome, ReproError):
                assert not isinstance(outcome, EdgeProtocolError), (
                    "a shard crash surfaced as a protocol error: "
                    f"{outcome!r}"
                )
                typed_failures += 1
            else:
                assert outcome == expected[label], (seed, label)

        # -- Phase 3: warm respawn.  New pid, bumped generation — and
        # zero target compiles after re-serving the whole corpus,
        # because the replacement seeded its caches from the dead
        # shard's store partition before answering its readiness ping.
        state = wait_for(
            lambda: (
                lambda s: s
                if s["alive"] and s["pid"] != victim_pid
                else None
            )(_shard_state(client, victim)),
            timeout=120,
            what="the victim shard to respawn",
        )
        assert state["generation"] >= 2
        respawn_seconds = time.monotonic() - killed_at

        for label, source, target in corpus:
            result = client.solve(source, target)
            assert result["verdict"] == expected[label], (seed, label)

        import json

        _status, _headers, body = client.request(
            "GET", "/v1/healthz?full=1", None
        )
        full = next(
            s
            for s in json.loads(body)["shards"]
            if s.get("index") == victim
        )
        assert full["alive"] is True
        assert full["kernel"]["compile.targets"] == 0, (
            f"respawned shard recompiled {full['kernel']['compile.targets']}"
            f" target(s) — warm restart failed (seed {seed})"
        )

        client.close()
        assert edge.sentry.messages() == []
        # Soft telemetry for the log: how disruptive was the kill?
        print(
            f"seed={seed} victim={victim} respawn={respawn_seconds:.2f}s "
            f"typed_failures={typed_failures}/{len(outcomes)}"
        )
