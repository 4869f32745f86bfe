"""End-to-end parity: the real edge over localhost vs direct ``solve()``.

~100+ seeded mixed requests (the P3 serving mix plus containment pairs
and Datalog probes) travel the full distance — JSON over a real TCP
socket, HTTP framing, fingerprint routing, a pipe hop into a shard
process, a ``SolveService``, the kernel, and all the way back — and
must land on exactly the answers the library gives in-process: same
verdicts, and every witness a *checked* homomorphism (witnesses differ
legitimately between engines; validity is the parity that matters).

Also pinned here: the routing rule (the ``shard`` field equals
``shard_for(instance_fingerprint(...))``), fleet-wide coalescing
(same-fingerprint concurrent requests report shard-local coalesce
hits), and batch-endpoint parity item by item.
"""

from __future__ import annotations

import threading

import pytest

from _edge_harness import RunningEdge
from _workloads import containment_pair, mixed_service_workload
from repro.core import solve
from repro.cq.containment import contains
from repro.edge import EdgeClient, EdgeConfig, RouterConfig, shard_for
from repro.structures.fingerprint import instance_fingerprint
from repro.structures.graphs import clique, random_graph
from repro.structures.homomorphism import is_homomorphism
from repro.structures.io import query_to_text, structure_from_dict, structure_to_dict

SEED = 42
NUM_SHARDS = 2


def _solve_corpus():
    """The P3 mix: 88 labelled instances, every pipeline route."""
    return mixed_service_workload(seed=SEED, variants=8, clique_sizes=(3, 4))


def _containment_corpus():
    return [containment_pair(3, seed=SEED + v) for v in range(12)]


@pytest.fixture(scope="module")
def edge():
    config = EdgeConfig(
        router=RouterConfig(num_shards=NUM_SHARDS),
        max_body_bytes=8 * 1024 * 1024,
    )
    with RunningEdge(config) as running:
        yield running
    assert running.sentry.messages() == []


@pytest.fixture(scope="module")
def client(edge):
    with EdgeClient(edge.host, edge.port, timeout=300.0) as c:
        yield c


def _check_witness(result, source, target):
    """An edge witness must be a real homomorphism of the instance.

    The response serializes the mapping as sorted ``[from, to]`` pairs;
    the instances here use JSON-scalar elements, but JSON turns integer
    relation elements that round-tripped through ``structure_to_dict``
    back faithfully, so the pairs rebuild the mapping directly.
    """
    mapping = {key: value for key, value in result["witness"]}
    assert is_homomorphism(mapping, source, target)


def _roundtrip(structure):
    """What the shard actually sees: the JSON round-tripped structure."""
    return structure_from_dict(structure_to_dict(structure))


def test_solve_parity_and_routing(edge, client):
    """88 mixed solves: verdict parity, witness validity, shard rule."""
    corpus = _solve_corpus()
    assert len(corpus) >= 80
    for label, source, target in corpus:
        expected = solve(source, target, plan=True)
        result = client.solve(source, target)
        assert result["verdict"] == expected.exists, label
        assert result["route"] == "solve"
        fingerprint = instance_fingerprint(_roundtrip(source), _roundtrip(target))
        assert result["shard"] == shard_for(fingerprint, NUM_SHARDS), label
        if result["verdict"]:
            _check_witness(result, _roundtrip(source), _roundtrip(target))
        else:
            assert result["witness"] is None


def test_containment_parity(edge, client):
    for q1, q2 in _containment_corpus():
        expected = contains(q1, q2)
        result = client.containment(query_to_text(q1), query_to_text(q2))
        assert result["verdict"] == expected, (str(q1), str(q2))
        assert result["route"] == "containment"
        # Containment is decided as D_{Q2} → D_{Q1}; a verdict's witness
        # maps canonical-database elements, checked shard-side — here
        # the verdict itself is the parity claim.
    # Textually identical pairs must route identically (the coalescing
    # precondition).
    q1, q2 = _containment_corpus()[0]
    first = client.containment(query_to_text(q1), query_to_text(q2))
    second = client.containment(query_to_text(q1), query_to_text(q2))
    assert first["shard"] == second["shard"]


def test_datalog_parity(edge, client):
    """The Theorem 4.2 route is exact: verdict equals plain solve."""
    corpus = [
        (label, source, target)
        for label, source, target in _solve_corpus()
        if label in ("two-coloring", "pebble-2col", "cq-evaluation")
    ]
    assert len(corpus) >= 12
    for label, source, target in corpus:
        expected = solve(source, target, plan=True)
        result = client.datalog(source, target, k=2)
        assert result["verdict"] == expected.exists, label
        assert result["route"] == "datalog"
        if result["verdict"]:
            _check_witness(result, _roundtrip(source), _roundtrip(target))


def test_batch_parity(edge, client):
    """The JSON batch endpoint answers item-for-item like direct."""
    corpus = _solve_corpus()[:24]
    items = [
        {"op": "solve", "source": source, "target": target}
        for _label, source, target in corpus
    ]
    for q1, q2 in _containment_corpus()[:6]:
        items.append(
            {"op": "containment", "q1": query_to_text(q1), "q2": query_to_text(q2)}
        )
    results = client.batch(items)
    assert len(results) == len(items)
    for (label, source, target), result in zip(corpus, results[:24]):
        assert "error" not in result, (label, result)
        assert result["verdict"] == solve(source, target, plan=True).exists
        if result["verdict"]:
            _check_witness(result, _roundtrip(source), _roundtrip(target))
    for (q1, q2), result in zip(_containment_corpus()[:6], results[24:]):
        assert result["verdict"] == contains(q1, q2)


def test_same_fingerprint_concurrent_requests_coalesce(edge):
    """Fleet-wide coalescing: duplicates land on one shard and share.

    Six concurrent clients ask the same ~1s instance; fingerprint
    routing sends all six to the same shard, whose service coalesces
    the five late arrivals onto the first computation — reported
    per-response via ``coalesced``.
    """
    source = random_graph(100, 0.2, seed=7)
    target = clique(4)
    results: list[dict] = []
    errors: list[Exception] = []

    def one():
        try:
            with EdgeClient(edge.host, edge.port, timeout=300.0) as c:
                results.append(c.solve(source, target))
        except Exception as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=one) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert not errors
    assert len(results) == 6
    assert {result["verdict"] for result in results} == {False}
    assert len({result["shard"] for result in results}) == 1
    assert any(result["coalesced"] for result in results), (
        "no concurrent duplicate reported a shard-local coalesce hit"
    )
