"""Wire-protocol conformance for the network edge.

Three walls, per ISSUE 10:

* **Golden byte fixtures** — the exact request bytes and the exact
  response bytes for every endpoint (and the typed error envelopes),
  pinned as literals.  The edge's responses are deterministic by
  construction (fixed header order, no Date header, sorted-key compact
  JSON, sorted witnesses), so any drift in the wire
  format fails here first, byte-for-byte.
* **Fuzzed malformed frames** — truncated bodies, lying lengths,
  oversized payloads, invalid JSON, wrong content types, mangled batch
  arrays, a code-running pickle — each answered with a *typed* 4xx.
* **The server survives all of it** — after every abuse the same
  connection-or-successor serves a golden request verbatim, and the
  ERROR-level log stays empty (the :class:`LogSentry` asserts the
  "never an unhandled exception" half of the contract).

Plus the drain contract (satellite 4): a draining edge answers 503 +
Retry-After on new work while in-flight requests run to completion, and
``python -m repro.edge`` wires SIGTERM to exactly that.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _edge_harness import RunningEdge, wait_for
from test_io import JSON_VALUES, STRUCTURE_SHAPED
from repro.edge import EdgeConfig, RouterConfig
from repro.edge import protocol
from repro.exceptions import EdgeProtocolError
from repro.structures.graphs import clique, random_graph
from repro.structures.io import structure_to_dict

# ---------------------------------------------------------------------------
# Golden fixtures (captured from a live edge; pinned as literals)
# ---------------------------------------------------------------------------

SOLVE_REQUEST = (
    b"POST /v1/solve HTTP/1.1\r\nhost: t\r\n"
    b"content-type: application/json\r\ncontent-length: 163\r\n\r\n"
    b'{"source":{"relations":{"R":[["a","b"]]},"universe":["a","b"],'
    b'"vocabulary":{"R":2}},"target":{"relations":{"R":[["x","x"]]},'
    b'"universe":["x"],"vocabulary":{"R":2}}}'
)
SOLVE_RESPONSE = (
    b"HTTP/1.1 200 OK\r\nserver: repro-edge\r\n"
    b"content-type: application/json\r\ncontent-length: 137\r\n\r\n"
    b'{"coalesced":false,"route":"solve","shard":0,'
    b'"strategy":"width-planner(route=dp,width=1)","verdict":true,'
    b'"witness":[["a","x"],["b","x"]]}'
)

CONTAINMENT_REQUEST = (
    b"POST /v1/containment HTTP/1.1\r\nhost: t\r\n"
    b"content-type: application/json\r\ncontent-length: 53\r\n\r\n"
    b'{"q1":"Q(x) :- R(x,y), R(y,z)","q2":"Q(x) :- R(x,y)"}'
)
CONTAINMENT_RESPONSE = (
    b"HTTP/1.1 200 OK\r\nserver: repro-edge\r\n"
    b"content-type: application/json\r\ncontent-length: 143\r\n\r\n"
    b'{"coalesced":false,"route":"containment","shard":1,'
    b'"strategy":"width-planner(route=dp,width=1)","verdict":true,'
    b'"witness":[["x","x"],["y","y"]]}'
)

DATALOG_REQUEST = (
    b"POST /v1/datalog HTTP/1.1\r\nhost: t\r\n"
    b"content-type: application/json\r\ncontent-length: 169\r\n\r\n"
    b'{"k":2,"source":{"relations":{"R":[["a","b"]]},"universe":["a","b"],'
    b'"vocabulary":{"R":2}},"target":{"relations":{"R":[["x","x"]]},'
    b'"universe":["x"],"vocabulary":{"R":2}}}'
)
DATALOG_RESPONSE = (
    b"HTTP/1.1 200 OK\r\nserver: repro-edge\r\n"
    b"content-type: application/json\r\ncontent-length: 139\r\n\r\n"
    b'{"coalesced":false,"route":"datalog","shard":0,'
    b'"strategy":"width-planner(route=dp,width=1)","verdict":true,'
    b'"witness":[["a","x"],["b","x"]]}'
)

BATCH_REQUEST = (
    b"POST /v1/batch HTTP/1.1\r\nhost: t\r\n"
    b"content-type: application/json\r\ncontent-length: 74\r\n\r\n"
    b'[{"op":"containment","q1":"Q(x) :- R(x,y)",'
    b'"q2":"Q(x) :- R(x,y), R(y,z)"}]'
)
BATCH_RESPONSE = (
    b"HTTP/1.1 200 OK\r\nserver: repro-edge\r\n"
    b"content-type: application/json\r\ncontent-length: 129\r\n\r\n"
    b'[{"coalesced":false,"route":"containment","shard":1,'
    b'"strategy":"width-planner(route=dp,width=1)","verdict":false,'
    b'"witness":null}]'
)

GOLDEN_EXCHANGES = [
    ("solve", SOLVE_REQUEST, SOLVE_RESPONSE),
    ("containment", CONTAINMENT_REQUEST, CONTAINMENT_RESPONSE),
    ("datalog", DATALOG_REQUEST, DATALOG_RESPONSE),
    ("batch", BATCH_REQUEST, BATCH_RESPONSE),
]

#: Malformed frames → the exact typed error response, per ISSUE 10's
#: fuzz list (truncated bodies and oversized payloads are exercised
#: separately — their fixtures depend on the configured body cap).
GOLDEN_ERRORS = [
    (
        "not_found",
        b"POST /v1/nope HTTP/1.1\r\nhost: t\r\ncontent-type: application/json"
        b"\r\ncontent-length: 2\r\n\r\n{}",
        b"HTTP/1.1 404 Not Found\r\nserver: repro-edge\r\n"
        b"content-type: application/json\r\ncontent-length: 90\r\n\r\n"
        b'{"error":{"message":"no such endpoint: /v1/nope","status":404,'
        b'"type":"EdgeProtocolError"}}',
    ),
    (
        "bad_method",
        b"GET /v1/solve HTTP/1.1\r\nhost: t\r\n\r\n",
        b"HTTP/1.1 405 Method Not Allowed\r\nserver: repro-edge\r\n"
        b"content-type: application/json\r\ncontent-length: 91\r\n\r\n"
        b'{"error":{"message":"/v1/solve only accepts POST","status":405,'
        b'"type":"EdgeProtocolError"}}',
    ),
    (
        "invalid_json",
        b"POST /v1/solve HTTP/1.1\r\nhost: t\r\ncontent-type: application/json"
        b"\r\ncontent-length: 5\r\n\r\n{nope",
        b"HTTP/1.1 400 Bad Request\r\nserver: repro-edge\r\n"
        b"content-type: application/json\r\ncontent-length: 158\r\n\r\n"
        b'{"error":{"message":"invalid JSON body: Expecting property name '
        b"enclosed in double quotes: line 1 column 2 (char 1)\",\"status\""
        b':400,"type":"EdgeProtocolError"}}',
    ),
    (
        "wrong_content_type",
        b"POST /v1/solve HTTP/1.1\r\nhost: t\r\ncontent-type: text/plain\r\n"
        b"content-length: 2\r\n\r\n{}",
        b"HTTP/1.1 415 Unsupported Media Type\r\nserver: repro-edge\r\n"
        b"content-type: application/json\r\ncontent-length: 114\r\n\r\n"
        b"{\"error\":{\"message\":\"/v1/solve takes application/json, not "
        b"'text/plain'\",\"status\":415,\"type\":\"EdgeProtocolError\"}}",
    ),
    (
        "bad_structure",
        b"POST /v1/solve HTTP/1.1\r\nhost: t\r\ncontent-type: application/json"
        b"\r\ncontent-length: 37\r\n\r\n"
        b'{"source":{"universe":[]},"target":3}',
        b"HTTP/1.1 400 Bad Request\r\nserver: repro-edge\r\n"
        b"content-type: application/json\r\ncontent-length: 126\r\n\r\n"
        b"{\"error\":{\"message\":\"bad 'source' structure: malformed "
        b"structure dict: 'vocabulary'\",\"status\":400,"
        b'"type":"EdgeProtocolError"}}',
    ),
    (
        "bad_k",
        b"POST /v1/datalog HTTP/1.1\r\nhost: t\r\ncontent-type: "
        b"application/json\r\ncontent-length: 120\r\n\r\n"
        b'{"k":99,"source":{"relations":{},"universe":[],"vocabulary":{}},'
        b'"target":{"relations":{},"universe":[],"vocabulary":{}}}',
        b"HTTP/1.1 400 Bad Request\r\nserver: repro-edge\r\n"
        b"content-type: application/json\r\ncontent-length: 98\r\n\r\n"
        b'{"error":{"message":"k must be an int in [1, 8], got 99",'
        b'"status":400,"type":"EdgeProtocolError"}}',
    ),
    (
        "missing_length",
        b"POST /v1/solve HTTP/1.1\r\nhost: t\r\ncontent-type: application/json"
        b"\r\n\r\n",
        b"HTTP/1.1 411 Length Required\r\nserver: repro-edge\r\n"
        b"content-type: application/json\r\ncontent-length: 94\r\n"
        b"connection: close\r\n\r\n"
        b'{"error":{"message":"POST requires a content-length","status":411,'
        b'"type":"EdgeProtocolError"}}',
    ),
    (
        "bad_length",
        b"POST /v1/solve HTTP/1.1\r\nhost: t\r\ncontent-length: abc\r\n\r\n",
        b"HTTP/1.1 400 Bad Request\r\nserver: repro-edge\r\n"
        b"content-type: application/json\r\ncontent-length: 93\r\n"
        b"connection: close\r\n\r\n"
        b"{\"error\":{\"message\":\"invalid content-length: 'abc'\","
        b'"status":400,"type":"EdgeProtocolError"}}',
    ),
    (
        "chunked",
        b"POST /v1/solve HTTP/1.1\r\nhost: t\r\n"
        b"transfer-encoding: chunked\r\n\r\n",
        b"HTTP/1.1 501 Not Implemented\r\nserver: repro-edge\r\n"
        b"content-type: application/json\r\ncontent-length: 103\r\n"
        b"connection: close\r\n\r\n"
        b'{"error":{"message":"chunked transfer encoding not supported",'
        b'"status":501,"type":"EdgeProtocolError"}}',
    ),
    (
        "garbage_request_line",
        b"\x00\x01\x02 garbage\r\n\r\n",
        b"HTTP/1.1 400 Bad Request\r\nserver: repro-edge\r\n"
        b"content-type: application/json\r\ncontent-length: 113\r\n"
        b"connection: close\r\n\r\n"
        b"{\"error\":{\"message\":\"malformed request line: "
        b"'\\\\x00\\\\x01\\\\x02 garbage'\",\"status\":400,"
        b'"type":"EdgeProtocolError"}}',
    ),
]

#: Small on purpose: lets the 413 tests stay cheap.
MAX_BODY = 65536


@pytest.fixture(scope="module")
def edge():
    """One live edge (2 shards) shared by the whole conformance run."""
    config = EdgeConfig(
        router=RouterConfig(num_shards=2), max_body_bytes=MAX_BODY
    )
    with RunningEdge(config) as running:
        yield running
    assert running.sentry.messages() == []


def _status(response: bytes) -> int:
    return int(response.split(b" ", 2)[1])


# ---------------------------------------------------------------------------
# Golden bytes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,request_bytes,response_bytes",
    GOLDEN_EXCHANGES,
    ids=[name for name, _, _ in GOLDEN_EXCHANGES],
)
def test_golden_endpoint(edge, name, request_bytes, response_bytes):
    assert edge.raw(request_bytes) == response_bytes


@pytest.mark.parametrize(
    "name,request_bytes,response_bytes",
    GOLDEN_ERRORS,
    ids=[name for name, _, _ in GOLDEN_ERRORS],
)
def test_golden_error(edge, name, request_bytes, response_bytes):
    assert edge.raw(request_bytes) == response_bytes
    # The server is still serving after every typed refusal.
    assert edge.raw(SOLVE_REQUEST) == SOLVE_RESPONSE


def test_golden_healthz(edge):
    response = edge.raw(b"GET /v1/healthz HTTP/1.1\r\nhost: t\r\n\r\n")
    head, _, body = response.partition(b"\r\n\r\n")
    assert head.startswith(
        b"HTTP/1.1 200 OK\r\nserver: repro-edge\r\n"
        b"content-type: application/json\r\n"
    )
    health = json.loads(body)
    assert health["status"] == "ok"
    assert health["draining"] is False
    assert len(health["shards"]) == 2
    for shard in health["shards"]:
        assert shard["alive"] is True
        assert isinstance(shard["pid"], int)
        assert shard["generation"] == 1


def test_golden_metrics(edge):
    response = edge.raw(b"GET /v1/metrics HTTP/1.1\r\nhost: t\r\n\r\n")
    head, _, body = response.partition(b"\r\n\r\n")
    assert head.startswith(
        b"HTTP/1.1 200 OK\r\nserver: repro-edge\r\n"
        b"content-type: text/plain; version=0.0.4\r\n"
    )
    text = body.decode()
    assert "# TYPE repro_edge_requests_total counter" in text
    assert "# TYPE repro_edge_solve_latency_ms histogram" in text
    assert "repro_edge_open_requests" in text
    # The shards' kernel counters are merged into the scrape as
    # shard-labelled series: one /v1/metrics covers the fleet.
    assert "# TYPE repro_kernel_compile_targets_total counter" in text
    assert 'repro_kernel_compile_targets_total{shard="0"}' in text
    assert 'repro_kernel_compile_targets_total{shard="1"}' in text


def test_keep_alive_reuses_connection(edge):
    responses = edge.raw_keepalive(
        [SOLVE_REQUEST, CONTAINMENT_REQUEST, DATALOG_REQUEST]
    )
    assert responses == [SOLVE_RESPONSE, CONTAINMENT_RESPONSE, DATALOG_RESPONSE]


def test_connection_close_honoured(edge):
    request = SOLVE_REQUEST.replace(
        b"host: t\r\n", b"host: t\r\nconnection: close\r\n"
    )
    response = edge.raw(request)
    assert _status(response) == 200
    assert response.partition(b"\r\n\r\n")[0].endswith(b"connection: close")


# ---------------------------------------------------------------------------
# Fuzzed malformed frames
# ---------------------------------------------------------------------------


def test_fuzz_truncated_requests(edge):
    """Every prefix-cut of a valid request dies typed, never unhandled."""
    rng = random.Random(1009)
    cuts = sorted(rng.sample(range(1, len(SOLVE_REQUEST) - 1), 24))
    for cut in cuts:
        response = edge.raw(SOLVE_REQUEST[:cut])
        assert response, f"no response for cut at {cut}"
        status = _status(response)
        assert 400 <= status < 500, (cut, response[:120])
        assert b'"type":"EdgeProtocolError"' in response
    assert edge.raw(SOLVE_REQUEST) == SOLVE_RESPONSE
    assert edge.sentry.messages() == []


def test_fuzz_random_garbage(edge):
    rng = random.Random(2003)
    for length in (1, 7, 64, 512):
        blob = bytes(rng.randrange(256) for _ in range(length)) + b"\r\n\r\n"
        response = edge.raw(blob)
        if response:  # a pure-binary blob may just get the socket closed
            assert 400 <= _status(response) < 500
    assert edge.raw(SOLVE_REQUEST) == SOLVE_RESPONSE
    assert edge.sentry.messages() == []


def test_oversized_body_is_413(edge):
    declared = MAX_BODY + 1
    request = (
        b"POST /v1/solve HTTP/1.1\r\nhost: t\r\n"
        b"content-type: application/json\r\n"
        b"content-length: " + str(declared).encode() + b"\r\n\r\n"
    )
    response = edge.raw(request)
    assert _status(response) == 413
    assert b'"type":"EdgeProtocolError"' in response
    assert edge.raw(SOLVE_REQUEST) == SOLVE_RESPONSE


def test_overlong_request_line_is_400(edge):
    response = edge.raw(b"GET /" + b"a" * 9000 + b" HTTP/1.1\r\n\r\n")
    assert _status(response) == 400
    assert edge.raw(SOLVE_REQUEST) == SOLVE_RESPONSE


def test_lying_content_length_is_400(edge):
    """Body shorter than declared: the read fails typed, not hanging."""
    body = b'{"x":1}'
    request = (
        b"POST /v1/solve HTTP/1.1\r\nhost: t\r\n"
        b"content-type: application/json\r\n"
        b"content-length: 500\r\n\r\n" + body
    )
    response = edge.raw(request)
    assert _status(response) == 400
    assert b"truncated body" in response
    assert edge.raw(SOLVE_REQUEST) == SOLVE_RESPONSE


BATCH_HEAD = (
    b"POST /v1/batch HTTP/1.1\r\nhost: t\r\n"
    b"content-type: application/json\r\n"
)


def _batch_request(body: bytes, head: bytes = BATCH_HEAD) -> bytes:
    return (
        head
        + b"content-length: "
        + str(len(body)).encode()
        + b"\r\n\r\n"
        + body
    )


@pytest.mark.parametrize(
    "body",
    [
        pytest.param(b"", id="empty"),
        pytest.param(b"REB1\x00\x00\x00\x01\x00\x00\x00\x01x", id="binary"),
        pytest.param(b'{"op":"solve"}', id="not_an_array"),
        pytest.param(b'[{"op":"solve"', id="truncated_array"),
        pytest.param(b"[\xff]", id="bad_utf8"),
        pytest.param(b"[]extra", id="trailing_bytes"),
        pytest.param(b"[" + b",".join([b"{}"] * 257) + b"]", id="too_many_items"),
    ],
)
def test_fuzz_batch_json(edge, body):
    response = edge.raw(_batch_request(body))
    assert _status(response) == 400, response[:200]
    assert b'"type":"EdgeProtocolError"' in response
    assert edge.raw(BATCH_REQUEST) == BATCH_RESPONSE
    assert edge.sentry.messages() == []


class _SetsSentinel:
    """Unpickling this runs code: it sets ``builtins._repro_pickled``."""

    def __reduce__(self):
        return (exec, ("import builtins; builtins._repro_pickled = True",))


def test_batch_never_unpickles_socket_bytes(edge):
    import builtins
    import pickle
    import struct

    payload = pickle.dumps(_SetsSentinel())
    # The retired REB1 framing (magic, u32 count, u32 length, pickle),
    # under both its old media type and JSON's, plus the bare pickle.
    framed = b"REB1" + struct.pack("!II", 1, len(payload)) + payload
    legacy_head = BATCH_HEAD.replace(
        b"application/json", b"application/x-repro-batch"
    )
    for head, body in (
        (legacy_head, framed),
        (BATCH_HEAD, framed),
        (BATCH_HEAD, payload),
    ):
        response = edge.raw(_batch_request(body, head))
        assert 400 <= _status(response) < 500, response[:200]
        assert b'"type":"EdgeProtocolError"' in response
    assert not hasattr(builtins, "_repro_pickled")
    # The payload is live: unpickling it here does set the sentinel.
    try:
        pickle.loads(payload)
        assert builtins._repro_pickled is True
    finally:
        builtins.__dict__.pop("_repro_pickled", None)


def test_batch_item_errors_are_isolated(edge):
    """One rotten item answers typed in its slot; its batch-mates solve."""
    good = {
        "op": "containment",
        "q1": "Q(x) :- R(x,y)",
        "q2": "Q(x) :- R(x,y), R(y,z)",
    }
    edge_k2 = {"vocabulary": {"E": 2}, "relations": {"E": [[0, 1], [1, 0]]}}
    # Malformed structures the decoder must reject as typed 400s, never
    # a 500 or a silent misparse.
    bad_structures = [
        {"vocabulary": [["E", 2]]},
        {"vocabulary": {"E": 2}, "relations": [1]},
        {"vocabulary": {"E": 1.5}},
        {"vocabulary": {"E": True}},
        {"vocabulary": {"E": 2}, "universe": "abc"},
        {"vocabulary": {"E": 2}, "relations": {"E": ["ab"]}},
        {"vocabulary": {"E": 2}, "relations": {"E": "ab"}},
    ]
    rotten_items = [{"op": "bogus"}, 42, {"op": "solve", "source": 3}] + [
        {"op": "solve", "source": bad, "target": edge_k2}
        for bad in bad_structures
    ]
    body = protocol.dumps([good, *rotten_items, good])
    response = edge.raw(_batch_request(body))
    assert _status(response) == 200
    items = json.loads(response.partition(b"\r\n\r\n")[2])
    assert len(items) == len(rotten_items) + 2
    assert items[0]["verdict"] is False
    # Every decode failure is the decoder's one typed error, whether the
    # structure's shape or its vocabulary was rotten.
    for rotten in items[1:-1]:
        assert rotten["error"]["type"] == "EdgeProtocolError", rotten
        assert rotten["error"]["status"] == 400
    assert items[-1]["verdict"] is False


#: Endpoint-shaped bodies: structure-shaped sources and targets, plus any
#: JSON value in the other fields an endpoint reads.
ENDPOINT_SHAPED = st.fixed_dictionaries(
    {"source": STRUCTURE_SHAPED, "target": STRUCTURE_SHAPED},
    optional={
        "op": st.sampled_from(["solve", "containment", "datalog"]) | JSON_VALUES,
        "k": JSON_VALUES,
        "q1": JSON_VALUES,
        "q2": JSON_VALUES,
        "timeout": JSON_VALUES,
    },
)
BODIES = JSON_VALUES | STRUCTURE_SHAPED | ENDPOINT_SHAPED


@given(BODIES | st.lists(BODIES, max_size=3))
def test_decoders_return_or_raise_typed_400(value):
    """Any JSON body decodes, or fails as EdgeProtocolError 400 only."""
    body = protocol.dumps(value)
    decoders = [
        protocol.decode_solve,
        protocol.decode_datalog,
        protocol.decode_containment,
        lambda raw: [
            protocol.decode_batch_item(item, index)
            for index, item in enumerate(
                protocol.decode_batch(raw, max_items=4)
            )
        ],
    ]
    for decode in decoders:
        try:
            decode(body)
        except EdgeProtocolError as exc:
            assert exc.status == 400


# ---------------------------------------------------------------------------
# Satellite 4: drain is reachable — 503 on new work, in-flight completes
# ---------------------------------------------------------------------------


def _slow_solve_request() -> bytes:
    """~1.5s of real solve work (no K4 in a sparse random graph)."""
    body = protocol.dumps(
        {
            "source": structure_to_dict(random_graph(120, 0.18, seed=7)),
            "target": structure_to_dict(clique(4)),
        }
    )
    return (
        b"POST /v1/solve HTTP/1.1\r\nhost: t\r\n"
        b"content-type: application/json\r\n"
        b"content-length: " + str(len(body)).encode() + b"\r\n\r\n" + body
    )


def test_draining_edge_rejects_new_work_and_finishes_inflight():
    import asyncio

    config = EdgeConfig(
        router=RouterConfig(num_shards=1), max_body_bytes=4 * 1024 * 1024
    )
    with RunningEdge(config) as edge:
        slow_request = _slow_solve_request()
        result: dict = {}

        def run_slow():
            result["response"] = edge.raw(slow_request, timeout=120)

        worker = threading.Thread(target=run_slow, daemon=True)
        worker.start()
        wait_for(
            lambda: edge.server._open_requests > 0,
            timeout=60,
            what="the slow request to be in flight",
        )

        assert edge._loop is not None
        drain_future = asyncio.run_coroutine_threadsafe(
            edge.server.drain(120), edge._loop
        )

        wait_for(
            lambda: edge.server.draining, timeout=10, what="draining flag"
        )
        # New work: typed 503 + Retry-After while the drain runs.
        refusal = edge.raw(SOLVE_REQUEST)
        assert _status(refusal) == 503
        assert b"retry-after:" in refusal
        assert b'"type":"ServiceClosedError"' in refusal
        # Health keeps answering so an orchestrator can watch the drain.
        health_response = edge.raw(b"GET /v1/healthz HTTP/1.1\r\n\r\n")
        assert _status(health_response) == 200
        health = json.loads(health_response.partition(b"\r\n\r\n")[2])
        assert health["status"] == "draining"

        worker.join(timeout=120)
        assert not worker.is_alive()
        slow_response = result["response"]
        assert _status(slow_response) == 200
        assert json.loads(slow_response.partition(b"\r\n\r\n")[2])[
            "verdict"
        ] is False  # rg(120, 0.18) has no K4

        assert drain_future.result(timeout=120) is True
    assert edge.sentry.messages() == []


def test_sigterm_drains_and_exits():
    """``python -m repro.edge`` wires SIGTERM → drain-then-exit."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.edge",
            "--port",
            "0",
            "--shards",
            "1",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        info = json.loads(proc.stdout.readline())
        host, port = info["listening"].rsplit(":", 1)

        import http.client

        conn = http.client.HTTPConnection(host, int(port), timeout=30)
        conn.request("GET", "/v1/healthz")
        assert json.loads(conn.getresponse().read())["status"] == "ok"

        proc.send_signal(signal.SIGTERM)
        # The draining edge answers new work 503 until the listener
        # closes; afterwards connections are refused.  Both are a
        # correct refusal — assert we never get a 200.
        deadline = time.monotonic() + 60
        saw_refusal = False
        while time.monotonic() < deadline and proc.poll() is None:
            try:
                probe = http.client.HTTPConnection(host, int(port), timeout=5)
                probe.request(
                    "POST",
                    "/v1/containment",
                    body=b'{"q1":"Q(x) :- R(x,y)","q2":"Q(x) :- R(x,y)"}',
                    headers={"Content-Type": "application/json"},
                )
                status = probe.getresponse().status
                assert status == 503
                saw_refusal = True
                probe.close()
            except (ConnectionRefusedError, OSError):
                saw_refusal = True
            time.sleep(0.05)
        assert proc.wait(timeout=60) == 0
        assert saw_refusal
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
