"""The edge wire protocol: JSON schemas, error mapping, batches.

One module owns everything that crosses the network boundary, so the
server, the client, the docs table, and the conformance suite all read
the same definitions.  Every body is JSON: bytes read from a socket
only ever decode to JSON values, never to arbitrary Python objects.

* **JSON requests** (:func:`decode_solve`, :func:`decode_containment`,
  :func:`decode_datalog`) — structures travel in the
  :func:`repro.structures.io.structure_to_dict` shape, queries as their
  parsable rule text.  Malformed bodies raise a typed
  :class:`~repro.exceptions.EdgeProtocolError` (400), never a bare
  ``KeyError``.
* **Batches** (:func:`decode_batch`, :func:`decode_batch_item`) — the
  ``/v1/batch`` body is a JSON array of op objects, each shaped like a
  single-endpoint body plus an ``"op"`` field (``solve``,
  ``containment`` or ``datalog``) and decoded by that endpoint's own
  decoder.  The response is a JSON array in input order.
* **JSON responses** (:func:`encode_result`, :func:`error_body`) — byte
  deterministic: ``sort_keys`` + compact separators, and no wall-clock
  fields, so the conformance suite pins golden response bytes.
* **Error mapping** (:data:`ERROR_STATUS`, :func:`status_for`) — the PR 7
  error taxonomy folded onto HTTP statuses.  Exception *names* cross the
  shard pipe (exception objects may not serialize after a crash), so the
  table is keyed by class name and :func:`rebuild_error` re-raises the
  typed class on the edge side.
"""

from __future__ import annotations

import json
from typing import Any, Callable

from repro.exceptions import (
    EdgeProtocolError,
    ParseError,
    ReproError,
    VocabularyError,
)
from repro.structures.io import structure_from_dict, structure_to_dict
from repro.structures.structure import Structure

__all__ = [
    "ERROR_STATUS",
    "decode_batch",
    "decode_batch_item",
    "decode_containment",
    "decode_datalog",
    "decode_solve",
    "dumps",
    "encode_result",
    "error_body",
    "error_envelope",
    "rebuild_error",
    "status_for",
]

#: Exception class name → HTTP status.  The single source of truth for
#: the backpressure/error table in ``docs/architecture.md``; anything
#: absent here maps to 500 (a typed body is still emitted).
ERROR_STATUS: dict[str, int] = {
    # the request itself is bad — do not retry as-is
    "EdgeProtocolError": 400,
    "ParseError": 400,
    "VocabularyError": 400,
    "DatalogError": 400,
    "NotBooleanError": 400,
    "NotSchaeferError": 400,
    "DecompositionError": 400,
    # admission control refused — retry after backing off
    "ServiceOverloadedError": 429,
    # the service is winding down — retry against another edge
    "ServiceClosedError": 503,
    # a shard died under the request and the retry budget ran out
    "ShardCrashedError": 503,
    # the kernel refused a table its cost model says will not fit
    "ResourceBudgetError": 503,
    # the request's deadline elapsed inside the fleet
    "SolveTimeoutError": 504,
}

#: Statuses that should carry a ``retry-after`` header.
RETRYABLE_STATUSES = frozenset({429, 503})


def status_for(error_name: str) -> int:
    """The HTTP status for a typed error's class name (default 500)."""
    return ERROR_STATUS.get(error_name, 500)


def rebuild_error(error_name: str, message: str) -> ReproError:
    """Reconstruct a typed error from the (name, message) pipe form."""
    import repro.exceptions as exceptions

    cls = getattr(exceptions, error_name, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        if cls is EdgeProtocolError:
            return EdgeProtocolError(400, message)
        return cls(message)
    return ReproError(f"{error_name}: {message}")


def dumps(payload: Any) -> bytes:
    """Deterministic JSON bytes (sorted keys, compact separators)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _parse(body: bytes) -> Any:
    try:
        return json.loads(body)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise EdgeProtocolError(400, f"invalid JSON body: {exc}") from None


def _loads(body: bytes) -> dict:
    data = _parse(body)
    if not isinstance(data, dict):
        raise EdgeProtocolError(400, "request body must be a JSON object")
    return data


def _structure(data: dict, key: str) -> Structure:
    raw = data.get(key)
    if not isinstance(raw, dict):
        raise EdgeProtocolError(
            400, f"missing or non-object {key!r} structure"
        )
    try:
        return structure_from_dict(raw)
    except (ParseError, VocabularyError) as exc:
        raise EdgeProtocolError(400, f"bad {key!r} structure: {exc}") from None


def _timeout(data: dict) -> float | None:
    raw = data.get("timeout")
    if raw is None:
        return None
    if not isinstance(raw, (int, float)) or isinstance(raw, bool) or raw <= 0:
        raise EdgeProtocolError(
            400, f"timeout must be a positive number, got {raw!r}"
        )
    return float(raw)


def _solve_fields(data: dict) -> dict[str, Any]:
    return {
        "source": _structure(data, "source"),
        "target": _structure(data, "target"),
        "timeout": _timeout(data),
    }


def _containment_fields(data: dict) -> dict[str, Any]:
    q1, q2 = data.get("q1"), data.get("q2")
    if not isinstance(q1, str) or not isinstance(q2, str):
        raise EdgeProtocolError(
            400, "containment needs 'q1' and 'q2' rule-text strings"
        )
    return {"q1": q1, "q2": q2, "timeout": _timeout(data)}


def _datalog_fields(data: dict) -> dict[str, Any]:
    k = data.get("k", 2)
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= 8:
        raise EdgeProtocolError(400, f"k must be an int in [1, 8], got {k!r}")
    return {
        "source": _structure(data, "source"),
        "target": _structure(data, "target"),
        "k": k,
        "timeout": _timeout(data),
    }


#: Op name → the field decoder its single endpoint uses.
_FIELDS: dict[str, Callable[[dict], dict[str, Any]]] = {
    "solve": _solve_fields,
    "containment": _containment_fields,
    "datalog": _datalog_fields,
}


def decode_solve(body: bytes) -> dict[str, Any]:
    """``/v1/solve`` body → a router payload (source/target/timeout)."""
    return _solve_fields(_loads(body))


def decode_containment(body: bytes) -> dict[str, Any]:
    """``/v1/containment`` body → a router payload (query texts)."""
    return _containment_fields(_loads(body))


def decode_datalog(body: bytes) -> dict[str, Any]:
    """``/v1/datalog`` body → a router payload (source/target/k)."""
    return _datalog_fields(_loads(body))


def decode_batch(body: bytes, *, max_items: int) -> list[Any]:
    """``/v1/batch`` body → its raw items; a bad envelope is a typed 400.

    Only the envelope is checked here (a JSON array within the item
    cap); each item is decoded on its own by :func:`decode_batch_item`,
    so one bad item fails its slot, not the batch.
    """
    items = _parse(body)
    if not isinstance(items, list):
        raise EdgeProtocolError(
            400, "batch body must be a JSON array of op objects"
        )
    if len(items) > max_items:
        raise EdgeProtocolError(
            400, f"batch of {len(items)} items exceeds the {max_items} cap"
        )
    return items


def decode_batch_item(item: Any, index: int) -> dict[str, Any]:
    """One batch item → a router payload carrying its ``op``."""
    if not isinstance(item, dict):
        raise EdgeProtocolError(
            400, f"batch item {index} is not a JSON object"
        )
    op = item.get("op")
    fields = _FIELDS.get(op) if isinstance(op, str) else None
    if fields is None:
        raise EdgeProtocolError(
            400, f"batch item {index} has unknown op {op!r}"
        )
    return {"op": op, **fields(item)}


def _element_out(value: Any) -> Any:
    """A witness element in JSON-safe form (scalars as-is, else repr)."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


def encode_result(result: dict[str, Any]) -> dict[str, Any]:
    """A shard result → the JSON response body (deterministic).

    ``witness`` is a sorted list of ``[source_element, target_element]``
    pairs (JSON objects cannot key on non-strings); non-scalar elements
    are repr-encoded.  No wall-clock fields — latency lives in
    ``/v1/metrics``, keeping response bytes reproducible.
    """
    witness = result.get("witness")
    pairs = None
    if witness is not None:
        pairs = sorted(
            ([_element_out(key), _element_out(value)] for key, value in witness.items()),
            key=repr,
        )
    return {
        "verdict": result["verdict"],
        "witness": pairs,
        "strategy": result["strategy"],
        "route": result["route"],
        "shard": result["shard"],
        "coalesced": result["coalesced"],
    }


def error_envelope(error_name: str, message: str, status: int) -> dict:
    """The typed error object: a non-2xx body, or one failed batch slot."""
    return {"error": {"type": error_name, "status": status, "message": message}}


def error_body(error_name: str, message: str, status: int) -> bytes:
    """The JSON error envelope every non-2xx response carries."""
    return dumps(error_envelope(error_name, message, status))
