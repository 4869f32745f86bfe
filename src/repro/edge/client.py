"""A blocking stdlib client for the edge (``http.client`` underneath).

The reference consumer of the wire protocol: the parity suite, the
chaos suite, and the load benchmark all talk to the edge through this —
if the protocol drifts, the client drifts with it or a test fails.
Non-2xx responses re-raise the *typed* error named in the JSON
envelope (a 429 raises :class:`~repro.exceptions.ServiceOverloadedError`
on the client, exactly as it would have in-process), so code written
against :class:`~repro.service.SolveService` ports across the network
boundary without changing its ``except`` clauses.

One client wraps one keep-alive connection and is not thread-safe;
concurrent callers (the benchmark's closed-loop workers) hold one each.
"""

from __future__ import annotations

import http.client
import json
from typing import Any

from repro.edge import protocol
from repro.exceptions import EdgeProtocolError
from repro.structures.io import structure_to_dict
from repro.structures.structure import Structure

__all__ = ["EdgeClient"]


class EdgeClient:
    """Blocking calls against one edge server."""

    def __init__(
        self, host: str, port: int, *, timeout: float = 60.0
    ) -> None:
        self.host = host
        self.port = port
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "EdgeClient":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    # -- the JSON endpoints --------------------------------------------------

    def solve(
        self,
        source: Structure,
        target: Structure,
        *,
        timeout: float | None = None,
    ) -> dict[str, Any]:
        """``POST /v1/solve``; returns the decoded response body."""
        body: dict[str, Any] = {
            "source": structure_to_dict(source),
            "target": structure_to_dict(target),
        }
        if timeout is not None:
            body["timeout"] = timeout
        return self._post_json("/v1/solve", body)

    def containment(
        self, q1: str, q2: str, *, timeout: float | None = None
    ) -> dict[str, Any]:
        """``POST /v1/containment`` with two rule texts (``Q1 ⊆ Q2``?)."""
        body: dict[str, Any] = {"q1": q1, "q2": q2}
        if timeout is not None:
            body["timeout"] = timeout
        return self._post_json("/v1/containment", body)

    def datalog(
        self,
        source: Structure,
        target: Structure,
        *,
        k: int = 2,
        timeout: float | None = None,
    ) -> dict[str, Any]:
        """``POST /v1/datalog`` (the Theorem 4.2 route)."""
        body: dict[str, Any] = {
            "source": structure_to_dict(source),
            "target": structure_to_dict(target),
            "k": k,
        }
        if timeout is not None:
            body["timeout"] = timeout
        return self._post_json("/v1/datalog", body)

    def batch(self, items: list[dict[str, Any]]) -> list[dict[str, Any]]:
        """``POST /v1/batch``: a list of op dicts, answered in order.

        Items may carry real :class:`Structure` objects (``{"op":
        "solve", "source": s, "target": t}``; containment items carry
        ``q1``/``q2`` rule texts, datalog items an extra ``k``); they are
        sent in their JSON dict form.  Each response slot is either a
        result dict shaped like the single endpoints' or an
        ``{"error": ...}`` dict.
        """
        body = [
            {
                key: (
                    structure_to_dict(value)
                    if isinstance(value, Structure)
                    else value
                )
                for key, value in item.items()
            }
            for item in items
        ]
        status, _headers, payload = self.request(
            "POST", "/v1/batch", protocol.dumps(body)
        )
        if status != 200:
            self._raise_typed(status, payload)
        return json.loads(payload)

    # -- the GET endpoints -----------------------------------------------

    def healthz(self) -> dict[str, Any]:
        status, _headers, body = self.request("GET", "/v1/healthz", None)
        if status != 200:
            self._raise_typed(status, body)
        return json.loads(body)

    def metrics(self) -> str:
        status, _headers, body = self.request("GET", "/v1/metrics", None)
        if status != 200:
            self._raise_typed(status, body)
        return body.decode()

    # -- plumbing ----------------------------------------------------------

    def request(
        self,
        method: str,
        path: str,
        body: bytes | None,
    ) -> tuple[int, dict[str, str], bytes]:
        """One raw round-trip: ``(status, lowercase headers, body)``.

        Every request body the edge accepts is JSON.

        Reconnects once on a stale keep-alive connection (the server may
        have closed it between requests — normal HTTP/1.1 behaviour).
        """
        headers = {}
        if body is not None:
            headers["Content-Type"] = "application/json"
        for attempt in (0, 1):
            try:
                self._conn.request(method, path, body=body, headers=headers)
                response = self._conn.getresponse()
                payload = response.read()
                break
            except (
                http.client.NotConnected,
                http.client.BadStatusLine,
                ConnectionResetError,
                BrokenPipeError,
            ):
                self._conn.close()
                if attempt:
                    raise
        return (
            response.status,
            {k.lower(): v for k, v in response.getheaders()},
            payload,
        )

    def _post_json(self, path: str, payload: dict[str, Any]) -> dict[str, Any]:
        status, _headers, body = self.request(
            "POST", path, protocol.dumps(payload)
        )
        if status != 200:
            self._raise_typed(status, body)
        return json.loads(body)

    def _raise_typed(self, status: int, body: bytes) -> None:
        """Re-raise the typed error carried in an error envelope."""
        try:
            envelope = json.loads(body)["error"]
            name, message = envelope["type"], envelope["message"]
        except (json.JSONDecodeError, KeyError, TypeError):
            raise EdgeProtocolError(
                status, f"unparseable error response: {body[:200]!r}"
            ) from None
        raise rebuilt_error(name, message, status)


def rebuilt_error(name: str, message: str, status: int):
    error = protocol.rebuild_error(name, message)
    if isinstance(error, EdgeProtocolError):
        error.status = status
    return error
