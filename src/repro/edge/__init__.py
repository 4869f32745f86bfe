"""The network edge: HTTP/JSON in front of sharded services.

``repro.edge`` turns the in-process :class:`~repro.service.SolveService`
into an actual service (ROADMAP item 1): an asyncio HTTP/1.1 front end
(:mod:`~repro.edge.server`) routes requests by instance fingerprint
across N service worker processes (:mod:`~repro.edge.router`), each
owning its shard of the cache keyspace and warming from its partition
of a shared artifact store.  Same fingerprint → same shard, so the
in-flight coalescing of PR 3 holds fleet-wide.  The shard processes are
the stack's only process boundary, and :class:`ShardRouter` (usable
in-process, without the HTTP front end) is its multi-core API.  The
wire protocol lives
in :mod:`~repro.edge.protocol`, the framing in :mod:`~repro.edge.http`,
and :class:`~repro.edge.client.EdgeClient` is the reference consumer.

Run one with ``python -m repro.edge`` (SIGTERM drains gracefully).
"""

from repro.edge.client import EdgeClient
from repro.edge.protocol import ERROR_STATUS
from repro.edge.router import RouterConfig, ShardRouter, shard_for
from repro.edge.server import EdgeConfig, EdgeServer

__all__ = [
    "ERROR_STATUS",
    "EdgeClient",
    "EdgeConfig",
    "EdgeServer",
    "RouterConfig",
    "ShardRouter",
    "shard_for",
]
