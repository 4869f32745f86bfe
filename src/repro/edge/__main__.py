"""``python -m repro.edge`` — run one edge process until SIGTERM.

Example::

    python -m repro.edge --port 8080 --shards 4 --store /var/lib/repro

The process prints one JSON line (``{"listening": ...}``) once the
listening socket is bound and every shard has warmed.  SIGTERM (or
Ctrl-C) drains: new work is answered 503 + Retry-After while in-flight
requests complete, each shard's service drains and flushes its store
partition, and only then does the process exit.
"""

from __future__ import annotations

import argparse
import asyncio

from repro.edge.router import RouterConfig
from repro.edge.server import EdgeConfig, serve_forever


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.edge",
        description="Serve solve/containment/datalog over HTTP, sharded "
        "by instance fingerprint across worker processes.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8080, help="0 binds an ephemeral port"
    )
    parser.add_argument(
        "--shards", type=int, default=2, help="SolveService worker processes"
    )
    parser.add_argument(
        "--store",
        default=None,
        help="shared artifact-store root; each shard warms from its own "
        "<store>/shard-<i> partition (without it, shards run store-less "
        "whatever REPRO_STORE says)",
    )
    parser.add_argument(
        "--max-open",
        type=int,
        default=256,
        help="edge-global open-request ceiling before 429 (each shard "
        "also refuses past its service's max_pending, 256)",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="grace period for in-flight work on SIGTERM",
    )
    return parser


def main(argv: list[str] | None = None) -> None:
    args = build_parser().parse_args(argv)
    config = EdgeConfig(
        host=args.host,
        port=args.port,
        router=RouterConfig(num_shards=args.shards, store_path=args.store),
        max_open_requests=args.max_open,
        drain_timeout=args.drain_timeout,
    )
    asyncio.run(serve_forever(config))


if __name__ == "__main__":
    main()
