"""The serving path never loads networkx.

networkx costs every edge and shard process about 12 MB of RSS, and
nothing it computes is needed to serve: tree decompositions run on int
bitmasks.  A fresh interpreter imports the edge and service modules,
solves one instance on each planner route (``dp``, ``pebble``,
``search``) plus an explicit Theorem 4.2 k, and must end with networkx
still unimported.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
import repro.edge.router, repro.edge.server, repro.service
from repro.core.pipeline import SolverPipeline
from repro.structures.graphs import clique, cycle, random_graph

pipeline = SolverPipeline()
two = clique(2).rename_elements({0: "c0", 1: "c1"})
routes = {}
for name, source, target, k in (
    ("dp", cycle(9), clique(3), None),
    ("pebble", random_graph(40, 0.15, seed=1), two, None),
    ("search", clique(4), random_graph(16, 0.5, seed=3), None),
    ("datalog-k2", clique(5), clique(3), 2),
):
    solution = pipeline.solve(
        source, target, plan=True, try_canonical_datalog=k
    )
    routes[name] = [solution.stats.plan["route"], solution.exists]
print(json.dumps({"routes": routes, "networkx": "networkx" in sys.modules}))
"""


def test_serving_path_never_imports_networkx():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["routes"] == {
        "dp": ["dp", True],
        "pebble": ["pebble", False],
        "search": ["search", True],
        "datalog-k2": ["pebble", False],
    }
    assert report["networkx"] is False
