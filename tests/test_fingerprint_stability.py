"""Fingerprints are stable across interpreter hash seeds.

The persistent store keys every artifact by a fingerprint.  If any of
those fingerprints leaked ``hash()`` (which ``PYTHONHASHSEED``
randomizes per process), a store written by one process generation would
silently never hit in the next — warm restarts would be cold restarts
with extra I/O.  This suite computes every fingerprint family in
subprocesses pinned to *different* hash seeds and asserts byte
equality.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")

_FINGERPRINT_SCRIPT = """
from repro.cq.compiled import query_fingerprint
from repro.cq.query import ConjunctiveQuery
from repro.structures.fingerprint import (
    canonical_fingerprint,
    instance_fingerprint,
)
from repro.structures.structure import Structure
from repro.structures.vocabulary import Vocabulary

# Mixed element types on purpose: strings are where hash randomization
# would bite, and frozenset/dict iteration order depends on it.
voc = Vocabulary.from_arities({"E": 2, "P": 1})
a = Structure(
    voc,
    ["x", "y", "z"],
    {"E": [("x", "y"), ("y", "z"), ("z", "x")], "P": [("y",), ("x",)]},
)
b = Structure(
    voc,
    range(4),
    {"E": [(i, j) for i in range(4) for j in range(4) if i != j], "P": [(0,)]},
)
query = ConjunctiveQuery(
    ("X",),
    [("E", ("X", "Y")), ("E", ("Y", "Z")), ("P", ("Z",))],
)

print(canonical_fingerprint(a))
print(canonical_fingerprint(b))
print(instance_fingerprint(a, b))
print(query_fingerprint(query))
"""


def _fingerprints_under_seed(seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [_SRC, env.get("PYTHONPATH", "")])
    )
    result = subprocess.run(
        [sys.executable, "-c", _FINGERPRINT_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    return result.stdout


@pytest.mark.parametrize("seed", ["1", "2", "4242"])
def test_fingerprints_identical_across_hash_seeds(seed):
    """Every store key family is byte-identical under any hash seed."""
    baseline = _fingerprints_under_seed("0")
    assert baseline.count("\n") == 4
    assert _fingerprints_under_seed(seed) == baseline


def test_fingerprints_match_this_process(tmp_path):
    """The subprocess keys are the keys this process would use — so a
    store written here is readable by any later interpreter."""
    from repro.cq.compiled import query_fingerprint
    from repro.cq.query import ConjunctiveQuery
    from repro.structures.fingerprint import (
        canonical_fingerprint,
        instance_fingerprint,
    )
    from repro.structures.structure import Structure
    from repro.structures.vocabulary import Vocabulary

    voc = Vocabulary.from_arities({"E": 2, "P": 1})
    a = Structure(
        voc,
        ["x", "y", "z"],
        {"E": [("x", "y"), ("y", "z"), ("z", "x")], "P": [("y",), ("x",)]},
    )
    b = Structure(
        voc,
        range(4),
        {
            "E": [(i, j) for i in range(4) for j in range(4) if i != j],
            "P": [(0,)],
        },
    )
    query = ConjunctiveQuery(
        ("X",),
        [("E", ("X", "Y")), ("E", ("Y", "Z")), ("P", ("Z",))],
    )
    expected = "\n".join(
        [
            canonical_fingerprint(a),
            canonical_fingerprint(b),
            instance_fingerprint(a, b),
            query_fingerprint(query),
        ]
    )
    assert _fingerprints_under_seed("1").strip() == expected
