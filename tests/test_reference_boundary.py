"""The boundary between the production package and the test oracle.

``reference/`` holds the pure-dict implementations the parity suites
compare the kernel against.  It may take from :mod:`repro` only the data
model — never a solver — so the oracle stays independent of the code it
checks; and nothing under ``src/`` may import it, so production has one
engine.  Both directions are checked by parsing imports, not by running
them.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Everything ``reference/`` may import from ``repro``: structures,
#: vocabularies, queries and their canonical databases, Datalog programs
#: and ρ_B, tree decompositions, ``PebbleGameResult``, ``SearchStats``,
#: and the typed errors the oracle raises like the kernel does.
ALLOWED_FROM_REPRO: dict[str, set[str]] = {
    "repro.structures.structure": {"Structure", "_sort_key"},
    "repro.structures.vocabulary": {"RelationSymbol", "Vocabulary"},
    "repro.structures.homomorphism": {"SearchStats"},
    "repro.cq.query": {"Atom", "ConjunctiveQuery", "check_compatible"},
    "repro.cq.canonical": {
        "DISTINGUISHED_PREFIX",
        "body_structure",
        "canonical_database",
    },
    "repro.datalog.program": {"DatalogProgram", "Rule"},
    "repro.datalog.canonical_program": {"canonical_program"},
    "repro.treewidth.decomposition": {"TreeDecomposition"},
    "repro.treewidth.heuristics": {"decompose"},
    "repro.pebble.game": {"PebbleGameResult"},
    "repro.exceptions": {"DatalogError", "VocabularyError"},
}


def _imports(path: Path) -> list[tuple[str, str | None]]:
    """``(module, name)`` per imported name; ``name`` is None for
    ``import module``."""
    found: list[tuple[str, str | None]] = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.extend((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{path}: relative import"
            module = node.module or ""
            found.extend((module, alias.name) for alias in node.names)
    return found


def _top(module: str) -> str:
    return module.split(".")[0]


def test_reference_imports_only_the_data_model():
    files = sorted((ROOT / "reference").glob("*.py"))
    assert files, "reference/ has no modules"
    for path in files:
        for module, name in _imports(path):
            if _top(module) != "repro":
                continue
            allowed = ALLOWED_FROM_REPRO.get(module, set())
            assert name in allowed, (
                f"{path.name} imports {name or module!r} from {module!r}, "
                "outside the data-model allowlist"
            )


def test_src_never_imports_reference():
    for path in sorted((ROOT / "src").rglob("*.py")):
        for module, _name in _imports(path):
            assert _top(module) != "reference", (
                f"{path.relative_to(ROOT)} imports the test oracle {module!r}"
            )
