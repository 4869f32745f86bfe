"""Seeded request streams for the three workloads, plus the correctness wall.

Every stream is a pure function of ``(workload, seed)``: the benchmark
builds its inputs here and the edge only ever sees the generated
requests.  An :class:`Item` is one distinct request; a stream is a list
of items in send order (``tiny-hot`` and ``query-store`` repeat items,
``mix-cold`` never does).

The instance families are built from the library's public generators
(:mod:`repro.csp.generators`, :mod:`repro.structures.graphs`) and mirror
the P3 serving mix, so the benchmark does not move when the experiment
suite's helpers do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.structures.structure import Structure

WORKLOADS = ("mix-cold", "tiny-hot", "query-store")

#: Upper bounds on request rate used to size the pre-built streams; a
#: run that drains its stream early ends its timed phase early.
STREAM_RATE_CAP = {"mix-cold": 90.0, "tiny-hot": 900.0, "query-store": 900.0}

#: Distinct items of ``query-store``: half containment pairs, half
#: Theorem 4.2 Datalog requests.  Set-up serves a seeded half of them.
QUERY_STORE_DISTINCT = 192


@dataclass
class Item:
    """One distinct request and, once checked, its reference verdict."""

    key: str
    op: str  # "solve" | "containment" | "datalog"
    family: str
    source: Structure | None = None
    target: Structure | None = None
    q1: str | None = None
    q2: str | None = None
    k: int = 2
    expected: bool | None = field(default=None, compare=False)

    def send(self, client) -> dict[str, Any]:
        """Issue this request through an :class:`EdgeClient`."""
        if self.op == "solve":
            return client.solve(self.source, self.target)
        if self.op == "containment":
            return client.containment(self.q1, self.q2)
        return client.datalog(self.source, self.target, k=self.k)

    def fresh(self) -> "Item":
        """A copy with freshly built structures (no memos shared)."""
        from repro.structures.io import structure_from_dict, structure_to_dict

        if self.source is None:
            return Item(self.key, self.op, self.family, q1=self.q1, q2=self.q2)
        return Item(
            self.key,
            self.op,
            self.family,
            source=structure_from_dict(structure_to_dict(self.source)),
            target=structure_from_dict(structure_to_dict(self.target)),
            k=self.k,
        )


@dataclass
class Workload:
    """A workload's distinct items, its send order, and its warm-up."""

    name: str
    seed: int
    items: list[Item]
    stream: list[int]  # indices into ``items``
    warmup: list[Item]
    #: ``query-store`` only: indices of the items set-up serves once.
    seen: list[int] = field(default_factory=list)

    def fingerprints(self) -> list[str]:
        return [self.items[i].key for i in self.stream]


def _mix(seed: int, *parts: int) -> int:
    """A sub-seed derived from ``seed`` (stable across Python versions)."""
    value = seed & 0xFFFFFFFF
    for part in parts:
        value = (value * 1_000_003 + part + 0x9E3779B9) & 0xFFFFFFFF
    return value


def _fingerprint(source: Structure, target: Structure) -> str:
    from repro.structures.fingerprint import instance_fingerprint

    return instance_fingerprint(source, target)


# -- instance families ---------------------------------------------------------


def _horn(n: int, seed: int) -> tuple[Structure, Structure]:
    """A solvable Horn instance: AND-closed 0-valid binary target."""
    from repro.csp.generators import random_structure
    from repro.structures.vocabulary import Vocabulary

    binary = Vocabulary.from_arities({"R": 2})
    rng = random.Random(seed)
    closed = {(0, 0)} | {(rng.randint(0, 1), rng.randint(0, 1)) for _ in range(3)}
    while True:
        new = {tuple(x & y for x, y in zip(a, b)) for a in closed for b in closed}
        if new <= closed:
            break
        closed |= new
    target = Structure(binary, {0, 1}, {"R": closed})
    return random_structure(binary, n, 2 * n, seed=seed + 1), target


def _schaefer(n: int, cls: str, seed: int) -> tuple[Structure, Structure]:
    from repro.csp.generators import random_schaefer_target, random_structure
    from repro.structures.vocabulary import Vocabulary

    binary = Vocabulary.from_arities({"R": 2})
    target = random_schaefer_target(binary, 3, cls, seed=seed)
    return random_structure(binary, n, 2 * n, seed=seed + 1), target


def mix_block(seed: int) -> list[tuple[str, Structure, Structure]]:
    """One ``(family, source, target)`` instance of every mix family."""
    from repro.cq.canonical import body_structure
    from repro.csp.generators import bounded_treewidth_structure, random_chain_query
    from repro.structures.graphs import clique, random_digraph, random_graph

    out = [
        ("horn", *_horn(40, seed)),
        ("bijunctive", *_schaefer(30, "bijunctive", seed)),
        ("affine", *_schaefer(30, "affine", seed)),
        ("two-coloring", random_graph(40, 2.0 / 39, seed=seed), clique(2)),
    ]
    tree, _bags, _edges = bounded_treewidth_structure(
        36, 2, edge_keep_probability=0.9, seed=seed
    )
    out.append(("treewidth", tree, clique(3)))
    for width in (2, 3, 4):
        tree, _bags, _edges = bounded_treewidth_structure(
            36, width, edge_keep_probability=0.9, seed=seed + width
        )
        out.append((f"ktree-w{width}", tree, clique(min(width + 1, 4))))
    two = clique(2).rename_elements({0: "c0", 1: "c1"})
    out.append(("pebble-2col", random_graph(40, 0.15, seed=seed), two))
    query = random_chain_query(4, seed=seed)
    out.append(
        ("cq-evaluation", body_structure(query), random_digraph(12, 0.3, seed=seed))
    )
    for k in (4, 5):
        out.append((f"clique-{k}", clique(k), random_graph(16, 0.5, seed=seed + k)))
    return out


def tiny_instances(seed: int) -> list[tuple[str, Structure, Structure]]:
    """The 16 small instances of ``tiny-hot``: C6..C13 → K3, 8 Horn."""
    from repro.structures.graphs import clique, cycle

    out = [(f"cycle-{n}", cycle(n), clique(3)) for n in range(6, 14)]
    out += [("horn-8", *_horn(8, _mix(seed, 7, i))) for i in range(8)]
    return out


def _containment_item(seed: int) -> Item:
    from repro.csp.generators import random_two_atom_query
    from repro.structures.io import query_to_text

    q1 = query_to_text(random_two_atom_query(4, 6, seed=seed))
    q2 = query_to_text(random_two_atom_query(4, 6, seed=seed + 999))
    return Item(f"cq:{q1}|{q2}", "containment", "containment", q1=q1, q2=q2)


def _datalog_item(seed: int, colors: int) -> Item:
    from repro.structures.graphs import clique, random_digraph

    source = random_digraph(14, 0.12, seed=seed)
    target = clique(colors)
    return Item(
        _fingerprint(source, target) + ":dl2",
        "datalog",
        f"datalog-K{colors}",
        source=source,
        target=target,
    )


# -- the workloads ---------------------------------------------------------------


def build(name: str, seed: int, seconds: float) -> Workload:
    """The seeded workload, its stream sized for ``seconds`` of load."""
    length = max(64, int(STREAM_RATE_CAP[name] * seconds))
    if name == "mix-cold":
        return _mix_cold(seed, length)
    if name == "tiny-hot":
        return _tiny_hot(seed, length)
    if name == "query-store":
        return _query_store(seed, length)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def _solve_item(family: str, source: Structure, target: Structure) -> Item:
    return Item(_fingerprint(source, target), "solve", family, source, target)


def _mix_cold(seed: int, length: int) -> Workload:
    items: list[Item] = []
    seen: set[str] = set()
    block = 0
    while len(items) < length:
        rng = random.Random(_mix(seed, 1, block))
        instances = mix_block(_mix(seed, 2, block))
        rng.shuffle(instances)
        for family, source, target in instances:
            item = _solve_item(family, source, target)
            if item.key not in seen:
                seen.add(item.key)
                items.append(item)
        block += 1
    items = items[:length]
    # Warm-up instances come from a sub-seed range the stream never uses.
    warmup = [
        _solve_item(family, source, target)
        for family, source, target in mix_block(_mix(seed, 3, 0))
    ]
    return Workload("mix-cold", seed, items, list(range(len(items))), warmup)


def _tiny_hot(seed: int, length: int) -> Workload:
    items = [_solve_item(*instance) for instance in tiny_instances(seed)]
    rng = random.Random(_mix(seed, 4))
    stream = [rng.randrange(len(items)) for _ in range(length)]
    # Hot by design: set-up serves every distinct instance once.
    return Workload("tiny-hot", seed, items, stream, [item.fresh() for item in items])


def _query_store(seed: int, length: int) -> Workload:
    half = QUERY_STORE_DISTINCT // 2
    items = [_containment_item(_mix(seed, 5, i)) for i in range(half)]
    items += [_datalog_item(_mix(seed, 6, i), 2 + i % 2) for i in range(half)]
    rng = random.Random(_mix(seed, 8))
    order = list(range(len(items)))
    rng.shuffle(order)
    seen = sorted(order[: len(order) // 2])
    stream = [rng.randrange(len(items)) for _ in range(length)]
    warmup = [_containment_item(_mix(seed, 9, 0)), _datalog_item(_mix(seed, 9, 1), 3)]
    return Workload("query-store", seed, items, stream, warmup, seen)


# -- the correctness wall ----------------------------------------------------------


def reference_verdict(item: Item) -> bool:
    """The in-process verdict: ``repro.core.solve`` / ``repro.cq.contains``."""
    if item.op == "containment":
        from repro.cq import contains
        from repro.cq.parser import parse_query

        return contains(parse_query(item.q1), parse_query(item.q2))
    from repro.core import solve

    fresh = item.fresh()
    return solve(fresh.source, fresh.target).exists


_UNMAPPED = object()


def _scalar(value: Any) -> Any:
    """An element as the edge encodes witness elements."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


def witness_instance(item: Item) -> tuple[Structure, Structure]:
    """The homomorphism instance a yes-witness must map (source → target)."""
    if item.op != "containment":
        return item.source, item.target
    from repro.cq.compiled import compile_query
    from repro.cq.parser import parse_query

    q1, q2 = parse_query(item.q1), parse_query(item.q2)
    union = q1.vocabulary.union(q2.vocabulary)
    return (
        compile_query(q2).canonical_for(union),
        compile_query(q1).canonical_for(union),
    )


def witness_error(
    source: Structure, target: Structure, pairs: list | None
) -> str | None:
    """Why ``pairs`` is not a homomorphism ``source → target`` (or None)."""
    if pairs is None:
        return "yes-verdict without a witness"
    mapping = {a: b for a, b in pairs}
    universe = {_scalar(e) for e in target.universe}
    for element in source.universe:
        if mapping.get(_scalar(element), _UNMAPPED) not in universe:
            return f"element {element!r} unmapped or mapped outside the target"
    for symbol, relation in source.relations():
        allowed = {
            tuple(_scalar(e) for e in fact) for fact in target.relation(symbol.name)
        }
        for fact in relation:
            image = tuple(mapping[_scalar(e)] for e in fact)
            if image not in allowed:
                return f"{symbol.name}{fact} maps to {image}, not a target fact"
    return None


def check_responses(
    workload: Workload, answered: list[tuple[int, dict]]
) -> list[str]:
    """Every answered request against its reference; returns the errors."""
    errors: list[str] = []
    checked_witness: set[tuple[int, str]] = set()
    for index, response in answered:
        item = workload.items[index]
        if item.expected is None:
            item.expected = reference_verdict(item)
        if response["verdict"] != item.expected:
            errors.append(
                f"{item.family} #{index}: verdict {response['verdict']} "
                f"!= reference {item.expected}"
            )
            continue
        if not response["verdict"]:
            continue
        witness_key = (index, repr(response["witness"]))
        if witness_key in checked_witness:
            continue
        checked_witness.add(witness_key)
        problem = witness_error(*witness_instance(item), response["witness"])
        if problem is not None:
            errors.append(f"{item.family} #{index}: bad witness: {problem}")
    return errors
