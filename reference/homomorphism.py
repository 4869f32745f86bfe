"""The reference decision procedures for one instance ``A → B``.

Pure dicts and sets: the backtracking search and what is built on it
(AC-3, the AC-3-bail-out facade, retractions and cores), the existential
k-pebble game as a deletion loop and as per-domain tables, and the
Theorem 5.4 DP by bag-map enumeration.  The kernel visits the same
search trees (same answers, order and ``SearchStats``) and computes the
same closures, cores, families and tables; its DP gives the same verdict
with a possibly different, equally valid, witness.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import combinations, product
from typing import Hashable, Iterator, Mapping, Sequence

from repro.exceptions import VocabularyError
from repro.pebble.game import PebbleGameResult
from repro.structures.homomorphism import SearchStats
from repro.structures.structure import Structure, _sort_key
from repro.treewidth.decomposition import TreeDecomposition
from repro.treewidth.heuristics import decompose

Element = Hashable
Assignment = dict[Element, Element]
Domains = dict[Element, set[Element]]
PartialMap = frozenset[tuple[Element, Element]]
Domain = tuple[Element, ...]
Table = dict[Domain, set[tuple[Element, ...]]]
BagMap = tuple[tuple[Element, Element], ...]


def _initial_domains(
    source: Structure, target: Structure
) -> dict[Element, set[Element]] | None:
    """Node-consistent initial domains, or ``None`` if trivially unsat.

    Each element of ``source`` starts with the full universe of ``target``,
    then is narrowed per fact: an element occurring at position ``i`` of a
    fact of relation ``R`` can only map to values occurring at position ``i``
    of some tuple of ``Rᴮ``.
    """
    full = set(target.universe)
    domains: dict[Element, set[Element]] = {
        e: set(full) for e in source.universe
    }
    position_values: dict[tuple[str, int], set[Element]] = {}
    for symbol, rel in target.relations():
        for i in range(symbol.arity):
            position_values[(symbol.name, i)] = {t[i] for t in rel}
    for name, fact in source.facts():
        for i, element in enumerate(fact):
            domains[element] &= position_values[(name, i)]
            if not domains[element]:
                return None
    return domains


def _facts_by_element(
    source: Structure,
) -> dict[Element, list[tuple[str, tuple[Element, ...]]]]:
    index: dict[Element, list[tuple[str, tuple[Element, ...]]]] = {
        e: [] for e in source.universe
    }
    for name, fact in source.facts():
        seen: set[Element] = set()
        for element in fact:
            if element not in seen:
                index[element].append((name, fact))
                seen.add(element)
    return index


def _search(
    source: Structure,
    target: Structure,
    *,
    stats: SearchStats,
    order: Sequence[Element] | None,
    fixed: Mapping[Element, Element] | None = None,
) -> Iterator[Assignment]:
    """Backtracking generator over all homomorphisms source → target.

    Uses minimum-remaining-values (MRV) dynamic variable ordering unless a
    static ``order`` is supplied, and forward checking: assigning ``h(a)``
    filters, for every fact containing ``a``, the values still possible for
    the fact's other elements.
    """
    domains = _initial_domains(source, target)
    if domains is None:
        return
    for element, value in (fixed or {}).items():
        if element not in domains or value not in domains[element]:
            return
        domains[element] = {value}
    if not source.universe:
        yield {}
        return
    facts_of = _facts_by_element(source)
    assignment: Assignment = {}
    static_order = list(order) if order is not None else None

    def pick_unassigned() -> Element:
        if static_order is not None:
            for element in static_order:
                if element not in assignment:
                    return element
        return min(
            (e for e in domains if e not in assignment),
            key=lambda e: (len(domains[e]), _sort_key(e)),
        )

    def prune_after(element: Element) -> list[tuple[Element, Element]] | None:
        """Forward-check facts touching ``element``.

        Returns the list of (element, removed value) prunings for undo, or
        ``None`` on a wipe-out.
        """
        removed: list[tuple[Element, Element]] = []
        for name, fact in facts_of[element]:
            rel = target.relation(name)
            compatible = [
                t
                for t in rel
                if all(
                    assignment.get(fact[i], t[i]) == t[i]
                    for i in range(len(fact))
                )
            ]
            if not compatible:
                _undo(removed)
                return None
            for i, other in enumerate(fact):
                if other in assignment:
                    continue
                allowed = {t[i] for t in compatible}
                for value in list(domains[other]):
                    if value not in allowed:
                        domains[other].discard(value)
                        removed.append((other, value))
                if not domains[other]:
                    _undo(removed)
                    return None
        return removed

    def _undo(removed: list[tuple[Element, Element]]) -> None:
        for other, value in removed:
            domains[other].add(value)

    def extend() -> Iterator[Assignment]:
        if len(assignment) == len(domains):
            yield dict(assignment)
            return
        element = pick_unassigned()
        for value in sorted(domains[element], key=_sort_key):
            stats.nodes += 1
            assignment[element] = value
            removed = prune_after(element)
            if removed is not None:
                yield from extend()
                _undo(removed)
            else:
                stats.backtracks += 1
            del assignment[element]

    yield from extend()


def all_homomorphisms(
    source: Structure,
    target: Structure,
    *,
    order: Sequence[Element] | None = None,
    stats: SearchStats | None = None,
    fixed: Mapping[Element, Element] | None = None,
) -> Iterator[Assignment]:
    """Every homomorphism ``source → target``, in deterministic order."""
    if source.vocabulary != target.vocabulary:
        raise VocabularyError("homomorphism requires a common vocabulary")
    if source.universe and not target.universe:
        return
    stats = stats if stats is not None else SearchStats()
    yield from _search(source, target, stats=stats, order=order, fixed=fixed)


def find_homomorphism(
    source: Structure,
    target: Structure,
    *,
    order: Sequence[Element] | None = None,
    stats: SearchStats | None = None,
    fixed: Mapping[Element, Element] | None = None,
) -> Assignment | None:
    """The first homomorphism :func:`all_homomorphisms` yields, or ``None``."""
    homomorphisms = all_homomorphisms(
        source, target, order=order, stats=stats, fixed=fixed
    )
    return next(homomorphisms, None)


def count_homomorphisms(
    source: Structure,
    target: Structure,
    *,
    order: Sequence[Element] | None = None,
    stats: SearchStats | None = None,
) -> int:
    """The number of homomorphisms, by exhausting the enumerator."""
    homomorphisms = all_homomorphisms(source, target, order=order, stats=stats)
    return sum(1 for _ in homomorphisms)


def establish_arc_consistency(
    source: Structure,
    target: Structure,
    domains: Domains | None = None,
) -> Domains | None:
    """The AC-3 rescan loop: arc-consistent domains, ``None`` on wipe-out."""
    if source.vocabulary != target.vocabulary:
        raise VocabularyError("instance structures must share a vocabulary")
    if domains is None:
        domains = {e: set(target.universe) for e in source.universe}
    else:
        domains = {e: set(values) for e, values in domains.items()}

    facts = list(source.facts())
    touching: dict[Element, list[int]] = {}
    for index, (_name, fact) in enumerate(facts):
        for element in set(fact):
            touching.setdefault(element, []).append(index)

    queue: deque[int] = deque(range(len(facts)))
    queued = set(queue)

    while queue:
        index = queue.popleft()
        queued.discard(index)
        name, fact = facts[index]
        relation = target.relation(name)
        supported = [
            t
            for t in relation
            if all(t[i] in domains[fact[i]] for i in range(len(fact)))
        ]
        for position, element in enumerate(fact):
            values = {t[position] for t in supported}
            if domains[element] <= values:
                continue
            domains[element] &= values
            if not domains[element]:
                return None
            # Re-enqueue every fact touching the pruned element — including
            # this one: pruning position i can retract support for position
            # j of the same fact.
            for other in touching.get(element, ()):
                if other not in queued:
                    queue.append(other)
                    queued.add(other)
    return domains


def solve_backtracking(
    source: Structure,
    target: Structure,
    *,
    preprocess: bool = True,
    use_degree_order: bool = False,
    stats: SearchStats | None = None,
) -> Assignment | None:
    """AC-3 used purely as a bail-out, then a from-scratch search.

    The degree order sorts by decreasing fact occurrences; the sort is
    stable, so ties keep sorted-universe order, as in the kernel.
    """
    if preprocess and establish_arc_consistency(source, target) is None:
        return None
    order = None
    if use_degree_order:
        degrees = Counter(e for _name, fact in source.facts() for e in fact)
        order = sorted(source.sorted_universe, key=lambda e: -degrees[e])
    return find_homomorphism(source, target, order=order, stats=stats)


def retract_onto(
    a: Structure, elements: frozenset[Element] | set[Element]
) -> Assignment | None:
    """A retraction of ``A`` onto the materialized induced substructure."""
    target = a.restrict(elements)
    return find_homomorphism(a, target, fixed={e: e for e in elements})


def core(a: Structure) -> Structure:
    """Shrink to the image of an endomorphism into ``A∖{v}`` until none
    exists, materializing each candidate substructure."""
    current = a
    changed = True
    while changed:
        changed = False
        for dropped in sorted(current.universe, key=_sort_key):
            smaller = current.restrict(current.universe - {dropped})
            h = find_homomorphism(current, smaller)
            if h is not None:
                current = current.restrict(set(h.values()))
                changed = True
                break
    return current


def is_core(a: Structure) -> bool:
    """True when ``A`` admits no homomorphism into a proper substructure."""
    for dropped in sorted(a.universe, key=_sort_key):
        smaller = a.restrict(a.universe - {dropped})
        if find_homomorphism(a, smaller) is not None:
            return False
    return True


def _is_partial_homomorphism(
    mapping: dict[Element, Element], source: Structure, target: Structure
) -> bool:
    """Homomorphism condition on the substructure induced by the domain."""
    domain = mapping.keys()
    for name, fact in source.facts():
        if all(e in domain for e in fact):
            if tuple(mapping[e] for e in fact) not in target.relation(name):
                return False
    return True


def solve_pebble_game(
    source: Structure, target: Structure, k: int
) -> PebbleGameResult:
    """The greatest forth-closed family (Theorem 4.7.1), by deletion."""
    if source.vocabulary != target.vocabulary:
        raise VocabularyError("pebble game requires a common vocabulary")
    if k < 1:
        raise ValueError("need at least one pebble")
    elements = source.sorted_universe
    values = target.sorted_universe

    # All partial homomorphisms with |dom| <= k.
    family: set[PartialMap] = set()
    for size in range(0, min(k, len(elements)) + 1):
        for domain in combinations(elements, size):
            for image in product(values, repeat=size):
                mapping = dict(zip(domain, image))
                if _is_partial_homomorphism(mapping, source, target):
                    family.add(frozenset(mapping.items()))

    if not values and elements:
        return PebbleGameResult(k, set())

    # Delete until fixpoint.  A function dies when (a) one of its one-step
    # restrictions is dead, or (b) it is small and some element admits no
    # surviving extension.
    changed = True
    while changed:
        changed = False
        for f in list(family):
            if f not in family:
                continue
            items = dict(f)
            # (a) restriction-closure.
            dead = False
            for key in items:
                restriction = frozenset(
                    (a, b) for a, b in f if a != key
                )
                if restriction not in family:
                    dead = True
                    break
            # (b) forth property.
            if not dead and len(items) < k:
                for a in elements:
                    if a in items:
                        continue
                    if not any(
                        f | {(a, b)} in family for b in values
                    ):
                        dead = True
                        break
            if dead:
                family.discard(f)
                changed = True
    return PebbleGameResult(k, family)


def spoiler_wins(source: Structure, target: Structure, k: int) -> bool:
    """Whether the Spoiler wins the existential k-pebble game."""
    return not solve_pebble_game(source, target, k).duplicator_wins


def _allowed(
    domain: Domain,
    image: tuple[Element, ...],
    target: Structure,
    covered_facts: dict[Domain, list[tuple[str, tuple[Element, ...]]]],
) -> bool:
    mapping = dict(zip(domain, image))
    for name, fact in covered_facts[domain]:
        if tuple(mapping[e] for e in fact) not in target.relation(name):
            return False
    return True


def consistency_tables(
    source: Structure, target: Structure, k: int
) -> Table | None:
    """Per sorted domain tuple of size ≤ k, the surviving images; ``None``
    when some table empties."""
    if source.vocabulary != target.vocabulary:
        raise VocabularyError("consistency requires a common vocabulary")
    if k < 1:
        raise ValueError("k must be at least 1")
    elements = source.sorted_universe
    values = target.sorted_universe
    if not elements:
        return {(): {()}}

    domains: list[Domain] = []
    for size in range(1, min(k, len(elements)) + 1):
        domains.extend(combinations(elements, size))

    # Pre-index the facts fully covered by each domain.
    facts = list(source.facts())
    covered: dict[Domain, list[tuple[str, tuple[Element, ...]]]] = {}
    for d in domains:
        members = set(d)
        covered[d] = [
            (name, fact)
            for name, fact in facts
            if all(e in members for e in fact)
        ]

    tables: Table = {}
    for d in domains:
        tables[d] = {
            image
            for image in product(values, repeat=len(d))
            if _allowed(d, image, target, covered)
        }

    changed = True
    while changed:
        changed = False
        for d in domains:
            survivors = set()
            for image in tables[d]:
                mapping = dict(zip(d, image))
                # Downward: every one-element restriction must survive.
                ok = True
                if len(d) > 1:
                    for drop in range(len(d)):
                        sub_domain = d[:drop] + d[drop + 1 :]
                        sub_image = image[:drop] + image[drop + 1 :]
                        if sub_image not in tables[sub_domain]:
                            ok = False
                            break
                # Upward (forth): if |d| < k, every further element must
                # admit a surviving extension.
                if ok and len(d) < k:
                    for a in elements:
                        if a in mapping:
                            continue
                        extended_domain = tuple(
                            sorted(
                                d + (a,),
                                key=lambda e: elements.index(e),
                            )
                        )
                        position = extended_domain.index(a)
                        found = False
                        for b in values:
                            candidate = (
                                image[:position] + (b,) + image[position:]
                            )
                            if candidate in tables[extended_domain]:
                                found = True
                                break
                        if not found:
                            ok = False
                            break
                if ok:
                    survivors.add(image)
            if len(survivors) != len(tables[d]):
                tables[d] = survivors
                changed = True
            if not survivors:
                return None
    return tables


def _bag_maps(
    bag: tuple[Element, ...],
    values: tuple[Element, ...],
    facts: list[tuple[str, tuple[Element, ...]]],
    target: Structure,
):
    """All maps bag → values satisfying the node's assigned facts."""
    for image in product(values, repeat=len(bag)):
        mapping = dict(zip(bag, image))
        if all(
            tuple(mapping[e] for e in fact) in target.relation(name)
            for name, fact in facts
        ):
            yield tuple(sorted(mapping.items(), key=lambda kv: _sort_key(kv[0])))


def solve_by_treewidth(
    source: Structure,
    target: Structure,
    decomposition: TreeDecomposition | None = None,
) -> dict[Element, Element] | None:
    """A homomorphism by bag-table DP over ``decomposition`` (default:
    min-fill), or ``None``."""
    if source.vocabulary != target.vocabulary:
        raise VocabularyError("instance structures must share a vocabulary")
    if decomposition is None:
        decomposition = decompose(source)
    else:
        decomposition.validate(source)
    if not source.universe:
        return {}
    if not target.universe:
        return None

    values = tuple(target.sorted_universe)
    facts_at = decomposition.assign_facts(source)
    order = decomposition.rooted(0)
    children: dict[int, list[int]] = {node: [] for node, _ in order}
    for node, parent in order:
        if parent is not None:
            children[parent].append(node)

    bags = {
        node: tuple(sorted(decomposition.bags[node], key=_sort_key))
        for node, _ in order
    }

    # Bottom-up: per node, the set of bag maps consistent with its subtree.
    tables: dict[int, set[BagMap]] = {}
    for node, _parent in reversed(order):
        bag = bags[node]
        bag_set = set(bag)
        table: set[BagMap] = set()
        child_views: list[tuple[int, tuple[Element, ...]]] = [
            (child, tuple(e for e in bags[child] if e in bag_set))
            for child in children[node]
        ]
        # Index child tables by their restriction to the shared elements.
        child_indexes = []
        for child, shared in child_views:
            index: set[tuple[tuple[Element, Element], ...]] = set()
            for child_map in tables[child]:
                lookup = dict(child_map)
                index.add(tuple((e, lookup[e]) for e in shared))
            child_indexes.append((shared, index))
        for candidate in _bag_maps(bag, values, facts_at[node], target):
            lookup = dict(candidate)
            if all(
                tuple((e, lookup[e]) for e in shared) in index
                for shared, index in child_indexes
            ):
                table.add(candidate)
        tables[node] = table
        if not table:
            return None

    # Top-down reconstruction.
    assignment: dict[Element, Element] = {}

    def choose(node: int, required: dict[Element, Element]) -> None:
        for candidate in sorted(tables[node], key=repr):
            lookup = dict(candidate)
            if all(lookup[e] == v for e, v in required.items()):
                assignment.update(lookup)
                for child in children[node]:
                    shared = {
                        e: assignment[e]
                        for e in bags[child]
                        if e in lookup
                    }
                    choose(child, shared)
                return
        raise AssertionError(
            "non-empty tables must admit a consistent choice; this is a bug"
        )

    choose(0, {})
    return assignment
