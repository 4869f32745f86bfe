"""Direct uniform algorithms that skip formula building (Theorem 3.4).

Theorem 3.3's route through defining formulas costs cubic time for the
Horn, dual-Horn, and bijunctive cases because the formulas themselves can
be quadratic in the size of B.  Theorem 3.4 removes the formula-building
stage and works on the structures directly, achieving O(‖A‖·‖B‖):

* **Horn** (:func:`solve_horn_csp`) — maintain a set ``One`` of elements of
  A that *must* map to 1.  A tuple ``t`` of a relation ``Q`` of A with
  ones-positions ``One(t)`` forces position ``j`` whenever the target
  relation ``Q′`` satisfies the implication ``One(t) → j``.  When ``One``
  stabilizes, a homomorphism exists iff every tuple ``t`` has a witness
  ``t′ ∈ Q′`` with ``One(t) ⊆ One(t′)``; the homomorphism maps ``One`` to 1
  and everything else to 0.  The element-occurrence index makes each
  element's additions touch each target tuple O(arity) times, matching the
  paper's O(‖A‖·‖B‖) bound.
* **dual Horn** (:func:`solve_dual_horn_csp`) — by bit-flip duality.
* **bijunctive** (:func:`solve_bijunctive_csp`) — the [LP97] 2-SAT phase
  algorithm emulated on the structures: guess a value for an unassigned
  element and propagate through the *implied* binary clauses, reading them
  off B on the fly (``T_{Q′,m,i}`` in the paper's notation) instead of
  materializing them.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable

from repro.boolean.relations import boolean_relations_of
from repro.exceptions import NotBooleanError, NotSchaeferError, VocabularyError
from repro.structures.structure import Structure

__all__ = [
    "solve_horn_csp",
    "solve_dual_horn_csp",
    "solve_bijunctive_csp",
]

Element = Hashable


def _validate(source: Structure, target: Structure) -> None:
    if source.vocabulary != target.vocabulary:
        raise VocabularyError("instance structures must share a vocabulary")
    if target.universe != {0, 1}:  # the paper's Boolean structures
        raise NotBooleanError("expected a target with universe exactly {0, 1}")


def solve_horn_csp(
    source: Structure, target: Structure
) -> dict[Element, int] | None:
    """Theorem 3.4, Horn case: O(‖A‖·‖B‖) homomorphism search.

    ``target`` must be a Horn Boolean structure (every relation closed
    under componentwise AND); :class:`NotSchaeferError` otherwise.
    """
    _validate(source, target)
    relations_b = boolean_relations_of(target)
    if not all(rel.is_horn for rel in relations_b.values()):
        raise NotSchaeferError("target structure is not Horn")

    facts = list(source.facts())
    # ones[f] = positions of fact index f currently known to map to 1.
    ones: list[set[int]] = [set() for _ in facts]
    occurrences: dict[Element, list[tuple[int, int]]] = {}
    for index, (_name, fact) in enumerate(facts):
        for position, element in enumerate(fact):
            occurrences.setdefault(element, []).append((index, position))

    one: set[Element] = set()
    queue: deque[Element] = deque()

    def force(element: Element) -> None:
        if element not in one:
            one.add(element)
            queue.append(element)

    def scan(index: int) -> None:
        """Re-derive forced positions of fact ``index`` from its ones-set."""
        name, fact = facts[index]
        relation = relations_b[name]
        body = ones[index]
        meet = relation.meet_above(frozenset(body))
        if meet is None:
            # No target tuple lies above the body: every implication
            # body → j holds vacuously, so all positions are forced (and
            # the final witness check will fail, correctly).
            for position in range(len(fact)):
                if position not in body:
                    force(fact[position])
            return
        for position, bit in enumerate(meet):
            if bit == 1 and position not in body:
                force(fact[position])

    # Initial pass with empty bodies (fires unconditional implications).
    for index in range(len(facts)):
        scan(index)
    while queue:
        element = queue.popleft()
        for index, position in occurrences.get(element, ()):
            if position in ones[index]:
                continue
            ones[index].add(position)
            scan(index)

    # Witness check: every fact needs a target tuple above its ones-set.
    for index, (name, fact) in enumerate(facts):
        if relations_b[name].meet_above(frozenset(ones[index])) is None:
            return None
    return {
        element: 1 if element in one else 0 for element in source.universe
    }


def solve_dual_horn_csp(
    source: Structure, target: Structure
) -> dict[Element, int] | None:
    """Theorem 3.4, dual-Horn case, via the bit-flip duality.

    ``h`` is a homomorphism into ``B`` iff ``1−h`` is one into the
    bit-flipped structure, which is Horn exactly when ``B`` is dual Horn.
    """
    _validate(source, target)
    relations_b = boolean_relations_of(target)
    if not all(rel.is_dual_horn for rel in relations_b.values()):
        raise NotSchaeferError("target structure is not dual Horn")
    flipped = Structure(
        target.vocabulary,
        {0, 1},
        {
            name: {tuple(1 - b for b in t) for t in rel.tuples}
            for name, rel in relations_b.items()
        },
    )
    hom = solve_horn_csp(source, flipped)
    if hom is None:
        return None
    return {element: 1 - value for element, value in hom.items()}


def solve_bijunctive_csp(
    source: Structure, target: Structure
) -> dict[Element, int] | None:
    """Theorem 3.4, bijunctive case: phase propagation on the structures.

    Emulates the linear-time 2-SAT algorithm of [LP97] without building the
    2-CNF: when element ``a`` (at position ``m`` of a fact of relation
    ``Q``) is assigned ``i``, the compatible target tuples are
    ``T_{Q′,m,i} = {t′ ∈ Q′ : t′_m = i}``; if they all agree on position
    ``l`` the element at ``l`` is forced.  Conflicts undo the phase and
    retry the opposite guess; two failures mean no homomorphism.
    """
    _validate(source, target)
    relations_b = boolean_relations_of(target)
    if not all(rel.is_bijunctive for rel in relations_b.values()):
        raise NotSchaeferError("target structure is not bijunctive")

    facts = list(source.facts())
    occurrences: dict[Element, list[tuple[int, int]]] = {}
    for index, (_name, fact) in enumerate(facts):
        for position, element in enumerate(fact):
            occurrences.setdefault(element, []).append((index, position))

    assignment: dict[Element, int] = {}

    def propagate(start: Element, value: int, trail: list[Element]) -> bool:
        """Assign and cascade; returns False on conflict."""
        pending: deque[tuple[Element, int]] = deque([(start, value)])
        while pending:
            element, bit = pending.popleft()
            if element in assignment:
                if assignment[element] != bit:
                    return False
                continue
            assignment[element] = bit
            trail.append(element)
            for index, position in occurrences.get(element, ()):
                name, fact = facts[index]
                compatible = [
                    t
                    for t in relations_b[name].tuples
                    if t[position] == bit
                ]
                if not compatible:
                    return False
                for other_position, other in enumerate(fact):
                    values = {t[other_position] for t in compatible}
                    if len(values) == 1:
                        pending.append((other, values.pop()))
        return True

    # Mandatory pre-phase: positions whose target column is constant.  A
    # unary implied clause has no alternative guess, so conflicts here are
    # final.
    trail: list[Element] = []
    for index, (name, fact) in enumerate(facts):
        relation = relations_b[name]
        if not relation.tuples:
            return None
        for position, element in enumerate(fact):
            column = {t[position] for t in relation.tuples}
            if len(column) == 1:
                if not propagate(element, column.pop(), trail):
                    return None

    # Phases: guess each remaining element, retrying the opposite value on
    # conflict.
    for element in source.sorted_universe:
        if element in assignment:
            continue
        committed = False
        for guess in (0, 1):
            trail = []
            if propagate(element, guess, trail):
                committed = True
                break
            for assigned in trail:
                del assignment[assigned]
        if not committed:
            return None

    hom = {
        element: assignment.get(element, 0) for element in source.universe
    }
    # The 2-SAT theory guarantees this is a homomorphism; the O(‖A‖) check
    # below turns any latent implementation bug into a loud failure.
    for name, fact in facts:
        if tuple(hom[e] for e in fact) not in relations_b[name].tuples:
            raise AssertionError(
                "bijunctive propagation produced a non-homomorphism; "
                "this is a bug"
            )
    return hom
