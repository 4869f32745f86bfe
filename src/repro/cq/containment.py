"""Conjunctive-query containment via Chandra–Merlin (Theorem 2.1).

``Q1 ⊆ Q2`` (every database D has Q1(D) ⊆ Q2(D)) holds iff there is a
homomorphism ``D_{Q2} → D_{Q1}`` mapping distinguished variables to the
corresponding distinguished variables — which the unary marker predicates of
the canonical databases enforce automatically.  Theorem 2.1 also gives the
evaluation characterization (``(X1,…,Xn) ∈ Q2(D_{Q1})``), implemented as an
independent second route for cross-checking.

The general problem is NP-complete [CM77]; the paper's polynomial special
cases — Saraiya's two-atom class (Proposition 3.6, via Booleanization) and
bounded-width queries (Section 5) — are first-class *routes* here:
:func:`plan_containment` picks per pair between the bijunctive path, the
treewidth DP on ``D_{Q2}``, and the general kernel search, and the batch
layer (:func:`containment_matrix` / :func:`equivalence_classes`) classifies
whole query sets with fingerprint-deduped compilations over one shared
union vocabulary.

Every entry point runs on the compiled query plane — canonical databases
come from :class:`repro.cq.compiled.CompiledQuery` (built once per query
per vocabulary, kernel compilation memoized on the structure).  The
parity suite holds it to the rebuild-per-probe paths of
``reference/cq.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from repro.cq.compiled import CompiledQuery, compile_query
from repro.cq.evaluation import evaluate
from repro.cq.query import ConjunctiveQuery, check_compatible
from repro.cq.saraiya import contains_two_atom_structures
from repro.kernel.compile import compile_target
from repro.kernel.estimate import estimate_cost, plan_instance
from repro.structures.homomorphism import find_homomorphism
from repro.structures.structure import Structure

__all__ = [
    "ContainmentPlan",
    "check_compatible",
    "containment_matrix",
    "containment_witness",
    "contains",
    "contains_via_evaluation",
    "equivalence_classes",
    "equivalent",
    "plan_containment",
]

Element = Hashable

#: Width (of a greedy decomposition of ``D_{Q2}``) up to which the
#: treewidth DP route is considered for a containment pair.
DEFAULT_CONTAINMENT_WIDTH = 3

#: Search-cost estimate below which the planner always picks the kernel
#: search: at that size the bitset search finishes in microseconds, and
#: every island pays more in setup (decomposition, Booleanization) than
#: the whole solve — the batch matrix over small queries lives here.
SEARCH_FAST_PATH = 1_500.0

#: Search-cost estimate above which a two-atom ``Q1`` is routed through
#: Saraiya's quadratic bijunctive path instead of the NP search — the
#: polynomial guard, mirroring how the instance planner treats the
#: pebble route (cheap instances never pay the Booleanization setup).
SARAIYA_COST_CAP = 6_000.0


def _union_pair(
    q1: ConjunctiveQuery, q2: ConjunctiveQuery
) -> tuple[CompiledQuery, CompiledQuery, Structure, Structure]:
    """Compiled queries plus (source, target) of the containment instance.

    The instance for ``Q1 ⊆ Q2`` is the homomorphism problem
    ``D_{Q2} → D_{Q1}`` over the union of the two body vocabularies.
    """
    cq1 = compile_query(q1)
    cq2 = compile_query(q2)
    union = q1.vocabulary.union(q2.vocabulary)
    return cq1, cq2, cq2.canonical_for(union), cq1.canonical_for(union)


def containment_witness(
    q1: ConjunctiveQuery, q2: ConjunctiveQuery
) -> dict[Element, Element] | None:
    """The containment homomorphism ``D_{Q2} → D_{Q1}``, or ``None``.

    A witness maps every variable of ``q2`` to a variable of ``q1`` such
    that subgoals of ``q2`` become subgoals of ``q1`` and distinguished
    variables correspond positionally.
    """
    check_compatible(q1, q2)
    _cq1, _cq2, source, target = _union_pair(q1, q2)
    return find_homomorphism(source, target)


def contains(
    q1: ConjunctiveQuery,
    q2: ConjunctiveQuery,
    *,
    plan: bool = False,
) -> bool:
    """Decide ``Q1 ⊆ Q2`` (the paper's containment direction).

    Equivalent formulations (Theorem 2.1): there is a homomorphism
    ``D_{Q2} → D_{Q1}``, and the distinguished tuple of ``Q1`` is an answer
    of ``Q2`` on ``D_{Q1}``.  With ``plan=True`` the pair is routed by
    :func:`plan_containment` (Saraiya / treewidth DP / search) instead of
    going straight to the kernel search; every route is exact.
    """
    check_compatible(q1, q2)
    _cq1, _cq2, source, target = _union_pair(q1, q2)
    if plan:
        decision = _plan_structures(q1, source, target)
        return _contains_instance(source, target, decision.route)
    return find_homomorphism(source, target) is not None


def contains_via_evaluation(
    q1: ConjunctiveQuery, q2: ConjunctiveQuery
) -> bool:
    """Decide ``Q1 ⊆ Q2`` by evaluating Q2 on the canonical database of Q1.

    The second bullet of Theorem 2.1: ``(X1, …, Xn) ∈ Q2(D_{Q1})`` where
    ``(X1, …, Xn)`` are Q1's distinguished variables.  This route exists to
    cross-check :func:`contains`; both must always agree.
    """
    check_compatible(q1, q2)
    union = q1.vocabulary.union(q2.vocabulary)
    answers = evaluate(q2, compile_query(q1).body_for(union))
    return tuple(q1.head_variables) in answers


def equivalent(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """Query equivalence: containment in both directions."""
    return contains(q1, q2) and contains(q2, q1)


# ---------------------------------------------------------------------------
# The query-level containment planner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContainmentPlan:
    """One containment pair's routing decision plus the signals behind it.

    ``route`` is ``"saraiya"`` (Booleanize → bijunctive, Proposition 3.6),
    ``"dp"`` (treewidth DP on ``D_{Q2}``, Theorem 5.4 applied to the
    containment instance), or ``"search"`` (general kernel search).
    ``saraiya_eligible`` records whether ``Q1`` is in the two-atom class
    regardless of which route won; ``width`` is the greedy width estimate
    of ``D_{Q2}`` when one was computed.  Every route decides the pair
    exactly — the plan is about cost, never about correctness.
    """

    route: str
    saraiya_eligible: bool
    search_cost: float
    dp_cost: float | None
    width: int | None

    def as_dict(self) -> dict:
        """A JSON-friendly view for benchmarks and service stats."""
        return {
            "route": self.route,
            "saraiya_eligible": self.saraiya_eligible,
            "search_cost": self.search_cost,
            "dp_cost": self.dp_cost,
            "width": self.width,
        }


def _plan_structures(
    q1: ConjunctiveQuery,
    source: Structure,
    target: Structure,
    width_threshold: int = DEFAULT_CONTAINMENT_WIDTH,
) -> ContainmentPlan:
    """Route one compiled containment instance (see :func:`plan_containment`)."""
    saraiya_eligible = q1.is_two_atom
    ctarget = compile_target(target)
    search_cost = estimate_cost(source, target, ctarget=ctarget)
    if search_cost <= SEARCH_FAST_PATH:
        # Below the fast-path floor the full planner is pure overhead:
        # skip the width estimate entirely and search.
        return ContainmentPlan(
            route="search",
            saraiya_eligible=saraiya_eligible,
            search_cost=search_cost,
            dp_cost=None,
            width=None,
        )
    base = plan_instance(
        source,
        target,
        ctarget=ctarget,
        width_threshold=width_threshold,
        allow_pebble=False,
    )
    if base.route == "dp":
        route = "dp"
    elif saraiya_eligible and base.search_cost > SARAIYA_COST_CAP:
        route = "saraiya"
    else:
        route = "search"
    return ContainmentPlan(
        route=route,
        saraiya_eligible=saraiya_eligible,
        search_cost=base.search_cost,
        dp_cost=base.dp_cost,
        width=base.width,
    )


def plan_containment(
    q1: ConjunctiveQuery,
    q2: ConjunctiveQuery,
    *,
    width_threshold: int = DEFAULT_CONTAINMENT_WIDTH,
) -> ContainmentPlan:
    """Choose the containment algorithm for ``Q1 ⊆ Q2``.

    The query-level mirror of :func:`repro.kernel.estimate.plan_instance`,
    over the paper's tractable-containment map:

    1. **dp** when ``D_{Q2}`` (the homomorphism *source*) has a greedy
       width within ``width_threshold`` and the Theorem 5.4 table bound
       beats the search estimate — the Section 5 island;
    2. **saraiya** when ``Q1`` is a two-atom query and the search estimate
       exceeds :data:`SARAIYA_COST_CAP` — the Proposition 3.6 island,
       guarding against exponential search with the quadratic
       Booleanization pipeline;
    3. **search** otherwise — the NP baseline on the compiled kernel.
    """
    check_compatible(q1, q2)
    _cq1, _cq2, source, target = _union_pair(q1, q2)
    return _plan_structures(q1, source, target, width_threshold)


def _contains_instance(
    source: Structure, target: Structure, route: str
) -> bool:
    """Decide one compiled containment instance along ``route``."""
    if route == "saraiya":
        return contains_two_atom_structures(source, target)
    if route == "dp":
        from repro.kernel.decomp import solve_decomposition
        from repro.treewidth.heuristics import cached_decomposition

        return (
            solve_decomposition(source, target, cached_decomposition(source))
            is not None
        )
    return find_homomorphism(source, target) is not None


# ---------------------------------------------------------------------------
# The batch layer
# ---------------------------------------------------------------------------

def containment_matrix(
    queries: Sequence[ConjunctiveQuery] | Iterable[ConjunctiveQuery],
    *,
    width_threshold: int = DEFAULT_CONTAINMENT_WIDTH,
    plan: bool = True,
) -> list[list[bool]]:
    """The full containment relation: ``matrix[i][j]`` iff ``Qi ⊆ Qj``.

    The batch entry point of the query plane.  The queries are
    deduplicated by :func:`repro.cq.compiled.query_fingerprint`
    before anything is compiled, every canonical database is built once
    over the *shared* union vocabulary of the whole batch (widening with
    empty relations never changes a containment verdict), and each of the
    ``k·(k-1)`` distinct ordered pairs is routed by the containment
    planner (``plan=False`` forces the plain kernel search).  Diagonal
    entries are ``True`` by reflexivity.

    All queries must share one head arity (:class:`VocabularyError`
    otherwise), and their body vocabularies must agree on arities.
    """
    queries = list(queries)
    if not queries:
        return []
    for query in queries[1:]:
        check_compatible(queries[0], query)

    compiled = [compile_query(query) for query in queries]
    slots: list[int] = []
    unique: dict[str, int] = {}
    representatives: list[CompiledQuery] = []
    for cq in compiled:
        slot = unique.get(cq.fingerprint)
        if slot is None:
            slot = len(representatives)
            unique[cq.fingerprint] = slot
            representatives.append(cq)
        slots.append(slot)

    union = representatives[0].query.vocabulary
    for cq in representatives[1:]:
        union = union.union(cq.query.vocabulary)
    canonicals = [cq.canonical_for(union) for cq in representatives]

    k = len(representatives)
    cells = [[True] * k for _ in range(k)]
    for i in range(k):
        target = canonicals[i]
        for j in range(k):
            if i == j:
                continue
            # Qi ⊆ Qj is the homomorphism instance D_{Qj} → D_{Qi}.
            source = canonicals[j]
            if plan:
                decision = _plan_structures(
                    representatives[i].query, source, target, width_threshold
                )
                cells[i][j] = _contains_instance(
                    source, target, decision.route
                )
            else:
                cells[i][j] = find_homomorphism(source, target) is not None
    return [
        [cells[slots[i]][slots[j]] for j in range(len(queries))]
        for i in range(len(queries))
    ]


def equivalence_classes(
    queries: Sequence[ConjunctiveQuery] | Iterable[ConjunctiveQuery],
    *,
    width_threshold: int = DEFAULT_CONTAINMENT_WIDTH,
) -> list[list[int]]:
    """Group query indices by equivalence (mutual containment).

    Containment is a preorder, so mutual containment is an equivalence
    relation; the classes come back as index lists in first-seen order,
    each class ordered by input position.  Built on
    :func:`containment_matrix`, so the batch dedup/compile sharing
    applies unchanged.
    """
    queries = list(queries)
    matrix = containment_matrix(queries, width_threshold=width_threshold)
    classes: list[list[int]] = []
    leaders: list[int] = []
    for index in range(len(queries)):
        for leader, members in zip(leaders, classes):
            if matrix[index][leader] and matrix[leader][index]:
                members.append(index)
                break
        else:
            leaders.append(index)
            classes.append([index])
    return classes
