"""The width-aware planner: cost models over the kernel's compiled sizes.

The **pipeline's planner strategy**
(:class:`repro.core.strategies.planner.WidthPlannerStrategy`) reads its
predictions off this module to pick the solving engine — backtracking
search, the treewidth DP, or the existential k-pebble game — per
instance; the query-level planner in :mod:`repro.cq.containment` reuses
the same cost models.

All signals are read off compilations and memoized analyses already on
the solve path: compiled sizes (linear, memoized on the structures and
fingerprint-cached), Gaifman degree statistics (one pass over the
compiled constraint scopes), and — gated by the degree statistics so
hopeless instances never pay for it — the greedy tree decomposition
width from :mod:`repro.treewidth.heuristics` (memoized on the source).

The models are deliberately crude routing signals, not predictions:

* **search** — the standard branching surrogate: ``n`` variables each
  choosing among ``m`` values, every choice paying one support scan over
  the touching constraints' target tuples;
* **dp** — the Theorem 5.4 table bound: the sum over bags of
  ``m^{|bag|}`` — the worst-case bag-table sizes, in the spirit of
  worst-case size bounds for conjunctive joins (the DP's real tables
  are the semijoin-reduced fraction of that);
* **pebble** — the number of ≤ k-subassignment states
  ``Σ_s C(n, s)·m^s``, scaled down by :data:`PEBBLE_STATE_FACTOR`
  because the compiled game's per-state step is a couple of big-int
  operations, not a tuple scan.  The same model prices an explicit k
  (Theorem 4.2's "does ρ_B derive its goal on A?", which *is* the
  k-pebble game).

Each model is monotone in everything that makes its engine slow, which
is all a three-way split needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable

from repro.kernel.compile import (
    CompiledSource,
    CompiledTarget,
    compile_source,
    compile_target,
)
from repro.structures.gaifman import gaifman_masks
from repro.structures.structure import Structure
from repro.treewidth.decomposition import TreeDecomposition

__all__ = [
    "Plan",
    "estimate_cost",
    "gaifman_degree_stats",
    "plan_instance",
]

#: Skip the greedy decomposition (treat the width as unbounded) when the
#: Gaifman degree or the universe says even computing it is a bad deal.
WIDTH_SKIP_DEGREE = 24
WIDTH_SKIP_SIZE = 1024

#: The pebble route is only considered against small targets (the game
#: scales with m^k) and sources whose ≤ k-subassignment count is sane.
PEBBLE_TARGET_BOUND = 8
PEBBLE_SOURCE_BOUND = 128
DEFAULT_PLANNER_PEBBLE_K = 3

#: Per-state work of the compiled pebble fixpoint relative to one search
#: branch: a residual check or window AND versus a support scan.
PEBBLE_STATE_FACTOR = 0.125

#: Absolute budget (in the shared unitless scale) above which the pebble
#: closure is no longer considered worth playing before search.
PEBBLE_COST_CAP = 40_000.0


@dataclass(frozen=True)
class Plan:
    """One instance's routing decision plus the signals behind it.

    ``route`` is ``"search"``, ``"dp"`` or ``"pebble"``;
    ``predicted_cost`` is the chosen route's cost in the shared unitless
    scale.  ``dp_cost`` / ``pebble_cost`` are ``None`` when the route was
    not available for this instance (width above threshold or never
    estimated; target/source outside the pebble bounds).
    """

    route: str
    predicted_cost: float
    search_cost: float
    dp_cost: float | None
    pebble_cost: float | None
    width: int | None
    num_bags: int | None
    pebble_k: int | None
    max_degree: int
    avg_degree: float

    def as_dict(self) -> dict:
        """A JSON-friendly view for ``Solution.stats`` and snapshots."""
        return {
            "route": self.route,
            "predicted_cost": self.predicted_cost,
            "search_cost": self.search_cost,
            "dp_cost": self.dp_cost,
            "pebble_cost": self.pebble_cost,
            "width": self.width,
            "num_bags": self.num_bags,
            "pebble_k": self.pebble_k,
            "max_degree": self.max_degree,
            "avg_degree": self.avg_degree,
        }


def estimate_cost(
    source: Structure | CompiledSource,
    target: Structure | CompiledTarget,
    *,
    ctarget: CompiledTarget | None = None,
) -> float:
    """A unitless surrogate for how expensive *search* on (A, B) can get.

    ``ctarget`` lets a caller supply an already-cached compilation (the
    service passes its sharded cache's copy) so the estimate never
    compiles a target twice.
    """
    csource = compile_source(source)
    if ctarget is None:
        ctarget = compile_target(target)
    n = len(csource.variables)
    m = len(ctarget.values)
    total_tuples = sum(len(rows) for rows in ctarget.tuples.values())
    constraints = len(csource.constraints)
    if n == 0 or m == 0:
        return 0.0
    # Per search level: up to m value choices, each forward-checking the
    # constraints on the chosen variable against the target's tuples.
    tuples_per_relation = total_tuples / max(1, len(ctarget.tuples))
    per_level = m * (1.0 + tuples_per_relation)
    density = constraints / n
    return n * per_level * (1.0 + density)


def gaifman_degree_stats(
    source: Structure | CompiledSource,
) -> tuple[int, float]:
    """``(max, average)`` Gaifman degree, off the Gaifman bitmasks.

    The Gaifman degree of an element is the number of distinct elements
    it co-occurs with in some fact — a one-pass, decomposition-free
    signal for whether a width estimate is worth computing at all.
    Memoized on the compiled source (the service's routing pass and the
    pipeline's planner strategy both ask per solve).
    """
    csource = compile_source(source)
    memoized = csource._gaifman_stats
    if memoized is not None:
        return memoized
    if not csource.variables:
        return 0, 0.0
    degrees = [mask.bit_count() for mask in gaifman_masks(csource.structure)[1]]
    stats = max(degrees), sum(degrees) / len(degrees)
    csource._gaifman_stats = stats
    return stats


def _dp_cost(decomposition: TreeDecomposition, m: int) -> float:
    """Worst-case total bag-table size: Σ_bags m^{|bag|} (Theorem 5.4)."""
    return float(sum(m ** len(bag) for bag in decomposition.bags))


def _pebble_cost(n: int, m: int, k: int) -> float:
    """≤ k-subassignment states, scaled to the compiled game's step cost."""
    states = sum(comb(n, s) * m**s for s in range(1, min(k, n) + 1))
    return states * PEBBLE_STATE_FACTOR


def plan_instance(
    source: Structure | CompiledSource,
    target: Structure | CompiledTarget,
    *,
    ctarget: CompiledTarget | None = None,
    width_threshold: int = 3,
    pebble_k: int | None = None,
    allow_pebble: bool = True,
    datalog_k: int | None = None,
    decomposition: TreeDecomposition | None = None,
    decomposition_provider: Callable[[], TreeDecomposition] | None = None,
) -> Plan:
    """Choose the solving engine for one instance (see module docstring).

    The choice mirrors the paper's tractability map rather than a bare
    cost argmin (a worst-case search surrogate is linear in ``n`` while
    any k-pebble closure is Ω(n^k), so pure cost comparison would never
    play the game that *guards against* search going exponential):

    1. **dp** when the width estimate is within the threshold and the
       Theorem 5.4 table bound does not exceed the search estimate —
       the Section 5 island, complete and polynomial;
    2. **pebble** when the width is too large but the target is small
       (``m ≤`` :data:`PEBBLE_TARGET_BOUND`) and the closure fits the
       :data:`PEBBLE_COST_CAP` budget — the Section 4 island: for
       k-Datalog-expressible targets the game decides outright
       (Theorem 4.9), and a surviving closure costs one polynomial pass
       before the search fallback;
    3. **search** otherwise — the NP fallback.

    ``datalog_k`` is an explicit k (``solve(...,
    try_canonical_datalog=k)``, ``/v1/datalog``): the caller asks
    Theorem 4.2's question — does ρ_B derive its goal on A? — which is
    the k-pebble game.  When the pebble bounds and the
    :data:`PEBBLE_COST_CAP` budget admit it, the ``"pebble"`` route is
    played at that k ahead of the heuristic pebble choice, losing only
    to a within-threshold DP; ``allow_pebble`` does not gate it.  A
    surviving closure still falls back to search in the strategy, so
    the route stays sound.

    ``decomposition`` short-circuits the width estimate with a known
    certificate; otherwise ``decomposition_provider`` (e.g. the
    pipeline's cached ``context.decomposition``) is consulted — but only
    when the Gaifman degree statistics say the greedy decomposition is
    worth computing.  With ``allow_pebble=False`` (the containment
    planner in :mod:`repro.cq.containment`) and no explicit k the choice
    degrades to the two-way search/DP split.  The chosen route is always
    *sound*: DP and search decide outright, and the pebble route falls
    back to search when the Spoiler does not win.
    """
    csource = compile_source(source)
    if ctarget is None:
        ctarget = compile_target(target)
    n = len(csource.variables)
    m = len(ctarget.values)
    max_degree, avg_degree = gaifman_degree_stats(csource)
    search_cost = estimate_cost(csource, ctarget, ctarget=ctarget)

    if n == 0 or m == 0:
        return Plan(
            route="search",
            predicted_cost=0.0,
            search_cost=search_cost,
            dp_cost=None,
            pebble_cost=None,
            width=None,
            num_bags=None,
            pebble_k=None,
            max_degree=max_degree,
            avg_degree=avg_degree,
        )

    width: int | None = None
    num_bags: int | None = None
    dp_cost: float | None = None
    if decomposition is None and (
        n <= WIDTH_SKIP_SIZE and max_degree <= WIDTH_SKIP_DEGREE
    ):
        if decomposition_provider is not None:
            decomposition = decomposition_provider()
        else:
            from repro.treewidth.heuristics import cached_decomposition

            decomposition = cached_decomposition(csource.structure)
    if decomposition is not None:
        width = decomposition.width
        num_bags = len(decomposition.bags)
        if width <= width_threshold:
            dp_cost = _dp_cost(decomposition, m)

    fits = m <= PEBBLE_TARGET_BOUND and n <= PEBBLE_SOURCE_BOUND
    # An explicit k is played whenever its closure fits the budget;
    # otherwise the heuristic k is priced, where pebble is allowed.
    explicit = False
    pebble_cost: float | None = None
    if fits and datalog_k is not None:
        k, pebble_cost = datalog_k, _pebble_cost(n, m, datalog_k)
        explicit = pebble_cost <= PEBBLE_COST_CAP
    if not explicit and allow_pebble and fits:
        k = pebble_k if pebble_k is not None else DEFAULT_PLANNER_PEBBLE_K
        pebble_cost = _pebble_cost(n, m, k)

    if dp_cost is not None and dp_cost <= search_cost:
        route, cost = "dp", dp_cost
    elif explicit or (
        dp_cost is None
        and pebble_cost is not None
        and pebble_cost <= PEBBLE_COST_CAP
    ):
        route, cost = "pebble", pebble_cost
    else:
        route, cost = "search", search_cost
    return Plan(
        route=route,
        predicted_cost=cost,
        search_cost=search_cost,
        dp_cost=dp_cost,
        pebble_cost=pebble_cost,
        width=width,
        num_bags=num_bags,
        pebble_k=k if route == "pebble" else (pebble_k or None),
        max_degree=max_degree,
        avg_degree=avg_degree,
    )
