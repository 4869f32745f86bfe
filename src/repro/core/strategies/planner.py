"""The width-aware planner route: choose the engine, then run it.

Where the fixed registry encodes one preference order for everyone, this
route — opt-in via ``solve(..., plan=True)`` — asks
:func:`repro.kernel.estimate.plan_instance` which engine is predicted
cheapest for *this* instance:

* **dp** — the compiled decomposition DP (:mod:`repro.kernel.decomp`),
  available when the greedy width is within the threshold; complete.
* **pebble** — the generalized compiled k-pebble game
  (:mod:`repro.kernel.pebblek`): a Spoiler win refutes the instance
  outright (sound by Theorem 4.8's easy direction); otherwise the route
  falls back to the kernel search from the same compilation, so the
  answer is always decided.  It is also the one Theorem 4.2 route: an
  explicit ``solve(..., plan=True, try_canonical_datalog=k)`` asks
  "does ρ_B derive its goal on A?", which *is* "does the Spoiler win
  the k-pebble game?", so the planner plays this route at that k
  instead of evaluating the |B|^k-rule program.
* **search** — the kernel's GAC + MRV backtracking
  (:mod:`repro.kernel.search`); the total fallback.

The decision — route, predicted costs, width and degree signals, and
whether a pebble fall-back happened — is stashed in
``context.scratch["plan"]`` and surfaces as ``Solution.stats.plan``, so
planner routing is observable request by request (the P4 benchmark
prints exactly this).

The strategy sits between the Schaefer islands and the fixed
``treewidth-dp`` route: Boolean targets keep their O(‖A‖·‖B‖) direct
algorithms, and with planning off (the default) ``applies`` declines
instantly, leaving the seed routing untouched.
"""

from __future__ import annotations

from repro.core.pipeline import Solution, SolveContext
from repro.exceptions import ResourceBudgetError
from repro.kernel.decomp import solve_decomposition
from repro.kernel.estimate import Plan, plan_instance
from repro.kernel.pebblek import spoiler_wins_k
from repro.kernel.search import solve as kernel_solve
from repro.obs.trace import maybe_span
from repro.structures.structure import Structure

__all__ = ["WidthPlannerStrategy"]


class WidthPlannerStrategy:
    """Route each instance to its predicted-cheapest sound engine."""

    name = "width-planner"

    def _plan(
        self, source: Structure, target: Structure, context: SolveContext
    ) -> Plan:
        """Derive (and stash) the routing decision for this solve."""
        plan = context.scratch.get("plan_obj")
        if not isinstance(plan, Plan):
            with maybe_span("planner.decide") as span:
                plan = plan_instance(
                    source,
                    context.compiled_target(target),
                    width_threshold=context.width_threshold,
                    pebble_k=context.pebble_k,
                    datalog_k=context.datalog_k,
                    decomposition_provider=lambda: context.decomposition(
                        source
                    ),
                )
                if span is not None:
                    span.set(
                        route=plan.route,
                        predicted_cost=plan.predicted_cost,
                        width=plan.width,
                    )
            context.scratch["plan_obj"] = plan
            context.scratch["plan"] = plan.as_dict()
        return plan

    def applies(
        self, source: Structure, target: Structure, context: SolveContext
    ) -> bool:
        if not context.plan_enabled:
            return False
        if source.universe and not target.universe:
            # Trivially unsatisfiable; let the backtracking route answer.
            return False
        plan = self._plan(source, target, context)
        if plan.width is None:
            # The degree gate skipped the width estimate (or the instance
            # is trivial), so "dp unavailable" is a guess, not a fact —
            # routing to search here could *lose* to the fixed
            # treewidth-dp route behind us.  Decline and fall through to
            # the default registry, which behaves exactly like plan=False.
            del context.scratch["plan_obj"], context.scratch["plan"]
            return False
        return True

    def run(
        self, source: Structure, target: Structure, context: SolveContext
    ) -> Solution:
        plan = self._plan(source, target, context)
        compiled = context.compiled_target(target)
        if plan.route == "dp":
            try:
                return Solution(
                    solve_decomposition(
                        source, compiled, context.decomposition(source)
                    ),
                    f"{self.name}(route=dp,width={plan.width})",
                )
            except ResourceBudgetError:
                # The bag-table bound would not fit; the search engine
                # answers the same question without the table.
                plan_dict = dict(context.scratch.get("plan") or {})
                plan_dict["dp_fallback"] = "search-budget"
                context.scratch["plan"] = plan_dict
                return Solution(
                    kernel_solve(source, compiled),
                    f"{self.name}(route=dp,width={plan.width},"
                    "fallback=search-budget)",
                )
        if plan.route == "pebble":
            k = plan.pebble_k
            assert k is not None  # plan_instance always sets it for pebble
            if spoiler_wins_k(source, compiled, k):
                return Solution(
                    None, f"{self.name}(route=pebble,k={k})"
                )
            # Duplicator survives: the game alone cannot confirm a
            # homomorphism, so finish with the search engine and say so.
            plan_dict = dict(context.scratch.get("plan") or {})
            plan_dict["pebble_fallback"] = "search"
            context.scratch["plan"] = plan_dict
            return Solution(
                kernel_solve(source, compiled),
                f"{self.name}(route=pebble,k={k},fallback=search)",
            )
        return Solution(
            kernel_solve(source, compiled), f"{self.name}(route=search)"
        )
