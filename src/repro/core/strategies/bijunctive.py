"""The bijunctive route: 2-SAT on the target's majority-closed structure.

Theorem 3.4: relations closed under the coordinatewise majority operation
are definable by 2-CNF, so the instance reduces to 2-SAT, solved in
linear time via implication-graph SCCs.
"""

from __future__ import annotations

from repro.boolean.direct import solve_bijunctive_csp
from repro.boolean.schaefer import SchaeferClass
from repro.core.pipeline import Solution, SolveContext
from repro.structures.structure import Structure

__all__ = ["BijunctiveStrategy"]


class BijunctiveStrategy:
    """Route bijunctive Boolean targets to the 2-SAT reduction."""

    name = "bijunctive-direct"

    def applies(
        self, source: Structure, target: Structure, context: SolveContext
    ) -> bool:
        return target.universe == {0, 1} and bool(
            context.classification(target) & SchaeferClass.BIJUNCTIVE
        )

    def run(
        self, source: Structure, target: Structure, context: SolveContext
    ) -> Solution:
        return Solution(solve_bijunctive_csp(source, target), self.name)
