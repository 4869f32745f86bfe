"""The Horn route: unit propagation on the target's Horn structure.

Theorem 3.4: when every relation of a Boolean target is closed under
coordinatewise AND, the instance is decided by the direct quadratic
algorithm — start from the all-1 candidate and propagate forced zeros.
"""

from __future__ import annotations

from repro.boolean.direct import solve_horn_csp
from repro.boolean.schaefer import SchaeferClass
from repro.core.pipeline import Solution, SolveContext
from repro.structures.structure import Structure

__all__ = ["HornStrategy"]


class HornStrategy:
    """Route Horn Boolean targets to the direct Theorem 3.4 algorithm."""

    name = "horn-direct"

    def applies(
        self, source: Structure, target: Structure, context: SolveContext
    ) -> bool:
        return target.universe == {0, 1} and bool(
            context.classification(target) & SchaeferClass.HORN
        )

    def run(
        self, source: Structure, target: Structure, context: SolveContext
    ) -> Solution:
        return Solution(solve_horn_csp(source, target), self.name)
