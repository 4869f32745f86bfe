"""The dual-Horn route: the mirror image of Horn propagation.

Theorem 3.4, dualized: relations closed under coordinatewise OR are
decided by starting from the all-0 candidate and propagating forced ones.
"""

from __future__ import annotations

from repro.boolean.direct import solve_dual_horn_csp
from repro.boolean.schaefer import SchaeferClass
from repro.core.pipeline import Solution, SolveContext
from repro.structures.structure import Structure

__all__ = ["DualHornStrategy"]


class DualHornStrategy:
    """Route dual-Horn Boolean targets to the direct Theorem 3.4 algorithm."""

    name = "dual-horn-direct"

    def applies(
        self, source: Structure, target: Structure, context: SolveContext
    ) -> bool:
        return target.universe == {0, 1} and bool(
            context.classification(target) & SchaeferClass.DUAL_HORN
        )

    def run(
        self, source: Structure, target: Structure, context: SolveContext
    ) -> Solution:
        return Solution(solve_dual_horn_csp(source, target), self.name)
