"""The affine route: Gaussian elimination over GF(2).

Theorem 3.3: relations closed under the ternary XOR are affine subspaces
of GF(2)^r, so the instance becomes a linear system solved by Gaussian
elimination (via the formula-building uniform solver, which picks the
affine construction for these targets).
"""

from __future__ import annotations

from repro.boolean.schaefer import SchaeferClass
from repro.boolean.uniform import solve_schaefer_csp
from repro.core.pipeline import Solution, SolveContext
from repro.structures.structure import Structure

__all__ = ["AffineStrategy"]


class AffineStrategy:
    """Route affine Boolean targets to the GF(2) linear-algebra solver."""

    name = "affine-gf2"

    def applies(
        self, source: Structure, target: Structure, context: SolveContext
    ) -> bool:
        return target.universe == {0, 1} and bool(
            context.classification(target) & SchaeferClass.AFFINE
        )

    def run(
        self, source: Structure, target: Structure, context: SolveContext
    ) -> Solution:
        return Solution(solve_schaefer_csp(source, target), self.name)
