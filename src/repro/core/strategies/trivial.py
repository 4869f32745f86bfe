"""The constant-map routes: 0-valid and 1-valid targets (Section 3).

If every relation of a Boolean target contains the all-zero tuple, the
constant map ``a ↦ 0`` is a homomorphism from *any* source — no search
needed.  Dually for all-one tuples.  These are the two trivial Schaefer
classes, checked first because they decide the instance in O(|A|).
"""

from __future__ import annotations

from repro.boolean.schaefer import SchaeferClass
from repro.core.pipeline import Solution, SolveContext
from repro.structures.structure import Structure

__all__ = ["OneValidStrategy", "ZeroValidStrategy"]


class ZeroValidStrategy:
    """Route 0-valid Boolean targets to the constant-0 map."""

    name = "zero-valid"

    def applies(
        self, source: Structure, target: Structure, context: SolveContext
    ) -> bool:
        return target.universe == {0, 1} and bool(
            context.classification(target) & SchaeferClass.ZERO_VALID
        )

    def run(
        self, source: Structure, target: Structure, context: SolveContext
    ) -> Solution:
        return Solution({e: 0 for e in source.universe}, self.name)


class OneValidStrategy:
    """Route 1-valid Boolean targets to the constant-1 map."""

    name = "one-valid"

    def applies(
        self, source: Structure, target: Structure, context: SolveContext
    ) -> bool:
        return target.universe == {0, 1} and bool(
            context.classification(target) & SchaeferClass.ONE_VALID
        )

    def run(
        self, source: Structure, target: Structure, context: SolveContext
    ) -> Solution:
        return Solution({e: 1 for e in source.universe}, self.name)
