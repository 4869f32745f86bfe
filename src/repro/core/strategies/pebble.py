"""The pebble-game route: sound (incomplete) refutation via k-consistency.

Section 4: if the Spoiler wins the existential k-pebble game on (A, B),
then certainly A ↛ B — and for targets whose cCSP is k-Datalog-expressible
this test is also complete (Theorem 4.8).  The route is opt-in (set
``try_pebble_refutation=k``) and only *applies* when the Spoiler actually
wins, so it never claims an instance it cannot decide; otherwise the
pipeline falls through to backtracking, exactly like the seed dispatcher.

The game is played on the generalized compiled k-pebble engine
(:func:`repro.kernel.pebblek.spoiler_wins_k` — bitset tables over
≤ k-subassignments, reusing the cached target compilation) for *every*
``k``, not just the old ``k = 2`` fast path; the kernel verdict agrees
with the reference family fixpoint on every instance.
"""

from __future__ import annotations

from repro.core.pipeline import Solution, SolveContext
from repro.kernel.pebblek import spoiler_wins_k
from repro.structures.structure import Structure

__all__ = ["PebbleRefutationStrategy"]


class PebbleRefutationStrategy:
    """Refute instances on which the Spoiler wins the k-pebble game."""

    name = "pebble-refutation"

    def _spoiler_wins(
        self, source: Structure, target: Structure, context: SolveContext
    ) -> bool:
        return spoiler_wins_k(
            source, context.compiled_target(target), context.pebble_k
        )

    def applies(
        self, source: Structure, target: Structure, context: SolveContext
    ) -> bool:
        if context.pebble_k is None:
            return False
        won = self._spoiler_wins(source, target, context)
        context.scratch["spoiler_wins"] = won
        return won

    def run(
        self, source: Structure, target: Structure, context: SolveContext
    ) -> Solution:
        if context.pebble_k is None:
            raise RuntimeError(
                "pebble refutation needs a pebble count; "
                "set try_pebble_refutation=k"
            )
        won = context.scratch.get("spoiler_wins")
        if won is None:  # run() called without applies(): play the game now
            won = self._spoiler_wins(source, target, context)
        if not won:
            raise RuntimeError(
                "pebble refutation ran without a Spoiler win; "
                "it cannot decide this instance"
            )
        return Solution(None, f"{self.name}(k={context.pebble_k})")
