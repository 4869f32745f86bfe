"""The existential k-pebble game (Section 4.2 of the paper).

The Spoiler places up to ``k`` pebbles on elements of ``A``; the Duplicator
answers on ``B``.  The Duplicator wins when she can play forever keeping the
pebbled correspondence a partial homomorphism.  Formally (after [KV95]) the
Duplicator wins iff there is a non-empty family ``H`` of partial
homomorphisms from ``A`` to ``B``, each with domain of size at most ``k``,
that is closed under restrictions and has the *forth property up to k*:
every ``f ∈ H`` with ``|dom(f)| < k`` extends, for every ``a ∈ A``, to some
``f′ ∈ H`` defined on ``a``.

Theorem 4.7.1: whether the Spoiler wins is decidable in polynomial time for
fixed ``k`` — compute the *greatest* such family by starting from all
partial homomorphisms with domain ≤ k and deleting functions that violate
restriction-closure or the forth property until a fixpoint; the Duplicator
wins iff the empty function survives.  The running time is the O(n^{2k}) of
Theorem 4.9.

Key consequences implemented here and cross-checked in the tests:

* if ``A → B`` then the Duplicator wins for every ``k``;
* (Theorem 4.8) when the complement of CSP(B) is expressible in k-Datalog,
  the Spoiler wins iff there is no homomorphism — the game *solves* the
  CSP, which is how the uniform algorithm of Theorem 4.9 works.

The fixpoint runs on the generalized compiled k-pebble engine
(:mod:`repro.kernel.pebblek` — bitset tables over ≤ k-subassignments,
worklist propagation with residuals).  The parity suite holds it to
the deletion loop of ``reference/homomorphism.py``: the *identical*
greatest family, map for map.
"""

from __future__ import annotations

from typing import Hashable

from repro.kernel.pebblek import pebble_game_family, spoiler_wins_k
from repro.structures.structure import Structure

__all__ = [
    "PebbleGameResult",
    "solve_pebble_game",
    "duplicator_wins",
    "spoiler_wins",
    "kconsistency_closure",
]

Element = Hashable
PartialMap = frozenset[tuple[Element, Element]]


class PebbleGameResult:
    """The fixpoint family of the existential k-pebble game.

    ``family`` holds the surviving partial homomorphisms (as frozensets of
    pairs); ``duplicator_wins`` is True iff the empty map survived.
    """

    __slots__ = ("k", "family", "duplicator_wins")

    def __init__(self, k: int, family: set[PartialMap]) -> None:
        self.k = k
        self.family = family
        self.duplicator_wins = frozenset() in family

    def winning_from(
        self, pairs: tuple[tuple[Element, Element], ...]
    ) -> bool:
        """Whether the given pebbled configuration is winning for the
        Duplicator (used by the Theorem 4.5 characterization)."""
        return frozenset(pairs) in self.family


def solve_pebble_game(
    source: Structure, target: Structure, k: int
) -> PebbleGameResult:
    """Compute the greatest forth-closed family (Theorem 4.7.1).

    Worst-case O(n^{2k}) states; intended for the small fixed ``k`` regime
    the paper studies.
    """
    return PebbleGameResult(k, pebble_game_family(source, target, k))


def duplicator_wins(source: Structure, target: Structure, k: int) -> bool:
    """Whether the Duplicator wins the existential k-pebble game.

    Decision only: skips the family decode.
    """
    return not spoiler_wins_k(source, target, k)


def spoiler_wins(source: Structure, target: Structure, k: int) -> bool:
    """Whether the Spoiler wins the existential k-pebble game."""
    return not duplicator_wins(source, target, k)


def kconsistency_closure(
    source: Structure, target: Structure, k: int
) -> set[PartialMap]:
    """The surviving family itself — the strong-k-consistency closure.

    Exposed separately because Section 4's uniform algorithm (Theorem 4.9)
    is exactly: compute this closure; answer "no homomorphism" iff it is
    empty, which is sound and complete whenever cCSP(B) is expressible in
    k-Datalog (Theorem 4.8).
    """
    return solve_pebble_game(source, target, k).family
