"""The canonical k-Datalog program ρ_B of Theorem 4.7.2.

For every finite structure B and every k, there is a k-Datalog program ρ_B
expressing "the Spoiler wins the existential k-pebble game on (A, B)" —
and by Theorem 4.8 this single program expresses cCSP(B) whenever cCSP(B)
is expressible in k-Datalog at all (Remark 4.10.1: ρ_B is the Feder–Vardi
canonical program).

Construction (verbatim from the paper, 0-based positions):

* one k-ary IDB ``T_b`` per k-tuple ``b ∈ Bᵏ``;
* for ``b`` with ``b_i ≠ b_j``: the body-less rule
  ``T_b(x₁,…,x_i,…,x_i,…,x_k)`` (positions i and j share a variable);
* for every m-ary EDB symbol R and index tuple ``(i₁,…,i_m) ∈ [k]^m`` with
  ``(b_{i₁},…,b_{i_m}) ∉ R^B``: the rule ``T_b(x₁,…,x_k) :- R(x_{i₁},…,x_{i_m})``;
* for every pebble j: ``T_b(x₁,…,x_k) :- ⋀_{c∈B} T_{b[j↦c]}(x₁,…,y,…,x_k)``
  (fresh y at position j);
* goal: ``S :- ⋀_{b∈Bᵏ} T_b(x₁,…,x_k)``.

Tuple names are mangled into predicate names ``T[b1,b2,…]``.  The program
has |B|^k IDBs and O(|B|^k · (k² + Σ_R k^{arity})) rules — polynomial for
fixed B and k, which is the point of nonuniform expressibility.

Nothing on the serving path builds ρ_B.  :func:`canonical_refutes` —
and through it the planner's pebble route behind ``/v1/datalog`` —
decides Theorem 4.2's question by playing the compiled k-pebble game.
The program itself is built on demand for evaluation and the parity
suites, memoized per process and never persisted.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Hashable

from repro.cq.query import Atom
from repro.datalog.program import DatalogProgram, Rule
from repro.kernel.compile import CompiledTarget, compile_target
from repro.kernel.pebblek import spoiler_wins_k
from repro.structures.structure import Structure

__all__ = ["canonical_program", "canonical_refutes", "GOAL_NAME"]

Element = Hashable

GOAL_NAME = "S"


def _predicate_name(b: tuple[Element, ...]) -> str:
    inner = ",".join(str(component) for component in b)
    return f"T[{inner}]"


def canonical_program(target: Structure, k: int) -> DatalogProgram:
    """Build ρ_B for the structure ``target`` and pebble count ``k``.

    Evaluating the returned program on a structure A derives the goal
    ``S`` iff the Spoiler wins the existential k-pebble game on (A, B);
    the test suite cross-checks this against
    :func:`repro.pebble.game.spoiler_wins`.

    The construction is memoized (structures hash and compare by value),
    so the template workload — one ρ_B against many sources — builds the
    |B|^k-rule program once; the compiled evaluator's per-program caches
    then also persist across calls.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not target.universe:
        raise ValueError("canonical program needs a non-empty target")
    return _cached_canonical_program(target, k)


def _build_canonical_program(target: Structure, k: int) -> DatalogProgram:
    elements = target.sorted_universe
    variables = tuple(f"x{i}" for i in range(k))
    rules: list[Rule] = []

    tuples_b = list(product(elements, repeat=k))
    for b in tuples_b:
        head_name = _predicate_name(b)

        # Kind 1: the correspondence is not a mapping.
        for i in range(k):
            for j in range(i + 1, k):
                if b[i] != b[j]:
                    terms = list(variables)
                    terms[j] = variables[i]
                    rules.append(Rule(Atom(head_name, tuple(terms)), ()))

        # Kind 2: the mapping is not a partial homomorphism.
        for symbol, rel in target.relations():
            m = symbol.arity
            for indices in product(range(k), repeat=m):
                image = tuple(b[i] for i in indices)
                if image not in rel:
                    body = (
                        Atom(
                            symbol.name,
                            tuple(variables[i] for i in indices),
                        ),
                    )
                    rules.append(
                        Rule(Atom(head_name, variables), body)
                    )

        # Kind 3: the Spoiler lifts pebble j and wins everywhere it lands.
        for j in range(k):
            body = tuple(
                Atom(
                    _predicate_name(b[:j] + (c,) + b[j + 1 :]),
                    variables[:j] + ("y",) + variables[j + 1 :],
                )
                for c in elements
            )
            rules.append(Rule(Atom(head_name, variables), body))

    # Goal: some placement of the first k pebbles beats every reply.
    goal_body = tuple(
        Atom(_predicate_name(b), variables) for b in tuples_b
    )
    rules.append(Rule(Atom(GOAL_NAME, ()), goal_body))
    return DatalogProgram(rules, GOAL_NAME)


_cached_canonical_program = lru_cache(maxsize=128)(_build_canonical_program)


def canonical_refutes(
    source: Structure,
    target: Structure | CompiledTarget,
    k: int,
) -> bool:
    """Does the canonical program ρ_B derive its goal on ``source``?

    ``True`` means ρ_B certifies ``source ↛ target`` (Theorem 4.8's easy
    direction); ``False`` means the Duplicator survives and the answer
    needs a complete engine.

    This is the Theorem 4.2 identity made executable: ρ_B derives ``S``
    on A **iff** the Spoiler wins the existential k-pebble game on
    (A, B).  So the decision never materializes the |B|^k-rule program
    at all — it plays the compiled game
    (:func:`repro.kernel.pebblek.spoiler_wins_k`) on the original target,
    which is the whole point of routing the decision through the theorem.
    The parity suites check the identity itself against ρ_B built and
    evaluated bottom-up by ``reference/datalog.py``.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    ctarget = compile_target(target)
    if not ctarget.values:
        raise ValueError("canonical program needs a non-empty target")
    return spoiler_wins_k(source, ctarget, k)
