"""Bottom-up Datalog evaluation (least fixed-point semantics).

Semi-naive evaluation: each round re-fires only rules with an IDB body atom
whose relation gained facts in the previous round, terminating at the least
fixed point in polynomially many steps (Section 4.1: "the bottom-up
evaluation of the least fixed-point of the program terminates within a
polynomial number of steps").

Unsafe head variables — head variables not occurring in the body — range
over the *active domain* of the input structure, the finitary-conjunction
reading the paper uses when deriving the canonical program ρ_B from the
LFP formula of Theorem 4.7.
"""

from __future__ import annotations

from typing import Hashable

from repro.datalog.program import DatalogProgram
from repro.kernel.datalogk import datalog_goal_holds, evaluate_datalog
from repro.structures.structure import Structure

__all__ = ["evaluate_program", "goal_holds", "Database"]

Element = Hashable
Row = tuple[Element, ...]
Database = dict[str, set[Row]]


def evaluate_program(
    program: DatalogProgram,
    structure: Structure,
    *,
    method: str = "semi_naive",
) -> Database:
    """Compute the least fixed point of the program on ``structure``.

    The structure provides the EDB relations (missing EDB predicates are
    empty); the result maps every predicate — EDB and IDB — to its final
    set of facts.  ``method`` selects ``"semi_naive"`` (default) or
    ``"naive"`` (every rule re-fired in full each round; kept as the
    ablation baseline for experiment A4 — both must compute the same
    fixpoint).  Evaluation runs on the compiled bitset evaluator
    (:mod:`repro.kernel.datalogk`); the parity suites hold it to the
    reference loops of ``reference/datalog.py``, fact for fact.
    """
    return evaluate_datalog(program, structure, method=method)


def goal_holds(program: DatalogProgram, structure: Structure) -> bool:
    """Truth of the (0-ary or n-ary) goal: non-emptiness of its relation.

    The fixpoint run stops the moment the goal derives (sound:
    evaluation is monotone).
    """
    return datalog_goal_holds(program, structure)
