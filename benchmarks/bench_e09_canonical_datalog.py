"""E9 — Theorems 4.7.2/4.8: the canonical program ρ_B bottom-up.

Builds ρ_{K2} for k = 2 and evaluates it on growing graphs — with the
compiled kernel and with the ``reference`` evaluator (the ``legacy``
rows), the verdict parity asserted inline on every row — against the
direct game solver on the same instances.  Expected shape: all three
agree on every instance and grow polynomially; the reference evaluator
pays the generic-dict overhead (it materializes |B|^k IDB
relations over A^k as Python sets of tuples), the bitset kernel packs
the same relations into integers, and the direct game skips ρ_B
entirely.
"""

import pytest

from reference import datalog as reference_datalog
from repro.datalog.canonical_program import canonical_program
from repro.datalog.evaluation import goal_holds
from repro.pebble.game import spoiler_wins
from repro.structures.graphs import clique

from _workloads import two_coloring_instance

SIZES = [3, 4, 5, 6]
K = 2
RHO = canonical_program(clique(2), K)
GOAL_HOLDS = {"kernel": goal_holds, "legacy": reference_datalog.goal_holds}


def test_program_construction(benchmark):
    program = benchmark(canonical_program, clique(2), K)
    assert program.is_k_datalog(K)


@pytest.mark.parametrize("engine", ["kernel", "legacy"])
@pytest.mark.parametrize("n", SIZES)
def test_rho_evaluation(benchmark, n, engine):
    source, target = two_coloring_instance(n, seed=n)
    datalog_says = benchmark(GOAL_HOLDS[engine], RHO, source)
    assert datalog_says == spoiler_wins(source, target, K)


@pytest.mark.parametrize("n", SIZES)
def test_direct_game_baseline(benchmark, n):
    source, target = two_coloring_instance(n, seed=n)
    benchmark(spoiler_wins, source, target, K)
