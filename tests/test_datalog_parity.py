"""Randomized Datalog parity: the reference evaluator as oracle.

Seeded loops in the style of ``test_kernel_parity.py`` assert that the
compiled bitset Datalog engine (:mod:`repro.kernel.datalogk`) and the
pure-dict evaluator of ``reference.datalog`` agree — not just on the goal verdict but on
the *exact* IDB fact sets, database for database — across transitive
closures, non-2-colorability, mutual recursion, random generated
programs, and canonical programs ρ_B; and that the Theorem 4.2 decision
route (``canonical_refutes`` via the compiled pebble game) matches both
the materialized-ρ_B evaluation and the reference game on every
instance.  The service's ``submit_datalog`` route is driven against
direct planner solves, coalescing included.

140 seeded instances run through the main parity loop (the acceptance
floor is 120).
"""

from __future__ import annotations

import asyncio
import random

from reference import datalog as reference_datalog
from repro.cq.query import Atom
from repro.datalog.canonical_program import (
    canonical_program,
    canonical_refutes,
)
from repro.datalog.evaluation import evaluate_program, goal_holds
from repro.datalog.program import DatalogProgram, Rule, parse_program
from repro.pebble.game import spoiler_wins
from repro.service import ServiceConfig, SolveService
from repro.structures.graphs import clique
from repro.structures.homomorphism import (
    homomorphism_exists,
    is_homomorphism,
)
from repro.structures.structure import Structure
from repro.structures.vocabulary import Vocabulary
from repro.core.pipeline import SolverPipeline

NUM_INSTANCES = 140

TC_PROGRAM = parse_program(
    "T(X, Y) :- E(X, Y)\nT(X, Y) :- T(X, Z), E(Z, Y)", goal="T"
)
NON2COL_PROGRAM = parse_program(
    "P(X, Y) :- E(X, Y)\n"
    "P(X, Y) :- P(X, Z), E(Z, W), E(W, Y)\n"
    "Q() :- P(X, X)",
    goal="Q",
)
EVEN_ODD_PROGRAM = parse_program(
    "Even(X) :- Start(X)\n"
    "Odd(Y) :- Even(X), E(X, Y)\n"
    "Even(Y) :- Odd(X), E(X, Y)",
    goal="Odd",
)


def _random_digraph(rng: random.Random, n: int, extra: Vocabulary | None = None):
    vocabulary = extra if extra is not None else Vocabulary.from_arities({"E": 2})
    edges = {
        (rng.randrange(n), rng.randrange(n))
        for _ in range(rng.randint(n, 3 * n))
    }
    relations: dict = {"E": edges}
    if extra is not None and "Start" in {s.name for s in vocabulary}:
        relations["Start"] = {(rng.randrange(n),)}
    return Structure(vocabulary, range(n), relations)


def _random_program(rng: random.Random) -> DatalogProgram:
    """A seeded valid program (mirrors the conftest strategy's shapes)."""
    arities = {"E0": rng.randint(1, 2)}
    if rng.random() < 0.5:
        arities["E1"] = rng.randint(1, 2)
    idb_names = ["P0"] + (["P1"] if rng.random() < 0.5 else [])
    for name in idb_names:
        arities[name] = rng.randint(0, 2)
    predicates = sorted(arities)
    variables = ["V0", "V1", "V2", "V3"]
    rules = []
    for index in range(rng.randint(1, 3)):
        head_name = idb_names[0] if index == 0 else rng.choice(idb_names)
        head = Atom(
            head_name,
            tuple(
                rng.choice(variables) for _ in range(arities[head_name])
            ),
        )
        body = tuple(
            Atom(
                name,
                tuple(rng.choice(variables) for _ in range(arities[name])),
            )
            for name in (
                rng.choice(predicates) for _ in range(rng.randint(0, 3))
            )
        )
        rules.append(Rule(head, body))
    return DatalogProgram(rules, idb_names[0])


def _random_edb_structure(
    rng: random.Random, program: DatalogProgram
) -> Structure:
    vocabulary = program.edb_vocabulary()
    n = rng.randint(1, 4)
    relations = {}
    for symbol in vocabulary:
        relations[symbol.name] = {
            tuple(rng.randrange(n) for _ in range(symbol.arity))
            for _ in range(rng.randint(0, 6))
        }
    return Structure(vocabulary, range(n), relations)


def _instance(seed: int) -> tuple[str, DatalogProgram, Structure]:
    """One deterministic (label, program, structure) per seed."""
    rng = random.Random(seed)
    shape = seed % 5
    if shape == 0:
        return "tc", TC_PROGRAM, _random_digraph(rng, rng.randint(2, 6))
    if shape == 1:
        return (
            "non2col",
            NON2COL_PROGRAM,
            _random_digraph(rng, rng.randint(2, 6)),
        )
    if shape == 2:
        vocabulary = Vocabulary.from_arities({"Start": 1, "E": 2})
        return (
            "even-odd",
            EVEN_ODD_PROGRAM,
            _random_digraph(rng, rng.randint(2, 5), extra=vocabulary),
        )
    if shape == 3:
        k = rng.choice((1, 2))
        return (
            f"rho-K2-k{k}",
            canonical_program(clique(2), k),
            _random_digraph(rng, rng.randint(2, 5)),
        )
    program = _random_program(rng)
    return "random", program, _random_edb_structure(rng, program)


class TestEvaluationParity:
    def test_exact_database_parity(self):
        """Kernel and reference produce identical databases on every seed."""
        goal_true = goal_false = 0
        for seed in range(NUM_INSTANCES):
            label, program, structure = _instance(seed)
            legacy = reference_datalog.evaluate_program(program, structure)
            kernel = evaluate_program(program, structure)
            assert kernel == legacy, f"seed {seed} ({label})"
            naive = evaluate_program(program, structure, method="naive")
            assert naive == legacy, f"seed {seed} ({label}): naive differs"
            decision = goal_holds(program, structure)
            assert decision == bool(legacy[program.goal]), f"seed {seed}"
            if decision:
                goal_true += 1
            else:
                goal_false += 1
        # the stream must exercise both outcomes
        assert goal_true >= 15 and goal_false >= 15


class TestTheoremDecisionParity:
    def test_canonical_refutes_agrees_everywhere(self):
        """pebblek route == materialized ρ_B == reference game, per seed."""
        wins = losses = 0
        for seed in range(0, NUM_INSTANCES, 2):
            rng = random.Random(seed * 17 + 5)
            source = _random_digraph(rng, rng.randint(2, 5))
            target = clique(rng.choice((2, 3)))
            k = rng.choice((1, 2))
            kernel = canonical_refutes(source, target, k)
            legacy = reference_datalog.canonical_refutes(source, target, k)
            assert kernel == legacy, f"seed {seed}"
            assert kernel == spoiler_wins(source, target, k), f"seed {seed}"
            if kernel:
                wins += 1
                # Theorem 4.8, easy direction: a Spoiler win refutes.
                assert not homomorphism_exists(source, target), f"seed {seed}"
            else:
                losses += 1
        assert wins >= 5 and losses >= 5


class TestServiceRouteParity:
    def test_submit_datalog_matches_direct_solve(self):
        """The service datalog route answers like direct planner solves."""
        instances = []
        for seed in range(0, NUM_INSTANCES, 4):
            rng = random.Random(seed * 29 + 11)
            source = _random_digraph(rng, rng.randint(2, 5))
            target = clique(rng.choice((2, 3)))
            instances.append((seed, source, target, 2))

        async def drive():
            config = ServiceConfig(thread_workers=4)
            async with SolveService(config) as service:
                waiters = [
                    service.submit_datalog(source, target, k=k)
                    for _seed, source, target, k in instances
                ]
                # duplicate resubmissions must coalesce onto the same
                # in-flight computation
                dup_waiters = [
                    service.submit_datalog(source, target, k=k)
                    for _seed, source, target, k in instances[:5]
                ]
                solutions = await asyncio.gather(*waiters)
                duplicates = await asyncio.gather(*dup_waiters)
                return solutions, duplicates, service.stats.snapshot()

        solutions, duplicates, snapshot = asyncio.run(drive())
        pipeline = SolverPipeline()
        for (seed, source, target, k), solution in zip(instances, solutions):
            direct = pipeline.solve(
                source, target, plan=True, try_canonical_datalog=k
            )
            assert solution.exists == direct.exists, f"seed {seed}"
            expected = homomorphism_exists(source, target)
            assert solution.exists == expected, f"seed {seed}"
            if solution.exists:
                assert is_homomorphism(
                    solution.homomorphism, source, target
                ), f"seed {seed}"
        for early, late in zip(solutions[:5], duplicates):
            assert early.exists == late.exists
        assert snapshot["datalog_requests"] == len(instances) + 5
        assert snapshot["routes"]["datalog"]["count"] >= 1
