"""Property-based metamorphic suite for the Datalog plane (Section 4).

Every property is a law the least-fixpoint semantics — and the paper's
Theorem 4.2 identification of the canonical program with the existential
k-pebble game — forces on the implementation:

* the fixpoint is *unique*: semi-naive and naive evaluation, and the
  compiled bitset engine vs. the reference dict evaluator, must produce
  the identical database, fact for fact;
* the fixpoint is *closed*: one more application of the immediate-
  consequence operator T_P derives nothing new (idempotence);
* evaluation is *monotone*: growing the EDB can only grow every IDB;
* Theorem 4.2: ρ_B derives its goal on A **iff** the Spoiler wins the
  existential k-pebble game on (A, B) — i.e. iff the kernel's winning
  family is empty.

Inputs come from the conftest strategies (``datalog_programs``,
``csp_templates``).  The suite runs deterministically under the ``ci``
profile and symbolically under the opt-in solver-backed profile
(``HYPOTHESIS_PROFILE=crosshair``, see conftest) — the properties are
pure input/output laws precisely so both backends can drive them.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from reference import datalog as reference_datalog
from repro.datalog.canonical_program import (
    canonical_program,
    canonical_refutes,
)
from repro.datalog.evaluation import evaluate_program, goal_holds
from repro.kernel.pebblek import pebble_game_family
from repro.pebble.game import spoiler_wins

from conftest import csp_templates, datalog_programs, structures


@st.composite
def datalog_instances(draw):
    """A program plus an input structure over its EDB vocabulary."""
    program = draw(datalog_programs())
    structure = draw(
        structures(
            program.edb_vocabulary(), max_elements=4, max_facts=6
        )
    )
    return program, structure


@st.composite
def game_instances(draw):
    """(source, template, k) for the Theorem 4.2 properties.

    The template is tiny (ρ_B has |B|^k IDBs and the legacy oracle
    evaluates it bottom-up); the source shares its vocabulary.
    """
    template = draw(csp_templates(max_elements=2, max_facts=3))
    source = draw(
        structures(template.vocabulary, max_elements=3, max_facts=4)
    )
    k = draw(st.integers(min_value=1, max_value=2))
    return source, template, k


class TestFixpointLaws:
    @given(datalog_instances())
    @settings(max_examples=50, deadline=None)
    def test_semi_naive_and_naive_agree(self, instance):
        """The least fixpoint does not depend on the evaluation order."""
        program, structure = instance
        semi = evaluate_program(program, structure, method="semi_naive")
        naive = evaluate_program(program, structure, method="naive")
        assert semi == naive

    @given(datalog_instances())
    @settings(max_examples=50, deadline=None)
    def test_kernel_matches_legacy_database(self, instance):
        """Bitset and dict evaluators produce the identical database."""
        program, structure = instance
        kernel = evaluate_program(program, structure)
        legacy = reference_datalog.evaluate_program(program, structure)
        assert kernel == legacy
        for method in ("semi_naive", "naive"):
            assert (
                evaluate_program(program, structure, method=method)
                == legacy
            )

    @given(datalog_instances())
    @settings(max_examples=50, deadline=None)
    def test_goal_decision_parity(self, instance):
        """The early-exiting kernel goal decision equals the reference one."""
        program, structure = instance
        assert goal_holds(program, structure) == reference_datalog.goal_holds(
            program, structure
        )

    @given(datalog_instances())
    @settings(max_examples=50, deadline=None)
    def test_fixpoint_is_idempotent(self, instance):
        """T_P applied to the fixpoint derives nothing outside it."""
        program, structure = instance
        fixpoint = evaluate_program(program, structure)
        derived = reference_datalog.immediate_consequences(
            program, fixpoint, structure.universe
        )
        for predicate, facts in derived.items():
            assert facts <= fixpoint[predicate], predicate

    @given(datalog_instances(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_evaluation_is_monotone_in_the_edb(self, instance, data):
        """Adding EDB facts can only grow every IDB relation."""
        program, structure = instance
        universe = sorted(structure.universe)
        grown = {
            symbol.name: set(rel)
            for symbol, rel in structure.relations()
        }
        for symbol in structure.vocabulary:
            extra = data.draw(
                st.sets(
                    st.tuples(
                        *[st.sampled_from(universe)] * symbol.arity
                    ),
                    max_size=2,
                ),
                label=f"extra facts for {symbol.name}",
            )
            grown[symbol.name] |= extra
        bigger = type(structure)(
            structure.vocabulary, structure.universe, grown
        )
        before = evaluate_program(program, structure)
        after = evaluate_program(program, bigger)
        for predicate in program.idb_predicates:
            assert before[predicate] <= after[predicate], predicate


class TestTheorem42:
    @given(game_instances())
    @settings(max_examples=30, deadline=None)
    def test_canonical_solves_iff_family_empty(self, instance):
        """ρ_B derives its goal on A iff the kernel's winning family for
        the Duplicator is empty (the Spoiler wins)."""
        source, template, k = instance
        refutes = canonical_refutes(source, template, k)
        family = pebble_game_family(source, template, k)
        assert refutes == (family == set())
        assert (not refutes) == bool(family)

    @given(game_instances())
    @settings(max_examples=20, deadline=None)
    def test_canonical_refutes_engine_parity(self, instance):
        """The pebblek route and the materialized-ρ_B route agree."""
        source, template, k = instance
        assert canonical_refutes(
            source, template, k
        ) == reference_datalog.canonical_refutes(source, template, k)

    @given(game_instances())
    @settings(max_examples=20, deadline=None)
    def test_canonical_program_tracks_reference_game(self, instance):
        """Evaluating ρ_B bottom-up equals the reference game verdict."""
        source, template, k = instance
        program = canonical_program(template, k)
        assert goal_holds(program, source) == spoiler_wins(
            source, template, k
        )
