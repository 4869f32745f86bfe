"""The kernels' real table-budget guards, reached without fault injection.

Two kernels build tables whose size the instance decides: the
decomposition DP (bag tables bounded by ``m^(w+1)``, Theorem 5.4) and
the bitset Datalog evaluator (binding spaces of ``n^v`` codes).  Both
refuse up front with a typed :class:`ResourceBudgetError`.  The DP's
callers — the treewidth route and the planner's dp route — answer on
the search engine instead, with the same verdict; the Datalog
evaluator's caller gets the typed error.  The serving layer never
retries either.
"""

from __future__ import annotations

import logging

import pytest

import repro.kernel.datalogk as datalogk
import repro.kernel.decomp as decomp
from repro.core.pipeline import SolverPipeline
from repro.datalog.program import parse_program
from repro.exceptions import ResourceBudgetError
from repro.kernel.decomp import solve_decomposition
from repro.kernel.search import solve as kernel_solve
from repro.structures.graphs import clique, cycle, graph_structure


def odd_wheel():
    """Hub 0 joined to the 5-cycle 1..5: width 3, not 3-colourable."""
    rim = [(i, i % 5 + 1) for i in range(1, 6)]
    return graph_structure(range(6), [(0, i) for i in range(1, 6)] + rim)


#: Low-width instances both DP routes claim: two yes, one no.
DP_INSTANCES = [
    pytest.param(cycle(5), clique(3), id="C5-K3"),
    pytest.param(odd_wheel(), clique(3), id="W5-K3"),
    pytest.param(odd_wheel(), clique(4), id="W5-K4"),
]


class TestDecompositionBudget:
    def test_refuses_before_building_any_table(self, monkeypatch, caplog):
        def no_tables(*_args, **_kwargs):
            raise AssertionError("the DP ran past its budget guard")

        monkeypatch.setattr(decomp, "_dp_run", no_tables)
        with caplog.at_level(logging.WARNING, logger="repro"):
            with pytest.raises(ResourceBudgetError, match="max_table_cells=8"):
                solve_decomposition(odd_wheel(), clique(3), max_table_cells=8)
        trips = [
            record
            for record in caplog.records
            if getattr(record, "event", None) == "budget.trip"
        ]
        assert len(trips) == 1
        assert trips[0].name == "repro.kernel"
        assert trips[0].engine == "dp"
        assert trips[0].bound == 3**4  # m^(w+1) with m = 3, w = 3
        assert trips[0].budget == 8

    @pytest.mark.parametrize(("source", "target"), DP_INSTANCES)
    def test_treewidth_route_falls_back_to_search(
        self, monkeypatch, source, target
    ):
        monkeypatch.setattr(decomp, "MAX_TABLE_CELLS", 1)
        solution = SolverPipeline().solve(source, target)
        assert solution.strategy.startswith("treewidth-dp(")
        assert "fallback=search-budget" in solution.strategy
        assert solution.exists == (kernel_solve(source, target) is not None)

    @pytest.mark.parametrize(("source", "target"), DP_INSTANCES)
    def test_planner_dp_route_falls_back_to_search(
        self, monkeypatch, source, target
    ):
        monkeypatch.setattr(decomp, "MAX_TABLE_CELLS", 1)
        solution = SolverPipeline().solve(source, target, plan=True)
        assert solution.strategy.startswith("width-planner(route=dp,")
        assert "fallback=search-budget" in solution.strategy
        assert solution.stats.plan["dp_fallback"] == "search-budget"
        assert solution.exists == (kernel_solve(source, target) is not None)


class TestDatalogBudget:
    TRANSITIVE_CLOSURE = """
    T(X, Y) :- E(X, Y)
    T(X, Y) :- T(X, Z), E(Z, Y)
    """

    def test_binding_space_over_budget_raises(self, monkeypatch):
        # The recursive rule binds three variables: 5^3 = 125 codes.
        monkeypatch.setattr(datalogk, "MAX_TABLE_CELLS", 100)
        program = parse_program(self.TRANSITIVE_CLOSURE, goal="T")
        with pytest.raises(ResourceBudgetError, match="5\\^3"):
            datalogk.evaluate_datalog(program, cycle(5))

    def test_binding_space_within_budget_evaluates(self, monkeypatch):
        monkeypatch.setattr(datalogk, "MAX_TABLE_CELLS", 125)
        program = parse_program(self.TRANSITIVE_CLOSURE, goal="T")
        facts = datalogk.evaluate_datalog(program, cycle(5))
        assert len(facts["T"]) == 25  # C5 is connected: every pair
