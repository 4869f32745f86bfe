"""repro — Conjunctive-Query Containment and Constraint Satisfaction.

A complete, from-scratch reproduction of Kolaitis & Vardi, *Conjunctive-
Query Containment and Constraint Satisfaction* (PODS 1998 / JCSS 2000):

* the homomorphism problem over finite relational structures (Section 2),
* conjunctive queries, canonical databases, Chandra–Merlin containment,
  evaluation, minimization (Section 2),
* Schaefer classification, defining formulas, uniform Boolean CSP
  algorithms, Booleanization, Saraiya's two-atom containment (Section 3),
* Datalog, existential k-pebble games, the canonical program rho_B, strong
  k-consistency (Section 4),
* tree decompositions, the treewidth homomorphism DP, EFO^{k+1}
  translation and evaluation, the dual-graph binary encoding (Section 5).

Quickstart::

    from repro import parse_query, contains, solve
    q1 = parse_query("Q(X) :- E(X, Y), E(Y, Z).")
    q2 = parse_query("Q(X) :- E(X, Y).")
    assert contains(q1, q2)

See README.md for the architecture overview and EXPERIMENTS.md for the
theorem-by-theorem experiment suite.
"""

from repro.core.pipeline import (
    Solution,
    SolveStats,
    SolverPipeline,
    default_pipeline,
    solve,
    solve_many,
)
from repro.core.problem import HomomorphismProblem
from repro.service import ServiceConfig, SolveService
from repro.cq.containment import (
    containment_witness,
    contains,
    contains_via_evaluation,
    equivalent,
)
from repro.cq.evaluation import evaluate, evaluate_join
from repro.cq.minimize import minimize
from repro.cq.parser import parse_query
from repro.cq.query import Atom, ConjunctiveQuery
from repro.structures.homomorphism import (
    all_homomorphisms,
    count_homomorphisms,
    find_homomorphism,
    homomorphism_exists,
    is_homomorphism,
)
from repro.structures.structure import Structure, StructureBuilder
from repro.structures.vocabulary import RelationSymbol, Vocabulary

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # structures & homomorphisms
    "RelationSymbol",
    "Vocabulary",
    "Structure",
    "StructureBuilder",
    "is_homomorphism",
    "find_homomorphism",
    "homomorphism_exists",
    "all_homomorphisms",
    "count_homomorphisms",
    # conjunctive queries
    "Atom",
    "ConjunctiveQuery",
    "parse_query",
    "contains",
    "contains_via_evaluation",
    "containment_witness",
    "equivalent",
    "evaluate",
    "evaluate_join",
    "minimize",
    # the unified problem and the uniform solver pipeline
    "HomomorphismProblem",
    "Solution",
    "SolveStats",
    "SolverPipeline",
    "default_pipeline",
    "solve",
    "solve_many",
    # the concurrent solve service
    "ServiceConfig",
    "SolveService",
]
