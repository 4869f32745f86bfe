"""The compiled bitset solving kernel.

One compiled representation — integer-indexed elements, Python-int
bitmask domains, per-``(relation, position, value)`` support bitsets —
shared by every inner loop of the library, per the paper's observation
that CQ containment, CQ evaluation, and CSP are one homomorphism
problem:

* :mod:`repro.kernel.compile` — structures → :class:`CompiledSource` /
  :class:`CompiledTarget` (memoized on the structure; also cached across
  structurally-equal rebuilds by the fingerprint-keyed
  :class:`repro.core.pipeline.StructureCache`);
* :mod:`repro.kernel.propagate` — generalized arc consistency with
  AC-2001-style residual last supports;
* :mod:`repro.kernel.search` — forward-checking/MRV backtracking that
  mirrors the reference search tree exactly (same answers, same order,
  same ``SearchStats``), the :func:`solve` fast path used by the
  pipeline strategies, and the :func:`count_solutions` leaf-tally count
  mode behind ``count_homomorphisms``;
* :mod:`repro.kernel.corek` — the core/retraction engine: endomorphism
  search into masked substructures (per-candidate valid-tuple masks and
  restricted domains instead of materialized substructures), behind
  :mod:`repro.structures.product` — the hot path of conjunctive-query
  minimization;
* :mod:`repro.kernel.decomp` — the Theorem 5.4 dynamic program compiled
  to int-coded bag tables over a nice tree decomposition, with
  support-bitset semijoins and top-down witness reconstruction;
* :mod:`repro.kernel.pebblek` — the generalized existential k-pebble
  game: bitset tables over ≤ k-subassignments with worklist propagation
  and AC-2001-style residuals (replacing the old ``k = 2``-only
  ``pebble2`` fast path — ``spoiler_wins_k2`` remains as an alias);
* :mod:`repro.kernel.datalogk` — semi-naive Datalog evaluation lowered
  to bitset delta tables over the compiled encodings: facts as
  mixed-radix tuple codes, rule bodies as cylinder-mask semijoins over
  binding spaces, incremental per-atom lifted masks — the engine behind
  :mod:`repro.datalog.evaluation`'s kernel path;
* :mod:`repro.kernel.estimate` — the width-aware planner: cheap cost
  models over compiled sizes, width and Gaifman-degree estimates, and
  the search/DP/pebble route choice the pipeline's planner strategy
  consumes.

The kernel is the only engine on every path.  The pure-dict reference
implementations it is held to live in the top-level ``reference``
package, which only tests and benchmarks import.
"""

from repro.kernel.compile import (
    CompiledSource,
    CompiledTarget,
    compile_source,
    compile_target,
    initial_domains,
)
from repro.kernel.corek import core_structure, is_core_structure, retraction
from repro.kernel.datalogk import (
    CompiledDatalog,
    compile_datalog,
    datalog_goal_holds,
    evaluate_datalog,
)
from repro.kernel.decomp import decomposition_exists, solve_decomposition
from repro.kernel.estimate import Plan, estimate_cost, plan_instance
from repro.kernel.pebblek import (
    kernel_consistency_tables,
    pebble_game_family,
    spoiler_wins_k,
    spoiler_wins_k2,
)
from repro.kernel.propagate import propagate
from repro.kernel.search import count_solutions, search_homomorphisms, solve

__all__ = [
    "CompiledDatalog",
    "CompiledSource",
    "CompiledTarget",
    "Plan",
    "compile_datalog",
    "compile_source",
    "compile_target",
    "core_structure",
    "count_solutions",
    "datalog_goal_holds",
    "decomposition_exists",
    "estimate_cost",
    "evaluate_datalog",
    "initial_domains",
    "is_core_structure",
    "kernel_consistency_tables",
    "pebble_game_family",
    "plan_instance",
    "propagate",
    "retraction",
    "search_homomorphisms",
    "solve",
    "solve_decomposition",
    "spoiler_wins_k",
    "spoiler_wins_k2",
]
