"""Bounded treewidth and constraint satisfaction (Section 5).

Tree decompositions, elimination-order heuristics, exact treewidth for
small inputs, and the width-parameterized homomorphism DP of Theorem 5.4.
"""

from repro.treewidth.decomposition import TreeDecomposition
from repro.treewidth.dp import (
    homomorphism_exists_by_treewidth,
    solve_by_treewidth,
)
from repro.treewidth.exact import (
    exact_treewidth,
    exact_treewidth_graph,
    is_treewidth_at_most,
)
from repro.treewidth.nice import (
    NiceDecomposition,
    NiceNode,
    make_nice,
    solve_by_nice_dp,
)
from repro.treewidth.heuristics import (
    decompose,
    elimination_order,
    treewidth_upper_bound,
)

__all__ = [
    "TreeDecomposition",
    "decompose",
    "elimination_order",
    "treewidth_upper_bound",
    "exact_treewidth",
    "exact_treewidth_graph",
    "is_treewidth_at_most",
    "solve_by_treewidth",
    "homomorphism_exists_by_treewidth",
    "NiceDecomposition",
    "NiceNode",
    "make_nice",
    "solve_by_nice_dp",
]
