"""Width measures of conjunctive queries and width-aware containment.

Section 5 (and the Chekuri–Rajaraman discussion the paper builds on)
connects tractable containment to the *treewidth of the contained-in
query*: deciding ``Q1 ⊆ Q2`` is the homomorphism problem with source
``D_{Q2}``, so when ``Q2`` has bounded treewidth the Theorem 5.4 dynamic
program decides containment in polynomial time — regardless of ``Q1``.

This module provides the width measures (Gaifman treewidth of the
canonical database, exactly and heuristically) and the width-aware
containment entry point used by experiment E10/E11's query-side story.
"""

from __future__ import annotations

from repro.cq.compiled import compile_query
from repro.cq.query import ConjunctiveQuery, check_compatible
from repro.treewidth.dp import solve_by_treewidth
from repro.treewidth.exact import exact_treewidth
from repro.treewidth.heuristics import decompose, treewidth_upper_bound

__all__ = [
    "query_treewidth",
    "query_treewidth_upper_bound",
    "is_acyclic_width",
    "contains_bounded_width",
]


def query_treewidth(query: ConjunctiveQuery) -> int:
    """Exact treewidth of the query's canonical database.

    Exponential in the number of variables (exact treewidth is NP-hard);
    use :func:`query_treewidth_upper_bound` for large queries.  Unary
    distinguished markers never increase the width, so the measure equals
    the Gaifman treewidth of the body.
    """
    return exact_treewidth(compile_query(query).canonical)


def query_treewidth_upper_bound(query: ConjunctiveQuery) -> int:
    """Greedy (min-fill) upper bound on the query treewidth."""
    return treewidth_upper_bound(compile_query(query).canonical)


def is_acyclic_width(query: ConjunctiveQuery) -> bool:
    """Whether the query has treewidth ≤ 1 (tree-shaped joins).

    Width-1 queries correspond to the acyclic queries of Yannakakis that
    the paper's introduction recalls as the earliest tractable case.
    """
    return query_treewidth(query) <= 1


def contains_bounded_width(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """Decide ``Q1 ⊆ Q2`` via the treewidth DP on ``D_{Q2}``.

    Polynomial whenever ``Q2`` has bounded treewidth (Theorem 5.4 applied
    to the containment instance); always correct (the DP is exact at any
    width, just exponential in it).  The canonical databases come from the
    compiled query plane, so repeated probes reuse one build.
    """
    check_compatible(q1, q2)
    union = q1.vocabulary.union(q2.vocabulary)
    source = compile_query(q2).canonical_for(union)
    target = compile_query(q1).canonical_for(union)
    decomposition = decompose(source)
    return solve_by_treewidth(source, target, decomposition) is not None
