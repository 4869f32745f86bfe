"""The generic CSP solving facade over the homomorphism search.

Thin conveniences over :mod:`repro.structures.homomorphism` that add the
standard AI toolkit: optional arc-consistency preprocessing, a degree
(static) variable-ordering heuristic, and AI-instance entry points.  This
is the NP-complete general-case baseline against which every tractable
class in the paper is benchmarked.

The facade runs end-to-end on the compiled bitset representation: one
compilation (memoized per structure) feeds the GAC preprocessing pass
*and* the search, and the propagated domains are kept for the search
instead of being recomputed.
"""

from __future__ import annotations

from typing import Hashable

from repro.csp.instance import CSPInstance
from repro.exceptions import VocabularyError
from repro.kernel.compile import compile_source
from repro.kernel.search import solve as kernel_solve
from repro.structures.homomorphism import SearchStats
from repro.structures.structure import Structure

__all__ = ["solve_backtracking", "solve_instance", "degree_order"]

Element = Hashable


def degree_order(source: Structure) -> list[Element]:
    """Elements of the source sorted by decreasing number of occurrences.

    The classic "degree" static variable-ordering heuristic.  Computed
    from the compiled source's occurrence index, so repeated calls
    against one structure do not re-count occurrences.
    """
    compiled = compile_source(source)
    return [compiled.variables[x] for x in compiled.degree_order]


def solve_backtracking(
    source: Structure,
    target: Structure,
    *,
    preprocess: bool = True,
    use_degree_order: bool = False,
    stats: SearchStats | None = None,
) -> dict[Element, Element] | None:
    """Find a homomorphism with the generic backtracking solver.

    ``preprocess=True`` runs (generalized) arc consistency first, bails
    out early on a wipe-out, and seeds the search with the arc-consistent
    domains.  ``use_degree_order=True`` replaces the dynamic MRV ordering
    with the static degree heuristic.
    """
    if source.vocabulary != target.vocabulary:
        raise VocabularyError("instance structures must share a vocabulary")
    if source.universe and not target.universe:
        return None
    order = degree_order(source) if use_degree_order else None
    return kernel_solve(
        source, target, stats=stats, order=order, propagate_first=preprocess
    )


def solve_instance(
    instance: CSPInstance, **kwargs
) -> dict[Element, Element] | None:
    """Solve an AI-style CSP instance via the homomorphism reduction.

    The returned assignment maps the instance's variables to values.
    """
    source, target = instance.to_homomorphism()
    hom = solve_backtracking(source, target, **kwargs)
    if hom is None:
        return None
    return {v: hom[v] for v in instance.variables}
