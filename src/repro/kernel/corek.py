"""The compiled core/retraction engine: bitset endomorphism search.

The reference core loop (``reference/homomorphism.py``) looks for an
endomorphism of ``A`` missing some element ``v`` by *materializing* the
induced substructure ``A∖{v}`` and searching ``A → A∖{v}`` — one fresh
``Structure`` (plus a fresh solver setup) per candidate element per
shrink round.  This module runs the identical search on the compiled
kernel without ever building a substructure:

* compile ``A`` once per shrink round (source and target sides, both
  memoized on the structure);
* for a candidate removal set, derive the *restricted* starting state by
  masking — per relation, the valid-tuple mask drops every tuple whose
  support bitset touches a removed value, and the node-consistent
  domains are rebuilt from the surviving tuples — which is exactly the
  state the reference solver computes against the materialized
  substructure;
* run :func:`repro.kernel.search.search_homomorphisms` from that state.

Because the masked state equals the restricted instance's state value
for value (same domains, same surviving tuples, same variable/value
order), the search visits the same tree and returns the *same*
endomorphism as the reference loop — the randomized parity suite
(``tests/test_query_parity.py``) holds the two to identical cores, not
merely isomorphic ones.

Cores of canonical databases are minimal conjunctive queries
(Chandra–Merlin); this engine is what makes repeated query minimization
a kernel workload.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from repro.exceptions import VocabularyError
from repro.kernel.compile import (
    CompiledSource,
    CompiledTarget,
    compile_source,
    compile_target,
)
from repro.kernel.search import search_homomorphisms
from repro.structures.structure import Structure

__all__ = ["core_structure", "is_core_structure", "retraction"]

Element = Hashable


def _restricted_start(
    csource: CompiledSource,
    ctarget: CompiledTarget,
    removed_mask: int,
) -> tuple[list[int], list[int]] | None:
    """Starting (domains, per-constraint valid masks) for the search into
    the substructure induced by dropping ``removed_mask``'s values.

    ``None`` means a node-consistency wipe-out — no homomorphism can
    exist, exactly when the reference initial domains against the
    materialized substructure would empty.
    """
    valid_tuples: dict[str, int] = {}
    restricted_masks: dict[str, list[int]] = {}
    for name, per_position in ctarget.supports.items():
        live = ctarget.all_tuples_masks[name]
        remaining = removed_mask
        while remaining:
            low = remaining & -remaining
            value = low.bit_length() - 1
            remaining ^= low
            for per_value in per_position:
                live &= ~per_value[value]
        valid_tuples[name] = live
        masks = []
        for per_value in per_position:
            mask = 0
            for value, support in enumerate(per_value):
                if support & live:
                    mask |= 1 << value
            masks.append(mask)
        restricted_masks[name] = masks

    full = ctarget.full_mask & ~removed_mask
    domains = [full] * len(csource.variables)
    for name, scope in csource.constraints:
        masks = restricted_masks[name]
        for position, x in enumerate(scope):
            narrowed = domains[x] & masks[position]
            if not narrowed:
                return None
            domains[x] = narrowed
    valid = [valid_tuples[name] for name, _scope in csource.constraints]
    return domains, valid


def _first_endomorphism(
    csource: CompiledSource,
    ctarget: CompiledTarget,
    removed_mask: int,
    fixed: Mapping[Element, Element] | None = None,
) -> dict[Element, Element] | None:
    """The first homomorphism into the masked substructure, or ``None``."""
    start = _restricted_start(csource, ctarget, removed_mask)
    if start is None:
        return None
    domains, valid = start
    for assignment in search_homomorphisms(
        csource, ctarget, fixed=fixed, domains=domains, valid=valid
    ):
        return assignment
    return None


def core_structure(a: Structure) -> Structure:
    """The core of ``A`` on the compiled kernel.

    Same shrink loop as the reference core loop
    — look for an endomorphism missing some element, shrink to its
    image, repeat — but each round compiles ``A`` once and tries every
    candidate element by masking instead of materializing ``|A|``
    substructures.  Returns the identical core.
    """
    current = a
    changed = True
    while changed:
        changed = False
        csource = compile_source(current)
        ctarget = compile_target(current)
        for index in range(len(ctarget.values)):
            h = _first_endomorphism(csource, ctarget, 1 << index)
            if h is not None:
                current = current.restrict(set(h.values()))
                changed = True
                break
    return current


def is_core_structure(a: Structure) -> bool:
    """Kernel core-ness check: no endomorphism misses an element."""
    csource = compile_source(a)
    ctarget = compile_target(a)
    for index in range(len(ctarget.values)):
        if _first_endomorphism(csource, ctarget, 1 << index) is not None:
            return False
    return True


def retraction(
    a: Structure, elements: Iterable[Element]
) -> dict[Element, Element] | None:
    """A retraction of ``A`` onto ``elements``, by masked kernel search.

    Mirrors :func:`repro.structures.product.retract_onto` — fix
    ``elements`` pointwise, land inside them — without building the
    induced substructure.
    """
    keep = set(elements)
    if not keep <= a.universe:
        raise VocabularyError("restriction elements outside the universe")
    csource = compile_source(a)
    ctarget = compile_target(a)
    removed_mask = 0
    for index, value in enumerate(ctarget.values):
        if value not in keep:
            removed_mask |= 1 << index
    return _first_endomorphism(
        csource, ctarget, removed_mask, fixed={e: e for e in keep}
    )
