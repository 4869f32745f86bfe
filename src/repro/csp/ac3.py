"""(Generalized) arc consistency for homomorphism instances.

AC-3-style propagation: for every fact of ``A`` (a constraint whose allowed
tuples are the target relation) and every position, prune domain values
with no supporting target tuple.  This is strong 2-consistency in the
pebble-game terminology of Section 4 — the ``k = 2`` member of the
k-consistency family implemented in :mod:`repro.pebble.kconsistency` — and
the standard preprocessing step of the AI solvers the paper's introduction
cites [Dec92, Kum92].

The propagation runs on the compiled bitset kernel
(:mod:`repro.kernel.propagate`): integer-indexed domains, precompiled
``(relation, position, value)`` support bitsets, AC-2001-style residual
last supports.  It computes the same (unique) arc-consistent closure
as the AC-3 rescan loop of ``reference/homomorphism.py``, which the
parity suite holds it to.
"""

from __future__ import annotations

from typing import Hashable

from repro.exceptions import VocabularyError
from repro.kernel.compile import compile_source, compile_target
from repro.kernel.propagate import propagate
from repro.structures.structure import Structure

__all__ = ["establish_arc_consistency"]

Element = Hashable
Domains = dict[Element, set[Element]]


def establish_arc_consistency(
    source: Structure,
    target: Structure,
    domains: Domains | None = None,
) -> Domains | None:
    """Prune domains to (generalized) arc consistency.

    Returns the pruned domains, or ``None`` on a domain wipe-out (which
    proves no homomorphism exists).  Starting ``domains`` default to the
    full target universe for every element of the source.
    """
    if source.vocabulary != target.vocabulary:
        raise VocabularyError("instance structures must share a vocabulary")

    csource = compile_source(source)
    ctarget = compile_target(target)
    value_index = ctarget.value_index

    touched = [False] * len(csource.variables)
    for _name, scope in csource.constraints:
        for x in scope:
            touched[x] = True

    masks = [ctarget.full_mask] * len(csource.variables)
    if domains is not None:
        for x, variable in enumerate(csource.variables):
            if variable in domains:
                given = domains[variable]
                mask = 0
                for value in given:
                    v = value_index.get(value)
                    if v is not None:
                        mask |= 1 << v
                if not mask and given and touched[x]:
                    # Every given value lies outside the target universe:
                    # the reference loop prunes them all and reports the
                    # wipe-out.  (A given *empty* set is never pruned, so
                    # it passes through below instead.)
                    return None
                masks[x] = mask
            elif touched[x]:
                # The reference loop indexes domains[element] for every
                # element occurring in a fact; fail the same way.
                raise KeyError(variable)

    if propagate(csource, ctarget, masks) is None:
        return None

    # Untouched elements are never pruned: their (possibly custom, even
    # out-of-universe) domains pass through verbatim, as in the reference.
    var_index = csource.var_index
    if domains is None:
        full = set(target.universe)
        return {
            variable: ctarget.decode(masks[x]) if touched[x] else set(full)
            for x, variable in enumerate(csource.variables)
        }
    result: Domains = {}
    for element, given in domains.items():
        x = var_index.get(element)
        if x is not None and touched[x]:
            result[element] = ctarget.decode(masks[x])
        else:
            result[element] = set(given)
    return result

