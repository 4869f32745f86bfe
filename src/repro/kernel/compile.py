"""Compilation of structures into integer-indexed, bitset form.

The generic solvers of :mod:`repro.structures.homomorphism` and
:mod:`repro.csp.ac3` spend their time re-scanning target relations stored
as Python sets of hashable tuples.  This module compiles each side of a
homomorphism instance once into a layout the inner loops can consume
directly:

* :class:`CompiledTarget` — target elements renumbered ``0..m-1`` so a
  domain is a single Python-int bitmask; for every ``(relation, position,
  value)`` a *support bitset* over the relation's tuple indices (which
  tuples have this value at this position), plus per-position value masks
  for node-consistent initial domains;
* :class:`CompiledSource` — source elements renumbered ``0..n-1``, facts
  as integer scopes, the per-variable occurrence index (which constraints
  touch a variable), and the degree variable order.

Both compilations are memoized on the (immutable) structure itself, so
repeated solves against one target — the motivating workload of the
fingerprint-keyed :class:`repro.core.pipeline.StructureCache` — rebuild
nothing.  Element order is the deterministic ``_sort_key`` order used by
the reference solvers, so bit ``i`` of a domain mask means the ``i``-th
element of ``sorted_universe`` and iterating set bits from the low end
reproduces the reference value order exactly.
"""

from __future__ import annotations

from typing import Hashable

from repro.obs.metrics import kcount
from repro.structures.structure import Structure

__all__ = ["CompiledSource", "CompiledTarget", "compile_source", "compile_target"]

Element = Hashable


class CompiledTarget:
    """A target structure in integer-indexed, support-bitset form.

    Attributes
    ----------
    structure:
        The structure this was compiled from.
    values:
        Target elements in deterministic order; bit ``i`` of any domain
        mask refers to ``values[i]``.
    value_index:
        Inverse of ``values``.
    tuples:
        Per relation name, the relation's facts as tuples of value
        indices, sorted — the tuple index is the bit position in support
        masks.
    supports:
        ``supports[name][position][value]`` is the bitmask of tuple
        indices of relation ``name`` whose ``position``-th coordinate is
        ``value``.  One AND against a "still valid tuples" mask answers
        "does this value still have a support?" without scanning.
    position_masks:
        ``position_masks[name][position]`` is the mask of values occurring
        at that position of the relation — the hoisted ``position_values``
        index that node-consistent initial domains are built from.
    all_tuples_masks:
        Per relation, the mask with one bit per tuple (the "every tuple
        still valid" starting point of a propagation pass).
    full_mask:
        The mask of the whole universe (the unconstrained domain).
    """

    __slots__ = (
        "structure",
        "values",
        "value_index",
        "tuples",
        "supports",
        "position_masks",
        "all_tuples_masks",
        "full_mask",
    )

    def __init__(self, structure: Structure) -> None:
        # Counted here (not in compile_target) so the per-solve kernel
        # bag distinguishes "built the bitset index" from "reused a
        # memo, cache entry, or store record" — the zero-recompilation
        # assertion of the warm-restart tests reads this counter.
        kcount("compile.targets")
        self.structure = structure
        self.values: tuple[Element, ...] = structure.sorted_universe
        self.value_index: dict[Element, int] = {
            value: i for i, value in enumerate(self.values)
        }
        self.full_mask: int = (1 << len(self.values)) - 1
        self.tuples: dict[str, tuple[tuple[int, ...], ...]] = {}
        self.supports: dict[str, tuple[tuple[int, ...], ...]] = {}
        self.position_masks: dict[str, tuple[int, ...]] = {}
        self.all_tuples_masks: dict[str, int] = {}
        index = self.value_index
        for symbol, relation in structure.relations():
            # Tuple order only names bit positions in the (internal)
            # support masks; sorting buys nothing observable.
            rows = tuple(
                tuple(index[e] for e in fact) for fact in relation
            )
            self.tuples[symbol.name] = rows
            arity = symbol.arity
            supports = [[0] * len(self.values) for _ in range(arity)]
            masks = [0] * arity
            for j, row in enumerate(rows):
                bit = 1 << j
                for position, value in enumerate(row):
                    supports[position][value] |= bit
                    masks[position] |= 1 << value
            self.supports[symbol.name] = tuple(
                tuple(per_value) for per_value in supports
            )
            self.position_masks[symbol.name] = tuple(masks)
            self.all_tuples_masks[symbol.name] = (1 << len(rows)) - 1

    def __getstate__(self) -> dict:
        """Pickle every slot verbatim — this *is* the compiled form.

        The carried ``structure`` pickles through its own
        ``__getstate__`` (mathematical content + fingerprint, memos
        dropped), which also breaks the reference cycle through the
        structure's ``_compiled_target`` memo.  This pair makes plain
        pickle the one canonical serializer for compiled targets: pool
        payloads and persistent store records share it byte-discipline
        and all, so the two paths cannot drift.
        """
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state: dict) -> None:
        for slot in self.__slots__:
            object.__setattr__(self, slot, state[slot])
        # Re-attach to the carried structure's memo slot: a restored
        # artifact must behave exactly like a freshly compiled one, so
        # compile_target() on its structure finds this object instead
        # of rebuilding (the zero-recompilation warm-restart property).
        if self.structure._compiled_target is None:
            self.structure._compiled_target = self

    def decode(self, mask: int) -> set[Element]:
        """The set of elements a domain mask denotes."""
        out: set[Element] = set()
        values = self.values
        while mask:
            low = mask & -mask
            out.add(values[low.bit_length() - 1])
            mask ^= low
        return out

    def __repr__(self) -> str:
        return (
            f"CompiledTarget(|B|={len(self.values)}, "
            f"relations={len(self.tuples)})"
        )


class CompiledSource:
    """A source structure as integer-scoped constraints.

    Attributes
    ----------
    variables:
        Source elements in deterministic order (variable ``x`` of the
        search is ``variables[x]``).
    var_index:
        Inverse of ``variables``.
    constraints:
        The facts of the source as ``(relation name, scope)`` pairs where
        ``scope`` holds variable indices, in the deterministic
        ``Structure.facts()`` order.
    constraints_of:
        Per variable, the indices of the constraints touching it (each
        constraint listed once) — the hoisted occurrence index.
    degrees:
        Per variable, the total number of ``(fact, position)`` occurrences.
    degree_order:
        Variable indices sorted by decreasing degree (ties by element
        order) — the static degree heuristic, computed once.
    """

    __slots__ = (
        "structure",
        "variables",
        "var_index",
        "constraints",
        "constraints_of",
        "degrees",
        "degree_order",
        "_gaifman_stats",
    )

    def __init__(self, structure: Structure) -> None:
        kcount("compile.sources")
        self.structure = structure
        self.variables: tuple[Element, ...] = structure.sorted_universe
        self.var_index: dict[Element, int] = {
            variable: i for i, variable in enumerate(self.variables)
        }
        index = self.var_index
        constraints: list[tuple[str, tuple[int, ...]]] = []
        touching: list[list[int]] = [[] for _ in self.variables]
        degrees = [0] * len(self.variables)
        # Constraint order is unobservable (propagation reaches the unique
        # fixpoint and the search tree depends only on variable/value
        # order), so iterate relations directly instead of the sorted
        # ``facts()`` stream — compilation is on the per-call path for
        # one-shot instances.
        for symbol, relation in structure.relations():
            name = symbol.name
            for fact in relation:
                scope = tuple(index[e] for e in fact)
                ci = len(constraints)
                constraints.append((name, scope))
                for x in set(scope):
                    touching[x].append(ci)
                for x in scope:
                    degrees[x] += 1
        self.constraints = tuple(constraints)
        self.constraints_of = tuple(tuple(cs) for cs in touching)
        self.degrees = tuple(degrees)
        self.degree_order = tuple(
            sorted(range(len(self.variables)), key=lambda x: (-degrees[x], x))
        )
        #: Memo for repro.kernel.estimate.gaifman_degree_stats.
        self._gaifman_stats: tuple[int, float] | None = None

    def __getstate__(self) -> dict:
        """Slot-verbatim pickling (see :meth:`CompiledTarget.__getstate__`)."""
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state: dict) -> None:
        for slot in self.__slots__:
            object.__setattr__(self, slot, state[slot])
        if self.structure._compiled_source is None:
            self.structure._compiled_source = self

    def __repr__(self) -> str:
        return (
            f"CompiledSource(|A|={len(self.variables)}, "
            f"constraints={len(self.constraints)})"
        )


def compile_target(target: Structure | CompiledTarget) -> CompiledTarget:
    """Compile ``target`` (idempotent; memoized on the structure)."""
    if isinstance(target, CompiledTarget):
        return target
    compiled = target._compiled_target
    if compiled is None:
        compiled = CompiledTarget(target)
        target._compiled_target = compiled
    return compiled  # type: ignore[return-value]


def compile_source(source: Structure | CompiledSource) -> CompiledSource:
    """Compile ``source`` (idempotent; memoized on the structure)."""
    if isinstance(source, CompiledSource):
        return source
    compiled = source._compiled_source
    if compiled is None:
        compiled = CompiledSource(source)
        source._compiled_source = compiled
    return compiled  # type: ignore[return-value]


def initial_domains(
    csource: CompiledSource, ctarget: CompiledTarget
) -> list[int] | None:
    """Node-consistent initial domain masks, or ``None`` if trivially unsat.

    The bitset form of ``_initial_domains``: every variable starts with
    the full universe mask, narrowed per constraint position through the
    precompiled ``position_masks`` — no target relation is scanned.
    """
    full = ctarget.full_mask
    domains = [full] * len(csource.variables)
    position_masks = ctarget.position_masks
    for name, scope in csource.constraints:
        masks = position_masks[name]
        for position, x in enumerate(scope):
            narrowed = domains[x] & masks[position]
            if not narrowed:
                return None
            domains[x] = narrowed
    return domains
