"""Compiled dynamic programming over tree decompositions (Theorem 5.4).

The reference DP (``reference/homomorphism.py``) enumerates every
bag map with ``itertools.product`` and stores tables as sets of sorted
``(element, value)`` tuples — dict churn on the innermost loop.  This
module runs the same dynamic program on the kernel's integer-indexed
compiled structures instead:

* the decomposition is normalized to a *nice* one
  (:func:`repro.treewidth.nice.make_nice`) and compiled — together with
  the per-node constraint assignment — into a reusable *program*,
  memoized on the decomposition object per source fingerprint (the same
  pattern as the structure compile memos), so repeated solves against
  one decomposition pay the normalization and validation once;
* a bag of ``s`` source variables is a sorted tuple of variable indices,
  and a bag assignment is a single int *code* in mixed radix ``m`` (the
  ``p``-th bag position contributes ``value · m^p``), so a node table is
  a plain ``set[int]``;
* **introduce(v)** is a semijoin against the target: for each child row,
  the compatible images of ``v`` are read off the precompiled
  ``(relation, position, value)`` support bitsets — narrow the
  relation's tuple mask by the already-coded bag values, then test each
  candidate value's support bitset against it — no target relation is
  ever scanned;
* **forget(v)** drops one digit (two divmods per row) and keeps, per
  surviving projected row, one witness extension for the top-down
  reconstruction;
* **join** intersects the two children's code sets directly.

Tables only ever hold satisfying bag assignments, so the answer — and
the reconstructed witness — agrees with the reference DP on every instance
(the randomized suite in ``tests/test_decomp_parity.py`` holds both, and
the kernel search, to that agreement).  Worst-case size per table is
``m^{w+1}`` — the Theorem 5.4 bound — reached only on unconstrained
bags; the semijoin keeps realistic tables at the size of the joined
relations, in the spirit of worst-case size bounds for conjunctive
joins.
"""

from __future__ import annotations

import os
from typing import Hashable

from repro.core.cancellation import CHECK_MASK, current_token
from repro.exceptions import ResourceBudgetError, VocabularyError
from repro.kernel.compile import (
    CompiledSource,
    CompiledTarget,
    compile_source,
    compile_target,
    initial_domains,
)
from repro.obs.logs import get_logger
from repro.obs.metrics import kcount
from repro.obs.trace import maybe_span
from repro.structures.fingerprint import canonical_fingerprint
from repro.structures.structure import Structure
from repro.treewidth.decomposition import TreeDecomposition
from repro.treewidth.heuristics import cached_decomposition
from repro.treewidth.nice import make_nice

__all__ = ["MAX_TABLE_CELLS", "solve_decomposition", "decomposition_exists"]

Element = Hashable

_budget_log = get_logger("kernel")

#: Worst-case bag-table budget (codes per table, the Theorem 5.4 bound
#: ``m^{w+1}``).  The DP refuses up front — with a typed
#: :class:`ResourceBudgetError` the treewidth and planner routes degrade
#: to search on — rather than letting an adversarial (width, target)
#: pair OOM a worker mid-solve.  Deliberately generous: real tables are
#: the semijoin-reduced fraction of the bound.
MAX_TABLE_CELLS = int(os.environ.get("REPRO_MAX_TABLE_CELLS", 1 << 28))

#: Node-kind opcodes of a compiled program (list indexing beats string
#: comparison on the per-node dispatch).
_LEAF, _INTRODUCE, _FORGET, _JOIN = range(4)


class _DecompProgram:
    """A nice decomposition lowered to integer node specs, bottom-up.

    Everything that depends only on the (source, decomposition) pair —
    node kinds, child links, bag digit positions, and the constraint
    checks attached to each introduce node — is precomputed here;
    per-target state (strides in radix ``m``, support bitsets, domains)
    is supplied at solve time.

    ``steps`` holds one ``(kind, children, v, p, checks)`` tuple per node
    in bottom-up order (root last); ``checks`` is only populated for
    introduce nodes: ``(relation name, [(scope position, child digit
    position)...], [scope positions of v])`` per constraint assigned to
    the node.  A constraint is checked at every introduce node where the
    introduced variable occurs in it and the whole scope is inside the
    bag — this covers each constraint at least once (take a deepest bag
    containing the scope: it must be an introduce node of a scope
    variable) and re-checking is harmless.
    """

    __slots__ = ("steps", "order", "kinds", "children", "vs", "ps", "width")

    def __init__(self, csource: CompiledSource, decomposition: TreeDecomposition) -> None:
        nice = make_nice(decomposition)
        var_index = csource.var_index
        count = len(nice.nodes)
        bags: list[tuple[int, ...]] = []
        positions: list[dict[int, int]] = []
        for node in nice.nodes:
            bag = tuple(sorted(var_index[element] for element in node.bag))
            bags.append(bag)
            positions.append({x: p for p, x in enumerate(bag)})
        self.width = max(len(bag) for bag in bags) - 1

        self.kinds: list[int] = [0] * count
        self.children: list[tuple[int, ...]] = [()] * count
        self.vs: list[int] = [-1] * count
        self.ps: list[int] = [-1] * count
        checks_at: list[tuple] = [()] * count
        constraints = csource.constraints
        for index, node in enumerate(nice.nodes):
            self.children[index] = node.children
            if node.kind == "leaf":
                self.kinds[index] = _LEAF
                continue
            if node.kind == "join":
                self.kinds[index] = _JOIN
                continue
            v = var_index[node.element]
            self.vs[index] = v
            if node.kind == "forget":
                self.kinds[index] = _FORGET
                (child,) = node.children
                self.ps[index] = positions[child][v]
                continue
            self.kinds[index] = _INTRODUCE
            self.ps[index] = positions[index][v]
            (child,) = node.children
            bag = set(bags[index])
            child_positions = positions[child]
            checks = []
            relevant: set[int] = set()
            for ci in csource.constraints_of[v]:
                name, scope = constraints[ci]
                if not all(x in bag for x in scope):
                    continue
                others = [
                    (q, child_positions[x])
                    for q, x in enumerate(scope)
                    if x != v
                ]
                relevant.update(pos for _q, pos in others)
                v_positions = [q for q, x in enumerate(scope) if x == v]
                checks.append((name, others, v_positions))
            # The child digit positions any check reads: child codes that
            # agree on them share the allowed-value set, so the solve
            # loop memoizes per digit-key instead of re-checking facts.
            checks_at[index] = (tuple(checks), tuple(sorted(relevant)))

        # Bottom-up evaluation order (every child before its parent).
        order: list[int] = []
        stack = [0]
        while stack:
            index = stack.pop()
            order.append(index)
            stack.extend(self.children[index])
        order.reverse()
        self.order = order
        self.steps = checks_at


def _program(
    source: Structure,
    csource: CompiledSource,
    decomposition: TreeDecomposition,
    *,
    validate: bool,
) -> _DecompProgram:
    """Compile (and memoize) the program for ``(source, decomposition)``.

    The memo lives on the decomposition object, keyed by the source's
    canonical fingerprint; a hit implies the decomposition was already
    validated against an equal source, so repeated solves skip both the
    validation walk and the nice-normalization.
    """
    try:
        memo = decomposition._kernel_programs  # type: ignore[attr-defined]
    except AttributeError:
        memo = decomposition._kernel_programs = {}  # type: ignore[attr-defined]
    key = canonical_fingerprint(source)
    program = memo.get(key)
    if program is None:
        if validate:
            decomposition.validate(source)
        program = _DecompProgram(csource, decomposition)
        if len(memo) >= 8:  # a decomposition serves very few sources
            memo.pop(next(iter(memo)))
        memo[key] = program
    return program


def solve_decomposition(
    source: Structure,
    target: Structure | CompiledTarget,
    decomposition: TreeDecomposition | None = None,
    *,
    max_table_cells: int | None = None,
) -> dict[Element, Element] | None:
    """Find a homomorphism ``source → target`` by the compiled bag-table DP.

    The engine behind :func:`repro.treewidth.dp.solve_by_treewidth`,
    held to the reference DP: same validation, same edge cases, same existence verdict on every instance (witnesses are
    valid homomorphisms but may differ element-wise).  ``decomposition``
    defaults to the memoized min-fill decomposition of the source.

    Raises :class:`ResourceBudgetError` before building any table when
    the Theorem 5.4 worst-case bag-table size ``m^{w+1}`` exceeds
    ``max_table_cells`` (default :data:`MAX_TABLE_CELLS`), and
    :class:`~repro.exceptions.SolveTimeoutError` from inside the DP when
    an ambient cancellation deadline expires.
    """
    ctarget = compile_target(target)
    if source.vocabulary != ctarget.structure.vocabulary:
        raise VocabularyError("instance structures must share a vocabulary")
    csource = compile_source(source)
    if decomposition is None:
        decomposition = cached_decomposition(source)
        program = _program(source, csource, decomposition, validate=False)
    else:
        program = _program(source, csource, decomposition, validate=True)
    if not source.universe:
        return {}
    if not ctarget.values:
        return None

    # Nullary facts never enter a bag check (no variable carries them).
    for name, scope in csource.constraints:
        if not scope and () not in ctarget.tuples[name]:
            return None

    domains = initial_domains(csource, ctarget)
    if domains is None:
        return None

    m = len(ctarget.values)
    budget = MAX_TABLE_CELLS if max_table_cells is None else max_table_cells
    worst_table = m ** (program.width + 1)
    if worst_table > budget:
        _budget_log.warning(
            "treewidth DP refused: bag-table bound exceeds budget",
            extra={
                "event": "budget.trip",
                "engine": "dp",
                "bound": worst_table,
                "budget": budget,
                "width": program.width,
            },
        )
        raise ResourceBudgetError(
            f"bag table bound m^(w+1) = {m}^{program.width + 1} exceeds "
            f"max_table_cells={budget}; route this instance to search"
        )
    with maybe_span("kernel.dp", width=program.width, values=m) as span:
        assignment, cells = _dp_run(program, csource, ctarget, domains, m)
        kcount("dp.bag_cells", cells)
        if span is not None:
            span.set(bag_cells=cells, found=assignment is not None)
    return assignment


def _dp_run(
    program: _DecompProgram,
    csource: CompiledSource,
    ctarget: CompiledTarget,
    domains: list[int],
    m: int,
) -> tuple[dict[Element, Element] | None, int]:
    """Run a compiled program bottom-up; returns (witness, bag cells).

    The second component counts every bag-table cell materialised (the
    per-node ``len(table)`` sum) — the DP's native work measure, flushed
    into the ``dp.bag_cells`` kernel counter and held against the
    planner's ``m^(w+1)``-shaped cost guess by the calibration report.
    """
    token = current_token()
    pow_m = [1]
    for _ in range(program.width + 2):
        pow_m.append(pow_m[-1] * m)
    supports = ctarget.supports
    all_tuples_masks = ctarget.all_tuples_masks
    kinds, children = program.kinds, program.children
    vs, ps, steps = program.vs, program.ps, program.steps

    tables: list[set[int] | None] = [None] * len(kinds)
    # Per forget node, one surviving child extension per projected row.
    forget_witness: list[dict[int, int] | None] = [None] * len(kinds)
    rows_seen = 0  # cancellation granularity across introduce rows
    cells = 0  # bag-table cells materialised, summed over nodes

    for index in program.order:
        if token is not None:
            token.check()
        kind = kinds[index]
        if kind == _LEAF:
            tables[index] = {0}
        elif kind == _INTRODUCE:
            (child,) = children[index]
            child_table = tables[child]
            stride = pow_m[ps[index]]
            v_domain = domains[vs[index]]
            node_checks, relevant = steps[index]
            checks = [
                (
                    supports[name],
                    all_tuples_masks[name],
                    [(q, pow_m[pos]) for q, pos in others],
                    v_positions,
                )
                for name, others, v_positions in node_checks
            ]
            key_strides = [pow_m[pos] for pos in relevant]
            # Child codes agreeing on the checked digits share their
            # allowed images of v; memoize the (stride-scaled) offsets.
            offsets_by_key: dict[int, tuple[int, ...]] = {}
            get_offsets = offsets_by_key.get
            table = set()
            table_add = table.add
            for code in child_table:
                if token is not None:
                    rows_seen += 1
                    if not rows_seen & CHECK_MASK:
                        token.check()
                low = code % stride
                base = low + (code - low) * m
                key = 0
                for key_stride in key_strides:
                    key = key * m + code // key_stride % m
                offsets = get_offsets(key)
                if offsets is None:
                    allowed = v_domain
                    for per_position, live, others, v_positions in checks:
                        for q, digit_stride in others:
                            live &= per_position[q][code // digit_stride % m]
                            if not live:
                                break
                        if not live:
                            allowed = 0
                            break
                        # One surviving tuple must support the value at
                        # every occurrence of v simultaneously.
                        mask = allowed
                        allowed = 0
                        while mask:
                            bit = mask & -mask
                            value = bit.bit_length() - 1
                            rows = live
                            for q in v_positions:
                                rows &= per_position[q][value]
                                if not rows:
                                    break
                            if rows:
                                allowed |= bit
                            mask ^= bit
                        if not allowed:
                            break
                    collected = []
                    mask = allowed
                    while mask:
                        bit = mask & -mask
                        collected.append((bit.bit_length() - 1) * stride)
                        mask ^= bit
                    offsets = tuple(collected)
                    offsets_by_key[key] = offsets
                for offset in offsets:
                    table_add(base + offset)
            tables[index] = table
            tables[child] = None  # free the child table early
        elif kind == _FORGET:
            (child,) = children[index]
            child_table = tables[child]
            stride = pow_m[ps[index]]
            shifted = stride * m
            witness: dict[int, int] = {}
            put = witness.setdefault
            for code in child_table:
                low = code % stride
                put(low + (code // shifted) * stride, code)
            tables[index] = set(witness)
            forget_witness[index] = witness
            tables[child] = None
        else:  # join
            left, right = children[index]
            tables[index] = tables[left] & tables[right]  # type: ignore[operator]
            tables[left] = tables[right] = None
        cells += len(tables[index])  # type: ignore[arg-type]
        if not tables[index]:
            return None, cells

    # Top-down witness reconstruction: thread one surviving code from the
    # root through every node, reading variable images off introduce
    # digits and re-extending through forget witnesses.
    assignment: dict[Element, Element] = {}
    variables = csource.variables
    values = ctarget.values
    root_table = tables[0]
    assert root_table is not None
    stack: list[tuple[int, int]] = [(0, min(root_table))]
    while stack:
        index, code = stack.pop()
        kind = kinds[index]
        if kind == _INTRODUCE:
            (child,) = children[index]
            stride = pow_m[ps[index]]
            low = code % stride
            assignment[variables[vs[index]]] = values[code // stride % m]
            stack.append((child, low + (code // (stride * m)) * stride))
        elif kind == _FORGET:
            (child,) = children[index]
            witness = forget_witness[index]
            assert witness is not None
            stack.append((child, witness[code]))
        elif kind == _JOIN:
            left, right = children[index]
            stack.append((left, code))
            stack.append((right, code))
    return assignment, cells


def decomposition_exists(
    source: Structure,
    target: Structure | CompiledTarget,
    decomposition: TreeDecomposition | None = None,
) -> bool:
    """Decision form of :func:`solve_decomposition`."""
    return solve_decomposition(source, target, decomposition) is not None
