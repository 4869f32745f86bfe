"""Semi-naive Datalog evaluation compiled to bitset delta tables.

The reference evaluator (``reference/datalog.py``) joins rule bodies by
extending lists of Python dicts, one dict copy per (binding, fact) probe.
This module lowers the same least-fixpoint computation onto the kernel's
integer encodings (:mod:`repro.kernel.compile`):

* a **fact** of an r-ary predicate is one bit: its mixed-radix code
  ``Σ_p value_p · n^p`` over the target compilation's element indices
  (``CompiledTarget.values`` order — the same deterministic ``_sort_key``
  order the reference evaluator sorts its active domain by), so a relation
  is a single Python int and the semi-naive *delta* is a bit-difference;
* a **rule body** is decided over the mixed-radix *binding space*
  ``n^v`` of its ``v`` distinct variables: each atom contributes an
  allowed-bindings mask (the union of its facts' *cylinders* — per-digit
  value masks ANDed together, the same support-bitset semijoin shape the
  pebble and decomposition kernels use), and the rule's satisfied
  bindings are one AND across its atoms;
* atom masks are maintained **incrementally**: when a predicate gains a
  delta, only the delta facts are lifted and OR-ed into every body atom
  reading that predicate, and the semi-naive firing joins the lifted
  delta of one atom against the full masks of the others;
* **projection** to the head is one pass over the set bits of the
  satisfied-bindings mask — per binding, the head code is a dot product
  with precompiled per-digit weights, and unsafe head variables (the
  canonical program's domain-expanded heads) land as one precomputed
  offsets-mask shift instead of an enumeration.

The fixpoint is the least model either way, so the decoded database
equals the reference evaluator's output *exactly* — dict for dict, fact
for fact — which the parity suites assert; :mod:`repro.datalog.evaluation`
delegates here.  The
per-program compilation (digit masks, scopes, head weights) depends only
on the program and the universe size, and is memoized on the program
object, so template workloads — one canonical program ρ_B evaluated
against many sources of one size — compile once.
"""

from __future__ import annotations

import os
from itertools import product
from typing import TYPE_CHECKING, Hashable

from repro.core.cancellation import current_token
from repro.exceptions import DatalogError, ResourceBudgetError
from repro.kernel.compile import compile_target
from repro.obs.logs import get_logger
from repro.obs.metrics import kcount
from repro.obs.trace import maybe_span
from repro.structures.structure import Structure

if TYPE_CHECKING:  # pragma: no cover — annotation-only imports
    from repro.datalog.program import DatalogProgram, Rule

__all__ = [
    "MAX_TABLE_CELLS",
    "CompiledDatalog",
    "compile_datalog",
    "evaluate_datalog",
    "datalog_goal_holds",
]

#: Refuse to build a binding-space mask family wider than this many
#: cells (bits).  A rule with ``v`` distinct body variables evaluates
#: over ``n^v`` codes; past ~2^28 the digit-mask ints alone reach
#: hundreds of megabytes and a single AND stalls the worker for longer
#: than any reasonable deadline.  The caller gets a typed
#: :class:`ResourceBudgetError` instead of an out-of-memory worker.
MAX_TABLE_CELLS = int(os.environ.get("REPRO_MAX_TABLE_CELLS", 1 << 28))

Element = Hashable
Row = tuple[Element, ...]
#: The return shape of ``repro.datalog.evaluation.evaluate_program``.
Database = dict[str, set[Row]]

_budget_log = get_logger("kernel")


class _CompiledRule:
    """One rule in binding-space form (fixed program, fixed universe size).

    Attributes
    ----------
    head_name / head_arity:
        The head predicate and its arity (head code space is ``n^arity``).
    num_digits:
        ``v`` — distinct body variables; bindings are codes in ``n^v``.
    atoms:
        Per body atom, ``(relation name, digit positions)`` — the digit
        each atom position reads, in atom-term order.
    weights:
        Per digit, the head-code weight ``Σ n^p`` over the head positions
        holding that variable (0 when the variable is body-only).
    unsafe_mask:
        The OR of ``1 << offset`` over every assignment of the unsafe
        (head-only) variables — projection shifts this one mask by the
        safe part's head code.  ``1`` (a single offset of 0) when every
        head variable is bound by the body; ``0`` when unsafe variables
        exist but the domain is empty (no expansion, like the reference).
    """

    __slots__ = (
        "head_name",
        "head_arity",
        "num_digits",
        "atoms",
        "weights",
        "unsafe_mask",
    )

    def __init__(self, rule: "Rule", n: int) -> None:
        head = rule.head
        self.head_name = head.relation
        self.head_arity = head.arity
        body_vars = sorted(rule.body_variables)
        digit = {name: d for d, name in enumerate(body_vars)}
        self.num_digits = len(body_vars)
        self.atoms = tuple(
            (atom.relation, tuple(digit[t] for t in atom.terms))
            for atom in rule.body
        )
        weights = [0] * len(body_vars)
        unsafe_weights: dict[str, int] = {}
        for position, term in enumerate(head.terms):
            if term in digit:
                weights[digit[term]] += n**position
            else:
                unsafe_weights[term] = (
                    unsafe_weights.get(term, 0) + n**position
                )
        self.weights = tuple(weights)
        mask = 0
        names = sorted(unsafe_weights)
        for values in product(range(n), repeat=len(names)):
            mask |= 1 << sum(
                unsafe_weights[name] * value
                for name, value in zip(names, values)
            )
        self.unsafe_mask = mask


class CompiledDatalog:
    """A program compiled for one universe size ``n``.

    Shared across every structure of that size (memoized on the program
    object via :func:`compile_datalog`): rules in binding-space form, the
    per-width digit masks cylinders are built from, and the index of IDB
    body atoms the delta loop walks.
    """

    __slots__ = (
        "program",
        "n",
        "rules",
        "digit_masks",
        "full_masks",
        "idb_atoms",
        "identity",
    )

    def __init__(self, program: "DatalogProgram", n: int) -> None:
        self.program = program
        self.n = n
        self.rules = tuple(_CompiledRule(rule, n) for rule in program.rules)

        #: Per binding width ``v``: ``digit_masks[v][d][value]`` is the
        #: mask over ``n^v`` codes whose digit ``d`` equals ``value``.
        self.digit_masks: dict[int, tuple[tuple[int, ...], ...]] = {}
        self.full_masks: dict[int, int] = {}
        for width in sorted({r.num_digits for r in self.rules}):
            space = n**width
            if space > MAX_TABLE_CELLS:
                _budget_log.warning(
                    "datalog compile refused: binding space exceeds budget",
                    extra={
                        "event": "budget.trip",
                        "engine": "datalog",
                        "bound": space,
                        "budget": MAX_TABLE_CELLS,
                        "width": width,
                    },
                )
                raise ResourceBudgetError(
                    f"datalog binding space n^v = {n}^{width} exceeds "
                    f"max_table_cells={MAX_TABLE_CELLS}; route this "
                    "instance to search"
                )
            full = (1 << space) - 1
            self.full_masks[width] = full
            per_digit = []
            stride = 1  # n^d
            for _d in range(width):
                block = (1 << stride) - 1
                period = stride * n
                zeros = 0
                offset = 0
                while offset < space:
                    zeros |= block << offset
                    offset += period
                per_digit.append(
                    tuple(zeros << (value * stride) for value in range(n))
                )
                stride = period
            self.digit_masks[width] = tuple(per_digit)

        idb = program.idb_predicates
        #: Every (rule index, atom index, predicate) with an IDB body
        #: atom — the places a delta must be lifted into.
        self.idb_atoms = tuple(
            (ri, ai, name)
            for ri, crule in enumerate(self.rules)
            for ai, (name, _digits) in enumerate(crule.atoms)
            if name in idb
        )
        #: Atoms whose lifted mask is the relation's fact mask verbatim
        #: (terms are exactly the body variables in digit order) — the
        #: goal rule of a canonical program is all such atoms.
        self.identity = frozenset(
            (ri, ai)
            for ri, crule in enumerate(self.rules)
            for ai, (name, digits) in enumerate(crule.atoms)
            if digits == tuple(range(crule.num_digits))
            and self._arity(name) == crule.num_digits
        )

    def _arity(self, predicate: str) -> int:
        return self.program.arity(predicate)


def compile_datalog(program: "DatalogProgram", n: int) -> CompiledDatalog:
    """Compile ``program`` for universe size ``n`` (memoized on the program)."""
    cache = getattr(program, "_kernel_compiled", None)
    if cache is None:
        cache = {}
        program._kernel_compiled = cache  # type: ignore[attr-defined]
    compiled = cache.get(n)
    if compiled is None:
        compiled = cache[n] = CompiledDatalog(program, n)
    return compiled


def _decode_codes(mask: int, arity: int, n: int) -> list[tuple[int, ...]]:
    """Set bits of a fact mask as value-index rows (digit 0 first)."""
    rows = []
    while mask:
        low = mask & -mask
        code = low.bit_length() - 1
        row = []
        for _ in range(arity):
            code, value = divmod(code, n)
            row.append(value)
        rows.append(tuple(row))
        mask ^= low
    return rows


class _Evaluation:
    """One fixpoint run: fact masks plus incrementally lifted atom masks."""

    __slots__ = ("cp", "facts", "lifted", "delta")

    def __init__(self, cp: CompiledDatalog, facts: dict[str, int]) -> None:
        self.cp = cp
        self.facts = facts
        #: ``lifted[ri][ai]`` — the OR of cylinders of every fact the
        #: atom's relation currently holds, over the rule's binding space.
        self.lifted: list[list[int]] = []
        n = cp.n
        for ri, crule in enumerate(cp.rules):
            masks = []
            for ai, (name, digits) in enumerate(crule.atoms):
                mask = facts.get(name, 0)
                if mask and (ri, ai) not in cp.identity:
                    rows = _decode_codes(mask, cp._arity(name), n)
                    mask = self._lift(crule, digits, rows)
                masks.append(mask)
            self.lifted.append(masks)
        self.delta: dict[str, int] = {
            p: 0 for p in cp.program.idb_predicates
        }

    def _lift(
        self,
        crule: _CompiledRule,
        digits: tuple[int, ...],
        rows: list[tuple[int, ...]],
    ) -> int:
        """The allowed-bindings mask an atom gets from ``rows``.

        Each consistent row contributes a cylinder: the AND of the digit
        masks it pins, unrestricted in the digits the atom does not read.
        """
        cp = self.cp
        width = crule.num_digits
        full = cp.full_masks[width]
        per_digit = cp.digit_masks[width]
        out = 0
        if len(digits) == width and len(set(digits)) == width:
            # The atom's terms are the body variables in some order: a
            # fact pins every digit, so its cylinder is a single bit.
            n = cp.n
            strides = [n**d for d in digits]
            for row in rows:
                code = 0
                for value, stride in zip(row, strides):
                    code += value * stride
                out |= 1 << code
            return out
        for row in rows:
            assigned: dict[int, int] = {}
            ok = True
            for d, value in zip(digits, row):
                seen = assigned.get(d)
                if seen is None:
                    assigned[d] = value
                elif seen != value:
                    ok = False
                    break
            if not ok:
                continue
            cylinder = full
            for d, value in assigned.items():
                cylinder &= per_digit[d][value]
                if not cylinder:
                    break
            out |= cylinder
        return out

    def _project(self, crule: _CompiledRule, bindings: int) -> int:
        """Derived head-code mask of the rule's satisfied bindings."""
        unsafe = crule.unsafe_mask
        if not unsafe:
            return 0
        weights = crule.weights
        n = self.cp.n
        derived = 0
        while bindings:
            low = bindings & -bindings
            code = low.bit_length() - 1
            head_code = 0
            for weight in weights:
                code, value = divmod(code, n)
                if weight:
                    head_code += weight * value
            derived |= unsafe << head_code
            bindings ^= low
        return derived

    def _fire_full(self, ri: int) -> int:
        """Every head code one rule derives from the current masks."""
        crule = self.cp.rules[ri]
        bindings = self.cp.full_masks[crule.num_digits]
        for mask in self.lifted[ri]:
            bindings &= mask
            if not bindings:
                return 0
        return self._project(crule, bindings)

    def _absorb(self, head: str, derived: int, delta: dict[str, int]) -> None:
        fresh = derived & ~self.facts[head]
        if fresh:
            self.facts[head] |= fresh
            delta[head] |= fresh

    def _push_deltas(self) -> list[tuple[int, int, int]]:
        """Lift the round's deltas into every reading atom.

        Returns ``(rule, atom, lifted delta)`` triples for the semi-naive
        firing; full masks are updated in place first, so a firing joins
        one atom's delta against the others' *current* relations.
        """
        cp = self.cp
        decoded: dict[str, list[tuple[int, ...]]] = {}
        updates: list[tuple[int, int, int]] = []
        for ri, ai, name in cp.idb_atoms:
            mask = self.delta.get(name, 0)
            if not mask:
                continue
            if (ri, ai) in cp.identity:
                lifted_delta = mask
            else:
                rows = decoded.get(name)
                if rows is None:
                    rows = decoded[name] = _decode_codes(
                        mask, cp._arity(name), cp.n
                    )
                lifted_delta = self._lift(
                    cp.rules[ri], cp.rules[ri].atoms[ai][1], rows
                )
            self.lifted[ri][ai] |= lifted_delta
            updates.append((ri, ai, lifted_delta))
        return updates

    def run(self, method: str, *, stop_at_goal: bool = False) -> None:
        """Drive the fixpoint; optionally stop once the goal derives.

        Observability wrapper around :meth:`_run`: opens a
        ``kernel.datalog`` span when a trace is ambient and flushes the
        round count and cumulative delta-table bits into the
        ``datalog.rounds`` / ``datalog.delta_bits`` kernel counters.
        """
        counters = [0, 0]  # rounds, delta bits
        with maybe_span("kernel.datalog", method=method) as span:
            try:
                self._run(method, stop_at_goal, counters)
            finally:
                kcount("datalog.rounds", counters[0])
                kcount("datalog.delta_bits", counters[1])
                if span is not None:
                    span.set(rounds=counters[0], delta_bits=counters[1])

    def _count_round(self, counters: list[int], delta: dict[str, int]) -> None:
        counters[0] += 1
        counters[1] += sum(mask.bit_count() for mask in delta.values())

    def _run(
        self, method: str, stop_at_goal: bool, counters: list[int]
    ) -> None:
        cp = self.cp
        goal = cp.program.goal
        # Cooperative cancellation: a fixpoint round over a wide binding
        # space can run long, so the deadline is tested once per round.
        token = current_token()
        # Round 0: every rule in full (IDB relations start empty, so this
        # is the exact base of the reference round 0).
        for ri, crule in enumerate(cp.rules):
            if token is not None:
                token.check()
            self._absorb(crule.head_name, self._fire_full(ri), self.delta)
        self._count_round(counters, self.delta)
        if stop_at_goal and self.facts[goal]:
            return
        if method == "naive":
            # Re-fire every rule in full each round; the lifted masks
            # still update incrementally (the fixpoint cannot tell).
            while any(self.delta.values()):
                if token is not None:
                    token.check()
                self._push_deltas()
                next_delta: dict[str, int] = {p: 0 for p in self.delta}
                for ri, crule in enumerate(cp.rules):
                    self._absorb(
                        crule.head_name, self._fire_full(ri), next_delta
                    )
                self.delta = next_delta
                self._count_round(counters, self.delta)
                if stop_at_goal and self.facts[goal]:
                    return
            return
        while any(self.delta.values()):
            if token is not None:
                token.check()
            updates = self._push_deltas()
            next_delta = {p: 0 for p in self.delta}
            for ri, ai, lifted_delta in updates:
                if not lifted_delta:
                    continue
                crule = cp.rules[ri]
                bindings = lifted_delta
                for aj, mask in enumerate(self.lifted[ri]):
                    if aj == ai:
                        continue
                    bindings &= mask
                    if not bindings:
                        break
                if not bindings:
                    continue
                self._absorb(
                    crule.head_name, self._project(crule, bindings), next_delta
                )
            self.delta = next_delta
            self._count_round(counters, self.delta)
            if stop_at_goal and self.facts[goal]:
                return


def _seed(
    program: "DatalogProgram", structure: Structure, method: str
) -> tuple[CompiledDatalog, dict[str, int]]:
    """Validate like the reference evaluator and build the fact masks."""
    if method not in ("semi_naive", "naive"):
        raise DatalogError(f"unknown evaluation method {method!r}")
    ctarget = compile_target(structure)
    n = len(ctarget.values)
    facts: dict[str, int] = {}
    for symbol, _rel in structure.relations():
        expected = program._arities.get(symbol.name)
        if expected is not None and expected != symbol.arity:
            raise DatalogError(
                f"EDB predicate {symbol.name!r} has arity {symbol.arity} "
                f"in the structure but {expected} in the program"
            )
        mask = 0
        for row in ctarget.tuples[symbol.name]:
            code = 0
            stride = 1
            for value in row:
                code += value * stride
                stride *= n
            mask |= 1 << code
        facts[symbol.name] = mask
    for predicate in program.idb_predicates:
        if facts.get(predicate):
            raise DatalogError(
                f"IDB predicate {predicate!r} already populated by the "
                "input structure"
            )
        facts.setdefault(predicate, 0)
    for predicate in program.edb_predicates:
        facts.setdefault(predicate, 0)
    return compile_datalog(program, n), facts


def evaluate_datalog(
    program: "DatalogProgram",
    structure: Structure,
    *,
    method: str = "semi_naive",
) -> Database:
    """The least fixed point on ``structure``, decoded to dict form.

    Exactly the dict :func:`repro.datalog.evaluation.evaluate_program`
    returns — every structure relation passed through, every program
    predicate present, IDB facts decoded back to element tuples.
    """
    cp, facts = _seed(program, structure, method)
    run = _Evaluation(cp, facts)
    run.run(method)
    values = compile_target(structure).values
    n = cp.n
    result: Database = {}
    for symbol, rel in structure.relations():
        result[symbol.name] = set(rel)
    for predicate in program.idb_predicates:
        result[predicate] = {
            tuple(values[v] for v in row)
            for row in _decode_codes(
                facts[predicate], program.arity(predicate), n
            )
        }
    for predicate in program.edb_predicates:
        result.setdefault(predicate, set())
    return result


def datalog_goal_holds(
    program: "DatalogProgram", structure: Structure
) -> bool:
    """Truth of the goal — the fixpoint run stops as soon as it derives.

    Early exit is sound because evaluation is monotone: a derived goal
    fact can never be retracted, and goal truth is non-emptiness.
    """
    cp, facts = _seed(program, structure, "semi_naive")
    run = _Evaluation(cp, facts)
    run.run("semi_naive", stop_at_goal=True)
    return bool(facts[program.goal])
