"""The generalized existential k-pebble game on compiled bitsets.

The reference fixpoints (``reference/homomorphism.py``) — one deleting
frozenset maps, one filtering per-domain sets of image tuples — rebuild
dicts in their inner loops.  This module computes the same greatest forth-closed family
(Theorem 4.7.1) for *any* ``k`` on the compiled representation,
replacing the old ``k = 2``-only ``pebble2`` fast path:

* a *domain* is a sorted tuple of ≤ k source-variable indices; the
  surviving images of a domain of size ``s`` are one int bitmask over
  its ``m^s`` mixed-radix codes (digit ``p`` of a code is the value of
  the ``p``-th domain variable), so deleting an image is clearing a bit;
* constraints initialize the mask of their scope's exact domain from
  the target relation's rows (a row that assigns the scope variables
  consistently contributes one code) — facts covered by larger domains
  are enforced transitively through downward closure, and facts with
  more than ``k`` distinct elements never fit under ``k`` pebbles
  (exactly as the reference implementations ignore them);
* the two closure conditions become *arcs* between a domain and its
  one-element extensions: **downward** (an image of ``sub + {a}`` whose
  restriction died, dies — one precomputed expansion pattern shifted per
  removed code) and **forth** (an image of ``sub`` with no surviving
  extension by ``a``, dies — one AND against the extension window);
* a worklist propagates *removed-bit masks* between arcs, and each forth
  arc keeps AC-2001-style residuals — per surviving sub-code, the
  single-bit witness that supported it last time — so a re-check is one
  AND against the live mask before any window is recomputed.

The Spoiler wins iff some domain's mask empties (the wipe-out cascades
down to a singleton and kills the empty map's forth property —
equivalently, in the family formulation, the empty map dies).  The
fixpoint is the greatest family satisfying the same closure conditions
the references enforce, so the decoded family and tables agree with
both reference implementations *exactly*, map for map, which the parity
suites assert; :mod:`repro.pebble.game` and :mod:`repro.pebble.kconsistency`
delegate here.
"""

from __future__ import annotations

from itertools import combinations
from typing import Hashable

from repro.core.cancellation import current_token
from repro.exceptions import VocabularyError
from repro.kernel.compile import (
    CompiledTarget,
    compile_source,
    compile_target,
)
from repro.obs.metrics import kcount
from repro.obs.trace import maybe_span
from repro.structures.structure import Structure

__all__ = [
    "spoiler_wins_k",
    "spoiler_wins_k2",
    "pebble_game_family",
    "kernel_consistency_tables",
]

Element = Hashable
PartialMap = frozenset[tuple[Element, Element]]


def _validate(source: Structure, ctarget: CompiledTarget, k: int) -> None:
    if source.vocabulary != ctarget.structure.vocabulary:
        raise VocabularyError("pebble game requires a common vocabulary")
    if k < 1:
        raise ValueError("need at least one pebble")


def _solve_tables(
    source: Structure, ctarget: CompiledTarget, k: int
) -> tuple[list[tuple[int, ...]], list[int]] | None:
    """The greatest fixpoint as ``(domains, live masks)``, or ``None``.

    ``None`` means some domain wiped out — the Spoiler wins.  Assumes a
    non-empty source universe and target (callers handle those edges).

    Observability wrapper: opens a ``kernel.pebble`` span when a trace
    is ambient and flushes the fixpoint's step count (initial-sweep
    domains plus worklist pops) into the ``pebble.steps`` counter.
    """
    steps = [0]
    with maybe_span("kernel.pebble", k=k) as span:
        try:
            return _solve_tables_run(source, ctarget, k, steps)
        finally:
            kcount("pebble.steps", steps[0])
            if span is not None:
                span.set(steps=steps[0])


def _solve_tables_run(
    source: Structure, ctarget: CompiledTarget, k: int, steps: list[int]
) -> tuple[list[tuple[int, ...]], list[int]] | None:
    csource = compile_source(source)
    n = len(csource.variables)
    m = len(ctarget.values)
    k = min(k, n)

    domains: list[tuple[int, ...]] = []
    for size in range(1, k + 1):
        domains.extend(combinations(range(n), size))
    domain_index = {d: i for i, d in enumerate(domains)}

    pow_m = [1]
    for _ in range(k + 1):
        pow_m.append(pow_m[-1] * m)
    #: Per digit position, the bit pattern of "one code for every value"
    #: at that position (shifted to a base code, it is the extension
    #: window of that code).
    window = [
        sum(1 << (value * pow_m[p]) for value in range(m))
        for p in range(k + 1)
    ]
    full = [(1 << pow_m[s]) - 1 for s in range(k + 1)]

    live: list[int] = [full[len(d)] for d in domains]

    # Constraint seeding: the allowed-codes mask of each constraint's
    # exact domain is the union of its target rows' codes.
    for name, scope in csource.constraints:
        variables = tuple(sorted(set(scope)))
        if not variables or len(variables) > k:
            continue
        did = domain_index[variables]
        position = {x: p for p, x in enumerate(variables)}
        allowed = 0
        for row in ctarget.tuples[name]:
            code = 0
            image: dict[int, int] = {}
            consistent = True
            for q, x in enumerate(scope):
                value = row[q]
                seen = image.get(x)
                if seen is None:
                    image[x] = value
                    code += value * pow_m[position[x]]
                elif seen != value:
                    consistent = False
                    break
            if consistent:
                allowed |= 1 << code
        live[did] &= allowed
        if not live[did]:
            return None

    # Arcs between each domain and its one-variable restrictions; the
    # residual dict belongs to the forth direction (sub needs a witness
    # in sup) and is shared by both views of the arc.
    subs_of: list[list[tuple[int, int, dict[int, int]]]] = [
        [] for _ in domains
    ]
    sups_of: list[list[tuple[int, int, dict[int, int]]]] = [
        [] for _ in domains
    ]
    for did, d in enumerate(domains):
        if len(d) == 1:
            continue
        for p in range(len(d)):
            sid = domain_index[d[:p] + d[p + 1 :]]
            residual: dict[int, int] = {}
            subs_of[did].append((sid, p, residual))
            sups_of[sid].append((did, p, residual))

    def expand(code: int, p: int) -> int:
        """The base code of ``code`` with a fresh 0 digit inserted at p."""
        low = code % pow_m[p]
        return low + (code - low) * m

    def restrict(code: int, p: int) -> int:
        """``code`` with digit p removed."""
        low = code % pow_m[p]
        return low + (code // (pow_m[p] * m)) * pow_m[p]

    # Cooperative cancellation: the sweeps and the worklist are the
    # unbounded phases; check every 64 domains / worklist pops (each
    # step is itself a batch of big-int work, so the effective
    # granularity matches the search kernel's node interval).  ``steps``
    # doubles as the fixpoint's work measure, read by the caller.
    token = current_token()

    # Initial downward sweep (sizes ascending: domains is size-ordered):
    # an image whose restriction is not allowed is not allowed.
    for did, d in enumerate(domains):
        steps[0] += 1
        if token is not None and not steps[0] & 63:
            token.check()
        mask = live[did]
        for sid, p, _residual in subs_of[did]:
            permitted = 0
            sub_mask = live[sid]
            while sub_mask:
                bit = sub_mask & -sub_mask
                permitted |= window[p] << expand(bit.bit_length() - 1, p)
                sub_mask ^= bit
            mask &= permitted
            if not mask:
                return None
        live[did] = mask

    # Worklist propagation seeded by an initial forth sweep (sizes
    # descending): each event is the mask of codes just removed from a
    # domain; consequences flow down (forth) and up (downward closure).
    queued: list[int] = [0] * len(domains)
    pending: list[int] = [0] * len(domains)
    worklist: list[int] = []

    def remove(did: int, removed: int) -> bool:
        """Clear ``removed`` bits; False on wipe-out."""
        survived = live[did] & ~removed
        live[did] = survived
        if not survived:
            return False
        pending[did] |= removed
        if not queued[did]:
            queued[did] = 1
            worklist.append(did)
        return True

    for did in range(len(domains) - 1, -1, -1):
        steps[0] += 1
        if token is not None and not steps[0] & 63:
            token.check()
        removed = 0
        for sup_id, p, residual in sups_of[did]:
            sup_live = live[sup_id]
            mask = live[did] & ~removed
            while mask:
                bit = mask & -mask
                code = bit.bit_length() - 1
                hit = sup_live & (window[p] << expand(code, p))
                if hit:
                    residual[code] = hit & -hit
                else:
                    removed |= bit
                mask ^= bit
        if removed and not remove(did, removed):
            return None

    while worklist:
        steps[0] += 1
        if token is not None and not steps[0] & 63:
            token.check()
        did = worklist.pop()
        queued[did] = 0
        removed, pending[did] = pending[did], 0
        if not removed:
            continue
        # Downward closure: extensions of a dead code are dead.
        for sup_id, p, _residual in sups_of[did]:
            kill = 0
            mask = removed
            while mask:
                bit = mask & -mask
                kill |= window[p] << expand(bit.bit_length() - 1, p)
                mask ^= bit
            dying = live[sup_id] & kill
            if dying and not remove(sup_id, dying):
                return None
        # Forth: sub-codes whose extension window just drained re-check
        # their residual witness before any window scan.
        for sid, p, residual in subs_of[did]:
            sup_live = live[did]
            candidates = 0
            mask = removed
            while mask:
                bit = mask & -mask
                candidates |= 1 << restrict(bit.bit_length() - 1, p)
                mask ^= bit
            candidates &= live[sid]
            dying = 0
            while candidates:
                bit = candidates & -candidates
                code = bit.bit_length() - 1
                witness = residual.get(code, 0)
                if not witness & sup_live:
                    hit = sup_live & (window[p] << expand(code, p))
                    if hit:
                        residual[code] = hit & -hit
                    else:
                        dying |= bit
                candidates ^= bit
            if dying and not remove(sid, dying):
                return None

    return domains, live


def _tables(
    source: Structure, target: Structure | CompiledTarget, k: int
):
    """Shared driver handling the edge cases the references special-case."""
    ctarget = compile_target(target)
    _validate(source, ctarget, k)
    if not source.universe:
        return "empty-source", ctarget, None
    if not ctarget.values:
        return "empty-target", ctarget, None
    result = _solve_tables(source, ctarget, k)
    if result is None:
        return "wipeout", ctarget, None
    return "tables", ctarget, result


def spoiler_wins_k(
    source: Structure, target: Structure | CompiledTarget, k: int
) -> bool:
    """Whether the Spoiler wins the existential k-pebble game on (A, B).

    Agrees with :func:`repro.pebble.game.spoiler_wins` on every instance
    and every ``k`` — the generic compiled engine behind the pebble
    strategy and :mod:`repro.pebble`.
    """
    kind, _ctarget, _result = _tables(source, target, k)
    return kind in ("empty-target", "wipeout")


def spoiler_wins_k2(
    source: Structure, target: Structure | CompiledTarget
) -> bool:
    """The ``k = 2`` game (back-compatible name of the old fast path)."""
    return spoiler_wins_k(source, target, 2)


def pebble_game_family(
    source: Structure, target: Structure | CompiledTarget, k: int
) -> set[PartialMap]:
    """The greatest forth-closed family, decoded to frozenset maps.

    Exactly the family :func:`repro.pebble.game.solve_pebble_game`
    computes: all surviving partial homomorphisms with domain ≤ k, plus
    the empty map when it survives (always, unless a table wiped out).
    """
    kind, ctarget, result = _tables(source, target, k)
    if kind == "empty-source":
        return {frozenset()}
    if kind in ("empty-target", "wipeout"):
        return set()
    assert result is not None
    domains, live = result
    csource = compile_source(source)
    variables = csource.variables
    values = ctarget.values
    m = len(values)
    family: set[PartialMap] = {frozenset()}
    for d, mask in zip(domains, live):
        names = [variables[x] for x in d]
        while mask:
            bit = mask & -mask
            code = bit.bit_length() - 1
            family.add(
                frozenset(
                    (name, values[code // m**p % m])
                    for p, name in enumerate(names)
                )
            )
            mask ^= bit
    return family


def kernel_consistency_tables(
    source: Structure, target: Structure | CompiledTarget, k: int
):
    """The fixpoint decoded in :mod:`repro.pebble.kconsistency`'s layout.

    ``{sorted element tuple: set of image tuples}`` for every domain of
    size 1..min(k, n), or ``None`` when a table empties — byte-for-byte
    the return contract of ``consistency_tables``.
    """
    kind, ctarget, result = _tables(source, target, k)
    if kind == "empty-source":
        return {(): {()}}
    if kind in ("empty-target", "wipeout"):
        return None
    assert result is not None
    domains, live = result
    csource = compile_source(source)
    variables = csource.variables
    values = ctarget.values
    m = len(values)
    tables: dict[tuple[Element, ...], set[tuple[Element, ...]]] = {}
    for d, mask in zip(domains, live):
        images: set[tuple[Element, ...]] = set()
        size = len(d)
        while mask:
            bit = mask & -mask
            code = bit.bit_length() - 1
            images.add(
                tuple(values[code // m**p % m] for p in range(size))
            )
            mask ^= bit
        tables[tuple(variables[x] for x in d)] = images
    return tables
