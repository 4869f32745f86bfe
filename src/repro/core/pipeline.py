"""The pluggable uniform-solver pipeline.

Kolaitis & Vardi's program is to recognize *tractable islands* of the
homomorphism problem — Schaefer Boolean targets (Section 3), sources of
bounded treewidth (Section 5), targets whose cCSP is k-Datalog-expressible
(Section 4) — and route each instance to the algorithm the paper proves
applicable.  The seed dispatcher hardwired that routing in one if-chain;
this module turns it into an explicit, extensible pipeline:

* :class:`Strategy` — the protocol a route implements: ``applies()`` says
  whether this island's hypothesis holds for the instance, ``run()``
  decides it.  Each of the paper's routes lives in its own module under
  :mod:`repro.core.strategies`; a new island is a drop-in file.
* :class:`SolverPipeline` — an ordered registry of strategies.  The first
  strategy whose ``applies()`` accepts the instance runs; order encodes
  the same preference as the seed dispatcher (trivial constants before
  Horn before dual-Horn before …, structure before search).
* :class:`StructureCache` — memoizes Schaefer classification (per target)
  and greedy tree decomposition (per source) across solve calls, keyed by
  :func:`repro.structures.fingerprint.canonical_fingerprint`.  A workload
  of many sources against few targets classifies each target exactly once.
* :meth:`SolverPipeline.solve_many` — the batch API: groups instances by
  target fingerprint so shared classification work is amortized even on a
  cold cache, and returns solutions in input order.
* :class:`SolveStats` — per-solve tracing attached to every
  :class:`Solution`: which strategies were consulted, which ran, cache
  hits/misses, and wall-clock timings, making the routing observable.

The module-level :func:`solve` / :func:`solve_many` operate on a shared
default pipeline (one process-wide cache); construct a
:class:`SolverPipeline` directly for an isolated cache or a custom
strategy order.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import (
    Hashable,
    Iterable,
    Mapping,
    Protocol,
    runtime_checkable,
)

from repro.boolean.schaefer import SchaeferClass, classify_structure
from repro.core.cancellation import CancellationToken, Deadline, cancel_scope
from repro.exceptions import VocabularyError
from repro.kernel.compile import CompiledTarget, compile_target
from repro.obs.metrics import collect_kernel_counters
from repro.obs.trace import maybe_span
from repro.structures.fingerprint import canonical_fingerprint
from repro.structures.structure import Structure
from repro.treewidth.decomposition import TreeDecomposition
from repro.treewidth.heuristics import cached_decomposition

__all__ = [
    "DEFAULT_WIDTH_THRESHOLD",
    "CacheStats",
    "CacheTally",
    "Solution",
    "SolveContext",
    "SolveStats",
    "SolverPipeline",
    "Strategy",
    "StructureCache",
    "default_pipeline",
    "solve",
    "solve_many",
]

Element = Hashable

#: Width up to which the treewidth DP is preferred over backtracking.
DEFAULT_WIDTH_THRESHOLD = 3


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolveStats:
    """Per-solve trace: what the pipeline tried and what it cost.

    Attributes
    ----------
    attempted:
        Names of the strategies whose ``applies()`` was consulted, in
        pipeline order; the last entry is the strategy that ran.
    cache_hits / cache_misses:
        How many :class:`StructureCache` lookups this solve served from /
        added to the shared cache.  A repeated solve against an
        already-seen Boolean target reports ``cache_hits >= 1``.
    timings:
        Wall-clock milliseconds: one ``"applies:<name>"`` entry per
        consulted strategy, one ``"run:<name>"`` entry for the winner, and
        ``"total"`` for the whole solve.
    plan:
        The width-aware planner's routing decision
        (:meth:`repro.kernel.estimate.Plan.as_dict`) when the solve ran
        with ``plan=True`` and the planner strategy decided the instance;
        ``None`` otherwise.  This is what makes the engine choice —
        search vs. DP vs. pebble, and the cost signals behind it —
        observable per solve.
    kernel:
        What the kernel engines *actually did* for this solve — the
        per-solve kernel counters (``"search.nodes"``,
        ``"dp.bag_cells"``, ``"datalog.rounds"``, …; see
        :data:`repro.obs.metrics.KERNEL_COUNTERS`) collected while the
        winning strategy ran.  ``None`` when no kernel engine ran or the
        hooks are disabled (``REPRO_OBS_METRICS=0``).  Paired with
        ``plan``, it shows how the planner's cost guess held up.
    """

    attempted: tuple[str, ...] = ()
    cache_hits: int = 0
    cache_misses: int = 0
    timings: Mapping[str, float] = field(default_factory=dict)
    plan: Mapping[str, object] | None = None
    kernel: Mapping[str, int] | None = None


@dataclass(frozen=True)
class Solution:
    """The outcome of a solve.

    ``homomorphism`` is ``None`` when no homomorphism exists; ``strategy``
    names the algorithm that decided the instance, making the routing
    observable (and testable).  ``stats`` carries the per-solve trace when
    the solution was produced by a :class:`SolverPipeline` (strategies
    construct solutions without stats; the pipeline attaches them).
    """

    homomorphism: dict[Element, Element] | None
    strategy: str
    stats: SolveStats | None = None

    @property
    def exists(self) -> bool:
        return self.homomorphism is not None


# ---------------------------------------------------------------------------
# The cross-call analysis cache
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CacheStats:
    """Cumulative hit/miss counters of a :class:`StructureCache`."""

    hits: int
    misses: int


@dataclass
class CacheTally:
    """Mutable per-solve hit/miss counters.

    A :class:`SolveContext` carries one and hands it to every cache call it
    makes, so a solve can report *its own* cache traffic even while other
    threads hammer the same shared cache — the global :class:`CacheStats`
    counters only tell a per-solve story in a single-threaded process.
    """

    hits: int = 0
    misses: int = 0


class StructureCache:
    """Memoizes per-structure analyses across solve calls.

    Keys are canonical fingerprints (:func:`canonical_fingerprint`), so a
    structurally equal target built twice — e.g. re-parsed from JSON — still
    hits.  Three analyses are cached — the two the dispatcher recomputed
    per call in the seed, plus the kernel compilation:

    * :meth:`classification` — the Schaefer classes of a Boolean target
      (Theorem 3.1's polynomial recognition, run once per target);
    * :meth:`decomposition` — the greedy tree decomposition of a source
      (the Section 5 hypothesis test, run once per source);
    * :meth:`compiled_target` — the bitset index of a target
      (:class:`repro.kernel.CompiledTarget`), so ``solve_many`` amortizes
      compilation across every instance sharing the target.

    All operations are thread-safe, so the cache can be shared by the
    solve service's worker threads: one lock guards table reads and
    writes, evictions, and counters — never a miss's ``compute()`` or
    store I/O, so a thread computing one structure's analysis does not
    block lookups of another.  Two threads missing on the same key may
    both compute it (the analyses are pure); the first insert wins and
    both callers get its object.

    With a persistent :class:`repro.persist.ArtifactStore` attached the
    cache becomes the L1 of a two-level hierarchy: a miss first consults
    the store (a verified record decodes in linear time — no
    recompilation), and a computed result is written through so the
    *next* process lifetime finds it.  The store is consulted only on
    misses, so the hot path is unchanged; a detached cache (``store``
    left ``None``) behaves exactly as before.
    """

    #: Default per-analysis entry bound; old entries are evicted LRU-first.
    DEFAULT_MAXSIZE = 4096

    #: Cache table per persistent artifact kind (the codec's vocabulary).
    _KIND_TABLES = {
        "classification": "_classifications",
        "decomposition": "_decompositions",
        "ctarget": "_compiled_targets",
    }

    def __init__(
        self, maxsize: int = DEFAULT_MAXSIZE, *, store=None
    ) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self._maxsize = maxsize
        self._lock = threading.Lock()
        self._classifications: dict[str, SchaeferClass] = {}
        self._decompositions: dict[str, TreeDecomposition] = {}
        self._compiled_targets: dict[str, CompiledTarget] = {}
        self._hits = 0
        self._misses = 0
        #: The persistent L2 (duck-typed: ``get``/``put``), or ``None``.
        self._store = store

    def attach_store(self, store) -> None:
        """Attach (or with ``None`` detach) the persistent L2 store."""
        with self._lock:
            self._store = store

    def seed(self, kind: str, fingerprint: str, value) -> None:
        """Insert a recovered artifact directly (store warm-up path).

        No counters move: seeding is neither a hit nor a miss, and a
        seeded entry is indistinguishable from a computed one afterwards.
        Unknown kinds are ignored so a newer store can warm an older
        process.
        """
        table_name = self._KIND_TABLES.get(kind)
        if table_name is None:
            return
        with self._lock:
            table = getattr(self, table_name)
            if fingerprint not in table:
                if len(table) >= self._maxsize:
                    table.pop(next(iter(table)))
                table[fingerprint] = value

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(self._hits, self._misses)

    def __len__(self) -> int:
        with self._lock:
            return (
                len(self._classifications)
                + len(self._decompositions)
                + len(self._compiled_targets)
            )

    def clear(self) -> None:
        """Drop all cached analyses (counters included)."""
        with self._lock:
            self._classifications.clear()
            self._decompositions.clear()
            self._compiled_targets.clear()
            self._hits = 0
            self._misses = 0

    def _lookup(
        self,
        table: dict,
        key: str,
        compute,
        tally: CacheTally | None,
        kind: str | None = None,
    ):
        """LRU lookup: hits move to the back, inserts evict the front.

        Python dicts preserve insertion order, so the front of the dict is
        the least-recently-used entry; bounding each table keeps a
        long-lived process (the north-star serving workload) from
        accumulating one decomposition per distinct source forever.

        An L1 miss with a store attached reads through it before
        computing (a verified record is decoded, not recompiled —
        counted on the store's own hit counter) and writes a computed
        result through after.  Either way the caller's tally sees an L1
        miss: the tally answers "did *this cache* have it", which stays
        truthful across restarts.

        The lock is released while a miss reads the store or computes;
        if another thread inserted the key meanwhile, its object is
        returned and this thread's result is dropped.
        """
        with self._lock:
            try:
                result = table.pop(key)
                table[key] = result
                self._hits += 1
                if tally is not None:
                    tally.hits += 1
                return result
            except KeyError:
                self._misses += 1
                if tally is not None:
                    tally.misses += 1
                store = self._store if kind is not None else None
        result = store.get(kind, key) if store is not None else None
        computed = result is None
        if computed:
            result = compute()
        with self._lock:
            first = table.get(key)
            if first is not None:
                return first
            if len(table) >= self._maxsize:
                table.pop(next(iter(table)))
            table[key] = result
        if computed and store is not None:
            store.put(kind, key, result)
        return result

    def classification(
        self, target: Structure, *, tally: CacheTally | None = None
    ) -> SchaeferClass:
        """The (cached) Schaefer classification of a Boolean ``target``."""
        return self._lookup(
            self._classifications,
            canonical_fingerprint(target),
            lambda: classify_structure(target),
            tally,
            kind="classification",
        )

    def decomposition(
        self, source: Structure, *, tally: CacheTally | None = None
    ) -> TreeDecomposition:
        """The (cached) greedy tree decomposition of ``source``."""
        return self._lookup(
            self._decompositions,
            canonical_fingerprint(source),
            lambda: cached_decomposition(source),
            tally,
            kind="decomposition",
        )

    def compiled_target(
        self, target: Structure, *, tally: CacheTally | None = None
    ) -> CompiledTarget:
        """The (cached) kernel compilation of ``target``."""
        return self._lookup(
            self._compiled_targets,
            canonical_fingerprint(target),
            lambda: compile_target(target),
            tally,
            kind="ctarget",
        )


# ---------------------------------------------------------------------------
# Per-solve context
# ---------------------------------------------------------------------------

@dataclass
class SolveContext:
    """Everything a strategy may consult while deciding one instance.

    Carries the solve options, a handle to the shared cross-call
    :class:`StructureCache`, and a per-solve memo so that the cache (and
    its hit/miss counters) is consulted at most once per analysis per
    solve, however many strategies ask.  ``scratch`` lets ``applies()``
    hand expensive intermediate results to ``run()`` (the pebble strategy
    stores the game verdict there).
    """

    cache: StructureCache
    width_threshold: int = DEFAULT_WIDTH_THRESHOLD
    pebble_k: int | None = None
    #: Whether the width-aware planner strategy may claim this solve.
    plan_enabled: bool = False
    #: When set to ``k``, ask the planner to try the canonical k-Datalog
    #: decision (Theorem 4.2) first — only honoured with planning on.
    datalog_k: int | None = None
    scratch: dict[str, object] = field(default_factory=dict)
    #: This solve's own cache traffic (the shared cache's global counters
    #: also see every *other* concurrent solve).
    tally: CacheTally = field(default_factory=CacheTally)
    # Per-solve memos are keyed by the structure itself (structures hash
    # and compare by value), so a strategy asking about a *different*
    # structure — e.g. a booleanized encoding of the target — gets that
    # structure's analysis, never a stale memo of the instance's.
    _classifications: dict[Structure, SchaeferClass] = field(
        default_factory=dict, repr=False
    )
    _decompositions: dict[Structure, TreeDecomposition] = field(
        default_factory=dict, repr=False
    )
    _compiled_targets: dict[Structure, CompiledTarget] = field(
        default_factory=dict, repr=False
    )

    def classification(self, target: Structure) -> SchaeferClass:
        """Schaefer classes of ``target``, via the cache, memoized per solve."""
        if target not in self._classifications:
            self._classifications[target] = self.cache.classification(
                target, tally=self.tally
            )
        return self._classifications[target]

    def decomposition(self, source: Structure) -> TreeDecomposition:
        """Greedy decomposition of ``source``, via the cache, memoized per solve."""
        if source not in self._decompositions:
            self._decompositions[source] = self.cache.decomposition(
                source, tally=self.tally
            )
        return self._decompositions[source]

    def compiled_target(self, target: Structure) -> CompiledTarget:
        """Kernel compilation of ``target``, via the cache, memoized per solve."""
        if target not in self._compiled_targets:
            self._compiled_targets[target] = self.cache.compiled_target(
                target, tally=self.tally
            )
        return self._compiled_targets[target]


# ---------------------------------------------------------------------------
# The strategy protocol
# ---------------------------------------------------------------------------

@runtime_checkable
class Strategy(Protocol):
    """One route of the uniform solver: a tractable island plus its algorithm.

    ``applies`` tests the island's hypothesis (is the target Horn? does
    the source have small width?) — it must be sound: when it returns
    ``True``, ``run`` must decide the instance correctly.  ``applies`` may
    stash intermediate results in ``context.scratch`` for ``run`` to
    reuse.  ``run`` returns a :class:`Solution` whose ``strategy`` names
    the route (parametrized routes interpolate, e.g.
    ``"treewidth-dp(width=2)"``); the pipeline attaches stats afterwards.
    """

    name: str

    def applies(
        self, source: Structure, target: Structure, context: SolveContext
    ) -> bool:
        """Whether this route's tractability hypothesis holds for (A, B)."""
        ...

    def run(
        self, source: Structure, target: Structure, context: SolveContext
    ) -> Solution:
        """Decide ``source → target``; only called after ``applies`` accepted."""
        ...


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------

class SolverPipeline:
    """An ordered registry of :class:`Strategy` instances plus a shared cache.

    The first registered strategy whose ``applies()`` accepts an instance
    runs it.  The default order reproduces the seed dispatcher exactly
    (see :mod:`repro.core.strategies`); ``register`` / ``unregister``
    splice routes in and out without touching the others.
    """

    def __init__(
        self,
        strategies: Iterable[Strategy] | None = None,
        *,
        cache: StructureCache | None = None,
    ) -> None:
        if strategies is None:
            from repro.core.strategies import default_strategies

            strategies = default_strategies()
        self._strategies: list[Strategy] = list(strategies)
        self.cache = cache if cache is not None else StructureCache()

    # -- registry ------------------------------------------------------------

    @property
    def strategies(self) -> tuple[Strategy, ...]:
        """The current routes, in dispatch order."""
        return tuple(self._strategies)

    @property
    def strategy_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self._strategies)

    def _index_of(self, name: str) -> int:
        for i, strategy in enumerate(self._strategies):
            if strategy.name == name:
                return i
        raise KeyError(f"no strategy named {name!r} in the pipeline")

    def register(
        self,
        strategy: Strategy,
        *,
        before: str | None = None,
        after: str | None = None,
    ) -> "SolverPipeline":
        """Insert a route; by default it goes last (just a new fallback).

        ``before``/``after`` name an existing strategy to splice next to;
        they are mutually exclusive.  Returns ``self`` for chaining.
        """
        if before is not None and after is not None:
            raise ValueError("pass at most one of 'before' and 'after'")
        if before is not None:
            index = self._index_of(before)
        elif after is not None:
            index = self._index_of(after) + 1
        else:
            index = len(self._strategies)
        self._strategies.insert(index, strategy)
        return self

    def unregister(self, name: str) -> Strategy:
        """Remove and return the route named ``name``."""
        return self._strategies.pop(self._index_of(name))

    # -- solving -------------------------------------------------------------

    def solve(
        self,
        source: Structure,
        target: Structure,
        *,
        width_threshold: int = DEFAULT_WIDTH_THRESHOLD,
        try_pebble_refutation: int | None = None,
        plan: bool = False,
        try_canonical_datalog: int | None = None,
        deadline: Deadline | None = None,
    ) -> Solution:
        """Decide ``source → target`` with the first applicable route.

        Parameters
        ----------
        width_threshold:
            Use the treewidth DP when a greedy decomposition of the source
            has width at most this value.
        try_pebble_refutation:
            If set to ``k``, run the existential k-pebble game before
            backtracking; a Spoiler win refutes the instance outright
            (sound by Theorem 4.8's easy direction).
        plan:
            Let the width-aware planner strategy claim instances that
            fall past the Schaefer islands: it chooses search vs. DP vs.
            pebble from predicted costs, and the decision lands in
            ``Solution.stats.plan``.
        try_canonical_datalog:
            If set to ``k`` (with ``plan=True``), ask the planner to try
            the canonical k-Datalog decision of Theorem 4.2 first: "does
            ρ_B derive its goal on A?", answered by the compiled pebble
            game.  A derivation refutes the instance outright; otherwise
            the planner falls back to search, so the answer stays exact.
        deadline:
            A cooperative time budget.  The kernel engines check it every
            :data:`~repro.core.cancellation.CHECK_INTERVAL` units of work
            and raise :class:`~repro.exceptions.SolveTimeoutError` from
            inside the computation once it passes — so a timed-out solve
            stops burning its thread, not just its waiter.

        Returns
        -------
        Solution
            With ``stats`` populated: strategies consulted, cache traffic,
            and timings.
        """
        if deadline is not None:
            # Install the ambient token for this thread and re-enter; the
            # recursive call sees ``deadline=None`` so a caller-installed
            # scope (the service's) is never clobbered on the plain path.
            with cancel_scope(CancellationToken(deadline)):
                return self.solve(
                    source,
                    target,
                    width_threshold=width_threshold,
                    try_pebble_refutation=try_pebble_refutation,
                    plan=plan,
                    try_canonical_datalog=try_canonical_datalog,
                )
        if source.vocabulary != target.vocabulary:
            raise VocabularyError(
                "a homomorphism problem needs a common vocabulary"
            )
        context = SolveContext(
            cache=self.cache,
            width_threshold=width_threshold,
            pebble_k=try_pebble_refutation,
            plan_enabled=plan,
            datalog_k=try_canonical_datalog,
        )
        attempted: list[str] = []
        timings: dict[str, float] = {}
        start = time.perf_counter()
        solution: Solution | None = None
        with maybe_span("pipeline.solve") as pipeline_span, \
                collect_kernel_counters() as kernel_bag:
            for strategy in self._strategies:
                tick = time.perf_counter()
                accepted = strategy.applies(source, target, context)
                timings[f"applies:{strategy.name}"] = (
                    (time.perf_counter() - tick) * 1000
                )
                attempted.append(strategy.name)
                if accepted:
                    tick = time.perf_counter()
                    with maybe_span(f"strategy:{strategy.name}"):
                        solution = strategy.run(source, target, context)
                    timings[f"run:{strategy.name}"] = (
                        (time.perf_counter() - tick) * 1000
                    )
                    break
        if solution is None:
            raise RuntimeError(
                "no strategy applied — the pipeline needs a total fallback "
                "(the default registry ends with backtracking)"
            )
        timings["total"] = (time.perf_counter() - start) * 1000
        if pipeline_span is not None:
            pipeline_span.set(strategy=solution.strategy)
        # The context's tally counts only this solve's cache calls, so the
        # numbers stay truthful when other threads share the cache.
        stats = SolveStats(
            attempted=tuple(attempted),
            cache_hits=context.tally.hits,
            cache_misses=context.tally.misses,
            timings=timings,
            plan=context.scratch.get("plan"),  # type: ignore[arg-type]
            kernel=dict(kernel_bag) if kernel_bag else None,
        )
        return replace(solution, stats=stats)

    def solve_many(
        self,
        pairs: Iterable[tuple[Structure, Structure]],
        *,
        width_threshold: int = DEFAULT_WIDTH_THRESHOLD,
        try_pebble_refutation: int | None = None,
        plan: bool = False,
        try_canonical_datalog: int | None = None,
    ) -> list[Solution]:
        """Decide a batch of instances, amortizing per-target analysis.

        The shared :class:`StructureCache` guarantees each distinct target
        is classified once (and each distinct source decomposed once);
        grouping the batch by target fingerprint additionally keeps every
        group's solves adjacent, so a bounded cache cannot evict a target
        between two instances that share it, however large the batch.
        Results are returned in input order; ``solve_many`` agrees with
        mapping :meth:`solve` over the batch instance by instance.
        """
        indexed = list(enumerate(pairs))
        groups: dict[str, list[tuple[int, Structure, Structure]]] = {}
        for position, (source, target) in indexed:
            key = canonical_fingerprint(target)
            groups.setdefault(key, []).append((position, source, target))
        solutions: list[Solution | None] = [None] * len(indexed)
        for group in groups.values():
            for position, source, target in group:
                solutions[position] = self.solve(
                    source,
                    target,
                    width_threshold=width_threshold,
                    try_pebble_refutation=try_pebble_refutation,
                    plan=plan,
                    try_canonical_datalog=try_canonical_datalog,
                )
        return solutions  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# The default pipeline
# ---------------------------------------------------------------------------

_default: SolverPipeline | None = None


def default_pipeline() -> SolverPipeline:
    """The process-wide pipeline behind :func:`solve` (shared cache)."""
    global _default
    if _default is None:
        _default = SolverPipeline()
    return _default


def solve(
    source: Structure,
    target: Structure,
    *,
    width_threshold: int = DEFAULT_WIDTH_THRESHOLD,
    try_pebble_refutation: int | None = None,
    plan: bool = False,
    try_canonical_datalog: int | None = None,
) -> Solution:
    """Decide ``source → target`` on the default pipeline.

    Drop-in replacement for the seed dispatcher: routing decisions and
    strategy names are unchanged (``plan=True`` opts into the
    width-aware planner); the returned :class:`Solution` additionally
    carries :class:`SolveStats`.
    """
    return default_pipeline().solve(
        source,
        target,
        width_threshold=width_threshold,
        try_pebble_refutation=try_pebble_refutation,
        plan=plan,
        try_canonical_datalog=try_canonical_datalog,
    )


def solve_many(
    pairs: Iterable[tuple[Structure, Structure]],
    *,
    width_threshold: int = DEFAULT_WIDTH_THRESHOLD,
    try_pebble_refutation: int | None = None,
    plan: bool = False,
    try_canonical_datalog: int | None = None,
) -> list[Solution]:
    """Batch-decide instances on the default pipeline (shared cache)."""
    return default_pipeline().solve_many(
        pairs,
        width_threshold=width_threshold,
        try_pebble_refutation=try_pebble_refutation,
        plan=plan,
        try_canonical_datalog=try_canonical_datalog,
    )
