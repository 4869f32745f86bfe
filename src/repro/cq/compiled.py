"""The compiled query artifact: one compilation per query, reused everywhere.

Theorem 2.1 identifies containment, evaluation, and the homomorphism
problem through the canonical database ``D_Q`` — which means every
containment probe, every evaluation, and every minimization step of a
one-shot path would rebuild the *same* ``D_Q`` (and recompile it in the
kernel) from scratch.  :class:`CompiledQuery` is the query-plane
analogue of the kernel's structure memos:

* the **body structure** and **canonical database** of the query, built
  once and cached per vocabulary (containment compares two queries over
  the *union* of their vocabularies, so the same query probed against
  many partners reuses one structure per distinct union — and since the
  kernel memoizes its compilation on the structure object, the bitset
  index rides along for free);
* the **query fingerprint** — a stable digest of head and body in the
  style of :func:`repro.structures.fingerprint.canonical_fingerprint`,
  used by the batch layer to dedupe structurally equal queries before
  compiling anything;
* memo slots for derived artifacts (the minimized query), so repeated
  minimization is free.

The artifact is memoized on the (immutable) :class:`ConjunctiveQuery`
itself via :func:`compile_query`, mirroring ``compile_source`` /
``compile_target`` on structures.
"""

from __future__ import annotations

import hashlib

from repro.cq.canonical import body_structure, canonical_database
from repro.cq.query import ConjunctiveQuery
from repro.structures.structure import Structure
from repro.structures.vocabulary import Vocabulary

__all__ = ["CompiledQuery", "compile_query", "query_fingerprint"]


def _token(text: str) -> bytes:
    return f"{len(text)}:{text}".encode()


def query_fingerprint(query: ConjunctiveQuery) -> str:
    """A stable hex digest identifying ``query`` up to equality.

    Covers the head tuple and the (already deduplicated, sorted) body
    atoms with length-prefixed tokens, so two queries get the same
    fingerprint iff they are equal as queries — same head, same atom
    set — independent of construction order or process.  The head name
    is cosmetic (containment ignores it) and is excluded.
    """
    digest = hashlib.sha256()
    digest.update(b"|head|")
    for variable in query.head_variables:
        digest.update(_token(variable))
    digest.update(b"|body|")
    for atom in query.atoms:
        digest.update(_token(atom.relation))
        for term in atom.terms:
            digest.update(_token(term))
        digest.update(b";")
    return digest.hexdigest()


class CompiledQuery:
    """A query plus every derived structure the query plane needs.

    Attributes
    ----------
    query:
        The query this was compiled from.
    fingerprint:
        :func:`query_fingerprint` of the query, for batch dedup.
    """

    __slots__ = ("query", "fingerprint", "_bodies", "_canonicals", "_minimized")

    def __init__(self, query: ConjunctiveQuery) -> None:
        self.query = query
        self.fingerprint = query_fingerprint(query)
        #: Per-vocabulary structure caches.  Keys are the (hashable)
        #: vocabularies the query has been compared over; in the common
        #: serving shapes — one query probed against a stable fleet, or a
        #: batch over one shared union — this holds one or two entries.
        self._bodies: dict[Vocabulary, Structure] = {}
        self._canonicals: dict[Vocabulary, Structure] = {}
        #: Memo for repro.cq.minimize.minimize.
        self._minimized: ConjunctiveQuery | None = None

    def body_for(self, vocabulary: Vocabulary | None = None) -> Structure:
        """The body structure over ``vocabulary`` (default: the query's own).

        The returned structure is cached, so its kernel compilation and
        decomposition memos survive across probes.
        """
        if vocabulary is None:
            vocabulary = self.query.vocabulary
        cached = self._bodies.get(vocabulary)
        if cached is None:
            cached = body_structure(self.query, vocabulary)
            self._bodies[vocabulary] = cached
        return cached

    def canonical_for(self, vocabulary: Vocabulary | None = None) -> Structure:
        """The canonical database ``D_Q`` over ``vocabulary`` (cached).

        Distinguished markers are always included on top of the body
        vocabulary, exactly as :func:`repro.cq.canonical.canonical_database`
        builds them.
        """
        if vocabulary is None:
            vocabulary = self.query.vocabulary
        cached = self._canonicals.get(vocabulary)
        if cached is None:
            cached = canonical_database(self.query, vocabulary)
            self._canonicals[vocabulary] = cached
        return cached

    @property
    def body(self) -> Structure:
        """The body structure over the query's own vocabulary."""
        return self.body_for(None)

    @property
    def canonical(self) -> Structure:
        """The canonical database over the query's own vocabulary."""
        return self.canonical_for(None)

    def __getstate__(self) -> dict:
        """Pickle the artifact whole: query, fingerprint, derived memos.

        The carried query pickles *without* its ``_compiled`` memo (see
        ``ConjunctiveQuery.__getstate__``), breaking the cycle; the
        bodies/canonicals dictionaries carry their structures through
        ``Structure.__getstate__`` — mathematical content plus
        fingerprint, so a restored canonical database still keys into
        the fingerprint-routed caches (and the artifact store) for its
        kernel compilation.  One serializer — plain pickle — covers both
        the pool-payload and store-record paths.
        """
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state: dict) -> None:
        for slot in self.__slots__:
            object.__setattr__(self, slot, state[slot])
        # Re-attach as the query's memo: compile_query() on the restored
        # query returns this artifact instead of recompiling, exactly as
        # it would have on the writing process.
        if self.query._compiled is None:
            self.query._compiled = self

    def __repr__(self) -> str:
        return (
            f"CompiledQuery(|head|={self.query.arity}, "
            f"atoms={len(self.query.atoms)}, "
            f"fingerprint={self.fingerprint[:12]}…)"
        )


def compile_query(query: ConjunctiveQuery | CompiledQuery) -> CompiledQuery:
    """Compile ``query`` (idempotent; memoized on the query itself)."""
    if isinstance(query, CompiledQuery):
        return query
    compiled = query._compiled
    if compiled is None:
        compiled = CompiledQuery(query)
        query._compiled = compiled
    return compiled  # type: ignore[return-value]
