"""Exception hierarchy for the ``repro`` library.

Every error raised on purpose by the library derives from :class:`ReproError`,
so callers can catch library failures with a single ``except`` clause while
letting genuine bugs (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class VocabularyError(ReproError):
    """A structure, query, or program uses relation symbols inconsistently.

    Raised when arities clash, when two structures over supposedly the same
    vocabulary disagree on a symbol, or when a fact's width does not match
    its relation symbol.
    """


class ParseError(ReproError):
    """A textual query, program, or structure description is malformed."""


class NotBooleanError(ReproError):
    """An operation requiring a Boolean structure got a non-Boolean one.

    Boolean structures are structures whose universe is exactly ``{0, 1}``
    (Section 3 of the paper).
    """


class NotSchaeferError(ReproError):
    """A Schaefer-only algorithm was applied to a non-Schaefer structure."""


class DecompositionError(ReproError):
    """A tree decomposition is invalid or does not match its structure."""


class DatalogError(ReproError):
    """A Datalog program is malformed (unsafe in an unsupported way,
    inconsistent arities, undefined goal, ...)."""


class ResourceBudgetError(ReproError):
    """A computation refused to allocate a table its cost model says won't fit.

    Raised by the kernel's table-building engines (the ``n^v`` binding
    spaces of :mod:`repro.kernel.datalogk`, the bag tables of
    :mod:`repro.kernel.decomp`) *before* the allocation happens, so the
    caller can take a semantically equivalent route (the treewidth and
    planner dp routes fall back to search) instead of letting a shard
    process OOM.  Never retried: the same request hits the same bound.
    """


class FaultInjectedError(ReproError):
    """A deterministic fault-injection point fired (:mod:`repro.faultinject`).

    Only ever raised when a fault plan is installed — production traffic
    cannot see it.  The service treats it like any other exception from
    inside a solve: no retry, the waiters get this typed error.
    """


class ServiceError(ReproError):
    """Base class for solve-service failures (:mod:`repro.service`)."""


class ServiceClosedError(ServiceError):
    """A request was submitted to a service that is not running."""


class ServiceOverloadedError(ServiceError):
    """Admission control refused a request: too many open requests.

    Raised synchronously by ``SolveService.submit`` so callers can shed
    load at the front door instead of queueing without bound.
    """


class SolveTimeoutError(ServiceError):
    """A request's deadline elapsed before its solve finished.

    Raised on two paths that look identical to the caller: the *waiter's*
    ``asyncio.wait_for`` firing, and — with deadline propagation — the
    computation itself observing an expired
    :class:`repro.core.cancellation.Deadline` at a kernel checkpoint and
    unwinding, which frees the worker instead of abandoning it.  Nothing
    about a timeout is cached, so a retry gets a correct answer.
    """


class EdgeError(ServiceError):
    """Base class for network-edge failures (:mod:`repro.edge`)."""


class EdgeProtocolError(EdgeError):
    """A request violated the edge wire protocol.

    Carries the HTTP ``status`` the edge answers with (400 for malformed
    framing or bodies, 404/405 for unroutable requests, 408 for a body
    that never arrived, 413 for an oversized payload, 415 for a wrong
    content type, ...).  Always a *request*-level failure: the
    connection that sent it is answered and — except where the framing
    itself is unrecoverable — kept open, and the server keeps serving.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ShardCrashedError(EdgeError):
    """A shard worker process died with requests in flight.

    The router fails the shard's in-flight requests with this, respawns
    the shard (single-flight, backed off, warm from the shard's store
    partition), and retries within the request's budget.  Only surfaces
    to a client — as a typed 503 — when the retry budget is exhausted.
    """


class ArtifactStoreError(ReproError):
    """The persistent artifact store cannot be opened or written.

    Raised for environment-level problems — another writer holds the
    single-writer lock, the directory is not writable — never for
    corrupted content, which the store recovers from silently (see
    :class:`StoreCorruptionError` for the read-side contract).
    """


class StoreCorruptionError(ArtifactStoreError):
    """A store record failed its integrity check.

    Raised internally when a record is torn, fails its SHA-256, or
    decodes to the wrong artifact type.  Callers of the public store API
    never see it: ``ArtifactStore.get`` converts it to a miss (the
    record is dropped and quarantined; the caller recompiles), which is
    exactly the "never serve a record that fails its checksum" rule.
    """
