"""Exception hierarchy for the repro package.

Every error raised by the relational engine or the XNF layer derives from
:class:`ReproError`, so applications can catch one base class.  The split
mirrors the classic SQLSTATE families: syntax, semantic (catalog/type),
integrity, transaction, and runtime execution errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package.

    ``retryable`` is the contract of the error taxonomy: when True, the
    failed operation may succeed if simply re-run (after rolling back any
    open transaction and backing off) — the condition is a transient
    artifact of concurrency or I/O, not of the statement itself.
    :meth:`Database.run_retryable` automates exactly this loop.
    """

    #: True when re-running the failed operation may succeed (deadlock
    #: victims, serialization conflicts, admission rejects, transient I/O)
    retryable = False

    #: suggested initial backoff before retrying, in seconds (None when the
    #: error is not retryable).  The wire protocol serializes this alongside
    #: ``retryable`` so remote clients back off like in-process callers.
    backoff_hint_s: "float | None" = None


class SQLError(ReproError):
    """Base class for errors raised by the relational engine."""


class ParseError(SQLError):
    """Raised when SQL or XNF text cannot be parsed.

    Carries the offending position so callers can point at the token.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class CatalogError(SQLError):
    """Unknown or duplicate table/column/index/view names."""


class TypeCheckError(SQLError):
    """Expression or value does not match the declared SQL type."""


class IntegrityError(SQLError):
    """Constraint violation: NOT NULL, PRIMARY KEY, FOREIGN KEY."""


class ExecutionError(SQLError):
    """Runtime failure while evaluating a plan (e.g. division by zero)."""


class TransactionError(SQLError):
    """Illegal transaction state transition or lock protocol violation."""


class DeadlockError(TransactionError):
    """Lock request aborted to break a deadlock.

    The engine uses no-wait table locks, so the victim loses no work
    beyond its own statement; re-running the transaction usually succeeds.
    """

    retryable = True
    backoff_hint_s = 0.002


class SerializationError(TransactionError):
    """First-committer-wins write-write conflict under snapshot isolation.

    Raised when a transaction tries to modify a row version that was
    committed after the transaction's snapshot was taken.  Roll back and
    re-run on a fresh snapshot (see :meth:`Database.run_retryable`).
    """

    retryable = True
    backoff_hint_s = 0.002


class AdmissionError(TransactionError):
    """Admission control rejected a new transaction.

    The configured ``max_concurrent_txns`` ceiling was reached; retry
    after backing off instead of queueing into a livelock.

    The backoff hint is an order of magnitude above the conflict errors':
    an admission reject means the whole system is at capacity, so hammering
    it on a 2 ms cadence would only prolong the overload.
    """

    retryable = True
    backoff_hint_s = 0.02


class AuthError(SQLError):
    """Wire-protocol authentication failure (bad or missing token)."""


class ServerShutdownError(TransactionError):
    """The wire server is draining for shutdown.

    In-flight statements are allowed to finish, but new work is refused.
    Retryable because the standard deployment answer is "reconnect and
    re-run" (against the restarted server or another replica), with a
    backoff generous enough to ride out a restart.
    """

    retryable = True
    backoff_hint_s = 0.05


class StorageError(SQLError):
    """Base class for failures at the page/disk boundary."""


class PageNotFoundError(StorageError):
    """Read of a page id the disk never allocated."""

    def __init__(self, page_id: int):
        self.page_id = page_id
        super().__init__(f"page {page_id} is not allocated")


class ChecksumError(StorageError):
    """A page image failed checksum verification (torn/corrupt write)."""

    def __init__(self, page_id: int, expected: int, actual: int):
        self.page_id = page_id
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"page {page_id} checksum mismatch: "
            f"expected {expected:#010x}, got {actual:#010x}"
        )


class IOFaultError(StorageError):
    """An (injected or real) I/O error on the disk or WAL path.

    ``transient`` errors are safe to retry after backing off; persistent
    ones are not.
    """

    def __init__(self, message: str, transient: bool = True):
        self.transient = transient
        # instance-level override: only transient faults are retryable
        self.retryable = transient
        self.backoff_hint_s = 0.001 if transient else None
        super().__init__(message)


class RecoveryError(StorageError):
    """Crash recovery could not restore a consistent state."""


class ResourceExhaustedError(ReproError):
    """An execution guard tripped: fixpoint round/row limit or query
    timeout.  The engine aborts the statement but leaves catalog and plan
    cache consistent."""


class SimulatedCrash(BaseException):
    """A fault-injected hard crash (power failure) at an I/O operation.

    Derives from :class:`BaseException` so no engine-level ``except
    Exception`` handler can accidentally swallow it — exactly like a real
    power cut, the process state after this point is unreachable.  Only the
    crash-test harness catches it.
    """

    def __init__(self, op_index: int, site: str):
        self.op_index = op_index
        self.site = site
        super().__init__(f"simulated crash at I/O op {op_index} ({site})")


class XNFError(ReproError):
    """Base class for errors raised by the XNF composite-object layer."""


class SchemaGraphError(XNFError):
    """Ill-formed composite-object definition (well-formedness violations)."""


class PathError(XNFError):
    """Invalid path expression (unknown relationship, ambiguous direction)."""


class UpdatabilityError(XNFError):
    """Manipulation attempted on a non-updatable node or relationship."""


class CursorError(XNFError):
    """Illegal cursor operation (closed cursor, unpositioned fetch)."""


class HandleEvictedError(CursorError):
    """A server-side handle (prepared statement, fetch cursor, composite
    object, CO cursor) was evicted by the session's handle cap before this
    access.  Deliberately **not** retryable: the handle is gone for good, the
    client must re-create it (re-PREPARE / re-run the query), not replay the
    same frame."""
