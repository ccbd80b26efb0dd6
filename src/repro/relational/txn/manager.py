"""Transaction manager: undo lists, WAL integration, checkpoints, recovery.

Durability protocol (ARIES-flavoured):

* every DML change is logged with its physical RID and stamps the page LSN
  (:meth:`Table.stamp_lsn`), giving the redo pass its idempotence test;
* **commit** forces the WAL: the transaction's data records must be stable
  before the COMMIT record is appended, and the COMMIT record itself must
  be stable before the commit is acknowledged.  If the final flush keeps
  failing (a fault injector can drop flushes), the COMMIT record is
  retracted from the volatile tail and a transient
  :class:`~repro.errors.IOFaultError` is raised — the transaction stays
  active and undoable, so an acknowledged commit is always durable;
* **rollback** (full or statement-level) applies the undo list in reverse
  and logs a compensation (CLR) record per undone action, so that
  crash-recovery's "repeat history" redo pass replays the undo too;
* **checkpoints** are fuzzy: a CKPT_BEGIN record (with the active
  transaction table), a forced WAL flush, a buffer-pool flush of all dirty
  pages (each write subject to the WAL-ahead hook), then CKPT_END carrying
  the begin-LSN — recovery's redo starts at the last *complete*
  checkpoint's begin record.

Crash recovery itself lives in :mod:`repro.relational.txn.recovery`.
"""

from __future__ import annotations

import enum
import itertools
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import AdmissionError, IOFaultError, TransactionError
from repro.relational.catalog import Table
from repro.relational.storage.heap import RID
from repro.relational.txn import wal as wal_kinds
from repro.relational.txn.locks import LockManager
from repro.relational.txn.mvcc import MVCCController, Snapshot
from repro.relational.txn.wal import LogRecord, WriteAheadLog


class IsolationLevel(enum.Enum):
    """The two degrees of isolation the paper names (section 1), as
    snapshot policies: a repeatable-read transaction reads one snapshot
    taken at BEGIN; a cursor-stability transaction re-takes its snapshot
    at the start of every top-level statement (it still sees its own
    writes, and a statement never sees a commit that lands mid-way)."""

    REPEATABLE_READ = "repeatable read"
    CURSOR_STABILITY = "cursor stability"


@dataclass
class _UndoEntry:
    kind: str  # INSERT / DELETE / UPDATE
    table: Table
    rid: Optional[RID]
    before: Optional[Tuple[Any, ...]] = None
    after: Optional[Tuple[Any, ...]] = None
    #: LSN of the WAL record this entry mirrors (becomes the CLR's undo_lsn)
    lsn: int = 0


@dataclass
class Transaction:
    txn_id: int
    isolation: IsolationLevel
    undo: List[_UndoEntry] = field(default_factory=list)
    active: bool = True
    #: LSN of this transaction's most recent log record
    last_lsn: int = 0
    #: MVCC read snapshot (None once the transaction has ended)
    snapshot: Optional[Snapshot] = None


class TransactionManager:
    """Coordinates transactions, snapshots, the lock manager, and the WAL."""

    #: bounded retries for commit-critical WAL flushes (dropped-flush faults)
    FLUSH_ATTEMPTS = 5

    def __init__(
        self,
        wal: Optional[WriteAheadLog] = None,
        max_concurrent_txns: Optional[int] = None,
    ):
        self.locks = LockManager()
        self.wal = wal if wal is not None else WriteAheadLog()
        self._ids = itertools.count(1)
        self._active: Dict[int, Transaction] = {}
        # guards _active / the id clock / admission across session threads
        self._mutex = threading.RLock()
        #: snapshots and the version store behind every read
        self.mvcc = MVCCController()
        #: admission-control ceiling on concurrently active transactions
        #: (None = unlimited); rejections raise the retryable AdmissionError
        self.max_concurrent_txns = max_concurrent_txns
        self.begun = 0
        self.commits = 0
        self.aborts = 0
        #: transactions rejected by admission control
        self.admission_rejects = 0
        #: commit attempts bounced because the WAL could not be forced
        #: (the transaction stays active — the engine may retry)
        self.commit_flush_failures = 0
        #: statement-level rollbacks (partial undo, transaction stays open)
        self.statement_rollbacks = 0

    # -- lifecycle ------------------------------------------------------------

    def begin(
        self,
        isolation: IsolationLevel = IsolationLevel.REPEATABLE_READ,
    ) -> Transaction:
        with self._mutex:
            ceiling = self.max_concurrent_txns
            if ceiling is not None and len(self._active) >= ceiling:
                self.admission_rejects += 1
                raise AdmissionError(
                    f"admission control: {len(self._active)} transactions "
                    f"active (max {ceiling}); retry after backoff"
                )
            txn = Transaction(next(self._ids), isolation)
            self._active[txn.txn_id] = txn
            self.begun += 1
        record = self.wal.append(txn.txn_id, wal_kinds.BEGIN)
        txn.last_lsn = record.lsn
        txn.snapshot = self.mvcc.snapshots.begin(txn.txn_id)
        return txn

    def refresh_snapshot(self, txn: Transaction) -> Snapshot:
        """Move *txn* to a snapshot at the current commit clock (the
        cursor-stability rule); it keeps its owner, so the transaction
        still sees its own uncommitted writes."""
        old = txn.snapshot
        txn.snapshot = self.mvcc.snapshots.begin(txn.txn_id)
        self.mvcc.release(old)
        return txn.snapshot

    def commit(self, txn: Transaction) -> None:
        """Force-commit *txn*; raises (leaving it active) if the WAL cannot
        be made stable — acknowledged commits are always durable."""
        self._check_active(txn)
        # WAL rule first: the transaction's own records must be stable
        # before the commit point exists at all.
        if not self._flush_upto(txn.last_lsn):
            self.commit_flush_failures += 1
            raise IOFaultError(
                f"commit of txn {txn.txn_id}: WAL flush failed before "
                "commit point; transaction still active"
            )
        record = self.wal.append(txn.txn_id, wal_kinds.COMMIT)
        if not self._flush_upto(record.lsn):
            # The COMMIT never reached stable storage; retract it so a
            # subsequent rollback/ABORT does not contradict the log.
            self.wal.retract_tail_record(record.lsn)
            self.commit_flush_failures += 1
            raise IOFaultError(
                f"commit of txn {txn.txn_id}: COMMIT record could not be "
                "made stable; transaction still active"
            )
        self.commits += 1
        txn.active = False
        txn.undo.clear()
        # The commit point is durable; stamp the displaced versions with
        # one commit timestamp and retire the snapshot.
        self.mvcc.store.commit_txn(txn.txn_id)
        self.mvcc.release(txn.snapshot)
        txn.snapshot = None
        with self._mutex:
            self._active.pop(txn.txn_id, None)
        self.locks.release_all(txn.txn_id)
        self.mvcc.maybe_autovacuum()

    def rollback(self, txn: Transaction) -> None:
        self._check_active(txn)
        self._undo_to_mark(txn, 0)
        self.wal.append(txn.txn_id, wal_kinds.ABORT)
        self.aborts += 1
        txn.active = False
        txn.undo.clear()
        # the undo pass popped the version notes in lockstep; this is
        # defensive cleanup plus snapshot retirement
        self.mvcc.store.abort_txn(txn.txn_id)
        self.mvcc.release(txn.snapshot)
        txn.snapshot = None
        with self._mutex:
            self._active.pop(txn.txn_id, None)
        self.locks.release_all(txn.txn_id)

    def rollback_statement(self, txn: Transaction, mark: int) -> int:
        """Statement-level atomicity: undo (and CLR-log) every action the
        current statement applied, leaving the transaction active.

        *mark* is ``len(txn.undo)`` from before the statement started.
        Returns the number of actions undone.
        """
        self._check_active(txn)
        self.statement_rollbacks += 1
        return self._undo_to_mark(txn, mark)

    def _undo_to_mark(self, txn: Transaction, mark: int) -> int:
        undone = 0
        while len(txn.undo) > mark:
            entry = txn.undo.pop()
            if entry.kind == wal_kinds.INSERT:
                entry.table.undo_insert(entry.rid)  # type: ignore[arg-type]
                clr = self.wal.append(
                    txn.txn_id,
                    wal_kinds.CLR,
                    entry.table.name,
                    before=entry.after,
                    rid=(entry.rid.page_id, entry.rid.slot),  # type: ignore[union-attr]
                    comp_kind=wal_kinds.DELETE,
                    undo_lsn=entry.lsn,
                )
                entry.table.stamp_lsn(entry.rid, clr.lsn)  # type: ignore[arg-type]
            elif entry.kind == wal_kinds.DELETE:
                new_rid = entry.table.undo_delete(entry.before)  # type: ignore[arg-type]
                clr = self.wal.append(
                    txn.txn_id,
                    wal_kinds.CLR,
                    entry.table.name,
                    after=entry.before,
                    rid=(new_rid.page_id, new_rid.slot),
                    comp_kind=wal_kinds.INSERT,
                    undo_lsn=entry.lsn,
                )
                entry.table.stamp_lsn(new_rid, clr.lsn)
            elif entry.kind == wal_kinds.UPDATE:
                entry.table.undo_update(entry.rid, entry.before)  # type: ignore[arg-type]
                clr = self.wal.append(
                    txn.txn_id,
                    wal_kinds.CLR,
                    entry.table.name,
                    before=entry.after,
                    after=entry.before,
                    rid=(entry.rid.page_id, entry.rid.slot),  # type: ignore[union-attr]
                    comp_kind=wal_kinds.UPDATE,
                    undo_lsn=entry.lsn,
                )
                entry.table.stamp_lsn(entry.rid, clr.lsn)  # type: ignore[arg-type]
            txn.last_lsn = clr.lsn
            # version notes are 1:1 with undo entries; unwind in lockstep
            self.mvcc.store.pop_note(txn.txn_id)
            undone += 1
        return undone

    def _check_active(self, txn: Transaction) -> None:
        if not txn.active:
            raise TransactionError(f"transaction {txn.txn_id} is not active")

    def _flush_upto(self, lsn: int) -> bool:
        for _ in range(self.FLUSH_ATTEMPTS):
            if self.wal.flush() >= lsn:
                return True
        return False

    # -- change recording (called by the engine's DML paths) ------------------

    def record_insert(
        self, txn: Transaction, table: Table, rid: RID, row
    ) -> LogRecord:
        record = self.wal.append(
            txn.txn_id,
            wal_kinds.INSERT,
            table.name,
            after=row,
            rid=(rid.page_id, rid.slot),
        )
        txn.undo.append(
            _UndoEntry(wal_kinds.INSERT, table, rid, after=row, lsn=record.lsn)
        )
        txn.last_lsn = record.lsn
        table.stamp_lsn(rid, record.lsn)
        return record

    def record_delete(
        self, txn: Transaction, table: Table, rid: RID, row
    ) -> LogRecord:
        record = self.wal.append(
            txn.txn_id,
            wal_kinds.DELETE,
            table.name,
            before=row,
            rid=(rid.page_id, rid.slot),
        )
        txn.undo.append(
            _UndoEntry(wal_kinds.DELETE, table, rid, before=row, lsn=record.lsn)
        )
        txn.last_lsn = record.lsn
        table.stamp_lsn(rid, record.lsn)
        return record

    def record_update(
        self, txn: Transaction, table: Table, rid: RID, before, after
    ) -> LogRecord:
        record = self.wal.append(
            txn.txn_id,
            wal_kinds.UPDATE,
            table.name,
            before=before,
            after=after,
            rid=(rid.page_id, rid.slot),
        )
        txn.undo.append(
            _UndoEntry(
                wal_kinds.UPDATE, table, rid, before=before, after=after,
                lsn=record.lsn,
            )
        )
        txn.last_lsn = record.lsn
        table.stamp_lsn(rid, record.lsn)
        return record

    def metrics(self) -> Dict[str, int]:
        """Counter snapshot for ``Database.metrics_snapshot()``."""
        return {
            "begun": self.begun,
            "commits": self.commits,
            "aborts": self.aborts,
            "commit_flush_failures": self.commit_flush_failures,
            "statement_rollbacks": self.statement_rollbacks,
            "admission_rejects": self.admission_rejects,
            "max_concurrent_txns": self.max_concurrent_txns,
            "active": len(self._active),
        }

    # -- checkpoints ----------------------------------------------------------

    def checkpoint(self, buffer_pool) -> int:
        """Take a fuzzy checkpoint; returns the CKPT_BEGIN LSN.

        Transactions may be in flight; their in-doubt changes reach disk
        (steal), which is fine because their undo information is forced
        stable first.  An incomplete checkpoint (crash or I/O error before
        CKPT_END is stable) is simply ignored by recovery.
        """
        active = sorted(self._active)
        begin = self.wal.append(0, wal_kinds.CKPT_BEGIN, extra={"active": active})
        if not self._flush_upto(begin.lsn):
            raise IOFaultError("checkpoint: WAL flush failed at begin")
        buffer_pool.flush_all()
        end = self.wal.append(
            0,
            wal_kinds.CKPT_END,
            extra={"begin_lsn": begin.lsn, "active": active},
        )
        if not self._flush_upto(end.lsn):
            raise IOFaultError("checkpoint: WAL flush failed at end")
        return begin.lsn

    # -- recovery --------------------------------------------------------------

    def resume_after(self, max_txn_id: int) -> None:
        """Restart the id clock past every transaction the log has seen."""
        with self._mutex:
            self._ids = itertools.count(max_txn_id + 1)
            self._active.clear()
            self.locks = LockManager()
        self.mvcc.reset()

    def recover(self, database) -> "RecoveryStats":  # noqa: F821
        """Run ARIES-style crash recovery over *database* (see
        :mod:`repro.relational.txn.recovery`)."""
        from repro.relational.txn.recovery import run_recovery

        return run_recovery(database)
