"""MVCC snapshot isolation: snapshots, a side version store, and vacuum.

The heap always holds the *latest* version of every row; MVCC keeps the
history next to it in a side store keyed by ``(table, RID)``.  This
leaves the physical write path — pages, WAL, ARIES undo/redo, indexes,
FK checks — completely untouched: a transaction mutates the heap exactly
as before, and the version store remembers the committed image it
displaced so concurrent snapshots can still see it.

Visibility model
----------------

* Commit timestamps are a monotonic integer clock starting at 1; a
  snapshot with ``read_ts = S`` sees every version committed at or
  before ``S``, plus its own transaction's uncommitted writes.
* Rows with no version-store entry are *frozen*: their begin timestamp
  is :data:`FROZEN_TS` (0), visible to every snapshot.  The vast
  majority of rows are frozen at any moment, which keeps the MVCC read
  path cheap: scans resolve heap rows against the store in batches
  (one lock acquisition per chunk), and a missing entry passes the heap
  row through unchanged.

Reader/writer ordering makes the lock-free read path sound.  Writers
register the version note *before* the physical heap mutation for
updates and deletes, and inside the store's critical section together
with the heap insert for inserts (:meth:`VersionStore.insert_with_note`).
Readers do the opposite — read the heap row first, then consult the
store.  A reader that finds no entry therefore has proof the heap row
was unmodified at the moment it read it; a reader that raced a writer
finds the entry and resolves to the committed image it displaced.
* A version-store entry tracks the current heap state (``current_row``
  mirrors heap content; ``None`` means the RID is deleted), the commit
  timestamp that produced it, an optional uncommitted ``writer``, the
  committed state that writer displaced (``pending_old``), and a list of
  older committed images ``(begin_ts, end_ts, row_or_None)``.

Conflict policy is first-committer-wins: a write to a row whose current
version committed after the writer's snapshot raises the retryable
:class:`~repro.errors.SerializationError`.  Writer-writer ordering is
still provided by the no-wait table X-locks; readers take no locks at
all.

Vacuum prunes history images whose end timestamp is at or below the
oldest active snapshot's ``read_ts`` and drops entries that have become
indistinguishable from frozen rows.  All vacuum counters are monotonic.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import SerializationError

__all__ = [
    "FROZEN_TS",
    "Snapshot",
    "SnapshotManager",
    "VersionStore",
    "MVCCController",
    "current_snapshot",
    "set_ambient_snapshot",
]

#: begin timestamp of rows that predate all version tracking — visible to
#: every snapshot (the commit clock starts at FROZEN_TS + 1)
FROZEN_TS = 0

# Row images are tuples; ``None`` means "absent" (deleted / never present).
Row = Optional[Tuple[Any, ...]]

#: placeholder key an insert holds in its table's entries while the heap
#: row exists without its note; only lock-free readers ever observe it
_INSERTING = object()


class Snapshot:
    """A point-in-time read view.

    Sees every version with ``begin_ts <= read_ts`` plus the uncommitted
    writes of its owning transaction (``owner == 0`` marks an ephemeral
    single-statement snapshot with no transaction, used for autocommit
    reads).
    """

    __slots__ = ("read_ts", "owner", "snap_id")

    def __init__(self, read_ts: int, owner: int, snap_id: int):
        self.read_ts = read_ts
        self.owner = owner
        self.snap_id = snap_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Snapshot(read_ts={self.read_ts}, owner={self.owner})"


class SnapshotManager:
    """Issues monotonic commit timestamps and tracks active snapshots.

    ``oldest_active_ts()`` is the vacuum watermark: no active snapshot
    can need a version whose lifetime ended at or before it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._clock = FROZEN_TS  # last assigned commit timestamp
        self._snap_ids = 0
        self._active: Dict[int, Snapshot] = {}
        self.snapshots_issued = 0

    def begin(self, owner: int = 0) -> Snapshot:
        """Open a snapshot at the current commit clock."""
        with self._lock:
            self._snap_ids += 1
            self.snapshots_issued += 1
            snap = Snapshot(self._clock, owner, self._snap_ids)
            self._active[snap.snap_id] = snap
            return snap

    def release(self, snap: Optional[Snapshot]) -> None:
        if snap is None:
            return
        with self._lock:
            self._active.pop(snap.snap_id, None)

    def next_commit_ts(self) -> int:
        with self._lock:
            self._clock += 1
            return self._clock

    @property
    def clock(self) -> int:
        with self._lock:
            return self._clock

    def oldest_active_ts(self) -> int:
        """Watermark: smallest read_ts among active snapshots, else the
        current clock (everything committed is then reclaimable history)."""
        with self._lock:
            if self._active:
                return min(s.read_ts for s in self._active.values())
            return self._clock

    def active_snapshots(self) -> List[Snapshot]:
        with self._lock:
            return list(self._active.values())

    def reset(self) -> None:
        """Post-recovery reset: drop all snapshots, keep the clock (so
        timestamps stay monotonic across a crash within one process)."""
        with self._lock:
            self._active.clear()


class _Entry:
    """Version-store entry for one (table, RID).

    ``current_row`` mirrors the heap: it is the latest row image, or
    ``None`` when the RID is (pending- or committed-) deleted.  While a
    transaction's write is uncommitted, ``writer`` names it and
    ``pending_old`` holds the committed ``(begin_ts, row)`` state it
    displaced; ``history`` holds older committed images as
    ``(begin_ts, end_ts, row_or_None)`` intervals, oldest first.
    """

    __slots__ = ("history", "current_begin", "current_row", "writer", "pending_old")

    def __init__(
        self,
        current_begin: int,
        current_row: Row,
        writer: Optional[int] = None,
        pending_old: Optional[Tuple[int, Row]] = None,
    ):
        self.history: List[Tuple[int, int, Row]] = []
        self.current_begin = current_begin
        self.current_row = current_row
        self.writer = writer
        self.pending_old = pending_old


class VersionStore:
    """Side store of superseded row versions, keyed by table then RID.

    Writers call :meth:`note_write` once per heap mutation (1:1 with the
    WAL/undo records appended by the transaction manager) and
    :meth:`pop_note` once per undo-entry rollback, so the store unwinds
    in exact lockstep with statement/transaction rollback.  Commit stamps
    all of a transaction's displaced images with one commit timestamp.
    """

    def __init__(self, snapshots: SnapshotManager):
        self._lock = threading.RLock()
        self.snapshots = snapshots
        self._tables: Dict[str, Dict[Any, _Entry]] = {}
        # per-txn LIFO of (table, rid, saved_state_or_None); None means the
        # entry did not exist before this write
        self._notes: Dict[int, List[Tuple[str, Any, Optional[tuple]]]] = {}
        # monotonic counters
        self.vacuum_runs = 0
        self.versions_pruned = 0
        self.entries_dropped = 0
        self.serialization_conflicts = 0

    # -- write side ----------------------------------------------------------

    def check_write(self, table: str, rid: Any, snap: Snapshot) -> None:
        """First-committer-wins: reject writes to rows whose current
        version committed after *snap* was taken."""
        with self._lock:
            entries = self._tables.get(table)
            entry = entries.get(rid) if entries else None
            if entry is None:
                return
            if entry.writer is not None:
                if entry.writer == snap.owner:
                    return
                # Another uncommitted writer holds the row.  Table X-locks
                # normally prevent this; treat it as a conflict if reached.
                self.serialization_conflicts += 1
                raise SerializationError(
                    f"row {table}:{rid} is being modified by txn {entry.writer}"
                )
            if entry.current_begin > snap.read_ts:
                self.serialization_conflicts += 1
                raise SerializationError(
                    f"row {table}:{rid} was modified by a transaction that "
                    f"committed after this snapshot (version {entry.current_begin} "
                    f"> snapshot {snap.read_ts}); retry the transaction"
                )

    def note_write(self, txn_id: int, table: str, rid: Any, before: Row, after: Row) -> None:
        """Record a heap mutation: *before* is the heap image the write
        displaced (None for inserts), *after* the new heap state (None
        for deletes).  For updates and deletes this must be called
        *before* the physical change (readers read the heap first and
        the store second, so the note must already be there when the
        mutated row becomes observable); inserts go through
        :meth:`insert_with_note` instead."""
        with self._lock:
            entries = self._tables.setdefault(table, {})
            notes = self._notes.setdefault(txn_id, [])
            entry = entries.get(rid)
            if entry is None:
                notes.append((table, rid, None))
                entries[rid] = _Entry(
                    current_begin=FROZEN_TS,
                    current_row=after,
                    writer=txn_id,
                    pending_old=(FROZEN_TS, before),
                )
                return
            notes.append(
                (table, rid,
                 (entry.current_begin, entry.current_row, entry.writer, entry.pending_old))
            )
            if entry.writer is None:
                # first touch by this transaction: remember the committed
                # state being displaced
                entry.pending_old = (entry.current_begin, entry.current_row)
                entry.writer = txn_id
            entry.current_row = after

    def insert_with_note(self, txn_id: int, table, row: Tuple[Any, ...]):
        """Heap insert and version note as one critical section.

        An insert's RID is unknown until the heap assigns it, so the note
        cannot precede the physical write the way update/delete notes do.
        Holding the store lock across both closes the gap for readers that
        look the RID up: they cannot reach the store until this section
        ends, by which time the entry that hides the uncommitted row is in
        place.  Lock-free clean checks would still see the table empty
        between the heap write and the note, so a placeholder entry keeps
        the table dirty for the whole section and sends them down the
        locked path.  Returns the new RID; if the insert itself fails
        (integrity error) no note is taken."""
        with self._lock:
            entries = self._tables.setdefault(table.name, {})
            entries[_INSERTING] = None
            try:
                rid = table.insert(row)
                self.note_write(txn_id, table.name, rid, None, row)
            finally:
                del entries[_INSERTING]
                if not entries:
                    del self._tables[table.name]
            return rid

    def pop_note(self, txn_id: int) -> None:
        """Undo hook: revert the most recent :meth:`note_write` of *txn_id*
        (called once per undo entry rolled back, newest first)."""
        with self._lock:
            notes = self._notes.get(txn_id)
            if not notes:
                return
            table, rid, saved = notes.pop()
            entries = self._tables.get(table)
            if entries is None:
                return
            if saved is None:
                entries.pop(rid, None)
                if not entries:
                    self._tables.pop(table, None)
            else:
                entry = entries.get(rid)
                if entry is not None:
                    (entry.current_begin, entry.current_row,
                     entry.writer, entry.pending_old) = saved
            if not notes:
                self._notes.pop(txn_id, None)

    def commit_txn(self, txn_id: int) -> Optional[int]:
        """Stamp the transaction's writes with a fresh commit timestamp
        and move each displaced committed image into history.  Returns the
        commit timestamp, or None for read-only transactions."""
        with self._lock:
            notes = self._notes.pop(txn_id, None)
            if not notes:
                return None
            commit_ts = self.snapshots.next_commit_ts()
            finished = set()
            for table, rid, _saved in notes:
                key = (table, rid)
                if key in finished:
                    continue
                finished.add(key)
                entries = self._tables.get(table)
                entry = entries.get(rid) if entries else None
                if entry is None or entry.writer != txn_id:
                    continue
                old_begin, old_row = entry.pending_old or (FROZEN_TS, None)
                # "absent since forever" images carry no information: any
                # snapshot too old to see the new version resolves to
                # absent by falling off the end of history anyway.
                if not (old_row is None and old_begin == FROZEN_TS):
                    entry.history.append((old_begin, commit_ts, old_row))
                entry.current_begin = commit_ts
                entry.writer = None
                entry.pending_old = None
            return commit_ts

    def abort_txn(self, txn_id: int) -> None:
        """Discard any remaining notes of an aborting transaction,
        restoring saved entry states newest-first.  Usually a no-op: the
        ARIES undo pass already popped every note via :meth:`pop_note`."""
        with self._lock:
            while self._notes.get(txn_id):
                self.pop_note(txn_id)
            self._notes.pop(txn_id, None)

    # -- read side -----------------------------------------------------------

    def resolve(self, table: str, rid: Any, heap_row: Row, snap: Snapshot) -> Row:
        """The row image of (table, rid) visible to *snap*; *heap_row* is
        the latest heap content (None if absent from the heap)."""
        # Lock-free empty check: one dict read is atomic under the GIL, and
        # writers insert their entry (inside the lock) before any heap
        # mutation, so a caller that read the heap row first cannot miss an
        # entry covering a mutation it observed.  Only a non-empty table
        # pays for the lock.
        if not self._tables.get(table):
            return heap_row
        with self._lock:
            entries = self._tables.get(table)
            entry = entries.get(rid) if entries else None
            if entry is None:
                return heap_row
            return self._visible(entry, snap)

    def _visible(self, entry: _Entry, snap: Snapshot) -> Row:
        if entry.writer is not None:
            if entry.writer == snap.owner:
                return entry.current_row  # own uncommitted writes
            base_begin, base_row = entry.pending_old or (FROZEN_TS, None)
            if base_begin <= snap.read_ts:
                return base_row
        elif entry.current_begin <= snap.read_ts:
            return entry.current_row
        for begin_ts, end_ts, row in reversed(entry.history):
            if begin_ts <= snap.read_ts < end_ts:
                return row
        return None

    def resolve_batch(
        self, table: str, pairs: List[Tuple[Any, Tuple[Any, ...]]], snap: Snapshot
    ) -> List[Tuple[Any, Tuple[Any, ...]]]:
        """Resolve a chunk of already-read ``(rid, heap_row)`` pairs in one
        lock acquisition, dropping rows invisible to *snap*.  Callers must
        have read each heap row *before* this call — that ordering is what
        makes a missing entry proof of an unmodified row."""
        if not self._tables.get(table):
            return pairs  # lock-free empty check (see resolve)
        with self._lock:
            entries = self._tables.get(table)
            if not entries:
                return pairs
            out = []
            for rid, heap_row in pairs:
                entry = entries.get(rid)
                if entry is None:
                    out.append((rid, heap_row))
                    continue
                image = self._visible(entry, snap)
                if image is not None:
                    out.append((rid, image))
            return out

    def dirty(self, table: str) -> bool:
        """True when any row of *table* currently has a version entry.

        Scans use this per page *after* copying the page's slots: writers
        create their entry before touching the heap, so a clean verdict
        taken after the read proves the rows read were unmodified baseline
        images — no per-row resolution needed for that page.  Deliberately
        lock-free (see :meth:`resolve`): the single dict read is atomic
        under the GIL and entry creation precedes every heap mutation.
        """
        return bool(self._tables.get(table))

    def candidates(
        self, table: str, snap: Snapshot, seen: set, seen_pages: Optional[set] = None
    ) -> List[Tuple[Any, Row]]:
        """Visible images of versioned rows a physical scan may have
        missed: committed/pending deletes absent from the heap, and (for
        index scans) rows whose indexed key changed after the snapshot.
        ``seen`` holds RIDs the caller already yielded; ``seen_pages``
        holds page ids scanned on the clean fast path — every live row of
        such a page was yielded while the table verifiably had no entries,
        so any entry pointing there was created afterwards and its visible
        image (the pre-write row) has already been emitted."""
        if not self._tables.get(table):
            # Lock-free empty check (see resolve): an entry appearing
            # concurrently covers a write that started after the caller's
            # physical scan, whose visible image the scan already yielded.
            return []
        with self._lock:
            entries = self._tables.get(table)
            if not entries:
                return []
            out = []
            for rid, entry in entries.items():
                if rid in seen:
                    continue
                if seen_pages is not None and rid.page_id in seen_pages:
                    continue
                image = self._visible(entry, snap)
                if image is not None:
                    out.append((rid, image))
            return out

    # -- maintenance ---------------------------------------------------------

    def vacuum(self) -> Dict[str, int]:
        """Reclaim versions no active snapshot can see.  Returns the
        watermark used and how much was pruned; counters are monotonic."""
        with self._lock:
            horizon = self.snapshots.oldest_active_ts()
            pruned = dropped = 0
            for table in list(self._tables):
                entries = self._tables[table]
                for rid in list(entries):
                    entry = entries[rid]
                    if entry.history:
                        kept = [v for v in entry.history if v[1] > horizon]
                        pruned += len(entry.history) - len(kept)
                        entry.history = kept
                    if (entry.writer is None and not entry.history
                            and entry.current_begin <= horizon):
                        # every live snapshot sees the heap state: the
                        # entry is equivalent to a frozen row (or, for
                        # deletes, to plain heap absence)
                        del entries[rid]
                        dropped += 1
                if not entries:
                    del self._tables[table]
            self.vacuum_runs += 1
            self.versions_pruned += pruned
            self.entries_dropped += dropped
            return {"horizon": horizon, "pruned": pruned, "dropped": dropped}

    def reset(self) -> None:
        """Post-recovery reset: only committed data survives a crash, so
        every surviving row is consistent as a frozen version."""
        with self._lock:
            self._tables.clear()
            self._notes.clear()

    def metrics(self) -> Dict[str, int]:
        with self._lock:
            chain_lens = [
                len(entry.history)
                for entries in self._tables.values()
                for entry in entries.values()
            ]
            return {
                "versioned_rows": len(chain_lens),
                "version_images": sum(chain_lens),
                "max_chain_len": max(chain_lens, default=0),
                "vacuum_runs": self.vacuum_runs,
                "versions_pruned": self.versions_pruned,
                "entries_dropped": self.entries_dropped,
                "serialization_conflicts": self.serialization_conflicts,
            }


# -- ambient snapshot ---------------------------------------------------------
#
# Compiled plans and operators predate MVCC and take no snapshot parameter;
# rather than threading one through every cached closure, the engine pushes
# the statement's snapshot into a thread-local that Table.scan()/fetch()
# consult.  Thread-local by construction: each session thread reads under
# its own snapshot.

class _Ambient(threading.local):
    snapshot: Optional[Snapshot] = None


_AMBIENT = _Ambient()


def current_snapshot() -> Optional[Snapshot]:
    return _AMBIENT.snapshot


def set_ambient_snapshot(snap: Optional[Snapshot]) -> Optional[Snapshot]:
    """Install *snap* as this thread's ambient snapshot; returns the
    previous one so callers can restore it (stack discipline)."""
    prev = _AMBIENT.snapshot
    _AMBIENT.snapshot = snap
    return prev


class MVCCController:
    """Facade owned by the transaction manager (and shared with the
    catalog's read path): every :class:`Database` reads through it.

    Bundles the snapshot manager and version store, plus an autovacuum
    trigger: after a commit pushes the number of versioned rows past
    ``autovacuum_threshold``, the committing thread runs a vacuum pass
    inline (bounded, lock-protected, and cheap — the store is in-memory).
    """

    def __init__(self, autovacuum_threshold: int = 4096):
        self.snapshots = SnapshotManager()
        self.store = VersionStore(self.snapshots)
        self.autovacuum_threshold = autovacuum_threshold
        self.autovacuum_runs = 0
        self.idle_vacuums = 0

    def release(self, snap: Optional[Snapshot]) -> None:
        """Retire *snap* and, when it was the last active snapshot, sweep
        the version store.

        With no snapshot open the vacuum horizon is the whole commit
        clock, so every committed entry collapses back to a frozen heap
        row.  Without this, a lightly-written table would carry its
        insert-era entries forever (the autovacuum threshold only reacts
        to bulk) and every scan of it would pay for per-row resolution
        instead of the clean-page fast path.  Each entry is dropped the
        first time a sweep sees it, so the cost is amortised O(1) per
        write.  The peeks below are deliberately racy: vacuum recomputes
        its horizon under the proper locks, so a snapshot that begins
        meanwhile is respected — the worst case is a skipped or redundant
        sweep, never a wrong one.
        """
        self.snapshots.release(snap)
        if (
            self.autovacuum_threshold > 0
            and self.store._tables
            and not self.snapshots._active
        ):
            self.idle_vacuums += 1
            self.store.vacuum()

    @staticmethod
    def current_snapshot() -> Optional[Snapshot]:
        """This thread's ambient snapshot (the catalog calls this through
        the controller so it never has to import the txn layer)."""
        return current_snapshot()

    def maybe_autovacuum(self) -> None:
        if self.autovacuum_threshold <= 0:
            return
        # racy read is fine: worst case two threads both vacuum
        total = sum(len(e) for e in self.store._tables.values())
        if total > self.autovacuum_threshold:
            self.autovacuum_runs += 1
            self.store.vacuum()

    def reset(self) -> None:
        """Crash-recovery hook: after ARIES restart only committed data
        remains in the heap, so the version store restarts empty (all
        rows frozen) while the commit clock keeps advancing."""
        self.store.reset()
        self.snapshots.reset()

    def metrics(self) -> Dict[str, int]:
        out = self.store.metrics()
        out.update(
            {
                "commit_clock": self.snapshots.clock,
                "active_snapshots": len(self.snapshots.active_snapshots()),
                "oldest_read_ts": self.snapshots.oldest_active_ts(),
                "snapshots_issued": self.snapshots.snapshots_issued,
                "autovacuum_runs": self.autovacuum_runs,
                "idle_vacuums": self.idle_vacuums,
            }
        )
        return out
