"""ARIES-style crash recovery: analysis, redo from checkpoint, undo of losers.

:func:`run_recovery` restores a crashed database to the state containing
exactly the stable-committed transactions:

1. **Analysis** — read the CRC-verified stable prefix of the WAL (a torn
   flush truncates the log at the first bad record), find the last
   *complete* fuzzy checkpoint, and classify every transaction as
   committed, aborted, or loser (in flight at the crash).
2. **Page load** — read every disk page, verifying checksums.  A page that
   fails verification (torn write) is reset to empty and flagged; such
   pages get a dedicated redo pre-pass over the log records that predate
   the checkpoint, since the checkpoint's "already on disk" guarantee no
   longer holds for them.
3. **Redo** — repeat history from the checkpoint's begin record: every
   data record (including compensation records of rolled-back work) is
   re-applied iff the page LSN is older than the record — the page-LSN
   test makes redo idempotent.
4. **Undo** — losers are rolled back in reverse LSN order, skipping
   actions already compensated at runtime (statement-level rollbacks);
   each undo appends a CLR and a final ABORT record, and the log is
   forced, so recovering twice is a no-op the second time.
5. **Rebuild** — pages are written back (fresh checksums), heap-file page
   registries and row counts are rebuilt from the page slot tags, every
   index is rebuilt from its heap, the buffer pool is invalidated (frames
   predate recovery), the plan cache is flushed, catalog versions are
   bumped, and the transaction-id clock resumes past the log's maximum.

The module operates on raw disk images via
:meth:`DiskManager.read_unchecked` / :meth:`DiskManager.write_unlogged`,
bypassing the buffer pool and the fault injector: recovery itself is
assumed not to crash (crash-during-recovery is out of scope and documented
in DESIGN.md).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.relational.storage.page import Page
from repro.relational.txn import wal as wal_kinds
from repro.relational.txn.wal import LogRecord

#: record kinds that change page contents
_DATA_KINDS = frozenset(
    {wal_kinds.INSERT, wal_kinds.DELETE, wal_kinds.UPDATE, wal_kinds.CLR}
)


@dataclass
class RecoveryStats:
    """What one recovery pass did (the fault ledger reports these)."""

    log_records_scanned: int = 0
    #: LSN after which the stable log was truncated by a CRC failure
    log_truncated_at: Optional[int] = None
    checkpoint_lsn: int = 0
    committed_txns: int = 0
    aborted_txns: int = 0
    loser_txns: int = 0
    redo_applied: int = 0
    undo_applied: int = 0
    torn_pages_detected: List[int] = field(default_factory=list)
    pages_rebuilt: int = 0
    wall_time_s: float = 0.0

    def as_dict(self) -> Dict:
        return {
            "log_records_scanned": self.log_records_scanned,
            "log_truncated_at": self.log_truncated_at,
            "checkpoint_lsn": self.checkpoint_lsn,
            "committed_txns": self.committed_txns,
            "aborted_txns": self.aborted_txns,
            "loser_txns": self.loser_txns,
            "redo_applied": self.redo_applied,
            "undo_applied": self.undo_applied,
            "torn_pages_detected": list(self.torn_pages_detected),
            "pages_rebuilt": self.pages_rebuilt,
            "wall_time_s": round(self.wall_time_s, 6),
        }


def run_recovery(database) -> RecoveryStats:
    """Recover *database* in place; see the module docstring."""
    start = time.perf_counter()
    stats = RecoveryStats()
    wal = database.txn_manager.wal
    disk = database.disk

    # -- 1. analysis ---------------------------------------------------------
    records = wal.stable_records()
    all_stable = len(wal.records)  # tail is empty after a crash
    stats.log_records_scanned = len(records)
    if len(records) < all_stable:
        stats.log_truncated_at = records[-1].lsn if records else 0

    committed: Set[int] = set()
    aborted: Set[int] = set()
    seen: Set[int] = set()
    checkpoint_lsn = 0
    max_txn_id = 0
    for record in records:
        if record.kind == wal_kinds.CKPT_END and record.extra:
            checkpoint_lsn = record.extra.get("begin_lsn", 0)
        if record.txn_id > 0:
            seen.add(record.txn_id)
            max_txn_id = max(max_txn_id, record.txn_id)
            if record.kind == wal_kinds.COMMIT:
                committed.add(record.txn_id)
            elif record.kind == wal_kinds.ABORT:
                aborted.add(record.txn_id)
    losers = seen - committed - aborted
    stats.checkpoint_lsn = checkpoint_lsn
    stats.committed_txns = len(committed)
    stats.aborted_txns = len(aborted)
    stats.loser_txns = len(losers)

    # -- 2. load pages, detecting torn writes --------------------------------
    pages: Dict[int, Page] = {}
    torn: List[int] = []
    for page_id in disk.page_ids():
        page, ok = disk.read_unchecked(page_id)
        if not ok:
            torn.append(page_id)
            page = Page(page_id, disk.page_size)
        pages[page_id] = page
    stats.torn_pages_detected = torn
    torn_set = set(torn)

    def apply(record: LogRecord) -> bool:
        """Re-apply one data record iff the page LSN is older (redo test)."""
        kind = record.comp_kind if record.kind == wal_kinds.CLR else record.kind
        page_id, slot = record.rid  # type: ignore[misc]
        page = pages.get(page_id)
        if page is None:
            disk.ensure(page_id)
            page = Page(page_id, disk.page_size)
            pages[page_id] = page
        if page.page_lsn >= record.lsn:
            return False
        while len(page.slots) <= slot:
            page.slots.append(None)
        if kind in (wal_kinds.INSERT, wal_kinds.UPDATE):
            page.slots[slot] = (record.table, record.after)
        elif kind == wal_kinds.DELETE:
            page.slots[slot] = None
        page.page_lsn = record.lsn
        return True

    # -- 3. redo: torn-page pre-pass, then repeat history from checkpoint ----
    if torn_set:
        for record in records:
            if record.lsn >= checkpoint_lsn:
                break
            if (
                record.kind in _DATA_KINDS
                and record.rid is not None
                and record.rid[0] in torn_set
            ):
                if apply(record):
                    stats.redo_applied += 1
    for record in records:
        if record.lsn < checkpoint_lsn:
            continue
        if record.kind in _DATA_KINDS and record.rid is not None:
            if apply(record):
                stats.redo_applied += 1

    # -- 4. undo losers (reverse order, skipping compensated actions) --------
    compensated: Dict[int, Set[int]] = {}
    for record in records:
        if (
            record.kind == wal_kinds.CLR
            and record.txn_id in losers
            and record.undo_lsn is not None
        ):
            compensated.setdefault(record.txn_id, set()).add(record.undo_lsn)
    to_undo = [
        record
        for record in records
        if record.txn_id in losers
        and record.kind in (wal_kinds.INSERT, wal_kinds.DELETE, wal_kinds.UPDATE)
        and record.lsn not in compensated.get(record.txn_id, ())
    ]
    for record in reversed(to_undo):
        if record.kind == wal_kinds.INSERT:
            clr = wal.append(
                record.txn_id,
                wal_kinds.CLR,
                record.table,
                before=record.after,
                rid=record.rid,
                comp_kind=wal_kinds.DELETE,
                undo_lsn=record.lsn,
            )
        elif record.kind == wal_kinds.DELETE:
            clr = wal.append(
                record.txn_id,
                wal_kinds.CLR,
                record.table,
                after=record.before,
                rid=record.rid,
                comp_kind=wal_kinds.INSERT,
                undo_lsn=record.lsn,
            )
        else:  # UPDATE
            clr = wal.append(
                record.txn_id,
                wal_kinds.CLR,
                record.table,
                before=record.after,
                after=record.before,
                rid=record.rid,
                comp_kind=wal_kinds.UPDATE,
                undo_lsn=record.lsn,
            )
        apply(clr)
        stats.undo_applied += 1
    for txn_id in sorted(losers):
        wal.append(txn_id, wal_kinds.ABORT)
    wal.flush()

    # -- 5. write pages back and rebuild runtime structures ------------------
    for page in pages.values():
        page.recompute_used_bytes()
        page.dirty = False
        disk.write_unlogged(page)
    stats.pages_rebuilt = len(pages)

    _rebuild_runtime(database, pages)
    database.txn_manager.resume_after(max_txn_id)

    stats.wall_time_s = time.perf_counter() - start
    return stats


def _rebuild_runtime(database, pages: Dict[int, Page]) -> None:
    """Rebuild every in-memory structure derived from the page store."""
    # Frames (and any pins the crashed statement leaked) predate recovery.
    database.buffer_pool.invalidate()

    # Page slot tags say which tables live where; heap files re-learn
    # their page sets from one pass over the recovered store.
    pages_by_table: Dict[str, List[int]] = {}
    for page_id in sorted(pages):
        for content in pages[page_id].slots:
            if content is not None:
                owners = pages_by_table.setdefault(content[0], [])
                if not owners or owners[-1] != page_id:
                    owners.append(page_id)

    for name, table in database.catalog.tables.items():
        heap = table.heap
        page_ids = []
        seen: Set[int] = set()
        for page_id in pages_by_table.get(name, []):
            if page_id not in seen:
                seen.add(page_id)
                page_ids.append(page_id)
        heap._page_ids = page_ids
        heap._page_id_set = set(page_ids)
        for index in table.indexes.values():
            index.clear()
        count = 0
        for rid, row in heap.scan():
            count += 1
            for index in table.indexes.values():
                index.insert_row(row, rid)
        heap.row_count = count
        table.stats.row_count = count
        database.catalog.bump_version(name)

    # Compiled plans bind pre-crash Table state; all are flushed (the plan
    # cache counts the invalidations).
    database.plan_cache.invalidate_all()
    database._txn = None
