"""Transactions: rollback, locks, isolation levels, WAL crash recovery."""

import pytest

from repro.errors import DeadlockError, IOFaultError, IntegrityError, TransactionError
from repro.relational.engine import Database
from repro.relational.storage import FaultInjector
from repro.relational.txn.locks import LockManager
from repro.relational.txn.manager import IsolationLevel
from repro.relational.txn.wal import WriteAheadLog


class TestRollback:
    def test_rollback_insert(self, people_db):
        people_db.execute("BEGIN")
        people_db.execute("INSERT INTO PEOPLE VALUES (9, 'zed', 1, 'NY', 0.0)")
        people_db.execute("ROLLBACK")
        assert people_db.execute("SELECT COUNT(*) FROM PEOPLE").scalar() == 5

    def test_rollback_delete(self, people_db):
        people_db.execute("BEGIN")
        people_db.execute("DELETE FROM PEOPLE WHERE city = 'NY'")
        people_db.execute("ROLLBACK")
        assert people_db.execute("SELECT COUNT(*) FROM PEOPLE").scalar() == 5
        # index consistency after undo
        assert people_db.execute("SELECT name FROM PEOPLE WHERE id = 1").scalar() == "ann"

    def test_rollback_update(self, people_db):
        people_db.execute("BEGIN")
        people_db.execute("UPDATE PEOPLE SET age = 0")
        people_db.execute("ROLLBACK")
        assert people_db.execute(
            "SELECT age FROM PEOPLE WHERE name = 'ann'"
        ).scalar() == 30

    def test_rollback_mixed_operations_in_order(self, people_db):
        people_db.execute("BEGIN")
        people_db.execute("INSERT INTO PEOPLE VALUES (9, 'zed', 1, 'NY', 0.0)")
        people_db.execute("UPDATE PEOPLE SET age = age + 1 WHERE id = 9")
        people_db.execute("DELETE FROM PEOPLE WHERE id = 9")
        people_db.execute("ROLLBACK")
        assert people_db.execute("SELECT COUNT(*) FROM PEOPLE").scalar() == 5

    def test_commit_keeps_changes(self, people_db):
        people_db.execute("BEGIN")
        people_db.execute("DELETE FROM PEOPLE WHERE id = 1")
        people_db.execute("COMMIT")
        assert people_db.execute("SELECT COUNT(*) FROM PEOPLE").scalar() == 4

    def test_nested_begin_rejected(self, people_db):
        people_db.execute("BEGIN")
        with pytest.raises(TransactionError):
            people_db.execute("BEGIN")
        people_db.execute("ROLLBACK")

    def test_commit_without_begin_rejected(self, people_db):
        with pytest.raises(TransactionError):
            people_db.execute("COMMIT")

    def test_rollback_without_begin_rejected(self, people_db):
        with pytest.raises(TransactionError):
            people_db.execute("ROLLBACK")


class TestLockManager:
    def test_exclusive_conflicts(self):
        locks = LockManager()
        locks.acquire(1, "T")
        locks.acquire(1, "T")  # re-grant to the holder
        with pytest.raises(DeadlockError):
            locks.acquire(2, "T")
        assert locks.metrics()["acquisitions"] == 1

    def test_release_all(self):
        locks = LockManager()
        locks.acquire(1, "A")
        locks.acquire(1, "B")
        locks.release_all(1)
        assert locks.held(1) == set()
        locks.acquire(2, "B")


class TestIsolationLevels:
    def test_repeatable_read_holds_read_locks(self, people_db):
        people_db.isolation = IsolationLevel.REPEATABLE_READ
        people_db.execute("BEGIN")
        people_db.execute("SELECT * FROM PEOPLE")
        txn_id = people_db._txn.txn_id
        # Snapshot isolation replaces read locks with versioned reads.
        assert people_db.txn_manager.locks.held(txn_id) == set()
        people_db.execute("COMMIT")

    def test_cursor_stability_releases_read_locks(self, people_db):
        people_db.execute("BEGIN")
        people_db._txn.isolation = IsolationLevel.CURSOR_STABILITY
        people_db.execute("SELECT * FROM PEOPLE")
        txn_id = people_db._txn.txn_id
        assert people_db.txn_manager.locks.held(txn_id) == set()
        people_db.execute("COMMIT")

    def test_write_locks_held_until_commit_either_way(self, people_db):
        people_db.execute("BEGIN")
        people_db._txn.isolation = IsolationLevel.CURSOR_STABILITY
        people_db.execute("DELETE FROM PEOPLE WHERE id = 1")
        txn_id = people_db._txn.txn_id
        assert people_db.txn_manager.locks.held(txn_id) == {"PEOPLE"}
        people_db.execute("COMMIT")
        assert people_db.txn_manager.locks.held(txn_id) == set()


def _company_schema(database):
    database.execute("CREATE TABLE T (a INTEGER PRIMARY KEY, b VARCHAR)")


def _crash_and_reopen(db, schema_fn=_company_schema):
    """Simulate a power cut and reopen over the surviving disk + WAL.

    A crash loses the buffer pool and the WAL's volatile tail; the disk
    page images and the stable log survive.  The reopened instance gets
    the schema re-created (DDL is not logged in this engine) and then runs
    crash recovery.
    """
    db.txn_manager.wal.crash()
    reopened = Database(disk=db.disk, wal=db.txn_manager.wal)
    schema_fn(reopened)
    stats = reopened.recover()
    return reopened, stats


class TestRecovery:
    def test_committed_work_survives_crash(self):
        primary = Database()
        _company_schema(primary)
        primary.execute("INSERT INTO T VALUES (1, 'x'), (2, 'y')")
        primary.execute("BEGIN")
        primary.execute("UPDATE T SET b = 'z' WHERE a = 1")
        primary.execute("COMMIT")
        primary.execute("BEGIN")
        primary.execute("DELETE FROM T WHERE a = 2")
        primary.execute("COMMIT")

        reopened, stats = _crash_and_reopen(primary)
        assert stats.committed_txns == 3  # 1 implicit + 2 explicit
        assert stats.redo_applied > 0
        assert reopened.execute("SELECT * FROM T ORDER BY a").rows == [(1, "z")]

    def test_uncommitted_work_not_recovered(self):
        primary = Database()
        _company_schema(primary)
        primary.execute("INSERT INTO T VALUES (1, 'x')")
        primary.execute("BEGIN")
        primary.execute("INSERT INTO T VALUES (2, 'y')")
        # no COMMIT: crash now — the txn's records were never forced
        reopened, _ = _crash_and_reopen(primary)
        assert reopened.execute("SELECT * FROM T").rows == [(1, "x")]

    def test_stable_loser_records_are_undone(self):
        primary = Database()
        _company_schema(primary)
        primary.execute("INSERT INTO T VALUES (1, 'x')")
        primary.execute("BEGIN")
        primary.execute("INSERT INTO T VALUES (2, 'y')")
        primary.execute("UPDATE T SET b = 'w' WHERE a = 1")
        # The loser's records reach stable storage (say, a background
        # flush) but its COMMIT never does: redo repeats its history,
        # undo must then roll it back with compensation records.
        primary.txn_manager.wal.flush()
        reopened, stats = _crash_and_reopen(primary)
        assert stats.loser_txns == 1
        assert stats.undo_applied == 2
        assert reopened.execute("SELECT * FROM T ORDER BY a").rows == [(1, "x")]

    def test_autocommit_statements_are_durable(self):
        primary = Database()
        _company_schema(primary)
        primary.execute("INSERT INTO T VALUES (1, 'x')")
        primary.execute("UPDATE T SET b = 'q' WHERE a = 1")
        reopened, _ = _crash_and_reopen(primary)
        assert reopened.execute("SELECT b FROM T").scalar() == "q"

    def test_indexes_rebuilt_after_recovery(self):
        primary = Database()
        _company_schema(primary)
        primary.execute("INSERT INTO T VALUES (1, 'x'), (2, 'y'), (3, 'z')")
        primary.execute("DELETE FROM T WHERE a = 2")
        reopened, _ = _crash_and_reopen(primary)
        # unique-index path (pk lookup) must agree with the heap
        assert reopened.execute("SELECT b FROM T WHERE a = 3").scalar() == "z"
        assert reopened.execute("SELECT b FROM T WHERE a = 2").rows == []
        with pytest.raises(IntegrityError):
            reopened.execute("INSERT INTO T VALUES (1, 'dup')")

    def test_recovery_is_idempotent(self):
        primary = Database()
        _company_schema(primary)
        primary.execute("INSERT INTO T VALUES (1, 'x'), (2, 'y')")
        primary.execute("BEGIN")
        primary.execute("UPDATE T SET b = 'p' WHERE a = 2")
        primary.txn_manager.wal.flush()  # stable loser
        reopened, first = _crash_and_reopen(primary)
        before = reopened.execute("SELECT * FROM T ORDER BY a").rows
        assert first.redo_applied > 0

        # Recovering again must be a no-op: page LSNs already cover every
        # record, and the loser was ABORT-terminated by the first pass.
        second = reopened.recover()
        assert second.redo_applied == 0
        assert second.undo_applied == 0
        assert second.loser_txns == 0
        assert reopened.execute("SELECT * FROM T ORDER BY a").rows == before

    def test_checkpoint_bounds_redo(self):
        primary = Database()
        _company_schema(primary)
        primary.execute("INSERT INTO T VALUES (1, 'x'), (2, 'y')")
        primary.checkpoint()
        primary.execute("UPDATE T SET b = 'z' WHERE a = 1")
        reopened, stats = _crash_and_reopen(primary)
        assert stats.checkpoint_lsn > 0
        # Only the post-checkpoint update needs redo; the two inserts are
        # already on disk (page LSN ≥ record LSN after the flush).
        assert stats.redo_applied == 1
        assert reopened.execute("SELECT * FROM T ORDER BY a").rows == [
            (1, "z"),
            (2, "y"),
        ]

    def test_unacknowledged_commit_is_not_durable(self):
        """A commit whose WAL flushes all fail raises (transaction stays
        active and undoable) — so an acknowledged commit is always durable
        and an unacknowledged one reliably disappears."""
        primary = Database()
        _company_schema(primary)
        primary.execute("INSERT INTO T VALUES (1, 'x')")
        injector = FaultInjector().install(primary)
        primary.execute("BEGIN")
        primary.execute("INSERT INTO T VALUES (2, 'y')")
        injector.arm()
        injector.drop_next_flushes(10)  # outlasts every commit retry
        with pytest.raises(IOFaultError):
            primary.execute("COMMIT")
        injector.disarm()
        assert primary.in_transaction  # still active, still undoable
        primary.execute("ROLLBACK")
        reopened, _ = _crash_and_reopen(primary)
        assert reopened.execute("SELECT * FROM T").rows == [(1, "x")]

    def test_wal_records_have_increasing_lsns(self, people_db):
        people_db.execute("INSERT INTO PEOPLE VALUES (9, 'z', 1, 'NY', 0.0)")
        people_db.execute("DELETE FROM PEOPLE WHERE id = 9")
        lsns = [r.lsn for r in people_db.txn_manager.wal.records]
        assert lsns == sorted(lsns)
        assert len(set(lsns)) == len(lsns)


class TestAbortResidue:
    """ABORT paths leave zero residue in heap pages and indexes."""

    def _residue_rows(self, database, table_name):
        """Rows physically present in page slots tagged with *table_name*."""
        table = database.catalog.get_table(table_name)
        pool = table.heap.buffer_pool
        found = []
        for page_id in database.disk.page_ids():
            page = pool.fetch(page_id)
            try:
                for content in page.slots:
                    if content is not None and content[0] == table_name:
                        found.append(content[1])
            finally:
                pool.unpin(page_id)
        return sorted(found)

    def test_explicit_rollback_leaves_no_residue(self, people_db):
        baseline = sorted(people_db.execute("SELECT * FROM PEOPLE").rows)
        people_db.execute("BEGIN")
        people_db.execute("INSERT INTO PEOPLE VALUES (9, 'zed', 1, 'NY', 0.0)")
        people_db.execute("UPDATE PEOPLE SET age = age + 10 WHERE city = 'NY'")
        people_db.execute("DELETE FROM PEOPLE WHERE id = 2")
        people_db.execute("ROLLBACK")
        assert sorted(people_db.execute("SELECT * FROM PEOPLE").rows) == baseline
        assert self._residue_rows(people_db, "PEOPLE") == baseline
        # index paths agree with the heap
        assert people_db.execute(
            "SELECT name FROM PEOPLE WHERE id = 2"
        ).scalar() == "bob"
        assert people_db.execute("SELECT name FROM PEOPLE WHERE id = 9").rows == []

    def test_error_triggered_rollback_leaves_no_residue(self, people_db):
        """A mid-statement failure (duplicate key on the second row) must
        undo the statement's earlier rows — statement-level atomicity."""
        baseline = sorted(people_db.execute("SELECT * FROM PEOPLE").rows)
        with pytest.raises(IntegrityError):
            people_db.execute(
                "INSERT INTO PEOPLE VALUES (8, 'new', 1, 'NY', 0.0), "
                "(1, 'dup', 2, 'SF', 0.0)"
            )
        assert sorted(people_db.execute("SELECT * FROM PEOPLE").rows) == baseline
        assert self._residue_rows(people_db, "PEOPLE") == baseline
        assert people_db.execute("SELECT name FROM PEOPLE WHERE id = 8").rows == []

    def test_error_inside_transaction_keeps_earlier_statements(self, people_db):
        people_db.execute("BEGIN")
        people_db.execute("INSERT INTO PEOPLE VALUES (8, 'new', 1, 'NY', 0.0)")
        with pytest.raises(IntegrityError):
            people_db.execute("INSERT INTO PEOPLE VALUES (1, 'dup', 2, 'SF', 0.0)")
        # the failed statement rolled back, the transaction survives
        assert people_db.in_transaction
        people_db.execute("COMMIT")
        assert people_db.execute(
            "SELECT name FROM PEOPLE WHERE id = 8"
        ).scalar() == "new"

    def test_rollback_does_not_touch_plan_cache_counters(self, people_db):
        people_db.execute("SELECT * FROM PEOPLE WHERE id = 1")
        people_db.execute("SELECT * FROM PEOPLE WHERE id = 2")  # cache hit
        before = people_db.plan_cache.stats()
        assert before["hits"] >= 1
        people_db.execute("BEGIN")
        people_db.execute("INSERT INTO PEOPLE VALUES (9, 'zed', 1, 'NY', 0.0)")
        people_db.execute("ROLLBACK")
        after = people_db.plan_cache.stats()
        assert after["hits"] == before["hits"]
        assert after["invalidations"] == before["invalidations"]
        # and the cached plan still hits after the rollback
        people_db.execute("SELECT * FROM PEOPLE WHERE id = 3")
        assert people_db.plan_cache.stats()["hits"] == before["hits"] + 1


class TestWalFaults:
    """Flush-level fault behavior of the WAL itself."""

    def _wal_with_injector(self):
        wal = WriteAheadLog()
        injector = FaultInjector()
        wal.fault_injector = injector
        injector.arm()
        return wal, injector

    def test_dropped_flush_keeps_tail_volatile(self):
        wal, injector = self._wal_with_injector()
        wal.append(1, "BEGIN")
        wal.append(1, "COMMIT")
        injector.drop_next_flushes(1)
        assert wal.flush() == 0  # nothing reached stable storage
        assert wal.stable_records() == []
        # the tail survives, so a retry succeeds
        assert wal.flush() == 2
        assert [r.kind for r in wal.stable_records()] == ["BEGIN", "COMMIT"]

    def test_torn_flush_withholds_final_record(self):
        wal, injector = self._wal_with_injector()
        wal.append(1, "BEGIN")
        wal.append(1, "COMMIT")
        injector.tear_next_flushes(1)
        # only the prefix before the torn record is reported stable
        assert wal.flush() == 1
        assert [r.kind for r in wal.stable_records()] == ["BEGIN"]
        # the torn record stays buffered; the next flush rewrites it cleanly
        assert wal.flush() == 2
        assert [r.kind for r in wal.stable_records()] == ["BEGIN", "COMMIT"]
        assert all(r.verify() for r in wal.stable_records())

    def test_crash_after_torn_flush_truncates_log(self):
        wal, injector = self._wal_with_injector()
        wal.append(1, "BEGIN")
        wal.append(1, "INSERT", table="T", after=(1,), rid=(0, 0))
        injector.tear_next_flushes(1)
        wal.flush()
        wal.crash()
        # recovery sees only the verified prefix
        assert [r.kind for r in wal.stable_records()] == ["BEGIN"]
        # the LSN clock rewound to the verified high-water mark, so the
        # torn record's LSN is reused by the next append
        record = wal.append(2, "BEGIN")
        assert record.lsn == 2
        wal.flush()
        assert [r.lsn for r in wal.stable_records()] == [1, 2]
