"""Multiple sessions over one database: write-lock conflicts and
snapshot isolation."""

import pytest

from repro.errors import DeadlockError, ExecutionError
from repro.relational.engine import Database
from repro.relational.txn.manager import IsolationLevel
from repro.xnf.api import XNFSession


@pytest.fixture
def shared(people_db):
    return people_db, people_db.connect(), people_db.connect()


class TestSessionIndependence:
    def test_sessions_have_own_transactions(self, shared):
        db, a, b = shared
        a.begin()
        assert a.in_transaction
        assert not b.in_transaction
        assert not db.in_transaction
        a.rollback()

    def test_autocommit_sessions_share_data(self, shared):
        _, a, b = shared
        a.execute("INSERT INTO PEOPLE VALUES (9, 'zed', 1, 'NY', 0.0)")
        assert b.execute("SELECT COUNT(*) FROM PEOPLE").scalar() == 6

    def test_session_rollback_only_undoes_own_work(self, shared):
        _, a, b = shared
        b.execute("INSERT INTO PEOPLE VALUES (8, 'yak', 1, 'NY', 0.0)")
        a.begin()
        a.execute("INSERT INTO PEOPLE VALUES (9, 'zed', 1, 'NY', 0.0)")
        a.rollback()
        assert b.execute("SELECT COUNT(*) FROM PEOPLE").scalar() == 6

    def test_default_database_acts_as_a_session(self, shared):
        db, a, _ = shared
        db.begin()
        db.execute("DELETE FROM PEOPLE WHERE id = 1")
        db.rollback()
        assert a.execute("SELECT COUNT(*) FROM PEOPLE").scalar() == 5


class TestLockConflicts:
    def test_writer_blocks_reader(self, shared):
        _, a, b = shared
        a.begin()
        a.execute("DELETE FROM PEOPLE WHERE id = 1")
        b.begin()
        # Snapshot isolation: the reader never blocks and sees the
        # pre-delete state until the writer commits.
        assert b.execute("SELECT COUNT(*) FROM PEOPLE").scalar() == 5
        a.commit()
        # b's snapshot predates a's commit: still 5 rows.
        assert b.execute("SELECT COUNT(*) FROM PEOPLE").scalar() == 5
        b.commit()
        assert b.execute("SELECT COUNT(*) FROM PEOPLE").scalar() == 4

    def test_writer_blocks_writer(self, shared):
        _, a, b = shared
        a.begin()
        a.execute("UPDATE PEOPLE SET age = 1 WHERE id = 1")
        b.begin()
        with pytest.raises(DeadlockError):
            b.execute("UPDATE PEOPLE SET age = 2 WHERE id = 2")
        a.rollback()
        b.execute("UPDATE PEOPLE SET age = 2 WHERE id = 2")
        b.commit()

    def test_readers_share(self, shared):
        _, a, b = shared
        a.begin()
        b.begin()
        a.execute("SELECT * FROM PEOPLE")
        b.execute("SELECT * FROM PEOPLE")
        a.commit()
        b.commit()

    def test_repeatable_read_blocks_writer_until_commit(self, shared):
        _, a, b = shared
        a.begin(IsolationLevel.REPEATABLE_READ)
        a.execute("SELECT * FROM PEOPLE")
        b.begin()
        # Readers hold no S locks: the writer proceeds, and a's snapshot
        # still shows the deleted row (repeatable reads come from
        # versioning, not locks).
        b.execute("DELETE FROM PEOPLE WHERE id = 1")
        b.commit()
        assert a.execute("SELECT COUNT(*) FROM PEOPLE").scalar() == 5
        a.commit()

    def test_cursor_stability_releases_after_statement(self, shared):
        """Section 1's 'cursor stability': a reader holds nothing past its
        statement, so a writer can proceed before the reader commits."""
        _, a, b = shared
        a.begin(IsolationLevel.CURSOR_STABILITY)
        a.execute("SELECT * FROM PEOPLE")
        b.begin()
        b.execute("DELETE FROM PEOPLE WHERE id = 1")  # no conflict
        b.commit()
        a.commit()

    @staticmethod
    def _two_rows(db):
        db.execute("CREATE TABLE KV (k INTEGER PRIMARY KEY, v INTEGER)")
        db.execute("INSERT INTO KV VALUES (1, 10), (2, 20)")

    def test_autocommit_read_never_sees_uncommitted_writes(self, shared):
        db, a, b = shared
        self._two_rows(db)
        a.begin()
        a.execute("DELETE FROM KV WHERE k = 1")
        a.execute("UPDATE KV SET v = 99 WHERE k = 2")
        # the autocommit read's snapshot is the committed state
        assert b.execute("SELECT COUNT(*) FROM KV").scalar() == 2
        assert b.execute("SELECT v FROM KV WHERE k = 2").scalar() == 20
        a.rollback()
        assert b.execute("SELECT COUNT(*) FROM KV").scalar() == 2
        assert b.execute("SELECT v FROM KV WHERE k = 2").scalar() == 20

    def test_autocommit_write_is_never_undone_by_another_rollback(self, shared):
        db, a, b = shared
        self._two_rows(db)
        a.begin()
        a.execute("UPDATE KV SET v = 99 WHERE k = 2")
        with pytest.raises(DeadlockError):
            b.execute("UPDATE KV SET v = 50 WHERE k = 2")
        a.rollback()
        assert b.execute("SELECT v FROM KV WHERE k = 2").scalar() == 20
        b.execute("UPDATE KV SET v = 50 WHERE k = 2")
        assert b.execute("SELECT v FROM KV WHERE k = 2").scalar() == 50

    def test_autocommit_reads_never_hold_locks(self, shared):
        _, a, b = shared
        a.execute("SELECT * FROM PEOPLE")  # autocommit: no txn, no lock
        b.begin()
        b.execute("DELETE FROM PEOPLE WHERE id = 1")
        b.commit()


class TestSnapshotReads:
    def test_reads_take_no_locks(self, shared):
        db, a, _ = shared
        session = XNFSession(db)
        prepared = db.prepare("SELECT name FROM PEOPLE WHERE id = ?")
        acquisitions = db.txn_manager.locks.metrics()["acquisitions"]
        assert len(db.execute("SELECT * FROM PEOPLE WHERE age > 20")) == 4
        assert prepared.execute([2]).rows == [("bob",)]
        a.begin()
        assert a.execute("SELECT COUNT(*) FROM PEOPLE").scalar() == 5
        a.commit()
        assert len(session.query("OUT OF Xp AS PEOPLE TAKE *").node("Xp")) == 5
        assert db.txn_manager.locks.metrics()["acquisitions"] == acquisitions

    @pytest.mark.parametrize(
        "isolation, count",
        [(IsolationLevel.CURSOR_STABILITY, 4), (IsolationLevel.REPEATABLE_READ, 5)],
        ids=["cursor_stability", "repeatable_read"],
    )
    def test_cursor_stability_retakes_the_snapshot_per_statement(
        self, shared, isolation, count
    ):
        db, a, b = shared
        TestLockConflicts._two_rows(db)
        a.begin(isolation)
        assert a.execute("SELECT COUNT(*) FROM PEOPLE").scalar() == 5
        a.execute("UPDATE KV SET v = 99 WHERE k = 2")
        b.execute("DELETE FROM PEOPLE WHERE id = 1")
        assert a.execute("SELECT COUNT(*) FROM PEOPLE").scalar() == count
        # a re-taken snapshot still sees the transaction's own write
        assert a.execute("SELECT v FROM KV WHERE k = 2").scalar() == 99
        a.commit()


def test_mvcc_false_is_refused():
    with pytest.raises(ExecutionError):
        Database(mvcc=False)
