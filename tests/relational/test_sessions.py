"""Multiple sessions over one database: lock conflicts and isolation."""

import pytest

from repro.errors import DeadlockError
from repro.relational.txn.manager import IsolationLevel


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
        db, a, b = shared
        a.begin()
        a.execute("DELETE FROM PEOPLE WHERE id = 1")
        b.begin()
        if db.mvcc is not None:
            # Snapshot isolation: the reader never blocks and sees the
            # pre-delete state until the writer commits.
            assert b.execute("SELECT COUNT(*) FROM PEOPLE").scalar() == 5
            a.commit()
            # b's snapshot predates a's commit: still 5 rows.
            assert b.execute("SELECT COUNT(*) FROM PEOPLE").scalar() == 5
            b.commit()
            assert b.execute("SELECT COUNT(*) FROM PEOPLE").scalar() == 4
            return
        with pytest.raises(DeadlockError):
            b.execute("SELECT * FROM PEOPLE")
        a.commit()
        b.execute("SELECT * FROM PEOPLE")  # now fine
        b.commit()

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
        db, a, b = shared
        a.begin(IsolationLevel.REPEATABLE_READ)
        a.execute("SELECT * FROM PEOPLE")
        b.begin()
        if db.mvcc is not None:
            # MVCC readers hold no S locks: the writer proceeds, and a's
            # snapshot still shows the deleted row (repeatable reads come
            # from versioning, not locks).
            b.execute("DELETE FROM PEOPLE WHERE id = 1")
            b.commit()
            assert a.execute("SELECT COUNT(*) FROM PEOPLE").scalar() == 5
            a.commit()
            return
        with pytest.raises(DeadlockError):
            b.execute("DELETE FROM PEOPLE WHERE id = 1")
        a.commit()
        b.execute("DELETE FROM PEOPLE WHERE id = 1")
        b.commit()

    def test_cursor_stability_releases_after_statement(self, shared):
        """Section 1's 'cursor stability': read locks end with the
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
        if db.mvcc is not None:
            # the autocommit read's snapshot is the committed state
            assert b.execute("SELECT COUNT(*) FROM KV").scalar() == 2
            assert b.execute("SELECT v FROM KV WHERE k = 2").scalar() == 20
        else:
            # 2PL: the statement's no-wait S lock meets a's X lock
            with pytest.raises(DeadlockError):
                b.execute("SELECT COUNT(*) FROM KV")
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
