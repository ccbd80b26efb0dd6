"""MVCC snapshot isolation: deterministic semantics + concurrent chaos.

Part 1 (single-threaded, fully deterministic): snapshot visibility,
first-committer-wins conflicts, the retryable error taxonomy, admission
control, vacuum progress, and statement-timeout cleanup between
executor batches.

Part 2 (multi-threaded chaos harness, parametrized over seeds): reader
threads extract composite invariants from the company and OO1 databases
while writer threads mutate them inside transactions.  The assertions:

* readers never observe a *torn composite* — every multi-table invariant
  a writer maintains transactionally holds inside every reader snapshot;
* readers never block on writers and never abort (abort rate 0 under
  pure MVCC reads);
* concurrent increments show first-committer-wins + bounded retries
  (no lost updates);
* a crash mid-workload preserves exactly the committed transactions and
  recovery leaves a consistent (empty) version store;
* vacuum progress is monotonic and reclaims all versions once no
  snapshot is active.

Thread scheduling is nondeterministic, but every assertion is a safety
property that must hold under *any* interleaving, so the harness passes
deterministically for every seed.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import (
    AdmissionError,
    DeadlockError,
    ReproError,
    ResourceExhaustedError,
    SerializationError,
)
from repro.relational.engine import Database
from repro.workloads import company, oo1
from repro.xnf.api import XNFSession

SEEDS = [7, 19, 31]

#: Fig. 1 DEPT budgets sum (1000 + 2000 + 500): the transfer invariant
COMPANY_BUDGET_TOTAL = 3500.0


def _company_db() -> Database:
    return company.figure1_database(mvcc=True)


# ---------------------------------------------------------------------------
# Part 1: deterministic snapshot semantics
# ---------------------------------------------------------------------------


class TestSnapshotVisibility:
    def test_reader_sees_begin_time_state(self):
        db = _company_db()
        a, b = db.connect(), db.connect()
        a.begin()
        assert a.execute("SELECT COUNT(*) FROM EMP").scalar() == 6
        b.execute("INSERT INTO EMP VALUES (99, 'new', 1.0, 1, '')")
        # a's snapshot predates b's autocommit insert.
        assert a.execute("SELECT COUNT(*) FROM EMP").scalar() == 6
        a.commit()
        assert a.execute("SELECT COUNT(*) FROM EMP").scalar() == 7

    def test_own_writes_visible_within_txn(self):
        db = _company_db()
        a = db.connect()
        a.begin()
        a.execute("UPDATE DEPT SET budget = 9.0 WHERE dno = 1")
        assert (
            a.execute("SELECT budget FROM DEPT WHERE dno = 1").scalar() == 9.0
        )
        a.rollback()
        assert (
            db.execute("SELECT budget FROM DEPT WHERE dno = 1").scalar()
            == 1000.0
        )

    def test_index_scans_respect_snapshot(self):
        db = _company_db()
        a, b = db.connect(), db.connect()
        a.begin()
        assert (
            a.execute("SELECT ename FROM EMP WHERE eno = 1").scalar() == "e1"
        )
        b.execute("UPDATE EMP SET ename = 'renamed' WHERE eno = 1")
        # Index probe resolves to the snapshot image, not the heap latest.
        assert (
            a.execute("SELECT ename FROM EMP WHERE eno = 1").scalar() == "e1"
        )
        a.commit()
        assert (
            a.execute("SELECT ename FROM EMP WHERE eno = 1").scalar()
            == "renamed"
        )

    def test_deleted_row_still_visible_to_older_snapshot(self):
        db = _company_db()
        a, b = db.connect(), db.connect()
        a.begin()
        b.execute("DELETE FROM EMP WHERE eno = 1")
        assert a.execute("SELECT COUNT(*) FROM EMP").scalar() == 6
        assert (
            a.execute("SELECT ename FROM EMP WHERE eno = 1").scalar() == "e1"
        )
        a.commit()
        assert a.execute("SELECT COUNT(*) FROM EMP").scalar() == 5

    @pytest.mark.parametrize(
        "read, committed",
        [("SELECT COUNT(*) FROM T", 1), ("SELECT COUNT(*) FROM T WHERE id = 2", 0)],
        ids=["scan", "probe"],
    )
    def test_insert_is_invisible_between_heap_write_and_note(self, read, committed):
        """A reader on another thread that runs after an insert's heap and
        index writes but before its version note must not see the row."""
        db = Database()
        db.execute("CREATE TABLE T (id INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO T VALUES (1)")
        index = db.catalog.get_table("T").indexes["pk_T"]
        index_insert = index.insert_row
        counts = []
        reader = threading.Thread(target=lambda: counts.append(db.execute(read).scalar()))

        def insert_row(row, rid):
            index_insert(row, rid)
            reader.start()
            reader.join(0.2)  # blocks on the store lock unless the row leaks

        index.insert_row = insert_row
        db.execute("INSERT INTO T VALUES (2)")
        reader.join()
        assert counts == [committed]


class TestFirstCommitterWins:
    def test_second_writer_gets_serialization_error(self):
        db = _company_db()
        a, b = db.connect(), db.connect()
        a.begin()
        b.begin()
        a.execute("UPDATE DEPT SET budget = budget + 1 WHERE dno = 1")
        a.commit()
        # b's snapshot predates a's commit: updating the same row must
        # raise the retryable first-committer-wins conflict, never apply
        # a stale read-modify-write.
        with pytest.raises(SerializationError) as info:
            b.execute("UPDATE DEPT SET budget = budget + 1 WHERE dno = 1")
        assert info.value.retryable
        b.rollback()
        # A fresh transaction sees a's commit and succeeds.
        b.begin()
        b.execute("UPDATE DEPT SET budget = budget + 1 WHERE dno = 1")
        b.commit()
        assert (
            db.execute("SELECT budget FROM DEPT WHERE dno = 1").scalar()
            == 1002.0
        )

    def test_conflict_is_statement_atomic(self):
        db = _company_db()
        a, b = db.connect(), db.connect()
        a.begin()
        b.begin()
        a.execute("UPDATE EMP SET sal = sal + 1 WHERE eno = 1")
        a.commit()
        with pytest.raises(SerializationError):
            b.execute("UPDATE EMP SET sal = sal + 1")  # touches eno=1 too
        # The failed statement was rolled back in full: b's transaction is
        # still usable and sees none of its own partial writes.
        assert (
            b.execute("SELECT COUNT(*) FROM EMP WHERE sal > 1000").scalar()
            == 0
        )
        b.rollback()

    def test_conflicts_surface_in_metrics_and_systable(self):
        db = _company_db()
        a, b = db.connect(), db.connect()
        a.begin()
        b.begin()
        a.execute("UPDATE DEPT SET budget = 1.0 WHERE dno = 2")
        a.commit()
        with pytest.raises(SerializationError):
            b.execute("UPDATE DEPT SET budget = 2.0 WHERE dno = 2")
        b.rollback()
        assert db.metrics_snapshot()["mvcc"]["serialization_conflicts"] == 1
        row = db.query(
            "SELECT serialization_conflicts FROM SYS_SNAPSHOTS"
        ).rows[0]
        assert row[0] == 1


class TestRetryableTaxonomy:
    def test_error_flags(self):
        assert SerializationError("x").retryable
        assert AdmissionError("x").retryable
        assert DeadlockError("x").retryable
        assert not ReproError("x").retryable

    def test_run_retryable_retries_serialization_conflict(self):
        db = _company_db()
        a, b = db.connect(), db.connect()
        attempts = []

        def bump():
            attempts.append(1)
            b.begin()
            if len(attempts) == 1:
                # First attempt: manufacture a conflict by letting a commit
                # after b's snapshot was taken.
                a.execute("UPDATE DEPT SET budget = budget + 1 WHERE dno = 3")
            b.execute("UPDATE DEPT SET budget = budget + 1 WHERE dno = 3")
            b.commit()

        b.run_retryable(bump, retries=3, backoff_s=0.0001, max_backoff_s=0.001)
        assert len(attempts) == 2
        assert db.metrics.counter("txn.retries").value == 1
        assert (
            db.execute("SELECT budget FROM DEPT WHERE dno = 3").scalar()
            == 502.0
        )

    def test_run_retryable_exhausts_budget(self):
        db = Database(mvcc=True)

        def always_fails():
            raise SerializationError("induced")

        with pytest.raises(SerializationError):
            db.run_retryable(
                always_fails, retries=2, backoff_s=0.0001, max_backoff_s=0.001
            )
        assert db.metrics.counter("txn.retries").value == 2

    def test_run_retryable_does_not_retry_plain_errors(self):
        db = Database(mvcc=True)
        calls = []

        def fails():
            calls.append(1)
            raise ReproError("not retryable")

        with pytest.raises(ReproError):
            db.run_retryable(fails, retries=5)
        assert len(calls) == 1


class TestAdmissionControl:
    def test_over_limit_begin_rejected(self):
        db = Database(mvcc=True, max_concurrent_txns=2)
        db.execute("CREATE TABLE T (a INTEGER PRIMARY KEY)")
        a, b, c = db.connect(), db.connect(), db.connect()
        a.begin()
        b.begin()
        with pytest.raises(AdmissionError) as info:
            c.begin()
        assert info.value.retryable
        a.commit()
        c.begin()  # slot freed
        c.commit()
        b.commit()
        assert db.txn_manager.metrics()["admission_rejects"] == 1


class TestVacuum:
    def test_vacuum_reclaims_and_is_monotonic(self):
        db = _company_db()
        db.mvcc.autovacuum_threshold = 0  # manual vacuum only: no idle sweeps
        for i in range(5):
            db.execute(f"UPDATE DEPT SET budget = {i + 1.0} WHERE dno = 1")
        stats = db.metrics_snapshot()["mvcc"]
        assert stats["versioned_rows"] >= 1
        runs_before = stats["vacuum_runs"]  # seeding ran idle sweeps already
        first = db.vacuum()
        assert first["dropped"] >= 1
        after = db.metrics_snapshot()["mvcc"]
        assert after["versioned_rows"] == 0
        assert after["vacuum_runs"] == runs_before + 1
        second = db.vacuum()
        # Monotonic progress: the horizon never regresses, the cumulative
        # counters never decrease.
        assert second["horizon"] >= first["horizon"]
        final = db.metrics_snapshot()["mvcc"]
        assert final["vacuum_runs"] == runs_before + 2
        assert final["versions_pruned"] >= after["versions_pruned"]

    def test_last_snapshot_release_sweeps_store(self):
        """Releasing the last active snapshot sweeps committed entries, so
        lightly-written tables return to the clean scan fast path instead
        of carrying insert- and update-era entries forever."""
        db = _company_db()
        db.execute("UPDATE DEPT SET budget = 9.0 WHERE dno = 1")
        stats = db.metrics_snapshot()["mvcc"]
        assert stats["versioned_rows"] == 0
        assert stats["idle_vacuums"] >= 1
        # an open snapshot blocks the sweep ...
        reader = db.connect()
        reader.begin()
        assert reader.execute("SELECT COUNT(*) FROM DEPT").scalar() == 3
        db.execute("UPDATE DEPT SET budget = 10.0 WHERE dno = 1")
        assert db.metrics_snapshot()["mvcc"]["versioned_rows"] >= 1
        # ... and the entry resolves the old image for that snapshot
        assert (
            reader.execute(
                "SELECT budget FROM DEPT WHERE dno = 1"
            ).scalar()
            == 9.0
        )
        reader.commit()  # last snapshot out -> sweep runs
        assert db.metrics_snapshot()["mvcc"]["versioned_rows"] == 0

    def test_vacuum_keeps_versions_needed_by_open_snapshot(self):
        db = _company_db()
        a = db.connect()
        a.begin()
        assert a.execute("SELECT COUNT(*) FROM EMP").scalar() == 6
        db.execute("DELETE FROM EMP WHERE eno = 2")
        db.vacuum()
        # a's snapshot still needs the deleted row: vacuum must not free it.
        assert a.execute("SELECT COUNT(*) FROM EMP").scalar() == 6
        a.commit()
        db.vacuum()
        assert db.metrics_snapshot()["mvcc"]["versioned_rows"] == 0


class TestStatementTimeoutVectorized:
    def test_timeout_aborts_between_batches_with_clean_state(self):
        db = Database(mvcc=True)
        db.execute("CREATE TABLE BIG (a INTEGER PRIMARY KEY, b INTEGER)")
        rows = ",".join(f"({i},{i % 97})" for i in range(3000))
        db.execute(f"INSERT INTO BIG VALUES {rows}")
        db.statement_timeout_s = 1e-9
        db.begin()
        with pytest.raises(ResourceExhaustedError):
            db.query("SELECT COUNT(*) FROM BIG WHERE b >= 0")
        db.rollback()
        db.statement_timeout_s = None
        # Clean state after the mid-statement abort: no lock residue, no
        # leaked snapshot, and the next statement runs normally.
        assert db.txn_manager.locks.metrics()["held"] == 0
        assert db.metrics_snapshot()["mvcc"]["active_snapshots"] == 0
        assert db.query("SELECT COUNT(*) FROM BIG").scalar() == 3000

    def test_timeout_outside_txn_leaves_no_snapshot(self):
        db = Database(mvcc=True, statement_timeout_s=1e-9)
        db.execute("CREATE TABLE T2 (a INTEGER PRIMARY KEY)")
        db.execute(
            "INSERT INTO T2 VALUES "
            + ",".join(f"({i})" for i in range(2000))
        )
        db.statement_timeout_s = 1e-9
        with pytest.raises(ResourceExhaustedError):
            db.query("SELECT * FROM T2")
        db.statement_timeout_s = None
        assert db.metrics_snapshot()["mvcc"]["active_snapshots"] == 0
        assert db.query("SELECT COUNT(*) FROM T2").scalar() == 2000


# ---------------------------------------------------------------------------
# Part 2: multi-threaded chaos
# ---------------------------------------------------------------------------


def _run_threads(workers) -> None:
    threads = [threading.Thread(target=fn, daemon=True) for fn in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "chaos worker deadlocked"


def _tear_detail(db, sess):  # pragma: no cover - diagnostic only
    """Re-read the torn invariant inside the same snapshot as key sets, so
    a failure names the row that went missing or appeared twice."""
    enos = sorted(
        r[0] for r in sess.execute("SELECT eno FROM EMP WHERE eno >= 1000").rows
    )
    skill_enos = sorted(
        r[0]
        for r in sess.execute("SELECT eseno FROM EMPSKILL WHERE eseno >= 1000").rows
    )
    budgets = sorted(sess.execute("SELECT dno, budget FROM DEPT").rows)
    snap = db._txn.snapshot if db._txn is not None else None
    return {
        "read_ts": snap.read_ts if snap is not None else None,
        "emp_only": sorted(set(enos) - set(skill_enos)),
        "skill_only": sorted(set(skill_enos) - set(enos)),
        "key_counts": (len(enos), len(skill_enos)),
        "budgets": budgets,
    }


@pytest.mark.parametrize("seed", SEEDS)
class TestCompanyChaos:
    """Readers extract composite invariants while writers mutate.

    Writers maintain two transactional invariants:

    * budget transfers between DEPT rows keep SUM(budget) constant;
    * every EMP they insert gets an EMPSKILL row in the same transaction.

    A reader observing either one violated has seen a torn composite.
    """

    READERS = 4
    READER_ITERS = 25
    WRITER_TXNS = 15

    def test_no_torn_composites_and_no_reader_aborts(self, seed):
        db = _company_db()
        import random as _random

        stop = threading.Event()
        errors: list = []
        reader_aborts: list = []
        torn: list = []

        def transfer_writer(wid: int):
            rng = _random.Random(seed * 100 + wid)
            sess = db.connect()
            try:
                for _ in range(self.WRITER_TXNS):
                    amount = rng.randint(1, 50)
                    src, dst = rng.sample([1, 2, 3], 2)

                    def txn():
                        sess.begin()
                        sess.execute(
                            f"UPDATE DEPT SET budget = budget + {amount} "
                            f"WHERE dno = {src}"
                        )
                        sess.execute(
                            f"UPDATE DEPT SET budget = budget - {amount} "
                            f"WHERE dno = {dst}"
                        )
                        sess.commit()

                    sess.run_retryable(
                        txn, retries=60, backoff_s=0.0005, max_backoff_s=0.01
                    )
            except Exception as err:  # pragma: no cover - fails the test
                errors.append(err)
            finally:
                stop.set()

        def employee_writer(wid: int):
            base = 1000 + wid * self.WRITER_TXNS
            sess = db.connect()
            try:
                for i in range(self.WRITER_TXNS):
                    eno = base + i

                    def txn():
                        sess.begin()
                        sess.execute(
                            f"INSERT INTO EMP VALUES "
                            f"({eno}, 'w{eno}', 1.0, 1, '')"
                        )
                        sess.execute(
                            f"INSERT INTO EMPSKILL VALUES ({eno}, 1)"
                        )
                        sess.commit()

                    sess.run_retryable(
                        txn, retries=60, backoff_s=0.0005, max_backoff_s=0.01
                    )
            except Exception as err:  # pragma: no cover
                errors.append(err)
            finally:
                stop.set()

        def reader(rid: int):
            sess = db.connect()
            for _ in range(self.READER_ITERS):
                try:
                    sess.begin()
                    total = sess.execute(
                        "SELECT SUM(budget) FROM DEPT"
                    ).scalar()
                    emps = sess.execute(
                        "SELECT COUNT(*) FROM EMP WHERE eno >= 1000"
                    ).scalar()
                    skills = sess.execute(
                        "SELECT COUNT(*) FROM EMPSKILL WHERE eseno >= 1000"
                    ).scalar()
                    detail = None
                    if total != COMPANY_BUDGET_TOTAL or emps != skills:
                        # still inside the snapshot: capture what tore
                        detail = _tear_detail(db, sess)  # pragma: no cover
                    sess.commit()
                except ReproError as err:  # pragma: no cover
                    reader_aborts.append(err)
                    try:
                        sess.rollback()
                    except ReproError:
                        pass
                    continue
                if detail is not None:  # pragma: no cover
                    torn.append((total, emps, skills, detail))

        _run_threads(
            [lambda: transfer_writer(0), lambda: transfer_writer(1)]
            + [lambda: employee_writer(0), lambda: employee_writer(1)]
            + [
                (lambda r: lambda: reader(r))(r)
                for r in range(self.READERS)
            ]
        )
        assert not errors, errors[:3]
        assert not torn, torn[:3]
        # Headline: pure MVCC reads never abort and never block.
        assert reader_aborts == []
        # Final state: all writer transactions fully applied.
        assert (
            db.execute("SELECT SUM(budget) FROM DEPT").scalar()
            == COMPANY_BUDGET_TOTAL
        )
        n_emp = db.execute(
            "SELECT COUNT(*) FROM EMP WHERE eno >= 1000"
        ).scalar()
        assert n_emp == 2 * self.WRITER_TXNS
        assert (
            db.execute(
                "SELECT COUNT(*) FROM EMPSKILL WHERE eseno >= 1000"
            ).scalar()
            == n_emp
        )
        # Vacuum after the storm reclaims every version.
        db.vacuum()
        assert db.metrics_snapshot()["mvcc"]["versioned_rows"] == 0


@pytest.mark.parametrize("seed", SEEDS)
class TestOO1Chaos:
    """OO1 parts database: CO extraction vs. concurrent part inserts.

    Each writer transaction inserts one PART plus exactly three CONN rows
    (the OO1 shape), so ``COUNT(CONN) == 3 * COUNT(PART)`` inside every
    snapshot — including the snapshots under full XNF CO extraction.
    """

    WRITER_TXNS = 12

    def test_snapshot_consistent_co_extraction(self, seed):
        db = oo1.build_parts_database(60, seed=seed, mvcc=True)
        import random as _random

        errors: list = []
        torn: list = []

        def writer():
            rng = _random.Random(seed)
            sess = db.connect()
            try:
                for i in range(self.WRITER_TXNS):
                    pid = 10000 + i

                    def txn():
                        sess.begin()
                        sess.execute(
                            f"INSERT INTO PART VALUES "
                            f"({pid}, 'part-chaos', {rng.randint(0, 999)}, "
                            f"{rng.randint(0, 999)}, 1)"
                        )
                        for _ in range(3):
                            cto = rng.randint(1, 60)
                            sess.execute(
                                f"INSERT INTO CONN VALUES "
                                f"({pid}, {cto}, 'conn-chaos', 1)"
                            )
                        sess.commit()

                    sess.run_retryable(
                        txn, retries=60, backoff_s=0.0005, max_backoff_s=0.01
                    )
            except Exception as err:  # pragma: no cover
                errors.append(err)

        def co_reader():
            session = XNFSession(db)
            for _ in range(4):
                try:
                    db.begin()
                    co = oo1.load_parts_co(session)
                    parts = len(co.node("Xpart"))
                    conns = len(co.connections("connects"))
                    # relationship materialisation dedupes identical rows,
                    # so compare against the snapshot's DISTINCT tuples
                    # (the seed data may contain exact-duplicate CONNs)
                    sql_parts = db.execute(
                        "SELECT COUNT(*) FROM PART"
                    ).scalar()
                    sql_conns = len(db.execute(
                        "SELECT DISTINCT cfrom, cto, ctype, clength FROM CONN"
                    ).rows)
                    db.commit()
                except ReproError as err:  # pragma: no cover
                    errors.append(err)
                    try:
                        db.rollback()
                    except ReproError:
                        pass
                    continue
                if parts != sql_parts or conns != sql_conns:  # pragma: no cover
                    torn.append((parts, conns, sql_parts, sql_conns))

        def sql_reader():
            sess = db.connect()
            for _ in range(20):
                try:
                    sess.begin()
                    parts = sess.execute("SELECT COUNT(*) FROM PART").scalar()
                    conns = sess.execute("SELECT COUNT(*) FROM CONN").scalar()
                    sess.commit()
                except ReproError as err:  # pragma: no cover
                    errors.append(err)
                    try:
                        sess.rollback()
                    except ReproError:
                        pass
                    continue
                if conns != 3 * parts:  # pragma: no cover
                    torn.append((parts, conns))

        _run_threads([writer, co_reader, sql_reader, sql_reader])
        assert not errors, errors[:3]
        assert not torn, torn[:3]
        parts = db.execute("SELECT COUNT(*) FROM PART").scalar()
        conns = db.execute("SELECT COUNT(*) FROM CONN").scalar()
        assert parts == 60 + self.WRITER_TXNS
        assert conns == 3 * parts


@pytest.mark.parametrize("seed", SEEDS)
class TestLostUpdates:
    WORKERS = 3
    INCREMENTS = 8

    def test_concurrent_increments_never_lost(self, seed):
        db = Database(mvcc=True)
        db.execute("CREATE TABLE CTR (id INTEGER PRIMARY KEY, n INTEGER)")
        db.execute("INSERT INTO CTR VALUES (1, 0)")
        errors: list = []

        def incrementer(wid: int):
            sess = db.connect()
            try:
                for _ in range(self.INCREMENTS):

                    def txn():
                        sess.begin()
                        sess.execute("UPDATE CTR SET n = n + 1 WHERE id = 1")
                        sess.commit()

                    sess.run_retryable(
                        txn,
                        retries=100,
                        backoff_s=0.0005,
                        max_backoff_s=0.01,
                        rng=__import__("random").Random(seed * 10 + wid),
                    )
            except Exception as err:  # pragma: no cover
                errors.append(err)

        _run_threads(
            [(lambda w: lambda: incrementer(w))(w) for w in range(self.WORKERS)]
        )
        assert not errors, errors[:3]
        # First-committer-wins: every increment either committed exactly
        # once or was retried with a fresh snapshot — none were lost.
        assert (
            db.execute("SELECT n FROM CTR WHERE id = 1").scalar()
            == self.WORKERS * self.INCREMENTS
        )
        retries = db.metrics.counter("txn.retries").value
        # Retries stayed within every worker's budget (bounded).
        assert retries <= self.WORKERS * self.INCREMENTS * 100


@pytest.mark.parametrize("seed", SEEDS)
class TestFaultChaos:
    """Transient injected storage faults under concurrent MVCC traffic."""

    def test_transient_read_faults_are_absorbed(self, seed):
        from repro.relational.storage import FaultInjector, FaultPlan

        db = company.figure1_database(mvcc=True, buffer_capacity=4)
        injector = FaultInjector(
            seed=seed, plan=FaultPlan(read_error_rate=0.05)
        ).install(db)
        injector.arm()
        errors: list = []
        torn: list = []

        def writer():
            sess = db.connect()
            try:
                for i in range(8):

                    def txn():
                        sess.begin()
                        sess.execute(
                            "UPDATE DEPT SET budget = budget + 10 "
                            "WHERE dno = 1"
                        )
                        sess.execute(
                            "UPDATE DEPT SET budget = budget - 10 "
                            "WHERE dno = 2"
                        )
                        sess.commit()

                    sess.run_retryable(
                        txn, retries=60, backoff_s=0.0005, max_backoff_s=0.01
                    )
            except Exception as err:  # pragma: no cover
                errors.append(err)

        def reader():
            sess = db.connect()
            for _ in range(12):
                try:
                    sess.begin()
                    total = sess.execute(
                        "SELECT SUM(budget) FROM DEPT"
                    ).scalar()
                    sess.commit()
                except ReproError as err:  # pragma: no cover
                    errors.append(err)
                    try:
                        sess.rollback()
                    except ReproError:
                        pass
                    continue
                if total != COMPANY_BUDGET_TOTAL:  # pragma: no cover
                    torn.append(total)

        _run_threads([writer, reader, reader])
        injector.disarm()
        assert not errors, errors[:3]
        assert not torn, torn[:3]
        assert (
            db.execute("SELECT SUM(budget) FROM DEPT").scalar()
            == COMPANY_BUDGET_TOTAL
        )


@pytest.mark.parametrize("seed", SEEDS)
class TestCrashRecoveryMidWorkload:
    def test_committed_durable_uncommitted_gone(self, seed):
        db = Database(mvcc=True)
        db.execute(
            "CREATE TABLE ACC (id INTEGER PRIMARY KEY, bal INTEGER)"
        )
        db.execute("CREATE TABLE AUDIT (aid INTEGER PRIMARY KEY, ref INTEGER)")
        db.execute("INSERT INTO ACC VALUES (1, 100), (2, 100)")
        # Committed workload: transfers with a paired audit row.
        for i in range(1 + seed % 3):
            db.begin()
            db.execute("UPDATE ACC SET bal = bal - 10 WHERE id = 1")
            db.execute("UPDATE ACC SET bal = bal + 10 WHERE id = 2")
            db.execute(f"INSERT INTO AUDIT VALUES ({i}, 1)")
            db.commit()
        committed = 1 + seed % 3
        # In-flight transaction at crash time: must vanish.
        db.begin()
        db.execute("UPDATE ACC SET bal = 0 WHERE id = 1")
        db.execute(f"INSERT INTO AUDIT VALUES (999, 999)")
        db.txn_manager.wal.crash()

        reopened = Database(disk=db.disk, wal=db.txn_manager.wal, mvcc=True)
        reopened.execute(
            "CREATE TABLE ACC (id INTEGER PRIMARY KEY, bal INTEGER)"
        )
        reopened.execute(
            "CREATE TABLE AUDIT (aid INTEGER PRIMARY KEY, ref INTEGER)"
        )
        reopened.recover()
        # Committed-durable: the transfers and their audit rows survived.
        assert (
            reopened.execute("SELECT SUM(bal) FROM ACC").scalar() == 200
        )
        assert (
            reopened.execute(
                "SELECT bal FROM ACC WHERE id = 1"
            ).scalar()
            == 100 - 10 * committed
        )
        assert (
            reopened.execute("SELECT COUNT(*) FROM AUDIT").scalar()
            == committed
        )
        # Uncommitted-gone: the in-flight work left no trace.
        assert (
            reopened.execute(
                "SELECT COUNT(*) FROM AUDIT WHERE aid = 999"
            ).scalar()
            == 0
        )
        # Recovery rebuilt a consistent (empty) version store: no stale
        # versions, and new snapshot transactions work immediately.
        stats = reopened.metrics_snapshot()["mvcc"]
        assert stats["versioned_rows"] == 0
        assert stats["active_snapshots"] == 0
        reopened.begin()
        reopened.execute("UPDATE ACC SET bal = bal + 1 WHERE id = 1")
        reopened.commit()
        assert reopened.execute("SELECT SUM(bal) FROM ACC").scalar() == 201
