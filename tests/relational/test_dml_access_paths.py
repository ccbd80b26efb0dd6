"""UPDATE/DELETE through the planner: access paths, Halloween, MVCC, caching.

An UPDATE or DELETE finds its rows with a planned, cached row-finding plan
(``Planner.plan_write``) — the same index-probe / index-range / scan choice
a single-table SELECT gets — and writes only after every target row has
been found.  These tests pin down the write semantics under index access
paths (on one-row and full-size batches, and on a sharded table) and prove the
access path and the plan cache by counts, never by timing.
"""

import pytest

from repro.errors import SerializationError
from repro.relational.engine import Database
from repro.relational.executor import batch, operators
from repro.relational.executor.batch import BATCH_SIZE
from repro.relational.plancache import normalize_statement
from repro.relational.sql.parser import parse_statements
from repro.workloads.design import build_design_database, working_set_co
from repro.xnf.api import XNFSession

#: mode -> (Database options, operator batch size); "row" cuts every batch
#: the operators build after one row, so a write's RID stream crosses a
#: batch boundary at each row
MODES = {
    "row": ({}, 1),
    "batch": ({}, BATCH_SIZE),
    "sharded": ({"shards": 2}, BATCH_SIZE),
}


@pytest.fixture(params=sorted(MODES))
def make_db(request, monkeypatch):
    options, batch_size = MODES[request.param]
    monkeypatch.setattr(batch, "BATCH_SIZE", batch_size)
    monkeypatch.setattr(operators, "BATCH_SIZE", batch_size)

    def make(**kwargs):
        return Database(**options, **kwargs)

    return make


def key_of(i):
    return None if i % 7 == 0 else (i * 3) % 50


def load(db, n=40):
    """T(id PK, k indexed and sometimes NULL, c unindexed) plus S(x)."""
    db.execute("CREATE TABLE T (id INTEGER PRIMARY KEY, k INTEGER, c INTEGER)")
    db.execute("CREATE INDEX ik ON T (k)")
    db.execute("CREATE TABLE S (x INTEGER)")
    values = ", ".join(f"({i}, {_sql(key_of(i))}, {i % 5})" for i in range(1, n + 1))
    db.execute(f"INSERT INTO T VALUES {values}")
    db.execute("INSERT INTO S VALUES (3), (9), (27), (NULL)")
    db.execute("ANALYZE")
    return {i: (key_of(i), i % 5) for i in range(1, n + 1)}


def _sql(value):
    return "NULL" if value is None else str(value)


def write_plan(db, sql):
    """EXPLAIN text of the row-finding plan an UPDATE/DELETE compiles to."""
    (stmt,) = parse_statements(sql)
    return db._compile_statement(normalize_statement(stmt).statement).op.explain()


def rows_of(db):
    return {row[0]: (row[1], row[2]) for row in db.execute("SELECT id, k, c FROM T")}


class TestHalloween:
    def test_update_of_the_probed_index_key_touches_each_row_once(self, make_db):
        db = make_db()
        db.execute("CREATE TABLE H (id INTEGER PRIMARY KEY, k INTEGER)")
        db.execute("CREATE INDEX hk ON H (k)")
        n = 30
        db.execute(
            "INSERT INTO H VALUES " + ", ".join(f"({i}, {i})" for i in range(n))
        )
        sql = "UPDATE H SET k = k + 100 WHERE k >= 0"
        assert "IndexRangeScan(H.hk)" in write_plan(db, sql)
        assert db.execute(sql).rowcount == n
        keys = sorted(row[0] for row in db.execute("SELECT k FROM H"))
        assert keys == [i + 100 for i in range(n)]

    def test_pk_update_moving_rows_forward_into_the_probed_range(self, make_db):
        db = make_db()
        model = load(db)
        sql = "UPDATE T SET id = id + 1000 WHERE id >= 10"
        assert "IndexRangeScan(T.pk_T)" in write_plan(db, sql)
        moved = [i for i in model if i >= 10]
        assert db.execute(sql).rowcount == len(moved)
        expected = {(i + 1000 if i >= 10 else i): kc for i, kc in model.items()}
        assert rows_of(db) == expected

    def test_self_referencing_delete_sees_the_table_before_any_write(self, make_db):
        db = make_db()
        model = load(db)
        # Every row whose predecessor exists goes — judged on the table as
        # it was, not as earlier deletes of this statement left it.
        sql = (
            "DELETE FROM T WHERE EXISTS "
            "(SELECT 1 FROM T p WHERE p.id = T.id - 1)"
        )
        assert db.execute(sql).rowcount == len(model) - 1
        assert list(rows_of(db)) == [1]

    def test_delete_between_runs_over_the_range_index(self, make_db):
        db = make_db()
        model = load(db)
        sql = "DELETE FROM T WHERE k BETWEEN 10 AND 20"
        assert "IndexRangeScan(T.ik)" in write_plan(db, sql)
        doomed = {i for i, (k, _) in model.items() if k is not None and 10 <= k <= 20}
        assert doomed
        assert db.execute(sql).rowcount == len(doomed)
        assert rows_of(db) == {i: kc for i, kc in model.items() if i not in doomed}


class TestPredicates:
    def test_equals_null_matches_nothing(self, make_db):
        db = make_db()
        model = load(db)
        assert "IndexEqScan(T.ik)" in write_plan(db, "UPDATE T SET c = 9 WHERE k = NULL")
        assert db.execute("UPDATE T SET c = 9 WHERE k = NULL").rowcount == 0
        assert db.execute("DELETE FROM T WHERE k = NULL").rowcount == 0
        assert rows_of(db) == model

    def test_is_null_matches_the_null_rows(self, make_db):
        db = make_db()
        model = load(db)
        nulls = {i for i, (k, _) in model.items() if k is None}
        assert db.execute("UPDATE T SET c = 9 WHERE k IS NULL").rowcount == len(nulls)
        # the NULL-safe form the XNF layer emits: PK probe plus IS NULL
        sql = "DELETE FROM T WHERE id = 14 AND k IS NULL"
        assert "IndexEqScan(T.pk_T)" in write_plan(db, sql)
        assert db.execute(sql).rowcount == 1
        expected = {
            i: (k, 9 if i in nulls else c) for i, (k, c) in model.items() if i != 14
        }
        assert rows_of(db) == expected

    def test_in_subquery(self, make_db):
        db = make_db()
        model = load(db)
        hit = {i for i, (k, _) in model.items() if k in (3, 9, 27)}
        assert hit
        assert db.execute("DELETE FROM T WHERE k IN (SELECT x FROM S)").rowcount == len(hit)
        assert rows_of(db) == {i: kc for i, kc in model.items() if i not in hit}

    def test_index_conjunct_plus_unindexed_residual(self, make_db):
        db = make_db()
        model = load(db)
        sql = "UPDATE T SET c = c + 10 WHERE k >= 20 AND c < 3"
        plan = write_plan(db, sql)
        assert "IndexRangeScan(T.ik)" in plan and "Filter" in plan
        hit = {i for i, (k, c) in model.items() if k is not None and k >= 20 and c < 3}
        assert hit
        assert db.execute(sql).rowcount == len(hit)
        expected = {
            i: (k, c + 10 if i in hit else c) for i, (k, c) in model.items()
        }
        assert rows_of(db) == expected

    def test_set_expression_reads_the_old_row(self, make_db):
        db = make_db()
        model = load(db)
        db.execute("UPDATE T SET c = k, k = c WHERE id = 5")
        k, c = model[5]
        assert rows_of(db)[5] == (c, k)


class TestSnapshotConflicts:
    """First-committer-wins holds when the write probes an index: the
    probe resolves through T1's snapshot, so a row a later commit changed,
    deleted or re-keyed is still found and its write check still fires."""

    @pytest.mark.parametrize(
        "change",
        [
            "UPDATE T SET c = 99 WHERE id = 7",
            "DELETE FROM T WHERE id = 7",
            "UPDATE T SET id = 700 WHERE id = 7",
        ],
        ids=["update", "delete", "rekey"],
    )
    def test_pk_update_after_concurrent_commit_raises(self, make_db, change):
        db = make_db(mvcc=True)
        load(db)
        write = "UPDATE T SET c = 0 WHERE id = 7"
        assert "IndexEqScan(T.pk_T)" in write_plan(db, write)
        t1, t2 = db.connect(), db.connect()
        t1.begin()
        assert t1.execute("SELECT c FROM T WHERE id = 7").rows == [(2,)]
        t2.execute(change)
        with pytest.raises(SerializationError) as info:
            t1.execute(write)
        assert info.value.retryable
        t1.rollback()

    #: one query per index operator, each reading the rows filed under k = 3
    PROBES = {
        "IndexEqScan(T.ik)": "SELECT id FROM T WHERE k = 3",
        "IndexRangeScan(T.ik)": "SELECT id FROM T WHERE k BETWEEN 3 AND 9",
        "IndexNLJoin[INNER](T.ik)": "SELECT S.x, T.id FROM S, T WHERE S.x = T.k",
    }

    @pytest.mark.parametrize(
        "change",
        [
            "UPDATE T SET k = 40 WHERE id = 1",
            "UPDATE T SET k = 3 WHERE id = 20",
            "DELETE FROM T WHERE id = 1",
            "INSERT INTO T VALUES (5000, 3, 0)",
        ],
        ids=["rekey-out", "rekey-in", "delete", "insert"],
    )
    def test_old_snapshot_probes_after_concurrent_commit(self, make_db, change):
        db = make_db()
        load(db, n=1000)
        for operator, sql in self.PROBES.items():
            assert operator in db.explain(sql), sql
        t1, t2 = db.connect(), db.connect()
        t1.begin()
        before = {sql: sorted(t1.execute(sql).rows) for sql in self.PROBES.values()}
        t2.execute(change)
        for sql, rows in before.items():
            assert sorted(db.execute(sql).rows) != rows, sql
            assert sorted(t1.execute(sql).rows) == rows, sql
        t1.commit()


def count_store_reads(db):
    """Count the version-store read calls made from here on."""
    store = db.mvcc.store
    calls = dict.fromkeys(("resolve", "resolve_batch", "candidates"), 0)
    for name in calls:
        def counted(*args, _name=name, _method=getattr(store, name)):
            calls[_name] += 1
            return _method(*args)

        setattr(store, name, counted)
    return calls


class TestProbeFastPath:
    """An index probe of an unwritten table reads its heap rows and passes
    them through: the version store is never asked to resolve anything."""

    def test_probes_resolve_only_while_the_table_is_versioned(self, make_db):
        db = make_db()
        load(db, n=1000)
        join = "SELECT S.x, T.id FROM S, T WHERE S.x = T.k"
        assert "IndexNLJoin[INNER](T.ik)" in db.explain(join)
        calls = count_store_reads(db)
        for i in range(1, 21):
            assert len(db.execute(f"SELECT c FROM T WHERE id = {i}")) == 1
        assert len(db.execute(join)) > 0
        assert calls == {"resolve": 0, "resolve_batch": 0, "candidates": 0}
        writer = db.connect()
        writer.begin()
        writer.execute("UPDATE T SET c = 7 WHERE id = 1")  # a note stays open
        assert db.execute("SELECT c FROM T WHERE id = 1").rows == [(1,)]
        assert len(db.execute(join)) > 0
        assert calls["resolve_batch"] > 0 and calls["candidates"] > 0
        writer.rollback()

    def test_index_join_probes_a_clean_table_once_per_batch(self, make_db):
        db = make_db()
        rows = load(db, n=1000)
        join = "SELECT S.x, T.id FROM S, T WHERE S.x = T.k"
        assert "IndexNLJoin[INNER](T.ik)" in db.explain(join)
        table = db.catalog.get_table("T")
        per_key = []
        probe = table.probe
        table.probe = lambda *args: per_key.append(args) or probe(*args)
        calls = count_store_reads(db)
        got = db.execute(join).rows
        assert calls == {"resolve": 0, "resolve_batch": 0, "candidates": 0}
        assert per_key == []
        assert sorted(got) == sorted(
            (x, i) for x in (3, 9, 27) for i, (k, _c) in rows.items() if k == x
        )


class TestCounts:
    def test_pk_update_and_delete_probe_a_few_pages(self, make_db):
        capacity = 16
        db = make_db(buffer_capacity=capacity)
        db.execute("CREATE TABLE W (id INTEGER PRIMARY KEY, v INTEGER, pad VARCHAR)")
        table = db.catalog.get_table("W")
        table.insert_many([(i, i, "x" * 300) for i in range(600)])
        assert table.heap.num_pages() >= 2 * capacity
        db.execute("UPDATE W SET v = 0 WHERE id = 1")  # compile + cache
        db.execute("DELETE FROM W WHERE id = 2")
        for sql in ("UPDATE W SET v = -1 WHERE id = 321", "DELETE FROM W WHERE id = 123"):
            db.reset_io_stats()
            assert db.execute(sql).rowcount == 1
            assert db.buffer_pool.misses <= 5, sql
        assert db.execute("SELECT v FROM W WHERE id = 321").rows == [(-1,)]
        assert db.execute("SELECT COUNT(*) FROM W WHERE id = 123").scalar() == 0

    def _update_fingerprints(self, db):
        return [
            row
            for row in db.execute("SELECT fingerprint, calls FROM SYS_STAT_STATEMENTS")
            if row[0].startswith("UPDATE")
        ]

    def test_literal_updates_share_one_plan_and_fingerprint(self, make_db):
        db = make_db()
        load(db)
        misses = db.plan_cache.stats()["misses"]
        for i in range(50):
            db.execute(f"UPDATE T SET c = {100 + i} WHERE id = {i % 40 + 1}")
        assert db.plan_cache.stats()["misses"] == misses + 1
        assert [calls for _, calls in self._update_fingerprints(db)] == [50]
        assert db.execute("SELECT c FROM T WHERE id = 10").scalar() == 149

    def test_prepared_update_shares_one_plan_and_fingerprint(self, make_db):
        db = make_db()
        load(db)
        misses = db.plan_cache.stats()["misses"]
        prepared = db.prepare("UPDATE T SET c = ? WHERE id = ?")
        for i in range(50):
            assert prepared.execute([100 + i, i % 40 + 1]).rowcount == 1
        assert db.plan_cache.stats()["misses"] == misses + 1
        assert [calls for _, calls in self._update_fingerprints(db)] == [50]
        assert db.execute("SELECT c FROM T WHERE id = 10").scalar() == 149

    def test_index_ddl_invalidates_the_cached_write_plan(self, make_db):
        capacity = 16
        db = make_db(buffer_capacity=capacity)
        db.execute("CREATE TABLE W (id INTEGER PRIMARY KEY, g INTEGER, pad VARCHAR)")
        db.catalog.get_table("W").insert_many(
            [(i, i % 300, "x" * 300) for i in range(600)]
        )

        def run(g, v):
            db.reset_io_stats()
            before = db.plan_cache.stats()["misses"]
            count = db.execute(f"UPDATE W SET pad = '{v}' WHERE g = {g}").rowcount
            return count, db.plan_cache.stats()["misses"] - before, db.buffer_pool.misses

        assert run(1, "a")[:2] == (2, 1)
        count, misses, scanned = run(2, "b")
        assert (count, misses) == (2, 0)
        db.execute("CREATE INDEX ig ON W (g)")
        count, misses, probed = run(3, "c")
        assert (count, misses) == (2, 1)
        assert probed < scanned and probed <= 5
        db.execute("DROP INDEX ig")
        # a plan still holding the dropped (no longer maintained) index
        # would miss the row re-keyed below
        assert run(4, "d")[:2] == (2, 1)
        db.execute("UPDATE W SET g = 999 WHERE id = 5")
        assert run(999, "e")[:2] == (1, 0)
        assert db.execute("SELECT pad FROM W WHERE id = 5").scalar() == "e"


def test_deferred_xnf_checkin_adds_no_plan_cache_misses():
    db = build_design_database(3, seed=5)
    session = XNFSession(db, deferred_propagation=True)

    def checkout(did, vnum, cost):
        co = session.query(working_set_co(did, vnum))
        for offset, cached in enumerate(co.node("Xsub")[:5]):
            co.update(cached, cost=cost + offset)
        misses = db.plan_cache.stats()["misses"]
        statements = db.statements_executed
        assert co.flush() == 5
        return db.plan_cache.stats()["misses"] - misses, db.statements_executed - statements

    checkout(1, 1, 1000.0)
    assert checkout(2, 3, 2000.0) == (0, 5)
    assert db.execute("SELECT COUNT(*) FROM SUBCOMP WHERE cost >= 2000").scalar() == 5
