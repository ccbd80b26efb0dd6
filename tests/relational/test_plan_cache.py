"""Plan cache and prepared statements.

The compile-once subsystem: statement normalization (WHERE constants lift
into a parameter vector), the LRU cache keyed on (fingerprint, rewrite
flag) with per-object catalog-version dependencies, and the
``Database.prepare`` API whose re-executions must skip planning entirely
(proved by the hit counter), and the token-keyed templates that let a
repeated statement text skip the parser as well.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CatalogError, ExecutionError, SQLError
from repro.relational import engine as engine_module
from repro.relational.engine import Database
from repro.relational.plancache import (
    PlanCache,
    normalize_statement,
    referenced_objects,
    scan_statement,
    sql_template,
    token_template,
)
from repro.relational.sql import ast
from repro.relational.sql.parser import parse_statements


@pytest.fixture
def tdb():
    db = Database()
    db.execute("CREATE TABLE T (id INTEGER PRIMARY KEY, grp INTEGER, val INTEGER)")
    db.execute(
        "INSERT INTO T VALUES (1, 1, 10), (2, 1, 20), (3, 2, 30), (4, 2, 40)"
    )
    return db


def _one(sql):
    (stmt,) = parse_statements(sql)
    return stmt


class TestNormalization:
    def test_where_literals_lifted(self):
        norm = normalize_statement(_one("SELECT val FROM T WHERE id = 3"))
        assert norm.lifted_values == [3]
        assert "?" in norm.fingerprint
        assert "3" not in norm.fingerprint.split("WHERE")[1]

    def test_same_shape_same_fingerprint(self):
        a = normalize_statement(_one("SELECT val FROM T WHERE id = 3"))
        b = normalize_statement(_one("SELECT val FROM T WHERE id = 7"))
        assert a.fingerprint == b.fingerprint
        assert a.lifted_values == [3] and b.lifted_values == [7]

    def test_group_order_literals_kept(self):
        # GROUP BY / ORDER BY have textual/positional matching semantics;
        # their literals must never be parameterized.
        norm = normalize_statement(
            _one("SELECT grp, COUNT(*) FROM T GROUP BY grp ORDER BY 1")
        )
        assert norm.lifted_values == []

    def test_explicit_params_precede_lifted(self):
        norm = normalize_statement(
            _one("SELECT val FROM T WHERE grp = ? AND val > 15")
        )
        assert norm.n_explicit == 1
        assert norm.lifted_values == [15]

    def test_null_literal_not_lifted(self):
        norm = normalize_statement(_one("SELECT val FROM T WHERE grp IS NULL"))
        assert norm.lifted_values == []


@pytest.fixture
def two_db():
    db = Database()
    db.execute("CREATE TABLE T1 (a INTEGER PRIMARY KEY)")
    db.execute("CREATE TABLE T2 (b INTEGER PRIMARY KEY)")
    db.execute("INSERT INTO T1 VALUES (1), (2), (3)")
    db.execute("INSERT INTO T2 VALUES (1), (3)")
    return db


class TestSelectListSubqueries:
    """A subquery anywhere in a SELECT item has its WHERE literals lifted,
    whatever operator it sits under."""

    @pytest.mark.parametrize(
        "template",
        [
            "SELECT a, (SELECT COUNT(*) FROM T2 WHERE b = {}) FROM T1",
            "SELECT a, (SELECT COUNT(*) FROM T2 WHERE b = {}) IS NULL FROM T1",
            "SELECT a, (SELECT COUNT(*) FROM T2 WHERE b = {}) BETWEEN 0 AND 1 FROM T1",
            "SELECT a, (SELECT COUNT(*) FROM T2 WHERE b = {}) IN (0, 1) FROM T1",
        ],
        ids=["bare", "is-null", "between", "in-list"],
    )
    def test_one_plan_for_both_constants(self, two_db, template):
        one, three = _one(template.format(1)), _one(template.format(3))
        assert normalize_statement(one).fingerprint == normalize_statement(three).fingerprint
        before = two_db.plan_cache.stats()["misses"]
        first = two_db.execute(template.format(1)).rows
        second = two_db.execute(template.format(3)).rows
        assert two_db.plan_cache.stats()["misses"] == before + 1
        assert first == second  # T2 holds both 1 and 3


class TestTransparentCaching:
    def test_repeated_query_hits(self, tdb):
        tdb.execute("SELECT val FROM T WHERE id = 1")
        before = tdb.plan_cache.stats()
        tdb.execute("SELECT val FROM T WHERE id = 1")
        after = tdb.plan_cache.stats()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_different_constants_share_one_plan(self, tdb):
        assert tdb.execute("SELECT val FROM T WHERE id = 1").scalar() == 10
        entries = tdb.plan_cache.stats()["entries"]
        assert tdb.execute("SELECT val FROM T WHERE id = 4").scalar() == 40
        assert tdb.plan_cache.stats()["entries"] == entries
        assert tdb.plan_cache.stats()["hits"] >= 1

    def test_cache_hit_skips_pipeline_stages(self, tdb):
        tdb.execute("SELECT val FROM T WHERE id = 2")
        tdb.execute("SELECT val FROM T WHERE id = 3")
        assert tdb.last_timings["build_qgm"] == 0.0
        assert tdb.last_timings["rewrite"] == 0.0
        assert tdb.last_timings["optimize"] == 0.0

    def test_rewrite_flag_partitions_cache(self, tdb):
        tdb.execute("SELECT val FROM T WHERE id = 1")
        entries = tdb.plan_cache.stats()["entries"]
        tdb.enable_rewrite = False
        try:
            tdb.execute("SELECT val FROM T WHERE id = 1")
        finally:
            tdb.enable_rewrite = True
        assert tdb.plan_cache.stats()["entries"] == entries + 1

    def test_lru_eviction(self):
        db = Database(plan_cache_capacity=2)
        db.execute("CREATE TABLE T (a INTEGER)")
        db.execute("INSERT INTO T VALUES (1)")
        db.execute("SELECT a FROM T")
        db.execute("SELECT a + 1 FROM T")
        db.execute("SELECT a + 2 FROM T")
        stats = db.plan_cache.stats()
        assert stats["entries"] == 2
        assert stats["evictions"] >= 1

    def test_zero_capacity_disables_cache(self, tdb):
        db = Database(plan_cache_capacity=0)
        db.execute("CREATE TABLE T (a INTEGER)")
        db.execute("INSERT INTO T VALUES (1)")
        assert db.execute("SELECT a FROM T").scalar() == 1
        assert db.plan_cache.stats()["entries"] == 0

    def test_results_identical_with_and_without_cache(self, tdb):
        queries = [
            "SELECT val FROM T WHERE grp = 2",
            "SELECT grp, SUM(val) FROM T GROUP BY grp ORDER BY grp",
            "SELECT val FROM T WHERE id IN (1, 3) ORDER BY val",
        ]
        cold = Database(plan_cache_capacity=0)
        cold.execute(
            "CREATE TABLE T (id INTEGER PRIMARY KEY, grp INTEGER, val INTEGER)"
        )
        cold.execute(
            "INSERT INTO T VALUES (1, 1, 10), (2, 1, 20), (3, 2, 30), (4, 2, 40)"
        )
        for sql in queries:
            for _ in range(2):  # second run exercises the cached plan
                assert tdb.execute(sql).rows == cold.execute(sql).rows


class TestInvalidation:
    def test_drop_table_invalidates(self, tdb):
        tdb.execute("SELECT val FROM T WHERE id = 1")
        tdb.execute("SELECT val FROM T WHERE id = 1")
        tdb.execute("DROP TABLE T")
        tdb.execute("CREATE TABLE T (id INTEGER PRIMARY KEY, grp INTEGER, val INTEGER)")
        tdb.execute("INSERT INTO T VALUES (9, 9, 90)")
        before = tdb.plan_cache.stats()
        assert tdb.execute("SELECT val FROM T WHERE id = 9").scalar() == 90
        after = tdb.plan_cache.stats()
        assert after["invalidations"] == before["invalidations"] + 1
        assert after["misses"] == before["misses"] + 1

    def test_create_index_invalidates(self, tdb):
        tdb.execute("SELECT val FROM T WHERE grp = 1")
        before = tdb.plan_cache.stats()
        tdb.execute("CREATE INDEX ig ON T (grp)")
        tdb.execute("SELECT val FROM T WHERE grp = 1")
        after = tdb.plan_cache.stats()
        assert after["invalidations"] == before["invalidations"] + 1

    def test_analyze_invalidates(self, tdb):
        tdb.execute("SELECT val FROM T WHERE grp = 1")
        before = tdb.plan_cache.stats()
        tdb.execute("ANALYZE")
        tdb.execute("SELECT val FROM T WHERE grp = 1")
        after = tdb.plan_cache.stats()
        assert after["invalidations"] == before["invalidations"] + 1

    def test_drop_of_table_read_only_under_order_by_invalidates(self, two_db):
        sql = "SELECT a FROM T1 ORDER BY (SELECT COUNT(*) FROM T2 WHERE T2.b = T1.a), a"
        assert two_db.execute(sql).rows == [(2,), (1,), (3,)]
        two_db.execute("DROP TABLE T2")
        with pytest.raises(CatalogError):
            two_db.execute(sql)

    def test_unrelated_ddl_does_not_invalidate(self, tdb):
        tdb.execute("SELECT val FROM T WHERE id = 1")
        tdb.execute("CREATE TABLE OTHER (x INTEGER)")
        before = tdb.plan_cache.stats()
        tdb.execute("SELECT val FROM T WHERE id = 1")
        after = tdb.plan_cache.stats()
        assert after["hits"] == before["hits"] + 1
        assert after["invalidations"] == before["invalidations"]


class TestPrepared:
    def test_re_execution_skips_planning(self, tdb):
        prepared = tdb.prepare("SELECT val FROM T WHERE id = ?")
        stats = tdb.plan_cache.stats()
        results = [prepared.execute([pid]).scalar() for pid in (1, 2, 3, 4)]
        assert results == [10, 20, 30, 40]
        after = tdb.plan_cache.stats()
        # every execution is a pure cache hit: zero additional compilations
        assert after["misses"] == stats["misses"]
        assert after["hits"] == stats["hits"] + 4

    def test_prepared_shares_plan_with_literal_query(self, tdb):
        tdb.execute("SELECT val FROM T WHERE id = 2")
        entries = tdb.plan_cache.stats()["entries"]
        prepared = tdb.prepare("SELECT val FROM T WHERE id = ?")
        assert prepared.execute([2]).scalar() == 20
        assert tdb.plan_cache.stats()["entries"] == entries

    def test_wrong_arity_rejected(self, tdb):
        prepared = tdb.prepare("SELECT val FROM T WHERE id = ?")
        with pytest.raises(SQLError):
            prepared.execute([])
        with pytest.raises(SQLError):
            prepared.execute([1, 2])

    def test_raw_execute_of_placeholder_rejected(self, tdb):
        with pytest.raises(SQLError):
            tdb.execute("SELECT val FROM T WHERE id = ?")

    def test_prepared_dml(self, tdb):
        ins = tdb.prepare("INSERT INTO T VALUES (?, ?, ?)")
        ins.execute([5, 3, 50])
        ins.execute([6, 3, 60])
        assert tdb.execute("SELECT COUNT(*) FROM T WHERE grp = 3").scalar() == 2
        upd = tdb.prepare("UPDATE T SET val = ? WHERE id = ?")
        upd.execute([99, 5])
        assert tdb.execute("SELECT val FROM T WHERE id = 5").scalar() == 99
        dele = tdb.prepare("DELETE FROM T WHERE grp = ?")
        dele.execute([3])
        assert tdb.execute("SELECT COUNT(*) FROM T WHERE grp = 3").scalar() == 0

    def test_prepared_mixed_explicit_and_lifted(self, tdb):
        prepared = tdb.prepare("SELECT val FROM T WHERE grp = ? AND val > 15")
        assert prepared.n_params == 1
        assert sorted(r[0] for r in prepared.execute([1])) == [20]
        assert sorted(r[0] for r in prepared.execute([2])) == [30, 40]

    def test_prepared_survives_unrelated_ddl(self, tdb):
        prepared = tdb.prepare("SELECT val FROM T WHERE id = ?")
        prepared.execute([1])
        tdb.execute("CREATE TABLE ELSEWHERE (x INTEGER)")
        before = tdb.plan_cache.stats()
        assert prepared.execute([3]).scalar() == 30
        assert tdb.plan_cache.stats()["misses"] == before["misses"]

    def test_prepared_recompiles_after_invalidation(self, tdb):
        prepared = tdb.prepare("SELECT val FROM T WHERE grp = ?")
        prepared.execute([1])
        tdb.execute("CREATE INDEX ig ON T (grp); ANALYZE")
        before = tdb.plan_cache.stats()
        assert sorted(r[0] for r in prepared.execute([2])) == [30, 40]
        after = tdb.plan_cache.stats()
        assert after["misses"] == before["misses"] + 1
        assert after["invalidations"] == before["invalidations"] + 1

    def test_prepared_selects_feed_latency_and_slow_log(self):
        db = Database(slow_query_threshold_s=0.0)
        db.execute("CREATE TABLE T (id INTEGER PRIMARY KEY, v INTEGER)")
        db.execute("INSERT INTO T VALUES (1, 10), (2, 20)")
        prepared = db.prepare("SELECT v FROM T WHERE id = ?")
        latency = db.metrics_snapshot()["statements"]["latency"]["count"]
        logged = db.slow_query_log.total_logged
        assert [prepared.execute([pid]).scalar() for pid in (1, 2)] == [10, 20]
        assert db.metrics_snapshot()["statements"]["latency"]["count"] == latency + 2
        assert db.slow_query_log.total_logged == logged + 2
        assert db.slow_query_log.entries()[-1].sql == "SELECT v FROM T WHERE (id = ?0)"

    def test_prepared_execution_is_one_statement_span(self, tdb):
        prepared = tdb.prepare("SELECT val FROM T WHERE id = ?")
        prepared.execute([1])
        root = tdb.tracer.last_trace
        assert root.name == "sql.select" and not root.children
        assert root.attrs["plan_cache"] == "hit" and root.attrs["rows"] == 1
        assert root.attrs["fingerprint"] == "SELECT val FROM T WHERE (id = ?0)"
        assert root.attrs["execute_ms"] >= 0.0

    def test_failed_prepared_update_is_recorded_like_unprepared(self):
        text = "UPDATE T SET val = 1 / ? WHERE id = 1"
        errors = {}
        for how in ("prepared", "unprepared"):
            db = Database()
            db.execute("CREATE TABLE T (id INTEGER PRIMARY KEY, val INTEGER)")
            db.execute("INSERT INTO T VALUES (1, 10)")
            with pytest.raises((ExecutionError, SQLError)):
                if how == "prepared":
                    db.prepare(text).execute([0])
                else:
                    db.execute(text)
            errors[how] = db.execute(
                "SELECT fingerprint, calls, errors FROM SYS_STAT_STATEMENTS "
                "WHERE errors > 0"
            ).rows
        assert errors["prepared"] == errors["unprepared"]
        assert [row[1:] for row in errors["prepared"]] == [(1, 1)]


class TestExplainCounters:
    def test_explain_reports_counters_without_mutating(self, tdb):
        tdb.execute("SELECT val FROM T WHERE id = 1")
        before = tdb.plan_cache.stats()
        text = tdb.explain("SELECT val FROM T WHERE id = 1")
        assert "plan cache: hits=" in text
        assert tdb.plan_cache.stats() == before


# ---------------------------------------------------------------------------
# Fingerprint corpus: every node kind in every clause
# ---------------------------------------------------------------------------

#: (statement, fingerprint, lifted values, explicit parameter count,
#: referenced objects as a sorted list).  Recorded from the hand-written
#: per-node normalizer that the generic expression map replaced; the
#: commented entries are where that normalizer was wrong.
FINGERPRINT_CORPUS = [
    (
        "SELECT a, 1, 'x', NULL, -b, NOT (a = 2), a || 'y' FROM T1",
        "SELECT a, 1, 'x', NULL, (-b), (NOT (a = 2)), (a || 'y') FROM T1",
        [],
        0,
        ['T1'],
    ),
    (
        "SELECT a IS NULL, b IS NOT NULL, a BETWEEN 1 AND 3, a IN (1, 2, 3) FROM T1",
        "SELECT (a IS NULL), (b IS NOT NULL), (a BETWEEN 1 AND 3), (a IN (1, 2, 3)) FROM T1",
        [],
        0,
        ['T1'],
    ),
    (
        "SELECT COUNT(*), SUM(DISTINCT b), UPPER(c) FROM T1",
        "SELECT COUNT(*), SUM(DISTINCT b), UPPER(c) FROM T1",
        [],
        0,
        ['T1'],
    ),
    (
        "SELECT CASE WHEN a > 1 THEN 'big' WHEN a = 1 THEN 'one' ELSE 'small' END FROM T1",
        "SELECT CASE WHEN (a > 1) THEN 'big' WHEN (a = 1) THEN 'one' ELSE 'small' END FROM T1",
        [],
        0,
        ['T1'],
    ),
    (
        "SELECT a, (SELECT COUNT(*) FROM T2 WHERE T2.b = T1.a AND T2.c > 5) FROM T1",
        "SELECT a, (SELECT COUNT(*) FROM T2 WHERE ((T2.b = T1.a) AND (T2.c > ?0))) FROM T1",
        [5],
        0,
        ['T1', 'T2'],
    ),
    (
        "SELECT a IN (SELECT b FROM T2 WHERE c = 4), EXISTS (SELECT * FROM T2 WHERE c = "
        "9) FROM T1",
        "SELECT (a IN (SELECT b FROM T2 WHERE (c = ?0))), (EXISTS (SELECT * FROM T2 WHERE "
        "(c = ?1))) FROM T1",
        [4, 9],
        0,
        ['T1', 'T2'],
    ),
    # was wrong: kept the subquery's literal
    (
        "SELECT a, (SELECT COUNT(*) FROM T2 WHERE b = 1) IS NULL FROM T1",
        "SELECT a, ((SELECT COUNT(*) FROM T2 WHERE (b = ?0)) IS NULL) FROM T1",
        [1],
        0,
        ['T1', 'T2'],
    ),
    # was wrong: kept the subquery's literal
    (
        "SELECT a, (SELECT MAX(c) FROM T2 WHERE b = 2) BETWEEN 0 AND 10 FROM T1",
        "SELECT a, ((SELECT MAX(c) FROM T2 WHERE (b = ?0)) BETWEEN 0 AND 10) FROM T1",
        [2],
        0,
        ['T1', 'T2'],
    ),
    # was wrong: kept the subquery's literal
    (
        "SELECT a, a IN (7, 8) IS NULL, (SELECT MIN(c) FROM T2 WHERE b = 3) IN (7, 8) FROM T1",
        "SELECT a, ((a IN (7, 8)) IS NULL), ((SELECT MIN(c) FROM T2 WHERE (b = ?0)) IN "
        "(7, 8)) FROM T1",
        [3],
        0,
        ['T1', 'T2'],
    ),
    (
        "SELECT CASE WHEN (SELECT COUNT(*) FROM T2 WHERE b = 5) > 0 THEN 1 ELSE 0 END FROM T1",
        "SELECT CASE WHEN ((SELECT COUNT(*) FROM T2 WHERE (b = ?0)) > 0) THEN 1 ELSE 0 "
        "END FROM T1",
        [5],
        0,
        ['T1', 'T2'],
    ),
    (
        "SELECT T1.*, * FROM T1",
        "SELECT T1.*, * FROM T1",
        [],
        0,
        ['T1'],
    ),
    (
        "SELECT a FROM T1 WHERE a = 1",
        "SELECT a FROM T1 WHERE (a = ?0)",
        [1],
        0,
        ['T1'],
    ),
    (
        "SELECT a FROM T1 WHERE a = 1 AND b = 'two' AND c > 3.5 AND d <> 4 AND e <= 5",
        "SELECT a FROM T1 WHERE (((((a = ?0) AND (b = ?1)) AND (c > ?2)) AND (d <> ?3)) "
        "AND (e <= ?4))",
        [1, 'two', 3.5, 4, 5],
        0,
        ['T1'],
    ),
    (
        "SELECT a FROM T1 WHERE NOT (a = 1 OR b = 2) AND -c < 3",
        "SELECT a FROM T1 WHERE ((NOT ((a = ?0) OR (b = ?1))) AND ((-c) < ?2))",
        [1, 2, 3],
        0,
        ['T1'],
    ),
    (
        "SELECT a FROM T1 WHERE b IS NULL AND c IS NOT NULL",
        "SELECT a FROM T1 WHERE ((b IS NULL) AND (c IS NOT NULL))",
        [],
        0,
        ['T1'],
    ),
    (
        "SELECT a FROM T1 WHERE a BETWEEN 2 AND 8 AND b NOT BETWEEN 1 AND 3",
        "SELECT a FROM T1 WHERE ((a BETWEEN ?0 AND ?1) AND (b NOT BETWEEN ?2 AND ?3))",
        [2, 8, 1, 3],
        0,
        ['T1'],
    ),
    (
        "SELECT a FROM T1 WHERE a IN (1, 2, 3) AND b NOT IN ('x', NULL)",
        "SELECT a FROM T1 WHERE ((a IN (?0, ?1, ?2)) AND (b NOT IN (?3, NULL)))",
        [1, 2, 3, 'x'],
        0,
        ['T1'],
    ),
    (
        "SELECT a FROM T1 WHERE c LIKE 'ab%' AND a + 1 * 2 > 3",
        "SELECT a FROM T1 WHERE ((c LIKE ?0) AND ((a + (?1 * ?2)) > ?3))",
        ['ab%', 1, 2, 3],
        0,
        ['T1'],
    ),
    (
        "SELECT a FROM T1 WHERE ABS(b - 4) > 2 AND COALESCE(c, 0) = 1",
        "SELECT a FROM T1 WHERE ((ABS((b - ?0)) > ?1) AND (COALESCE(c, ?2) = ?3))",
        [4, 2, 0, 1],
        0,
        ['T1'],
    ),
    (
        "SELECT a FROM T1 WHERE CASE WHEN a > 5 THEN b ELSE 7 END = 7",
        "SELECT a FROM T1 WHERE (CASE WHEN (a > ?0) THEN b ELSE ?1 END = ?2)",
        [5, 7, 7],
        0,
        ['T1'],
    ),
    (
        "SELECT a FROM T1 WHERE a IN (SELECT b FROM T2 WHERE c = 3)",
        "SELECT a FROM T1 WHERE (a IN (SELECT b FROM T2 WHERE (c = ?0)))",
        [3],
        0,
        ['T1', 'T2'],
    ),
    (
        "SELECT a FROM T1 WHERE 5 NOT IN (SELECT b FROM T2 WHERE c = 3)",
        "SELECT a FROM T1 WHERE (?0 NOT IN (SELECT b FROM T2 WHERE (c = ?1)))",
        [5, 3],
        0,
        ['T1', 'T2'],
    ),
    (
        "SELECT a FROM T1 WHERE EXISTS (SELECT * FROM T2 WHERE T2.b = T1.a AND T2.c = 8)",
        "SELECT a FROM T1 WHERE (EXISTS (SELECT * FROM T2 WHERE ((T2.b = T1.a) AND (T2.c = ?0))))",
        [8],
        0,
        ['T1', 'T2'],
    ),
    (
        "SELECT a FROM T1 WHERE NOT EXISTS (SELECT * FROM T2 WHERE T2.b = T1.a)",
        "SELECT a FROM T1 WHERE (NOT (EXISTS (SELECT * FROM T2 WHERE (T2.b = T1.a))))",
        [],
        0,
        ['T1', 'T2'],
    ),
    (
        "SELECT a FROM T1 WHERE b > (SELECT AVG(c) FROM T2 WHERE c < 100)",
        "SELECT a FROM T1 WHERE (b > (SELECT AVG(c) FROM T2 WHERE (c < ?0)))",
        [100],
        0,
        ['T1', 'T2'],
    ),
    (
        "SELECT a FROM T1 WHERE a = ? AND b > 4",
        "SELECT a FROM T1 WHERE ((a = ?0) AND (b > ?1))",
        [4],
        1,
        ['T1'],
    ),
    (
        "SELECT a FROM T1 WHERE a = ? AND b IN (SELECT b FROM T2 WHERE c = ? OR c = 6)",
        "SELECT a FROM T1 WHERE ((a = ?0) AND (b IN (SELECT b FROM T2 WHERE ((c = ?1) OR "
        "(c = ?2)))))",
        [6],
        2,
        ['T1', 'T2'],
    ),
    (
        "SELECT T1.a, T2.c FROM T1 JOIN T2 ON T1.a = T2.b AND T2.c > 10",
        "SELECT T1.a, T2.c FROM (T1 INNER JOIN T2 ON ((T1.a = T2.b) AND (T2.c > ?0)))",
        [10],
        0,
        ['T1', 'T2'],
    ),
    (
        "SELECT T1.a FROM T1 LEFT JOIN T2 ON T1.a = T2.b AND T2.c = 'z' WHERE T1.b = 2",
        "SELECT T1.a FROM (T1 LEFT JOIN T2 ON ((T1.a = T2.b) AND (T2.c = ?0))) WHERE (T1.b = ?1)",
        ['z', 2],
        0,
        ['T1', 'T2'],
    ),
    (
        "SELECT d.a FROM (SELECT a FROM T1 WHERE b = 3) AS d, T2 WHERE d.a = T2.b AND T2.c = 4",
        "SELECT d.a FROM (SELECT a FROM T1 WHERE (b = ?0)) AS d, T2 WHERE ((d.a = T2.b) "
        "AND (T2.c = ?1))",
        [3, 4],
        0,
        ['T1', 'T2'],
    ),
    (
        "SELECT x FROM V WHERE x = 11",
        "SELECT x FROM V WHERE (x = ?0)",
        [11],
        0,
        ['T1', 'V'],
    ),
    (
        "SELECT V.x, T3.e FROM V JOIN T3 ON V.x = T3.e WHERE T3.f IN (SELECT c FROM T2 "
        "WHERE b = 1)",
        "SELECT V.x, T3.e FROM (V INNER JOIN T3 ON (V.x = T3.e)) WHERE (T3.f IN (SELECT c "
        "FROM T2 WHERE (b = ?0)))",
        [1],
        0,
        ['T1', 'T2', 'T3', 'V'],
    ),
    (
        "SELECT b, COUNT(*) FROM T1 WHERE a > 2 GROUP BY b HAVING COUNT(*) > 1 ORDER BY 2 DESC",
        "SELECT b, COUNT(*) FROM T1 WHERE (a > ?0) GROUP BY b HAVING (COUNT(*) > 1) ORDER "
        "BY 2 DESC",
        [2],
        0,
        ['T1'],
    ),
    (
        "SELECT b + 1, SUM(a) FROM T1 GROUP BY b + 1 HAVING SUM(a) BETWEEN 1 AND 9",
        "SELECT (b + 1), SUM(a) FROM T1 GROUP BY (b + 1) HAVING (SUM(a) BETWEEN 1 AND 9)",
        [],
        0,
        ['T1'],
    ),
    (
        "SELECT a FROM T1 ORDER BY b DESC, a LIMIT 5 OFFSET 2",
        "SELECT a FROM T1 ORDER BY b DESC, a ASC LIMIT 5 OFFSET 2",
        [],
        0,
        ['T1'],
    ),
    # was wrong: missed the table read only under ORDER BY
    (
        "SELECT a FROM T1 ORDER BY (SELECT COUNT(*) FROM T2 WHERE T2.b = T1.a), a",
        "SELECT a FROM T1 ORDER BY (SELECT COUNT(*) FROM T2 WHERE (T2.b = T1.a)) ASC, a ASC",
        [],
        0,
        ['T1', 'T2'],
    ),
    (
        "SELECT b, COUNT(*) FROM T1 GROUP BY b HAVING COUNT(*) > (SELECT COUNT(*) FROM T2 "
        "WHERE c = 2)",
        "SELECT b, COUNT(*) FROM T1 GROUP BY b HAVING (COUNT(*) > (SELECT COUNT(*) FROM "
        "T2 WHERE (c = 2)))",
        [],
        0,
        ['T1', 'T2'],
    ),
    (
        "SELECT T1.a FROM T1 JOIN T2 ON T1.a = T2.b AND T2.c BETWEEN 1 AND 9 AND T1.d IS "
        "NOT NULL AND T1.e IN (4, 5) AND NOT T1.c LIKE 'q%' AND COALESCE(T2.c, -1) <> "
        "CASE WHEN T1.a > 0 THEN 1 ELSE 2 END AND EXISTS (SELECT * FROM T3 WHERE f = 6)",
        "SELECT T1.a FROM (T1 INNER JOIN T2 ON (((((((T1.a = T2.b) AND (T2.c BETWEEN ?0 "
        "AND ?1)) AND (T1.d IS NOT NULL)) AND (T1.e IN (?2, ?3))) AND (NOT (T1.c LIKE "
        "?4))) AND (COALESCE(T2.c, ?5) <> CASE WHEN (T1.a > ?6) THEN ?7 ELSE ?8 END)) AND "
        "(EXISTS (SELECT * FROM T3 WHERE (f = ?9)))))",
        [1, 9, 4, 5, 'q%', -1, 0, 1, 2, 6],
        0,
        ['T1', 'T2', 'T3'],
    ),
    (
        "SELECT CASE WHEN b > 3 THEN 'hi' ELSE 'lo' END, COUNT(*) FROM T1 GROUP BY CASE "
        "WHEN b > 3 THEN 'hi' ELSE 'lo' END HAVING SUM(a) IN (1, 2) OR MAX(a) IS NULL OR "
        "NOT MIN(a) BETWEEN -1 AND 1",
        "SELECT CASE WHEN (b > 3) THEN 'hi' ELSE 'lo' END, COUNT(*) FROM T1 GROUP BY CASE "
        "WHEN (b > 3) THEN 'hi' ELSE 'lo' END HAVING (((SUM(a) IN (1, 2)) OR (MAX(a) IS "
        "NULL)) OR (NOT (MIN(a) BETWEEN -1 AND 1)))",
        [],
        0,
        ['T1'],
    ),
    (
        "SELECT a, b FROM T1 ORDER BY CASE WHEN b IS NULL THEN 0 ELSE 1 END, -a, ABS(b) DESC",
        "SELECT a, b FROM T1 ORDER BY CASE WHEN (b IS NULL) THEN 0 ELSE 1 END ASC, (-a) "
        "ASC, ABS(b) DESC",
        [],
        0,
        ['T1'],
    ),
    (
        "SELECT a, ? FROM T1 WHERE b = ? AND c = 'k'",
        "SELECT a, ?0 FROM T1 WHERE ((b = ?1) AND (c = ?2))",
        ['k'],
        2,
        ['T1'],
    ),
    (
        "SELECT a FROM T1 WHERE a = 1 UNION SELECT b FROM T2 WHERE c = 2",
        "(SELECT a FROM T1 WHERE (a = ?0)) UNION (SELECT b FROM T2 WHERE (c = ?1))",
        [1, 2],
        0,
        ['T1', 'T2'],
    ),
    (
        "SELECT a FROM T1 WHERE b = 1 UNION ALL SELECT b FROM T2 ORDER BY 1 LIMIT 3",
        "(SELECT a FROM T1 WHERE (b = ?0)) UNION ALL (SELECT b FROM T2) ORDER BY 1 ASC LIMIT 3",
        [1],
        0,
        ['T1', 'T2'],
    ),
    (
        "SELECT a FROM T1 EXCEPT SELECT b FROM T2 WHERE c IN (SELECT e FROM T3 WHERE f = 1)",
        "(SELECT a FROM T1) EXCEPT (SELECT b FROM T2 WHERE (c IN (SELECT e FROM T3 WHERE "
        "(f = ?0))))",
        [1],
        0,
        ['T1', 'T2', 'T3'],
    ),
    (
        "UPDATE T1 SET b = b + 1, c = 'u' WHERE a = 3",
        "UPDATE T1 SET b = (b + ?0), c = ?1 WHERE (a = ?2)",
        [1, 'u', 3],
        0,
        ['T1'],
    ),
    (
        "UPDATE T1 SET b = (SELECT MAX(c) FROM T2 WHERE T2.b = 4) WHERE a IN (SELECT e "
        "FROM T3 WHERE f = 2)",
        "UPDATE T1 SET b = (SELECT MAX(c) FROM T2 WHERE (T2.b = ?0)) WHERE (a IN (SELECT "
        "e FROM T3 WHERE (f = ?1)))",
        [4, 2],
        0,
        ['T1', 'T2', 'T3'],
    ),
    (
        "UPDATE T1 SET b = CASE WHEN a > 2 THEN 1 ELSE NULL END WHERE a BETWEEN 1 AND 5",
        "UPDATE T1 SET b = CASE WHEN (a > ?0) THEN ?1 ELSE NULL END WHERE (a BETWEEN ?2 AND ?3)",
        [2, 1, 1, 5],
        0,
        ['T1'],
    ),
    (
        "UPDATE T1 SET d = COALESCE(d, 0) + 1, e = -e WHERE b IS NOT NULL AND c IN ('p', "
        "'q') AND NOT EXISTS (SELECT * FROM T2 WHERE T2.b = T1.a)",
        "UPDATE T1 SET d = (COALESCE(d, ?0) + ?1), e = (-e) WHERE (((b IS NOT NULL) AND "
        "(c IN (?2, ?3))) AND (NOT (EXISTS (SELECT * FROM T2 WHERE (T2.b = T1.a)))))",
        [0, 1, 'p', 'q'],
        0,
        ['T1', 'T2'],
    ),
    (
        "DELETE FROM T1 WHERE a = 9 AND b IS NULL",
        "DELETE FROM T1 WHERE ((a = ?0) AND (b IS NULL))",
        [9],
        0,
        ['T1'],
    ),
    (
        "DELETE FROM T1 WHERE EXISTS (SELECT * FROM T2 WHERE T2.b = T1.a AND c = 1)",
        "DELETE FROM T1 WHERE (EXISTS (SELECT * FROM T2 WHERE ((T2.b = T1.a) AND (c = ?0))))",
        [1],
        0,
        ['T1', 'T2'],
    ),
    (
        "INSERT INTO T1 (a, b) VALUES (1, 2), (3, 4)",
        "INSERT INTO T1 (a, b) VALUES (1, 2), (3, 4)",
        [],
        0,
        ['T1'],
    ),
    (
        "INSERT INTO T1 (a, b) SELECT b, c FROM T2 WHERE c > 3",
        "INSERT INTO T1 (a, b) SELECT b, c FROM T2 WHERE (c > ?0)",
        [3],
        0,
        ['T1', 'T2'],
    ),
    (
        "INSERT INTO T1 SELECT e, f, NULL FROM T3 WHERE f IN (SELECT c FROM T2 WHERE b = 8)",
        "INSERT INTO T1 SELECT e, f, NULL FROM T3 WHERE (f IN (SELECT c FROM T2 WHERE (b = ?0)))",
        [8],
        0,
        ['T1', 'T2', 'T3'],
    ),
    (
        "INSERT INTO T2 SELECT a, CASE WHEN b BETWEEN 1 AND 2 THEN 1 ELSE NULL END FROM "
        "T1 WHERE c LIKE 'x%' AND a IN (SELECT e FROM T3) AND d IS NULL AND -e < (SELECT "
        "3 FROM T3)",
        "INSERT INTO T2 SELECT a, CASE WHEN (b BETWEEN 1 AND 2) THEN 1 ELSE NULL END FROM "
        "T1 WHERE ((((c LIKE ?0) AND (a IN (SELECT e FROM T3))) AND (d IS NULL)) AND "
        "((-e) < (SELECT 3 FROM T3)))",
        ['x%'],
        0,
        ['T1', 'T2', 'T3'],
    ),
]


@pytest.fixture(scope="module")
def corpus_catalog():
    db = Database()
    db.execute(
        "CREATE TABLE T1 (a INTEGER PRIMARY KEY, b INTEGER, c VARCHAR, d INTEGER, e INTEGER)"
    )
    db.execute("CREATE TABLE T2 (b INTEGER PRIMARY KEY, c INTEGER)")
    db.execute("CREATE TABLE T3 (e INTEGER PRIMARY KEY, f INTEGER)")
    db.execute("CREATE VIEW V AS SELECT a AS x FROM T1 WHERE b > 0")
    return db.catalog


@pytest.mark.parametrize(
    "sql,fingerprint,lifted,n_explicit,objects",
    FINGERPRINT_CORPUS,
    ids=[f"c{i:02d}" for i in range(len(FINGERPRINT_CORPUS))],
)
def test_fingerprint_corpus(corpus_catalog, sql, fingerprint, lifted, n_explicit, objects):
    stmt = _one(sql)
    norm = normalize_statement(stmt)
    assert norm.fingerprint == fingerprint
    assert norm.lifted_values == lifted
    assert norm.n_explicit == n_explicit
    assert sorted(referenced_objects(stmt, corpus_catalog)) == objects


def test_fingerprint_corpus_relation_valued_from(corpus_catalog):
    """Generated-query shapes: the rows of a ``RowsTable`` lift into one slot."""
    delta = ast.RowsTable(["k", "v"], [(1, "a"), (2, "b")], "delta")
    joined = ast.SelectStmt(
        [ast.SelectItem(ast.Star("T2"))],
        [delta, ast.NamedTable("T2")],
        where=ast.BinaryOp(
            "AND",
            ast.BinaryOp("=", ast.ColumnRef("delta", "k"), ast.ColumnRef("T2", "b")),
            ast.BinaryOp(">", ast.ColumnRef("T2", "c"), ast.Literal(0)),
        ),
        distinct=True,
    )
    norm = normalize_statement(joined)
    assert norm.fingerprint == (
        "SELECT DISTINCT T2.* FROM (VALUES ?0) AS delta(k, v), T2 "
        "WHERE ((delta.k = T2.b) AND (T2.c > ?1))"
    )
    assert norm.lifted_values == [[(1, "a"), (2, "b")], 0]
    assert referenced_objects(joined, corpus_catalog) == ["T2"]

    two_sets = ast.SelectStmt(
        [ast.SelectItem(ast.Star())],
        [
            ast.RowsTable(["k"], [(1,), (2,)], "src"),
            ast.Join(
                "INNER",
                ast.RowsTable(["k"], [(3,)], "dst"),
                ast.NamedTable("T1"),
                ast.BinaryOp("=", ast.ColumnRef("dst", "k"), ast.ColumnRef("T1", "a")),
            ),
        ],
        where=ast.BinaryOp("=", ast.ColumnRef("src", "k"), ast.ColumnRef("dst", "k")),
    )
    norm = normalize_statement(two_sets)
    assert norm.fingerprint == (
        "SELECT * FROM (VALUES ?0) AS src(k), ((VALUES ?1) AS dst(k) INNER JOIN T1 "
        "ON (dst.k = T1.a)) WHERE (src.k = dst.k)"
    )
    assert norm.lifted_values == [[(1,), (2,)], [(3,)]]
    assert referenced_objects(two_sets, corpus_catalog) == ["T1"]


# ---------------------------------------------------------------------------
# Token-keyed templates: a cached statement skips the parser
# ---------------------------------------------------------------------------


def _corpus_db(**kwargs):
    db = Database(**kwargs)
    db.execute(
        "CREATE TABLE T1 (a INTEGER PRIMARY KEY, b INTEGER, c VARCHAR, d INTEGER, e INTEGER)"
    )
    db.execute("CREATE TABLE T2 (b INTEGER PRIMARY KEY, c INTEGER)")
    db.execute("CREATE TABLE T3 (e INTEGER PRIMARY KEY, f INTEGER)")
    db.execute("CREATE VIEW V AS SELECT a AS x FROM T1 WHERE b > 0")
    db.execute(
        "INSERT INTO T1 VALUES (1, 1, 'x1', 2, 3), (2, 5, 'it''s', NULL, 1), "
        "(3, -5, NULL, 1, 2), (4, 2, 'xy', 0, 5)"
    )
    db.execute("INSERT INTO T2 VALUES (1, 4), (2, 9), (5, 6)")
    db.execute("INSERT INTO T3 VALUES (1, 1), (2, 0), (3, 7)")
    return db


class _ParseCounter:
    """Counts calls of the engine's ``parse_statements`` (the hit path must
    make none)."""

    def __init__(self, monkeypatch):
        self.calls = 0
        real = engine_module.parse_statements

        def counted(sql, *literal_tokens):
            self.calls += 1
            return real(sql, *literal_tokens)

        monkeypatch.setattr(engine_module, "parse_statements", counted)


def remember(cache, sql):
    """Keep the template of *sql*, derived as the engine derives it: from
    the literal tokens its parse recorded."""
    scanned = scan_statement(sql)
    literal_tokens = {}
    (stmt,) = parse_statements(sql, literal_tokens)
    cache.remember(scanned, lambda: sql_template(scanned, stmt, literal_tokens))


def _typed(values):
    return [(type(value), value) for value in values]


def _assert_template_is_tree(db, sql):
    """The template the token path uses for *sql* derives exactly what
    parse + normalize derive from it."""
    matched = db.plan_cache.match(scan_statement(sql))
    assert matched is not None, sql
    template, values = matched
    tree = normalize_statement(_one(sql))
    assert template.compiled.fingerprint == tree.fingerprint
    assert _typed(values) == _typed(tree.lifted_values)
    assert template.compiled.n_explicit == tree.n_explicit == 0


#: (recorded text, then a text with the same tokens but other literals,
#: and whether that one is a token hit: a differing kept literal is not)
TOKEN_CASES = [
    ("SELECT a FROM T1 WHERE b = 1", "SELECT a FROM T1 WHERE b = 5", True),
    ("SELECT a FROM T1 WHERE b = -5", "SELECT a FROM T1 WHERE b = -1", True),
    ("SELECT a FROM T1 WHERE b = - -5", "SELECT a FROM T1 WHERE b = - -1", True),
    ("SELECT a FROM T1 WHERE b = -(5)", "SELECT a FROM T1 WHERE b = -(2)", True),
    ("SELECT a FROM T1 WHERE b < 1e3", "SELECT a FROM T1 WHERE b < 2E-1", True),
    ("SELECT a FROM T1 WHERE b < .5", "SELECT a FROM T1 WHERE b < 7", True),
    ("SELECT a FROM T1 WHERE b < 7", "SELECT a FROM T1 WHERE b < 7.0", True),
    ("SELECT a FROM T1 WHERE c = 'it''s'", "SELECT a FROM T1 WHERE c = 'x1'", True),
    ("SELECT a FROM T1 WHERE c = ''", "SELECT a FROM T1 WHERE c = 'xy'", True),
    ("SELECT a FROM T1 WHERE 1 = 1", "SELECT a FROM T1 WHERE '1' = '1'", False),
    ("SELECT a FROM T1 WHERE b IN (1)", "SELECT a FROM T1 WHERE b IN (5)", True),
    ("SELECT a FROM T1 WHERE b IN (1, 2)", "SELECT a FROM T1 WHERE b IN (5, 5)", True),
    ("SELECT a FROM T1 WHERE b IN (1, 2, 5)", "SELECT a FROM T1 WHERE b IN (5, 2, 9)", True),
    ("SELECT a FROM T1 WHERE b = 1 LIMIT 2", "SELECT a FROM T1 WHERE b = 2 LIMIT 2", True),
    ("SELECT a FROM T1 WHERE b = 1 LIMIT 2", "SELECT a FROM T1 WHERE b = 1 LIMIT 3", False),
    (
        "SELECT a FROM T1 ORDER BY a LIMIT 2 OFFSET 1",
        "SELECT a FROM T1 ORDER BY a LIMIT 2 OFFSET 2",
        False,
    ),
    ("SELECT a, b FROM T1 ORDER BY 2", "SELECT a, b FROM T1 ORDER BY 1", False),
    ("SELECT a, 1, 'x' FROM T1 WHERE b > 0", "SELECT a, 1, 'x' FROM T1 WHERE b > 3", True),
    ("SELECT a, 1 FROM T1 WHERE b > 0", "SELECT a, 2 FROM T1 WHERE b > 0", False),
    (
        "SELECT b + 1, COUNT(*) FROM T1 WHERE a > 0 GROUP BY b + 1 HAVING COUNT(*) > 0",
        "SELECT b + 1, COUNT(*) FROM T1 WHERE a > 1 GROUP BY b + 1 HAVING COUNT(*) > 0",
        True,
    ),
    (
        "SELECT b, COUNT(*) FROM T1 GROUP BY b HAVING COUNT(*) > 0",
        "SELECT b, COUNT(*) FROM T1 GROUP BY b HAVING COUNT(*) > 1",
        False,
    ),
    ("SELECT a FROM T1 WHERE c IS NULL", "SELECT a FROM T1 WHERE c IS NULL", True),
    ("SELECT a FROM T1 WHERE d = NULL OR b = 1", "SELECT a FROM T1 WHERE d = NULL OR b = 2", True),
    ("SELECT a FROM T1 WHERE (b > 0) = TRUE", "SELECT a FROM T1 WHERE (b > 1) = TRUE", True),
    ("SELECT a FROM T1 WHERE (b > 0) = TRUE", "SELECT a FROM T1 WHERE (b > 0) = FALSE", False),
    (
        "SELECT a FROM T1 WHERE CASE b WHEN 1 THEN 'p' ELSE 'q' END = 'p'",
        "SELECT a FROM T1 WHERE CASE b WHEN 5 THEN 'p' ELSE 'q' END = 'q'",
        True,
    ),
    (
        "SELECT a -- the key\nFROM T1 /* any */ WHERE b = 1",
        "SELECT a -- other words\nFROM T1 /* differ */ WHERE b = 5",
        True,
    ),
    ("select a from T1 where b = 1", "select a from T1 where b = 5", True),
    ("select a from T1 where b = 1", "SELECT a FROM T1 WHERE b = 5", False),
    ("SELECT a FROM T1 WHERE b = 1;", "SELECT a FROM T1 WHERE b = 5;", True),
    ("SELECT a FROM T1 WHERE b = 1;", "SELECT a FROM T1 WHERE b = 5", False),
    ('SELECT "a" FROM T1 WHERE b = 1', 'SELECT "a" FROM T1 WHERE b = 5', True),
    (
        "SELECT x FROM V WHERE x IN (SELECT e FROM T3 WHERE f > 0) UNION SELECT 9 FROM T2",
        "SELECT x FROM V WHERE x IN (SELECT e FROM T3 WHERE f > 6) UNION SELECT 9 FROM T2",
        True,
    ),
    ("UPDATE T1 SET d = 7, c = 'u' WHERE a = 1", "UPDATE T1 SET d = 8, c = 'v' WHERE a = 2", True),
    ("DELETE FROM T2 WHERE c > 8", "DELETE FROM T2 WHERE c > 100", True),
    # a zero cannot show a folded minus sign: the parser tells it
    ("SELECT a FROM T1 WHERE b > -0", "SELECT a FROM T1 WHERE b > -5", True),
    ("SELECT a FROM T1 WHERE b > - -0.0", "SELECT a FROM T1 WHERE b > - -2.5", True),
]


@pytest.mark.parametrize(
    "first,second,hit", TOKEN_CASES, ids=[f"t{i:02d}" for i in range(len(TOKEN_CASES))]
)
def test_token_path_equals_tree_path(monkeypatch, first, second, hit):
    reference = _corpus_db(plan_cache_capacity=0)
    expected = [reference.execute(sql).rows for sql in (first, first, second)]
    db = _corpus_db()
    parses = _ParseCounter(monkeypatch)
    assert db.execute(first).rows == expected[0]
    assert parses.calls == 1
    assert db.execute(first).rows == expected[1]
    assert parses.calls == 1 and db.plan_cache.stats()["token_lookups"] == 1
    _assert_template_is_tree(db, first)
    assert db.execute(second).rows == expected[2]
    assert parses.calls == (1 if hit else 2)
    _assert_template_is_tree(db, second)


@pytest.mark.parametrize(
    "sql", [entry[0] for entry in FINGERPRINT_CORPUS],
    ids=[f"c{i:02d}" for i in range(len(FINGERPRINT_CORPUS))],
)
def test_fingerprint_corpus_token_path(sql):
    """Every corpus statement the engine keeps a template of is recognised
    from its tokens as exactly what the tree path makes of it."""
    stmt = _one(sql)
    tree = normalize_statement(stmt)
    cache = PlanCache()
    if tree.n_explicit or not isinstance(stmt, Database._TEMPLATED):
        return  # ``?`` statements and INSERTs always take the tree path
    remember(cache, sql)
    assert cache.stats()["templates"] == 1
    matched = cache.match(scan_statement(sql))
    assert matched is not None
    assert matched[0].compiled.fingerprint == tree.fingerprint
    assert _typed(matched[1]) == _typed(tree.lifted_values)


class TestTemplates:
    def test_statements_that_always_parse(self, monkeypatch, tdb):
        parses = _ParseCounter(monkeypatch)
        for sql in [
            "SELECT id FROM T WHERE id = 1; SELECT id FROM T WHERE id = 2",
            "INSERT INTO T VALUES (9, 9, 9)",
            "EXPLAIN SELECT id FROM T WHERE id = 1",
            "CREATE INDEX ix_val ON T (val)",
        ]:
            tdb.execute(sql)
        assert parses.calls == 4
        assert tdb.plan_cache.stats()["templates"] == 0
        tdb.execute("DROP INDEX ix_val")
        tdb.execute("DELETE FROM T WHERE id = 9")
        tdb.execute("DELETE FROM T WHERE id = 9")
        assert parses.calls == 6

    def test_explicit_parameters_always_parse(self, monkeypatch, tdb):
        parses = _ParseCounter(monkeypatch)
        for _ in range(2):
            with pytest.raises(SQLError, match="use Database.prepare"):
                tdb.execute("SELECT id FROM T WHERE id = ?")
        assert parses.calls == 2 and tdb.plan_cache.stats()["templates"] == 0

    def test_literal_kind_is_part_of_a_folded_slot(self):
        cache = PlanCache()
        sql = "SELECT a FROM T WHERE b = -1"
        remember(cache, sql)
        assert cache.match(scan_statement("SELECT a FROM T WHERE b = -7"))[1] == [-7]
        assert cache.match(scan_statement("SELECT a FROM T WHERE b = -'1'")) is None
        assert cache.match(scan_statement("SELECT a FROM T WHERE b = -1 -")) is None

    def test_a_rejected_shape_is_not_derived_again(self):
        """A text whose template is rejected keeps a marker in its key's
        place: later texts of its shape compile, but no template is derived
        for them again."""
        cache = PlanCache()
        derived = []

        def reject(sql):
            derived.append(sql)
            return None

        for n in (1, 2, 3):
            sql = f"SELECT a FROM T WHERE b = {n}"
            cache.remember(scan_statement(sql), lambda: reject(sql))
            assert cache.match(scan_statement(sql)) is None
        assert len(derived) == 1
        assert cache.stats()["templates"] == 1  # the marker holds an LRU slot

    def test_token_template_keeps_tokens_it_cannot_trust(self):
        """A template from the parser's literal tokens: a pinned token is
        kept whatever it feeds, and so is a token whose value a slot no
        token was reported for holds (that slot may be a copy of it)."""
        sql = "SELECT a FROM T WHERE b = 5 AND c = 6 AND d = 5"
        scanned = scan_statement(sql)
        tree = normalize_statement(_one(sql))
        five, six, five_again = [pos for pos, lexeme in enumerate(scanned[3]) if lexeme]
        template = token_template(scanned, tree, [five, six, five_again], set())
        assert (template.kept, template.slots) == ((), ((five, 1), (six, 1), (five_again, 1)))
        template = token_template(scanned, tree, [five, six, five_again], {six})
        assert template.kept == ((six, "6"),)
        assert template.slots == ((five, 1), (-1, 6), (five_again, 1))
        # the first slot may copy either 5: both are kept
        template = token_template(scanned, tree, [None, six, five_again], set())
        assert template.kept == ((five, "5"), (five_again, "5"))
        assert template.slots == ((-1, 5), (six, 1), (-1, 5))

    def test_zero_capacity_and_analyze_mode_always_parse(self, monkeypatch):
        db = Database(plan_cache_capacity=0)
        db.execute("CREATE TABLE T (id INTEGER PRIMARY KEY)")
        parses = _ParseCounter(monkeypatch)
        for _ in range(2):
            db.execute("SELECT id FROM T WHERE id = 1")
        assert parses.calls == 2 and db.plan_cache.stats()["templates"] == 0

    def test_templates_bounded_by_capacity_and_cleared(self):
        db = Database(plan_cache_capacity=3)
        db.execute("CREATE TABLE T (id INTEGER PRIMARY KEY, v INTEGER)")
        for limit in range(1, 6):
            db.execute(f"SELECT id FROM T WHERE v = 1 LIMIT {limit}")
            db.execute(f"SELECT v FROM T WHERE id = {limit}")
        assert db.plan_cache.stats()["templates"] == 3
        db.plan_cache.clear()
        assert db.plan_cache.stats()["templates"] == 0
        db.execute("SELECT v FROM T WHERE id = 1")
        assert db.plan_cache.invalidate_all() == 1
        assert db.plan_cache.stats()["templates"] == 0

    def test_hit_keeps_plan_cache_validation(self, tdb):
        tdb.execute("SELECT val FROM T WHERE id = 1")
        tdb.execute("CREATE INDEX ix_val ON T (val)")
        before = tdb.plan_cache.stats()
        assert tdb.execute("SELECT val FROM T WHERE id = 2").rows == [(20,)]
        after = tdb.plan_cache.stats()
        assert after["token_lookups"] == before["token_lookups"] + 1
        assert after["invalidations"] == before["invalidations"] + 1
        assert after["misses"] == before["misses"] + 1

    def test_hit_bookkeeping_matches_tree_path(self, tdb):
        tdb.execute("SELECT val FROM T WHERE id = 1")
        executed = tdb.statements_executed
        tdb.execute("SELECT val FROM T WHERE id = 2")
        assert tdb.statements_executed == executed + 1
        stat = tdb.statement_stats.get("SELECT val FROM T WHERE (id = ?0)")
        assert stat.calls == 2 and stat.plan_cache_hits == 1
        # a hit is one statement span: no parse, no compile, no execute child
        root = tdb.tracer.last_trace
        assert root.name == "sql.select" and not root.children
        assert root.attrs["plan_cache"] == "hit"
        assert root.attrs["fingerprint"] == stat.fingerprint
        assert root.attrs["sql"] == "SELECT val FROM T WHERE id = 2"

    def test_slow_log_renders_the_statement(self):
        db = Database(slow_query_threshold_s=0.0)
        db.execute("CREATE TABLE T (id INTEGER PRIMARY KEY)")
        db.execute("SELECT id FROM T WHERE id = 1")
        db.execute("SELECT id FROM T WHERE id = 2")
        assert db.plan_cache.stats()["token_lookups"] == 1
        assert db.slow_query_log.entries()[-1].sql == "SELECT id FROM T WHERE (id = 2)"

    def test_explain_footer_counts_token_lookups(self, tdb):
        tdb.execute("SELECT val FROM T WHERE id = 1")
        tdb.execute("SELECT val FROM T WHERE id = 3")
        assert tdb.explain("SELECT val FROM T").endswith("token_lookups=1")


_BAG_ROWS = 320


def _render(value):
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return "NULL" if value is None else repr(value)


@pytest.fixture(scope="module")
def bag_dbs():
    """R with 320 rows, NULLs and quotes in it; cached and cache-less."""
    words = ["a", "b", "it's", ""]
    rows = ", ".join(
        "(" + ", ".join(map(_render, (
            i,
            i % 23 - 11,
            None if i % 17 == 0 else round((i * 0.37) % 9 - 4, 2),
            f"{words[i % 4]}{i % 5}",
        ))) + ")"
        for i in range(1, _BAG_ROWS + 1)
    )
    dbs = []
    for capacity in (256, 0):
        db = Database(plan_cache_capacity=capacity)
        db.execute("CREATE TABLE R (id INTEGER PRIMARY KEY, a INTEGER, f FLOAT, s VARCHAR)")
        db.execute(f"INSERT INTO R VALUES {rows}")
        db.execute("CREATE INDEX ix_r_a ON R (a)")
        db.execute("ANALYZE")
        dbs.append(db)
    return dbs


_numbers = st.one_of(
    st.integers(-15, 15),
    st.floats(-6, 6, allow_nan=False).map(lambda v: round(v, 3)),
    st.sampled_from([1e3, -2.5e-1, 0.5]),
)
_strings = st.sampled_from(["a1", "it's", "", "b3", "''", "it's2"])

#: statement shapes over R: ``{}`` is a literal (n number, s string); the
#: prepared twin has ``?`` there
_BAG_SHAPES = [
    ("SELECT id, f FROM R WHERE a = {}", "n"),
    ("SELECT id FROM R WHERE a BETWEEN {} AND {} AND s <> {}", "nns"),
    ("SELECT a, COUNT(*), SUM(f) FROM R WHERE f > {} GROUP BY a", "n"),
    ("SELECT id FROM R WHERE a IN ({}, {}) OR s = {}", "nns"),
    ("SELECT id FROM R WHERE a = - {} OR f < - - {}", "nn"),
    ("SELECT id, s FROM R WHERE f <= {} ORDER BY id LIMIT 7", "n"),
    ("SELECT R.id FROM R, R AS Q WHERE R.a = Q.id AND Q.f > {} AND R.s < {}", "ns"),
]


def _bag(rows):
    return sorted(
        rows,
        key=lambda row: [(v is None, str(type(v)), 0 if v is None else v) for v in row],
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_literal_prepared_and_cache_hit_agree(bag_dbs, data):
    """Literal text, its ``prepare()`` twin and a token-path re-execution
    return the same bag as an engine without a plan cache."""
    cached, uncached = bag_dbs
    shape, kinds = data.draw(st.sampled_from(_BAG_SHAPES))
    values = [data.draw(_numbers if kind == "n" else _strings) for kind in kinds]
    literal = shape.format(*map(_render, values))
    expected = _bag(uncached.execute(literal).rows)
    assert _bag(cached.execute(literal).rows) == expected
    twin = cached.prepare(shape.replace("{}", "?"))
    assert _bag(twin.execute(values).rows) == expected
    lookups = cached.plan_cache.stats()["token_lookups"]
    assert _bag(cached.execute(literal).rows) == expected
    assert cached.plan_cache.stats()["token_lookups"] == lookups + 1
