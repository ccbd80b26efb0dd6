"""SYS_* virtual system tables: the queryable catalog (ISSUE 5 tentpole).

Covers the acceptance query, JOIN/aggregate/filter over SYS tables, the
read-only write-path protections, and the satellite (a) stale-snapshot
regression: a cached plan over a SYS table must re-pull live data on
every execution while still *hitting* the plan cache.
"""

import pytest

from repro.errors import CatalogError
from repro.relational.engine import Database
from repro.relational.systables import SYS_TABLE_NAMES


@pytest.fixture
def warm_db():
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
    for i in range(12):
        db.execute(f"INSERT INTO t VALUES ({i}, {i % 3})")
    for i in range(12):  # one fingerprint, 12 calls (literals normalize)
        db.execute(f"SELECT * FROM t WHERE b = {i % 3}")
    db.execute("SELECT count(*) FROM t")
    return db


class TestInstallation:
    def test_all_sys_tables_resolvable(self, db):
        for name in SYS_TABLE_NAMES:
            assert db.catalog.has_table(name)
            assert db.catalog.is_virtual(name)
            result = db.execute(f"SELECT * FROM {name}")
            assert result.columns  # schema exposed like any table

    def test_user_table_name_collision_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE SYS_STAT_WAL (a INTEGER)")

    def test_sys_tables_cannot_be_dropped(self, db):
        with pytest.raises(CatalogError, match="system table"):
            db.catalog.drop_table("SYS_STAT_BUFFER")

    def test_write_paths_rejected(self, db):
        with pytest.raises(CatalogError, match="read-only"):
            db.execute("INSERT INTO SYS_STAT_LOCKS VALUES (1, 2, 3, 4)")
        with pytest.raises(CatalogError, match="read-only"):
            db.execute("DELETE FROM SYS_TRACE_SPANS")
        with pytest.raises(CatalogError, match="read-only"):
            db.execute("UPDATE SYS_STAT_LOCKS SET held = 0")


class TestAcceptanceQuery:
    def test_statement_stats_through_plain_sql(self, warm_db):
        result = warm_db.execute(
            "SELECT fingerprint, calls, mean_ms FROM SYS_STAT_STATEMENTS "
            "ORDER BY mean_ms DESC"
        )
        assert result.columns == ["fingerprint", "calls", "mean_ms"]
        assert len(result.rows) > 2
        fingerprints = [row[0] for row in result.rows]
        assert "SELECT * FROM t WHERE (b = ?0)" in fingerprints
        means = [row[2] for row in result.rows]
        assert means == sorted(means, reverse=True)
        # the 12 identical INSERTs collapse onto one fingerprint
        insert_rows = [r for r in result.rows if r[0].startswith("INSERT")]
        assert sum(r[1] for r in insert_rows) == 12

    def test_quantile_columns_populated(self, warm_db):
        row = warm_db.execute(
            "SELECT calls, p50_ms, p95_ms, p99_ms, max_ms "
            "FROM SYS_STAT_STATEMENTS WHERE calls >= 12"
        ).rows[0]
        calls, p50, p95, p99, mx = row
        assert p50 is not None and p50 > 0
        assert p50 <= p95 <= p99
        assert p99 <= mx * 1.001

    def test_stat_tables_and_indexes(self, warm_db):
        warm_db.execute("CREATE INDEX idx_t_b ON t (b)")
        rows = warm_db.execute(
            "SELECT table_name, row_count, index_count FROM SYS_STAT_TABLES"
        ).rows
        assert ("T", 12, 1) in rows
        idx = warm_db.execute(
            "SELECT index_name, key_columns FROM SYS_STAT_INDEXES "
            "WHERE table_name = 'T'"
        ).rows
        assert len(idx) == 1
        assert idx[0][1] == "b"

    def test_joins_and_aggregates_over_sys_tables(self, warm_db):
        # JOIN two SYS tables: statements with their spans by fingerprint.
        rows = warm_db.execute(
            "SELECT s.fingerprint, sp.name "
            "FROM SYS_STAT_STATEMENTS s "
            "JOIN SYS_TRACE_SPANS sp ON s.fingerprint = sp.fingerprint "
            "WHERE s.calls >= 1"
        ).rows
        assert any(name == "sql.select" for _, name in rows)
        # aggregate
        total = warm_db.execute(
            "SELECT sum(calls) FROM SYS_STAT_STATEMENTS"
        ).rows[0][0]
        assert total >= 14

    def test_trace_spans_parent_child(self, warm_db):
        rows = warm_db.execute(
            "SELECT child.name FROM SYS_TRACE_SPANS parent "
            "JOIN SYS_TRACE_SPANS child "
            "ON child.parent_span_id = parent.span_id "
            "WHERE parent.name = 'sql.select'"
        ).rows
        names = {name for (name,) in rows}
        assert {"optimize", "execute"} <= names


class TestVolatility:
    def test_cached_sys_plan_repulls_live_data(self, warm_db):
        """Satellite (a): the stale-snapshot regression test.

        Two executions of the same SYS query must see *different* live
        data (stats grew in between) while the second execution *hits*
        the plan cache — proving snapshotting happens at scan time, not
        plan-build time.
        """
        query = "SELECT sum(calls) FROM SYS_STAT_STATEMENTS"
        first = warm_db.execute(query).rows[0][0]
        warm_db.execute("SELECT * FROM t")  # grow the stats between runs
        before = warm_db.plan_cache.stats()
        second = warm_db.execute(query).rows[0][0]
        after = warm_db.plan_cache.stats()
        assert after["hits"] == before["hits"] + 1, "plan was not cached"
        # first run + the extra select + second run itself have landed
        assert second > first

    def test_sys_plans_marked_volatile(self, warm_db):
        warm_db.execute("SELECT * FROM SYS_STAT_BUFFER")
        warm_db.execute("SELECT flushes FROM SYS_STAT_WAL")
        assert warm_db.plan_cache.stats()["volatile_entries"] >= 2

    def test_wide_row_tables_track_live_counters(self, warm_db):
        flushes0 = warm_db.execute("SELECT flushes FROM SYS_STAT_WAL").rows[0][0]
        for i in range(5):
            warm_db.execute(f"INSERT INTO t VALUES ({100 + i}, 0)")
        flushes1 = warm_db.execute("SELECT flushes FROM SYS_STAT_WAL").rows[0][0]
        assert flushes1 > flushes0

    def test_analyze_sys_table_snapshots_stats(self, warm_db):
        warm_db.execute("ANALYZE SYS_STAT_STATEMENTS")
        stats = warm_db.catalog.get_table("SYS_STAT_STATEMENTS").stats
        assert stats.analyzed
        assert stats.row_count > 0
