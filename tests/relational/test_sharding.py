"""Sharded tables: routing, shard views, repartitioning, observability.

A :class:`ShardedTable` must be indistinguishable from a plain heap table
through the SQL surface (same rows, same index behaviour, same MVCC
visibility) while exposing its partitioning through SYS_SHARDS and the
read-only per-shard views.
"""

import pytest

from repro.errors import CatalogError, ExecutionError, ReproError
from repro.relational.engine import Database
from repro.relational.storage.sharded import PartitionSpec, _stable_hash


def _parts_db(shards=0, rows=40, **kwargs):
    # pass shards through verbatim: an explicit 0 must stay unsharded even
    # when the REPRO_SHARDS leg forces a default for plain Database()
    db = Database(shards=shards, **kwargs)
    db.execute(
        "CREATE TABLE P (pid INTEGER PRIMARY KEY, grp VARCHAR, v INTEGER)"
    )
    table = db.catalog.get_table("P")
    table.insert_many(
        [(i, f"g{i % 3}", i * 10) for i in range(1, rows + 1)]
    )
    db.execute("ANALYZE")
    return db


def _rows(db, sql):
    return sorted(db.execute(sql).rows)


class TestPartitionSpec:
    def test_hash_routing_is_stable_and_total(self):
        spec = PartitionSpec("hash", "pid", 4)
        spec.bind({"pid": 0})
        for value in (0, 1, 17, -3, None, "abc", 2.5, True):
            assert 0 <= spec.route_value(value) < 4
        assert _stable_hash("abc") == _stable_hash("abc")

    def test_range_routing_uses_bounds(self):
        spec = PartitionSpec("range", "x", 3, bounds=[10, 20])
        spec.bind({"x": 0})
        assert spec.route_value(5) == 0
        assert spec.route_value(10) == 1  # bounds are [low, high)
        assert spec.route_value(19) == 1
        assert spec.route_value(20) == 2
        assert spec.route_value(None) == 0
        assert spec.range_of(0) == (None, 10)
        assert spec.range_of(1) == (10, 20)
        assert spec.range_of(2) == (20, None)

    def test_spec_validation(self):
        with pytest.raises(CatalogError):
            PartitionSpec("round-robin", "x", 2)
        with pytest.raises(CatalogError):
            PartitionSpec("hash", "x", 1)
        with pytest.raises(CatalogError):
            PartitionSpec("range", "x", 3, bounds=[1])


class TestShardedSQLEquivalence:
    """The same SQL must return the same rows sharded or not."""

    QUERIES = [
        "SELECT * FROM P",
        "SELECT pid, v FROM P WHERE v > 150",
        "SELECT grp, COUNT(*), SUM(v) FROM P GROUP BY grp",
        "SELECT * FROM P WHERE pid = 7",
        "SELECT a.pid, b.pid FROM P a, P b WHERE a.pid = b.v / 10 AND a.grp = 'g1'",
        "SELECT * FROM P ORDER BY v DESC LIMIT 5",
    ]

    def test_query_equivalence(self):
        plain = _parts_db(shards=0)
        sharded = _parts_db(shards=4)
        assert sharded.catalog.get_table("P").is_sharded
        for sql in self.QUERIES:
            assert _rows(plain, sql) == _rows(sharded, sql), sql

    def test_dml_equivalence(self):
        plain = _parts_db(shards=0)
        sharded = _parts_db(shards=3)
        for db in (plain, sharded):
            db.execute("UPDATE P SET v = v + 1 WHERE pid <= 10")
            db.execute("DELETE FROM P WHERE grp = 'g2'")
            db.execute("INSERT INTO P VALUES (999, 'g9', -1)")
        assert _rows(plain, "SELECT * FROM P") == _rows(sharded, "SELECT * FROM P")

    def test_pk_violation_still_enforced(self):
        db = _parts_db(shards=4)
        with pytest.raises(ReproError):
            db.execute("INSERT INTO P VALUES (1, 'dup', 0)")

    def test_skewed_partition_all_rows_one_shard(self):
        db = Database()
        db.execute("CREATE TABLE S (k INTEGER PRIMARY KEY, v INTEGER)")
        db.repartition("S", 4, kind="range", column="k", bounds=[1000, 2000, 3000])
        table = db.catalog.get_table("S")
        table.insert_many([(i, i) for i in range(50)])  # all route to shard 0
        assert table.heap.shards[0].row_count == 50
        assert sum(s.row_count for s in table.heap.shards[1:]) == 0
        assert _rows(db, "SELECT * FROM S") == [(i, i) for i in range(50)]


class TestShardViews:
    def test_views_partition_the_facade(self):
        db = _parts_db(shards=4)
        table = db.catalog.get_table("P")
        union = []
        for i in range(4):
            view_rows = db.execute(f"SELECT * FROM {table.shard_view_name(i)}").rows
            union.extend(view_rows)
        assert sorted(union) == _rows(db, "SELECT * FROM P")

    def test_views_are_read_only(self):
        db = _parts_db(shards=2)
        with pytest.raises(ReproError):
            db.execute("INSERT INTO P__S0 VALUES (777, 'x', 0)")
        with pytest.raises(ReproError):
            db.execute("DELETE FROM P__S1")
        with pytest.raises(CatalogError):
            db.catalog.get_table("P__S0").add_index("bad", ["pid"])

    def test_drop_refused_on_view_and_cascades_from_parent(self):
        db = _parts_db(shards=2)
        with pytest.raises(CatalogError):
            db.catalog.drop_table("P__S0")
        db.execute("DROP TABLE P")
        for name in ("P", "P__S0", "P__S1"):
            with pytest.raises(CatalogError):
                db.catalog.get_table(name)

    def test_views_hidden_from_sys_tables(self):
        db = _parts_db(shards=2)
        names = [
            r[0]
            for r in db.execute("SELECT table_name FROM SYS_STAT_TABLES").rows
        ]
        assert "P" in names
        assert not any("__S" in n for n in names)


class TestSysShards:
    def test_rows_and_zone_bounds(self):
        db = _parts_db(shards=4, rows=100)
        rows = db.execute(
            "SELECT shard, kind, partition_column, row_count FROM SYS_SHARDS "
            "WHERE table_name = 'P' ORDER BY shard"
        ).rows
        assert [r[0] for r in rows] == [0, 1, 2, 3]
        assert all(r[1] == "hash" and r[2] == "pid" for r in rows)
        assert sum(r[3] for r in rows) == 100

    def test_unsharded_db_has_no_shard_rows(self):
        db = _parts_db(shards=0)
        assert db.execute("SELECT * FROM SYS_SHARDS").rows == []


class TestRepartition:
    def test_roundtrip_preserves_rows_and_indexes(self):
        db = _parts_db(shards=0)
        db.execute("CREATE INDEX idx_p_v ON P (v)")
        before = _rows(db, "SELECT * FROM P")
        db.repartition("P", 4)
        table = db.catalog.get_table("P")
        assert table.is_sharded
        assert _rows(db, "SELECT * FROM P") == before
        assert "idx_p_v" in table.indexes
        assert f"pk_P" in table.indexes  # PK index rebuilt by create_table
        # and back to a plain heap
        db.repartition("P", 1)
        assert not db.catalog.get_table("P").is_sharded
        assert _rows(db, "SELECT * FROM P") == before

    def test_range_derives_equi_depth_bounds(self):
        db = _parts_db(shards=0, rows=100)
        db.repartition("P", 4, kind="range", column="v")
        table = db.catalog.get_table("P")
        counts = [s.row_count for s in table.heap.shards]
        assert sum(counts) == 100
        assert max(counts) - min(counts) <= 2  # near equi-depth

    def test_guards(self):
        db = _parts_db(shards=0)
        db.execute("BEGIN")
        with pytest.raises(ReproError):
            db.repartition("P", 2)
        db.execute("ROLLBACK")
        with pytest.raises(CatalogError):
            db.repartition("SYS_TABLES", 2)


class TestAutoSharding:
    def test_database_kwarg_shards_ddl(self):
        db = Database(shards=4)
        db.execute("CREATE TABLE T (a INTEGER PRIMARY KEY, b VARCHAR)")
        table = db.catalog.get_table("T")
        assert table.is_sharded
        assert table.partition.kind == "hash"
        assert table.partition.column.lower() == "a"

    def test_env_var_enables_sharding(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "3")
        db = Database()
        db.execute("CREATE TABLE T (a INTEGER PRIMARY KEY)")
        assert db.catalog.get_table("T").is_sharded

    def test_disk_backed_databases_never_autoshard(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "4")
        from repro.relational.storage.disk import DiskManager

        db = Database(disk=DiskManager(4096))
        db.execute("CREATE TABLE T (a INTEGER PRIMARY KEY)")
        assert not db.catalog.get_table("T").is_sharded

    @pytest.mark.parametrize("durable", ["disk", "wal"])
    def test_explicit_shards_on_durable_database_raise(self, durable):
        # sharded heaps are memory-only: asking for them explicitly next to
        # a disk or WAL must fail loudly, not hand back unsharded tables
        from repro.relational.storage.disk import DiskManager

        volatile = Database(shards=0)
        storage = {
            "disk": {"disk": DiskManager(4096)},
            "wal": {"wal": volatile.txn_manager.wal},
        }[durable]
        with pytest.raises(ExecutionError, match="memory-only"):
            Database(shards=4, **storage)
        # shards < 2 means unsharded and stays legal on durable databases
        assert Database(shards=0, **storage).default_shards == 0


class TestShardedMVCC:
    def test_snapshot_visibility_on_sharded_table(self):
        db = _parts_db(shards=4, mvcc=True)
        s1 = db.connect()
        s2 = db.connect()
        with s1._activate():
            db.execute("BEGIN")
            before = sorted(db.execute("SELECT * FROM P").rows)
        with s2._activate():
            db.execute("INSERT INTO P VALUES (500, 'late', 1)")
            db.execute("UPDATE P SET v = -5 WHERE pid = 1")
        with s1._activate():
            # snapshot taken before s2's writes: still the old image
            assert sorted(db.execute("SELECT * FROM P").rows) == before
            db.execute("COMMIT")
        with s1._activate():
            after = sorted(db.execute("SELECT * FROM P").rows)
        assert (500, "late", 1) in after
        assert (1, "g1", -5) in after

    def test_shard_views_respect_snapshots(self):
        db = _parts_db(shards=2, mvcc=True)
        table = db.catalog.get_table("P")
        total = len(db.execute("SELECT * FROM P").rows)
        per_view = sum(
            len(db.execute(f"SELECT * FROM {table.shard_view_name(i)}").rows)
            for i in range(2)
        )
        assert per_view == total
