"""Set-at-a-time index joins: ``Table.probe_many`` and ``IndexNLJoin``.

``IndexNLJoin`` probes once per outer batch: the batch's distinct keys go
through one ``Index.search_many`` and one ``Table.probe_many``.  Each test
here compares it with the per-row loop it replaces — one ``Table.probe``
of ``Index.search(key)`` for every outer row — on a clean table and on one
an open writer has versioned, unsharded and sharded.
"""

import contextlib

import pytest

from repro.relational.engine import Database
from repro.relational.executor.batch import batch_from_rows
from repro.relational.executor.operators import IndexNLJoin, PlanOp, _key_matches

#: outer keys: duplicates, NULLs, a key that matches nothing, and the keys
#: the writer below moves rows away from (5), to (999) and into (3)
OUTER_KEYS = [3, 5, None, 3, 12, 999, 5, 404, None, 7, 12, 3, 0, 5]


class Batches(PlanOp):
    """A left input that yields fixed batches of ``(x,)`` rows."""

    def __init__(self, keys, size):
        self.rows = [(key,) for key in keys]
        self.size = size

    def batches(self, env):
        for start in range(0, len(self.rows), self.size):
            yield batch_from_rows(self.rows[start : start + self.size])


def key_vector(cols, idx, env):
    return [cols[0][i] for i in idx]


def k_of(i):
    return None if i % 11 == 0 else i % 13


def build(shards=None):
    """T(id PK, k indexed with duplicates and NULLs, c) over several pages."""
    db = Database(shards=shards) if shards else Database()
    db.execute("CREATE TABLE T (id INTEGER PRIMARY KEY, k INTEGER, c INTEGER)")
    db.execute("CREATE INDEX ik ON T (k)")
    rows = ", ".join(
        f"({i}, {'NULL' if k_of(i) is None else k_of(i)}, {i % 4})" for i in range(1, 401)
    )
    db.execute(f"INSERT INTO T VALUES {rows}")
    table = db.catalog.get_table("T")
    return db, table, table.indexes["ik"]


def count_k(value):
    return sum(1 for i in range(1, 401) if k_of(i) == value)


def open_writer(db):
    """A writer that re-keys one row, deletes one and inserts one, and
    stays open: T is versioned for every reader from here on."""
    writer = db.connect()
    writer.begin()
    writer.execute("UPDATE T SET k = 999 WHERE id = 5")
    writer.execute("DELETE FROM T WHERE id = 18")  # k = 5
    writer.execute("INSERT INTO T VALUES (1000, 3, 2)")
    return writer


def per_row_join(table, index, keys, kind, inner_filter=None):
    """The per-row loop: one probe per live outer row; *inner_filter*, a
    selection function, is tried on each inner row as a one-row batch."""
    verify = _key_matches(index.column_positions)
    out = []
    for value in keys:
        matched = False
        if value is not None:
            key = (value,)
            for row in table.probe(index.search(key), verify, key):
                if inner_filter is None or inner_filter([[v] for v in row], [0], None):
                    matched = True
                    out.append((value,) + row)
        if not matched and kind == "LEFT":
            out.append((value, None, None, None))
    return out


def batched_join(table, index, keys, kind, size, inner_filter=None):
    join = IndexNLJoin(
        Batches(keys, size), table, index, key_vector,
        kind=kind, right_width=3, inner_filter=inner_filter,
    )
    return list(join.rows(None))


@contextlib.contextmanager
def snapshot_of(db, session=None):
    """The snapshot a statement of *session* (or of *db*) reads in."""
    if session is None:
        with db.snapshot_scope():
            yield
    else:
        with session._activate(), db.snapshot_scope():
            yield


@pytest.fixture(params=[None, 2], ids=["unsharded", "sharded"])
def parts(request):
    return build(request.param)


class TestProbeMany:
    def test_clean_table_matches_probe_per_key(self, parts):
        db, table, index = parts
        verify = _key_matches(index.column_positions)
        keys = [(k,) for k in (3, 5, 404, 12, 0, 7)]
        with db.snapshot_scope():
            got = table.probe_many(keys, index.search_many(keys), verify)
            want = [table.probe(index.search(key), verify, key) for key in keys]
        assert got == want
        assert [len(rows) for rows in got[:3]] == [count_k(3), count_k(5), 0]

    def test_one_pin_per_page_per_batch(self, parts):
        db, table, index = parts
        verify = _key_matches(index.column_positions)
        keys = [(k,) for k in range(13)]
        rid_lists = index.search_many(keys)
        pages = {rid.page_id for rids in rid_lists for rid in rids}
        assert len(pages) > 1
        db.reset_io_stats()
        with db.snapshot_scope():
            table.probe_many(keys, rid_lists, verify)
        assert db.buffer_pool.hits + db.buffer_pool.misses == len(pages)

    def test_versioned_table_matches_probe_per_key(self, parts):
        db, table, index = parts
        writer = open_writer(db)
        verify = _key_matches(index.column_positions)
        keys = [(k,) for k in (5, 999, 3, 404)]
        for session in (None, writer):
            with snapshot_of(db, session):
                got = table.probe_many(keys, index.search_many(keys), verify)
                want = [table.probe(index.search(key), verify, key) for key in keys]
            assert got == want
        with db.snapshot_scope():
            seen = table.probe_many(keys, index.search_many(keys), verify)
        # the reader still sees row 5 under k = 5 and deleted row 18,
        # and not the uncommitted insert
        assert {row[0] for row in seen[0]} >= {5, 18}
        assert seen[1] == []
        assert 1000 not in {row[0] for row in seen[2]}
        writer.rollback()

    def test_dirty_batch_is_one_probe(self, parts, monkeypatch):
        """On a versioned table a batch still makes one ``resolve_batch``
        and one ``candidates`` call, whatever its number of keys."""
        db, table, index = parts
        writer = open_writer(db)
        store = db.mvcc.store
        calls = {"resolve_batch": 0, "candidates": 0}
        for name in calls:
            def counted(*args, _real=getattr(store, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(store, name, counted)
        verify = _key_matches(index.column_positions)
        keys = [(k,) for k in (5, 999, 3, 404, 12, 0)]
        with db.snapshot_scope():
            table.probe_many(keys, index.search_many(keys), verify)
        assert calls == {"resolve_batch": 1, "candidates": 1}
        with db.snapshot_scope():
            batched_join(table, index, OUTER_KEYS, "LEFT", 5)
        # three outer batches of at most five keys
        assert calls == {"resolve_batch": 4, "candidates": 4}
        writer.rollback()

    def test_row_gone_from_heap_falls_back_per_key(self, parts):
        db, table, index = parts
        verify = _key_matches(index.column_positions)
        keys = [(3,), (4,)]
        rid_lists = index.search_many(keys)
        db.execute("DELETE FROM T WHERE id = 3")  # committed; its RID is stale
        with db.snapshot_scope():
            got = table.probe_many(keys, rid_lists, verify)
        assert 3 not in {row[0] for row in got[0]}
        assert [len(rows) for rows in got] == [len(rid_lists[0]) - 1, len(rid_lists[1])]


class TestIndexNLJoinBatches:
    @pytest.mark.parametrize("kind", ["INNER", "LEFT"])
    @pytest.mark.parametrize("size", [1, 4, 1024])
    def test_clean_table_matches_per_row_loop(self, parts, kind, size):
        db, table, index = parts
        with db.snapshot_scope():
            got = batched_join(table, index, OUTER_KEYS, kind, size)
            want = per_row_join(table, index, OUTER_KEYS, kind)
        assert got == want
        if kind == "LEFT":
            assert got.count((None, None, None, None)) == 2
            assert (404, None, None, None) in got

    @pytest.mark.parametrize("kind", ["INNER", "LEFT"])
    def test_versioned_table_matches_per_row_loop(self, parts, kind):
        db, table, index = parts
        writer = open_writer(db)
        for session in (None, writer):
            with snapshot_of(db, session):
                got = batched_join(table, index, OUTER_KEYS, kind, 5)
                want = per_row_join(table, index, OUTER_KEYS, kind)
            assert got == want
        writer.rollback()

    def test_inner_filter_applies_per_inner_row(self, parts):
        db, table, index = parts

        def even_c(cols, idx, env):
            return [i for i in idx if cols[2][i] % 2 == 0]

        with db.snapshot_scope():
            got = batched_join(table, index, OUTER_KEYS, "LEFT", 6, even_c)
            want = per_row_join(table, index, OUTER_KEYS, "LEFT", even_c)
        assert got == want
        assert all(row[3] is None or row[3] % 2 == 0 for row in got)

    def test_equal_keys_of_different_types_share_one_probe(self, parts):
        db, table, index = parts
        keys = [3, 3.0, True, 1, 1.0]
        with db.snapshot_scope():
            got = batched_join(table, index, keys, "INNER", 8)
            want = per_row_join(table, index, keys, "INNER")
        assert got == want
        assert len(got) == 3 * count_k(3) + 2 * count_k(1)
