"""Sharded scatter/gather extraction must be bit-identical to unsharded.

The scatter stage splits the candidate query across per-shard views, and the
fixpoint's reachability joins read sharded USING tables through their facade
— both are pure re-arrangements of the same relational work, so every node's
rows and every edge's connection set must come out exactly equal, on cyclic
graphs, skewed partitions, and when pruning eliminates every shard.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads import oo1
from repro.xnf.lang.parser import parse_xnf
from repro.xnf.semantic_rewrite import XNFCompiler
from repro.xnf.views import XNFViewCatalog, resolve

RESTRICTED_CO = """
OUT OF
 Xlib AS DESIGNLIB,
 Xpart AS (SELECT * FROM PART WHERE x < 30000 AND y < 60000),
 contains AS (RELATE Xlib, Xpart WHERE Xlib.lid = Xpart.lib),
 connects AS (RELATE Xpart source, Xpart target
              WITH ATTRIBUTES c.ctype AS ctype, c.clength AS clength
              USING CONN c
              WHERE source.pid = c.cfrom AND target.pid = c.cto)
TAKE *
"""

IMPOSSIBLE_CO = """
OUT OF
 Xlib AS DESIGNLIB,
 Xpart AS (SELECT * FROM PART WHERE x < -1),
 contains AS (RELATE Xlib, Xpart WHERE Xlib.lid = Xpart.lib)
TAKE *
"""


def _schema(text):
    return resolve(parse_xnf(text), XNFViewCatalog())


def _canonical(instance):
    return (
        {name: sorted(rows, key=repr) for name, rows in instance.rows.items()},
        {
            name: sorted(conns, key=repr)
            for name, conns in instance.connections.items()
        },
    )


def _extract(db, text, scatter=True):
    compiler = XNFCompiler(db, scatter=scatter)
    instance = compiler.instantiate(_schema(text))
    return compiler, instance


class TestShardedFixpointEquivalence:
    """The OO1 connection graph is cyclic (parts connect back into earlier
    parts), so the fixpoint genuinely iterates; 300 parts keeps it fast."""

    @pytest.fixture(scope="class")
    def dbs(self):
        plain = oo1.build_parts_database(300, seed=11)
        sharded = oo1.build_parts_database(300, seed=11, shards=4)
        return plain, sharded

    def test_full_parts_co_identical(self, dbs):
        plain, sharded = dbs
        _, base = _extract(plain, oo1.PARTS_CO)
        _, shard = _extract(sharded, oo1.PARTS_CO)
        assert _canonical(base) == _canonical(shard)
        assert base.total_tuples() == shard.total_tuples() > 0
        assert base.total_connections() == shard.total_connections() > 0

    def test_restricted_co_identical_and_pruned(self, dbs):
        plain, sharded = dbs
        _, base = _extract(plain, RESTRICTED_CO)
        before = sharded.metrics.counter("xnf.scatter.pruned").value
        compiler, shard = _extract(sharded, RESTRICTED_CO)
        assert _canonical(base) == _canonical(shard)
        # x < 30000 on a 4-way range partition of [0, 100000) must prove at
        # least the top two shards empty at candidate time
        assert sharded.metrics.counter("xnf.scatter.pruned").value - before >= 2
        assert compiler.shard_stats["Xpart"]

    def test_scatter_ablation_matches(self, dbs):
        _, sharded = dbs
        _, scattered = _extract(sharded, RESTRICTED_CO, scatter=True)
        _, serial = _extract(sharded, RESTRICTED_CO, scatter=False)
        assert _canonical(scattered) == _canonical(serial)

    def test_all_shards_pruned_yields_empty_instance(self, dbs):
        plain, sharded = dbs
        _, base = _extract(plain, IMPOSSIBLE_CO)
        _, shard = _extract(sharded, IMPOSSIBLE_CO)
        assert _canonical(base) == _canonical(shard)
        assert shard.rows["Xpart"] == []
        # the facade fallback must still produce the node's column header
        assert shard.columns["Xpart"] == base.columns["Xpart"]


class TestSkewedPartitions:
    def test_everything_on_one_shard(self):
        """Degenerate range bounds: every part lands on shard 3."""
        plain = oo1.build_parts_database(150, seed=5)
        skewed = oo1.build_parts_database(150, seed=5)
        skewed.repartition(
            "PART", 4, kind="range", column="x", bounds=[-3, -2, -1]
        )
        skewed.repartition("CONN", 4, kind="hash", column="cfrom")
        table = skewed.catalog.get_table("PART")
        assert table.heap.shards[3].row_count == 150
        _, base = _extract(plain, oo1.PARTS_CO)
        _, shard = _extract(skewed, oo1.PARTS_CO)
        assert _canonical(base) == _canonical(shard)

    def test_shard_stats_expose_skew(self):
        db = oo1.build_parts_database(150, seed=5)
        db.repartition("PART", 4, kind="range", column="x", bounds=[-3, -2, -1])
        compiler, instance = _extract(db, RESTRICTED_CO)
        per_shard = compiler.shard_stats["Xpart"]
        # every part routed to shard 3: the skew is visible as one bucket
        assert set(per_shard) == {3}
        assert per_shard[3] == len(instance.rows["Xpart"]) > 0
        rows = db.execute(
            "SELECT component, cardinality FROM SYS_CO_STATS WHERE kind = 'shard'"
        ).rows
        assert ("Xpart#s3", per_shard[3]) in rows


class TestScatterInsideTransactions:
    def test_extraction_in_snapshot_still_identical(self):
        db = oo1.build_parts_database(120, seed=9, shards=2, mvcc=True)
        _, outside = _extract(db, oo1.PARTS_CO)
        db.execute("BEGIN")
        try:
            _, inside = _extract(db, oo1.PARTS_CO)
        finally:
            db.execute("ROLLBACK")
        assert _canonical(outside) == _canonical(inside)


# -- generated graphs ----------------------------------------------------------
#
# The sharded(N) column of the differential oracle: on generated cyclic
# PART/CONN graphs the scattered extraction, the facade extraction
# (``scatter=False``) and the unsharded database must agree exactly.

MAX_PID = 12


def _build_graph_db(parts, conns, shards=0, conn_kind="hash"):
    """The OO1 schema over explicit rows; ``shards >= 2`` partitions PART by
    range on ``x`` and CONN (the reachability join's USING table) by
    *conn_kind* on ``cfrom``."""
    db = oo1.build_parts_database(0, shards=shards)
    if shards >= 2 and conn_kind == "range":
        top = max([pid for pid, *_ in parts] + [MAX_PID])
        db.repartition(
            "CONN", shards, kind="range", column="cfrom",
            bounds=[(i * top) // shards + 1 for i in range(1, shards)],
        )
    db.catalog.get_table("PART").insert_many(parts)
    db.catalog.get_table("CONN").insert_many(conns)
    db.execute("ANALYZE")
    return db


def _parts_co(x_bound):
    """PARTS_CO, with Xpart restricted to ``x < x_bound`` when given (a
    restricted node is what the candidate scatter and its pruning act on)."""
    if x_bound is None:
        return oo1.PARTS_CO
    return oo1.PARTS_CO.replace(
        "Xpart AS PART", f"Xpart AS (SELECT * FROM PART WHERE x < {x_bound})"
    )


def _assert_sharded_matches_unsharded(
    parts, conns, shards, conn_kind, in_txn, x_bound=None
):
    text = _parts_co(x_bound)
    _, expected = _extract(_build_graph_db(parts, conns), text)
    sharded = _build_graph_db(parts, conns, shards, conn_kind)
    if in_txn:
        sharded.execute("BEGIN")
    try:
        _, scattered = _extract(sharded, text, scatter=True)
        _, facade = _extract(sharded, text, scatter=False)
    finally:
        if in_txn:
            sharded.execute("ROLLBACK")
    assert _canonical(scattered) == _canonical(expected)
    assert _canonical(facade) == _canonical(expected)
    return sharded


@st.composite
def part_graphs(draw):
    """Small cyclic PART/CONN graphs: CONN is keyless, so duplicate rows,
    self-loops and NULL endpoints are all legal; a NULL ``lib`` detaches a
    part from the root so only ``connects`` can reach it."""
    pids = list(range(1, draw(st.integers(1, MAX_PID)) + 1))
    parts = [
        (
            pid,
            "t",
            draw(st.integers(0, 99999)),
            draw(st.integers(0, 99999)),
            draw(st.sampled_from([1, 1, None])),
        )
        for pid in pids
    ]
    endpoint = st.one_of(st.none(), st.sampled_from(pids))
    conns = draw(
        st.lists(
            st.tuples(endpoint, endpoint, st.just("c"), st.integers(0, 1)),
            max_size=3 * len(pids),
        )
    )
    return parts, conns


class TestGeneratedGraphs:
    @settings(max_examples=40, deadline=None)
    @given(
        graph=part_graphs(),
        shards=st.sampled_from([2, 3, 4]),
        conn_kind=st.sampled_from(["hash", "range"]),
        in_txn=st.booleans(),
        x_bound=st.one_of(st.none(), st.integers(0, 100000)),
    )
    def test_scatter_facade_and_unsharded_agree(
        self, graph, shards, conn_kind, in_txn, x_bound
    ):
        parts, conns = graph
        _assert_sharded_matches_unsharded(
            parts, conns, shards, conn_kind, in_txn, x_bound
        )

    @pytest.mark.parametrize("conn_kind", ["hash", "range"])
    @pytest.mark.parametrize("in_txn", [False, True])
    def test_wide_rounds_past_the_old_partitioning_floor(self, conn_kind, in_txn):
        """Only part 1 hangs off the library; it fans out to 300 parts, each
        of which connects to one of 300 more, which all close the cycle back
        to part 1 — two fixpoint rounds whose delta exceeds 256 rows, the
        size at which deltas used to be exchanged per shard."""
        fan = 300
        parts = [
            (pid, "t", (pid * 7919) % 100000, pid, 1 if pid == 1 else None)
            for pid in range(1, 2 * fan + 2)
        ]
        conns = (
            [(1, pid, "c", 0) for pid in range(2, fan + 2)]
            + [(pid, pid + fan, "c", 0) for pid in range(2, fan + 2)]
            + [(pid + fan, 1, "c", 0) for pid in range(2, fan + 2)]
        )
        sharded = _assert_sharded_matches_unsharded(
            parts, conns, 4, conn_kind, in_txn
        )
        root = [
            r for r in sharded.tracer.recent if r.name == "xnf.instantiate"
        ][-1]
        deltas = [
            span.attrs["delta_rows"] for span in root.find("xnf.fixpoint.round")
        ]
        assert sorted(deltas, reverse=True)[:2] == [fan, fan]
