"""End-to-end observability: XNF fixpoint spans, metrics snapshot across
crash recovery, and the slow-query log (PR 3 satellite d)."""

import json

import pytest

from repro.relational.engine import Database
from repro.xnf.api import XNFSession
from repro.xnf.lang.parser import parse_xnf
from repro.xnf.semantic_rewrite import XNFCompiler
from repro.xnf.views import XNFViewCatalog, resolve

RECURSIVE_CO = """
OUT OF
  Xroot AS (SELECT * FROM NODES WHERE nid = 1),
  Xnode AS NODES,
  seed AS (RELATE Xroot, Xnode WHERE Xroot.nid = Xnode.nid),
  links AS (RELATE Xnode a, Xnode b
            USING EDGES e
            WHERE a.nid = e.src AND b.nid = e.dst)
TAKE *
"""


@pytest.fixture
def graph_db():
    db = Database()
    db.execute("CREATE TABLE NODES (nid INTEGER PRIMARY KEY, tag VARCHAR)")
    db.execute("CREATE TABLE EDGES (src INTEGER, dst INTEGER)")
    for nid in range(1, 9):
        db.execute(f"INSERT INTO NODES VALUES ({nid}, 'n{nid}')")
    edges = [
        (1, 2), (2, 3), (3, 4), (4, 4), (4, 5), (5, 6), (6, 4),
        (2, 7), (3, 7), (7, 8),
    ]
    for src, dst in edges:
        db.execute(f"INSERT INTO EDGES VALUES ({src}, {dst})")
    db.execute("ANALYZE")
    return db


class TestFixpointSpans:
    def test_one_span_per_fixpoint_round(self, graph_db):
        """The span tree of a recursive CO instantiation carries exactly
        one ``xnf.fixpoint.round`` span per semi-naive round."""
        schema = resolve(parse_xnf(RECURSIVE_CO), XNFViewCatalog())
        compiler = XNFCompiler(graph_db, semi_naive=True)
        compiler.instantiate(schema)

        root = graph_db.tracer.last_trace
        assert root is not None and root.name == "xnf.instantiate"
        rounds = root.find("xnf.fixpoint.round")
        assert len(rounds) == compiler.stats.iterations
        # round numbers are 1..n in order, each with a delta_rows figure
        assert [s.attrs["round"] for s in rounds] == list(
            range(1, len(rounds) + 1)
        )
        assert all("delta_rows" in s.attrs for s in rounds)
        # the final round is the empty delta that closed the fixpoint
        assert rounds[-1].attrs["delta_rows"] == 0

    def test_rounds_nest_generated_statements(self, graph_db):
        schema = resolve(parse_xnf(RECURSIVE_CO), XNFViewCatalog())
        XNFCompiler(graph_db, semi_naive=True).instantiate(schema)
        root = graph_db.tracer.last_trace
        for round_span in root.find("xnf.fixpoint.round"):
            selects = round_span.find("sql.select")
            assert selects, "each round issues at least one generated query"
            for select in selects:
                # the execute stage is an attribute of the statement span
                assert select.attrs["execute_ms"] >= 0.0
                assert not select.find("execute")

    def test_instantiate_span_summarises_the_run(self, graph_db):
        schema = resolve(parse_xnf(RECURSIVE_CO), XNFViewCatalog())
        compiler = XNFCompiler(graph_db, semi_naive=True)
        instance = compiler.instantiate(schema)
        attrs = graph_db.tracer.last_trace.attrs
        assert attrs["rounds"] == compiler.stats.iterations
        assert attrs["tuples"] == sum(
            len(rows) for rows in instance.rows.values()
        )
        assert graph_db.metrics_snapshot()["fixpoint"]["instantiations"] == 1

    def test_xnf_explain_analyze_renders_rounds(self, graph_db):
        text = XNFSession(graph_db).explain_analyze(RECURSIVE_CO)
        assert "xnf.instantiate" in text
        assert "xnf.fixpoint.round" in text
        assert "fixpoint rounds:" in text
        assert "stages:" in text
        assert "plan cache:" in text
        # analyze mode attaches per-operator actuals under the spans
        assert "rows_in=" in text or "loops=" in text


class TestMetricsAcrossRecovery:
    def test_snapshot_consistent_after_crash_recovery(self):
        db = Database()
        db.execute("CREATE TABLE T (a INTEGER PRIMARY KEY, b VARCHAR)")
        for n in range(1, 6):
            db.execute(f"INSERT INTO T VALUES ({n}, 'v{n}')")
        # an uncommitted transaction that will die with the "crash"
        db.execute("BEGIN")
        db.execute("INSERT INTO T VALUES (99, 'lost')")
        # abandon db (simulated crash) and reopen over the surviving
        # disk + stable WAL prefix, as the recovery harness does
        reopened = Database(disk=db.disk, wal=db.txn_manager.wal)
        reopened.execute("CREATE TABLE T (a INTEGER PRIMARY KEY, b VARCHAR)")
        stats = reopened.recover()
        assert stats.redo_applied >= 5

        snap = reopened.metrics_snapshot()
        json.dumps(snap)  # must stay JSON-serializable
        # all sections present with consistent counters
        for section in (
            "buffer", "disk", "wal", "locks", "txn", "fixpoint",
            "plan_cache", "statements",
        ):
            assert section in snap, f"missing section {section}"
        assert snap["txn"]["active"] == 0
        assert snap["wal"]["stable_records"] >= 5
        assert snap["wal"]["torn_flushes"] == snap["wal"]["torn_repairs"]
        assert snap["fixpoint"] == {
            "rounds": 0, "delta_rows": 0, "instantiations": 0,
            "guard_trips": 0,
        }
        # recovery resets the lock manager: nothing may remain held
        assert snap["locks"]["held"] == 0
        # committed rows survived, the uncommitted one did not
        rows = reopened.execute("SELECT COUNT(*) FROM T").scalar()
        assert rows == 5

    def test_snapshot_reflects_workload_counters(self):
        db = Database()
        db.execute("CREATE TABLE T (a INTEGER)")
        db.execute("INSERT INTO T VALUES (1)")
        db.execute("SELECT * FROM T")
        db.execute("SELECT * FROM T")
        snap = db.metrics_snapshot()
        assert snap["statements"]["executed"] >= 4
        assert snap["statements"]["latency"]["count"] >= 4
        assert snap["txn"]["commits"] >= 1
        assert snap["plan_cache"]["hits"] >= 1
        assert 0.0 <= snap["buffer"]["hit_rate"] <= 1.0


class TestSlowQueryLog:
    def test_threshold_zero_logs_every_statement_with_trace(self):
        db = Database(slow_query_threshold_s=0.0)
        db.execute("CREATE TABLE T (a INTEGER)")
        db.execute("INSERT INTO T VALUES (1)")
        db.execute("SELECT * FROM T")
        entries = db.slow_query_log.entries()
        assert len(entries) == 3
        assert db.slow_query_log.total_logged == 3
        select = entries[-1]
        assert "SELECT" in select.sql.upper()
        assert select.duration_s >= 0
        # the span tree rides along and is JSON-ready
        assert select.trace is not None
        json.dumps(select.trace)
        assert select.trace["name"].startswith("sql.")
        assert db.metrics_snapshot()["statements"]["slow_logged"] == 3

    def test_disabled_by_default(self):
        db = Database()
        db.execute("CREATE TABLE T (a INTEGER)")
        db.execute("SELECT * FROM T")
        assert not db.slow_query_log.enabled
        assert len(db.slow_query_log) == 0

    def test_capacity_bounds_the_log(self):
        db = Database(slow_query_threshold_s=0.0)
        db.slow_query_log._entries = __import__("collections").deque(maxlen=4)
        db.execute("CREATE TABLE T (a INTEGER)")
        for n in range(10):
            db.execute(f"INSERT INTO T VALUES ({n})")
        assert len(db.slow_query_log) == 4
        assert db.slow_query_log.total_logged == 11
