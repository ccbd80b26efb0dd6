"""End-to-end distributed tracing: one trace id follows one statement from
the client through the wire server into the engine and every shard query.

A statement runs on exactly one thread, so sharded scatter/gather spans are
ordinary children of the statement span on the statement's thread (zero
orphans); concurrent wire sessions keep their traces apart, and the client-
and server-side JSONL exports join on trace_id.
"""

import io
import json
import threading

import pytest

from repro.client.client import WireClient
from repro.client.repl import Repl
from repro.obs.export import JsonlTraceExporter
from repro.server.server import ServerThread
from repro.workloads import oo1
from repro.workloads.company import figure1_database
from repro.xnf.lang.parser import parse_xnf
from repro.xnf.semantic_rewrite import XNFCompiler
from repro.xnf.views import XNFViewCatalog, resolve


def _jsonl(stream: io.StringIO):
    return [json.loads(line) for line in stream.getvalue().splitlines() if line]


#: restricted Xpart triggers the candidate-scatter path (same shape as the
#: sharded-fixpoint equivalence suite); the unrestricted PARTS_CO reads PART
#: and CONN only through the fixpoint's facade joins and scatters nothing.
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


class TestShardedSpanParenting:
    """In-process: every per-shard span must land inside the extraction's
    own trace tree, on the statement's own thread."""

    @pytest.fixture(scope="class")
    def sharded_db(self):
        db = oo1.build_parts_database(300, seed=11, shards=4)
        compiler = XNFCompiler(db, scatter=True)
        for text in (oo1.PARTS_CO, RESTRICTED_CO):
            compiler.instantiate(resolve(parse_xnf(text), XNFViewCatalog()))
        return db

    def _instantiate_roots(self, db):
        return [r for r in db.tracer.recent if r.name == "xnf.instantiate"]

    def test_statement_and_its_shard_spans_share_one_thread(self, sharded_db):
        for root in self._instantiate_roots(sharded_db):
            assert {s.thread_id for s in root.walk()} == {root.thread_id}
            assert {s.trace_id for s in root.walk()} == {root.trace_id}
        assert sharded_db.tracer.orphans == 0

    def test_scatter_spans_parent_under_the_statement(self, sharded_db):
        root = self._instantiate_roots(sharded_db)[1]  # RESTRICTED_CO
        shard_spans = root.find("xnf.scatter.shard")
        assert shard_spans, "restricted candidate did not scatter"
        shards = {s.attrs["shard"] for s in shard_spans}
        assert shards <= {0, 1, 2, 3}
        assert all(s.trace_id == root.trace_id for s in shard_spans)
        assert all(s.thread_id == root.thread_id for s in shard_spans)
        assert sharded_db.tracer.orphans == 0

    def test_per_shard_durations_queryable_via_sys_trace_spans(self, sharded_db):
        db = sharded_db
        rows = db.execute(
            "SELECT shard, SUM(duration_ms) FROM SYS_TRACE_SPANS "
            "WHERE name = 'xnf.scatter.shard' GROUP BY shard"
        ).rows
        scattered = {
            span.attrs["shard"]
            for root in self._instantiate_roots(db)
            for span in root.find("xnf.scatter.shard")
        }
        assert {row[0] for row in rows} == scattered != set()
        assert all(row[1] >= 0.0 for row in rows)

    def test_shard_spans_carry_thread_column(self, sharded_db):
        rows = sharded_db.execute(
            "SELECT thread, trace_id FROM SYS_TRACE_SPANS "
            "WHERE shard IS NOT NULL"
        ).rows
        assert rows
        assert all(row[0] is not None and row[1] > 0 for row in rows)


class TestWireTraceStitching:
    @pytest.fixture
    def server_db(self):
        return figure1_database(mvcc=True)

    @pytest.fixture
    def wire_server(self, server_db):
        with ServerThread(server_db, max_connections=16) as server:
            yield server

    def test_client_and_server_jsonl_join_on_trace_id(
        self, server_db, wire_server
    ):
        client_log = io.StringIO()
        server_log = io.StringIO()
        server_db.tracer.exporter = JsonlTraceExporter(server_log, batch_size=1)
        try:
            with WireClient(port=wire_server.port, tracing=True) as client:
                client.tracer.exporter = JsonlTraceExporter(
                    client_log, batch_size=1
                )
                client.execute("SELECT dname FROM DEPT ORDER BY dname")
                client.execute("SELECT COUNT(*) FROM EMP")
        finally:
            server_db.tracer.exporter = None
        client_records = [
            r for r in _jsonl(client_log) if r["name"] == "client.query"
        ]
        server_records = {
            r["trace_id"]: r
            for r in _jsonl(server_log)
            if r["name"] == "wire.query"
        }
        assert len(client_records) == 2
        assert len({r["trace_id"] for r in client_records}) == 2
        for record in client_records:
            mate = server_records[record["trace_id"]]  # joinable on trace_id
            assert mate["parent_span_id"] == record["span_id"]
            # the server-side tree contains the real engine work
            child_names = [c["name"] for c in mate.get("children", [])]
            assert "statement" in child_names

    def test_profile_op_reports_stage_breakdown(self, wire_server):
        with WireClient(port=wire_server.port, tracing=True) as client:
            assert client.profile() is None  # nothing ran yet
            client.execute("SELECT ename FROM EMP")
            profile = client.profile()
        assert profile["op"] == "wire.query"
        assert profile["trace_id"] > 0
        assert "execute" in profile["stages"]
        assert profile["queue_wait_ms"] >= 0.0
        assert profile["total_ms"] > 0.0

    def test_untraced_client_still_profiles_under_fresh_trace(
        self, wire_server
    ):
        # no trace field in the frames: the server starts its own trace
        with WireClient(port=wire_server.port) as client:
            client.execute("SELECT 1")
            profile = client.profile()
        assert profile["op"] == "wire.query"
        assert profile["trace_id"] > 0

    def test_repl_profile_command(self, wire_server):
        out = io.StringIO()
        with WireClient(port=wire_server.port) as client:
            repl = Repl(client, out=out)
            assert repl.handle("\\profile")  # before any statement
            assert repl.handle("SELECT dname FROM DEPT")
            assert repl.handle("\\profile")
        text = out.getvalue()
        assert "no profile yet" in text
        assert "wire.query" in text
        assert "execute" in text

    def test_take_over_sharded_server_is_one_trace_on_one_thread(self):
        db = oo1.build_parts_database(300, seed=11, shards=4)
        with ServerThread(db, max_connections=8) as server:
            with WireClient(port=server.port, tracing=True) as client:
                co = client.take(oo1.PARTS_CO)
                co.close()
                client_trace_ids = {
                    span.trace_id for span in client.tracer.recent
                }
        roots = [
            root for root in db.tracer.recent if root.name == "wire.xnf"
        ]
        assert roots, "server recorded no wire.xnf root"
        root = roots[0]
        # one trace id: client -> server -> engine, all on the one server
        # worker thread that ran the statement
        assert root.trace_id in client_trace_ids
        assert root.find("xnf.fixpoint.round")
        assert {s.trace_id for s in root.walk()} == {root.trace_id}
        assert {s.thread_id for s in root.walk()} == {root.thread_id}
        assert db.tracer.orphans == 0


class TestConcurrentWireSessionsHammer:
    def test_zero_orphans_and_distinct_traces_under_concurrency(self):
        db = figure1_database(mvcc=True)
        server_log = io.StringIO()
        db.tracer.exporter = JsonlTraceExporter(server_log, batch_size=1)
        statements_per_client = 5
        n_clients = 4
        errors = []

        def drive(idx):
            try:
                with WireClient(port=server.port, tracing=True) as client:
                    for n in range(statements_per_client):
                        client.execute(
                            f"SELECT ename FROM EMP WHERE edno >= {n % 3}"
                        )
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        with ServerThread(db, max_connections=16) as server:
            threads = [
                threading.Thread(target=drive, args=(i,))
                for i in range(n_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        db.tracer.exporter.flush()
        db.tracer.exporter = None
        assert errors == []
        assert db.tracer.orphans == 0
        assert db.metrics.counter("trace.orphan_spans").value == 0
        wire_records = [
            r for r in _jsonl(server_log) if r["name"] == "wire.query"
        ]
        trace_ids = [r["trace_id"] for r in wire_records]
        assert len(wire_records) == n_clients * statements_per_client
        assert len(set(trace_ids)) == len(trace_ids)  # never shared or reused
        # every adopted trace remembers its client-side parent span
        assert all(r.get("parent_span_id") for r in wire_records)

    def test_session_ids_stamped_into_statement_stats(self):
        db = figure1_database(mvcc=True)
        with ServerThread(db, max_connections=8) as server:
            with WireClient(port=server.port, tracing=True) as client:
                client.execute("SELECT loc FROM DEPT WHERE dno = 1")
                rows = client.execute(
                    "SELECT fingerprint, last_session_id, last_trace_id "
                    "FROM SYS_STAT_STATEMENTS "
                    "WHERE last_session_id IS NOT NULL"
                ).rows()
        assert rows, "no statement carried a session id"
        session_ids = {row[1] for row in rows}
        assert client.session_id in session_ids
        assert any(row[2] is not None and row[2] > 0 for row in rows)
