"""End-to-end wire server tests over loopback.

Each test boots a real asyncio server (fixture in conftest) and drives it
with the blocking client — the same code path as the REPL and the
benchmark, so frame handling, session multiplexing, the error taxonomy
and the SYS_* observability are all exercised across an actual socket.
"""

import threading
import time

import pytest

from repro.errors import (
    AdmissionError,
    AuthError,
    CatalogError,
    ParseError,
    ResourceExhaustedError,
    SerializationError,
    ServerShutdownError,
)
from repro.client.client import WireClient
from repro.server.bootstrap import STAFF_CO, demo_database
from repro.server.server import ServerThread
from repro.workloads.company import FIGURE1_CO, figure1_database


class TestQueries:
    def test_hello_announces_session(self, client):
        assert client.server_info["server"] == "repro-xnf"
        assert client.session_id >= 1
        # one concurrency control, so no mode to announce
        assert "mvcc" not in client.server_info

    def test_select_roundtrip(self, client):
        result = client.execute(
            "SELECT dname, loc FROM DEPT WHERE loc = 'NY' ORDER BY dname"
        )
        assert result.columns == ["dname", "loc"]
        assert result.rows() == [("d1", "NY"), ("d3", "NY")]

    def test_dml_rowcount(self, client):
        result = client.execute("UPDATE EMP SET sal = sal + 1 WHERE edno = 2")
        assert result.rowcount == 3

    def test_typed_errors_cross_the_wire(self, client):
        with pytest.raises(CatalogError):
            client.execute("SELECT * FROM NO_SUCH_TABLE")
        with pytest.raises(ParseError):
            client.execute("SELEC dname FROM DEPT")
        # the session survives its own errors
        assert client.execute("SELECT COUNT(*) FROM DEPT").scalar() == 3

    def test_prepare_execute(self, client):
        stmt = client.prepare("SELECT ename FROM EMP WHERE edno = ?")
        assert stmt.n_params == 1
        assert len(stmt.execute([2]).rows()) == 3
        assert len(stmt.execute([1]).rows()) == 2

    def test_long_result_streams_through_fetch_cursor(self, wire_server):
        with WireClient(port=wire_server.port) as client:
            client.execute(
                "CREATE TABLE BULK (n INTEGER PRIMARY KEY, v VARCHAR)"
            )
            values = ", ".join(f"({i}, 'v{i}')" for i in range(500))
            client.execute(f"INSERT INTO BULK VALUES {values}")
            result = client.execute(
                "SELECT n FROM BULK ORDER BY n", max_rows=64
            )
            # only the first page is inline; rows() drains the rest
            assert result._more is True
            rows = result.rows()
            assert [r[0] for r in rows] == list(range(500))

    def test_transactions_span_frames(self, wire_server):
        with WireClient(port=wire_server.port) as a, \
                WireClient(port=wire_server.port) as b:
            a.begin()
            a.execute("UPDATE DEPT SET budget = 9999.0 WHERE dno = 1")
            # b's snapshot ignores a's uncommitted write
            assert b.execute(
                "SELECT budget FROM DEPT WHERE dno = 1"
            ).scalar() == 1000.0
            a.commit()
            assert b.execute(
                "SELECT budget FROM DEPT WHERE dno = 1"
            ).scalar() == 9999.0

    def test_disconnect_rolls_back_open_transaction(self, wire_server):
        with WireClient(port=wire_server.port) as a:
            a.begin()
            a.execute("UPDATE DEPT SET budget = 0.0 WHERE dno = 1")
        # connection closed with the transaction open: changes must vanish
        with WireClient(port=wire_server.port) as b:
            assert b.execute(
                "SELECT budget FROM DEPT WHERE dno = 1"
            ).scalar() == 1000.0


class TestCompositeObjects:
    def test_take_and_navigate(self, client):
        co = client.take(FIGURE1_CO)
        assert co.nodes == {"Xdept": 3, "Xemp": 5, "Xproj": 2, "Xskill": 4}
        names = sorted(row["ename"] for row in co.cursor("Xemp"))
        assert names == ["e1", "e2", "e4", "e5", "e6"]
        emps = co.path("Xdept", "employment", dname="d1")
        assert sorted(t["values"]["ename"] for t in emps) == ["e1", "e2"]
        co.close()

    def test_multi_step_path(self, client):
        co = client.take(FIGURE1_CO)
        skills = co.path("Xdept", "employment->Xemp->empproperty", dname="d1")
        assert sorted(t["values"]["sname"] for t in skills) == ["s1", "s3"]

    def test_explain_analyze_passthrough(self, client):
        rendered = client.explain_analyze(FIGURE1_CO)
        assert "xnf.instantiate" in rendered

    def test_closed_co_rejects_navigation(self, client):
        co = client.take(FIGURE1_CO)
        co.close()
        from repro.errors import CursorError
        with pytest.raises(CursorError):
            co.path("Xdept", "employment")


class TestSessionControls:
    def test_statement_timeout_is_per_session(self, wire_server):
        with WireClient(port=wire_server.port) as slow, \
                WireClient(port=wire_server.port) as normal:
            slow.set_statement_timeout(0.0)  # everything times out
            with pytest.raises(ResourceExhaustedError):
                slow.execute("SELECT COUNT(*) FROM EMP")
            # the other session is unaffected ...
            assert normal.execute("SELECT COUNT(*) FROM EMP").scalar() == 6
            # ... and clearing the override restores service
            slow.set_statement_timeout(None)
            assert slow.execute("SELECT COUNT(*) FROM EMP").scalar() == 6

    def test_auth_token_gate(self):
        db = figure1_database(mvcc=True)
        with ServerThread(db, auth_token="sesame") as server:
            with pytest.raises(AuthError):
                with WireClient(port=server.port) as nosy:
                    nosy.execute("SELECT 1 FROM DEPT")
            with pytest.raises(AuthError):
                WireClient(port=server.port, auth_token="wrong")
            with WireClient(port=server.port, auth_token="sesame") as ok:
                assert ok.execute("SELECT COUNT(*) FROM DEPT").scalar() == 3

    def test_admission_limit_is_retryable_over_wire(self):
        db = figure1_database(mvcc=True)
        with ServerThread(db, max_connections=2) as server:
            a = WireClient(port=server.port)
            b = WireClient(port=server.port)
            try:
                with pytest.raises(AdmissionError) as info:
                    WireClient(port=server.port)
                assert info.value.retryable
                assert info.value.backoff_hint_s == AdmissionError.backoff_hint_s
                assert db.network.snapshot()["connections_refused"] == 1
            finally:
                a.close()
                b.close()
            # capacity freed: admission succeeds again
            with WireClient(port=server.port) as c:
                assert c.execute("SELECT COUNT(*) FROM DEPT").scalar() == 3


class TestRetryableConflicts:
    def test_serialization_conflict_roundtrip(self, wire_server):
        with WireClient(port=wire_server.port) as a, \
                WireClient(port=wire_server.port) as b:
            a.begin()
            b.begin()
            a.execute("UPDATE DEPT SET budget = budget + 1 WHERE dno = 1")
            a.commit()
            with pytest.raises(SerializationError) as info:
                b.execute("UPDATE DEPT SET budget = budget + 1 WHERE dno = 1")
            assert info.value.retryable
            assert info.value.backoff_hint_s == SerializationError.backoff_hint_s
            assert getattr(info.value, "remote", False)
            b.rollback()

    def test_client_run_retryable_converges(self, wire_server):
        """N remote writers increment one row under run_retryable: every
        conflict must be retried to success, like in-process."""
        workers = 4
        increments = 3
        errors = []

        def worker():
            try:
                with WireClient(port=wire_server.port) as c:
                    for _ in range(increments):
                        def txn():
                            c.begin()
                            c.execute(
                                "UPDATE DEPT SET budget = budget + 1 "
                                "WHERE dno = 1"
                            )
                            c.commit()
                        c.run_retryable(txn, retries=25)
            except Exception as exc:  # noqa: BLE001 - surfaced via assert
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not errors
        with WireClient(port=wire_server.port) as c:
            assert c.execute(
                "SELECT budget FROM DEPT WHERE dno = 1"
            ).scalar() == 1000.0 + workers * increments


class TestObservability:
    def test_sys_sessions_reflects_live_connections(self, wire_server):
        with WireClient(port=wire_server.port) as a, \
                WireClient(port=wire_server.port) as b:
            rows = a.execute(
                "SELECT session_id, state FROM SYS_SESSIONS ORDER BY session_id"
            ).rows()
            ids = [r[0] for r in rows]
            assert a.session_id in ids and b.session_id in ids
            assert len(rows) == 2
        # both gone after close
        with WireClient(port=wire_server.port) as c:
            assert c.execute("SELECT COUNT(*) FROM SYS_SESSIONS").scalar() == 1

    def test_sys_stat_network_counts_frames(self, wire_server, client):
        before = client.execute(
            "SELECT frames_in, frames_out FROM SYS_STAT_NETWORK"
        ).first()
        client.execute("SELECT COUNT(*) FROM EMP")
        after = client.execute(
            "SELECT frames_in, frames_out FROM SYS_STAT_NETWORK"
        ).first()
        assert after[0] >= before[0] + 2
        assert after[1] >= before[1] + 2

    def test_errors_counted(self, wire_server, client):
        with pytest.raises(CatalogError):
            client.execute("SELECT * FROM NOPE")
        counters = wire_server.server.db.network.snapshot()
        assert counters["errors_sent"] >= 1
        errors = client.execute(
            "SELECT errors FROM SYS_SESSIONS "
            f"WHERE session_id = {client.session_id}"
        ).scalar()
        assert errors == 1


class TestGracefulShutdown:
    def test_draining_refuses_new_connections_retryably(self):
        db = figure1_database(mvcc=True)
        server = ServerThread(db).start()
        try:
            server.server._draining = True
            with pytest.raises(ServerShutdownError) as info:
                WireClient(port=server.port)
            assert info.value.retryable
        finally:
            server.server._draining = False
            server.stop()

    def test_shutdown_leaves_no_sessions(self):
        db = figure1_database(mvcc=True)
        server = ServerThread(db).start()
        clients = [WireClient(port=server.port) for _ in range(3)]
        for idx, c in enumerate(clients):
            assert c.execute("SELECT COUNT(*) FROM DEPT").scalar() == 3
        server.stop()
        assert len(db.wire_sessions) == 0
        assert db.network.snapshot()["connections_active"] == 0
        assert db.execute("SELECT COUNT(*) FROM SYS_SESSIONS").scalar() == 0
        for c in clients:
            c.sock.close()

    def test_in_flight_statement_drains(self):
        """A statement running when stop() is called still gets its answer."""
        db = figure1_database(mvcc=True)
        server = ServerThread(db, drain_timeout_s=30).start()
        client = WireClient(port=server.port)
        result = {}

        def slow_query():
            result["rows"] = client.execute(
                "SELECT d1.dno FROM DEPT d1, DEPT d2, EMP e1, EMP e2, EMP e3"
            ).rows()

        worker = threading.Thread(target=slow_query)
        worker.start()
        # wait until the server actually has the statement in flight (or it
        # already finished) so stop() exercises the drain path, not a close
        # of an idle connection that never received the frame
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and worker.is_alive():
            states = [row[2] for row in db.wire_sessions.rows_snapshot()]
            if "running" in states:
                break
            time.sleep(0.001)
        server.stop()
        worker.join(30)
        assert len(result.get("rows", [])) == 3 * 3 * 6 * 6 * 6
        client.sock.close()


class TestConcurrentClients:
    """32 clients, each running 12 ops of a fixed mix: the Fig. 1 TAKE and
    one path, the recursive STAFF TAKE, a 3-level OO1 frontier traversal in
    SQL, and an indexed point select.  A client sends its 18 requests and
    a CLOSE, and receives a hello and 19 replies; a session that fails,
    retries or leaks moves one of the counts."""

    CLIENTS = 32
    OPS_PER_CLIENT = 12

    @staticmethod
    def run_op(client, op, slot):
        if op == 0:
            co = client.take(FIGURE1_CO)
            assert co.nodes["Xemp"] == 5
            assert len(co.path("Xdept", "employment", dname="d2")) == 3
            co.close()
        elif op == 1:
            co = client.take(STAFF_CO)
            assert co.nodes["Xemp"] == 29
            co.close()
        elif op == 2:
            frontier = [1 + slot % 150]
            for _ in range(3):
                ids = ", ".join(map(str, frontier))
                rows = client.execute(
                    f"SELECT cto FROM CONN WHERE cfrom IN ({ids})"
                ).rows()
                frontier = sorted({row[0] for row in rows})[:32]
        else:
            row = client.execute(
                f"SELECT ptype, x, y FROM PART WHERE pid = {1 + slot % 150}"
            ).first()
            assert row is not None

    def test_mix_counts_every_frame(self):
        db = demo_database(mvcc=True, num_parts=150)
        failures = []

        def worker(port, slot):
            try:
                with WireClient(port=port) as client:
                    for op_index in range(self.OPS_PER_CLIENT):
                        self.run_op(client, (slot + op_index) % 4, slot * 7 + op_index)
            except Exception as exc:
                failures.append((slot, repr(exc)))

        with ServerThread(db, max_connections=self.CLIENTS + 8) as server:
            threads = [
                threading.Thread(target=worker, args=(server.port, slot))
                for slot in range(self.CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
                assert not thread.is_alive()
        counters = db.network.snapshot()
        assert failures == []
        assert len(db.wire_sessions) == 0
        assert {
            key: counters[key]
            for key in (
                "connections_opened",
                "connections_refused",
                "frames_in",
                "frames_out",
                "retryable_errors_sent",
            )
        } == {
            "connections_opened": 32,
            "connections_refused": 0,
            "frames_in": 32 * 19,
            "frames_out": 32 * 20,
            "retryable_errors_sent": 0,
        }
