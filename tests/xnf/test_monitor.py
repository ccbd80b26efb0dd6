"""SYS_MONITOR: the built-in self-monitoring CO (ISSUE 5 tentpole,
part 2).  XNF path expressions over the engine's own SYS_* tables answer
"which operator dominated my slowest query"."""

import pytest

from repro.relational.engine import Database
from repro.xnf.api import XNFSession
from repro.xnf.monitor import MONITOR_VIEW_NAME, install_monitor


@pytest.fixture
def monitored():
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
    for i in range(30):
        db.execute(f"INSERT INTO t VALUES ({i}, {i % 5})")
    db.execute("ANALYZE")
    for i in range(5):
        db.execute(f"SELECT * FROM t WHERE b = {i}")
    db.execute("SELECT count(*), b FROM t GROUP BY b")
    return db, XNFSession(db)


class TestInstall:
    def test_view_registered_on_session_construction(self, monitored):
        _, session = monitored
        assert MONITOR_VIEW_NAME in session.views.names()

    def test_install_idempotent(self, monitored):
        _, session = monitored
        assert install_monitor(session) is True
        assert session.views.names().count(MONITOR_VIEW_NAME) == 1

    def test_droppable_and_reinstallable(self, monitored):
        _, session = monitored
        session.execute("DROP VIEW SYS_MONITOR")
        assert MONITOR_VIEW_NAME not in session.views.names()
        assert install_monitor(session) is True


class TestSelfMonitoringCO:
    def test_monitor_instantiates_over_sys_tables(self, monitored):
        _, session = monitored
        co = session.query("OUT OF SYS_MONITOR TAKE *")
        assert co.nodes() == ["STATEMENTS", "SPANS"]
        assert co.edges() == ["CALLS", "SUBSPANS"]
        assert len(co.node("STATEMENTS")) >= 3
        assert len(co.node("SPANS")) >= 3

    def test_which_operator_dominated_my_slowest_query(self, monitored):
        """The acceptance scenario: path expressions return the
        per-operator span breakdown of a previously executed statement."""
        _, session = monitored
        co = session.query("OUT OF SYS_MONITOR TAKE *")
        # The GROUP BY statement ran exactly once, as a plan-cache miss, so
        # its one trace holds every compile stage.  (Picking by latency
        # could land on a cache hit, which has no optimize span.)
        [stmt] = [
            t for t in co.node("STATEMENTS") if "GROUP BY" in t["fingerprint"]
        ]
        assert stmt["calls"] == 1
        [root] = co.path(stmt, "CALLS")
        assert root["plan_cache"] == "miss"
        operators = co.path(stmt, "CALLS->SUBSPANS[callee]")
        assert {"optimize", "execute"} <= {span["name"] for span in operators}
        assert all(span["parent_span_id"] == root["span_id"] for span in operators)
        children = [
            span for span in co.node("SPANS")
            if span["parent_span_id"] == root["span_id"]
        ]
        assert len(operators) == len(children)
        dominant = max(operators, key=lambda s: s["duration_ms"])
        assert dominant["depth"] == root["depth"] + 1

    def test_subspans_walks_deeper_levels(self, monitored):
        db, session = monitored
        co = session.query("OUT OF SYS_MONITOR TAKE *")
        spans_by_depth = {}
        for span in co.node("SPANS"):
            spans_by_depth.setdefault(span["depth"], []).append(span)
        max_depth = max(spans_by_depth)
        if max_depth < 2:
            pytest.skip("trace too shallow for a 2-hop walk")
        stmt = next(
            t for t in co.node("STATEMENTS")
            if t["fingerprint"].startswith("SELECT")
        )
        grandchildren = co.path(stmt, "CALLS->SUBSPANS[callee]->SUBSPANS[callee]")
        for span in grandchildren:
            assert span["depth"] >= 2

    def test_restriction_on_monitor_query(self, monitored):
        _, session = monitored
        co = session.query(
            "OUT OF SYS_MONITOR "
            "WHERE STATEMENTS s SUCH THAT s.calls >= 5 TAKE *"
        )
        for stat in co.node("STATEMENTS"):
            assert stat["calls"] >= 5

    def test_monitor_absent_without_sys_tables(self):
        class _Bare:
            pass

        bare_catalog = _Bare()
        bare_db = _Bare()
        bare_db.catalog = bare_catalog

        class _Views:
            def get(self, name):
                return None

        session = _Bare()
        session.db = bare_db
        session.views = _Views()
        assert install_monitor(session) is False
