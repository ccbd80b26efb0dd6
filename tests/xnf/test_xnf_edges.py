"""XNF layer edge cases: projection + manipulation interplay, restriction
attribute references, CO deletion of non-updatable nodes, stream on cyclic
schemas, snapshot of projected views."""

import pytest

from repro.errors import UpdatabilityError, XNFError
from repro.xnf.api import XNFSession


class TestEdgeRestrictionAttributes:
    @pytest.mark.parametrize(
        "predicate",
        [
            "percentage >= 50",
            "CASE WHEN percentage >= 50 THEN 1 ELSE 0 END = 1",
            "CASE WHEN membership.percentage >= 50 THEN 1 ELSE 0 END = 1",
        ],
        ids=["plain", "case", "qualified-case"],
    )
    @pytest.mark.parametrize(
        "level",
        # a path expression makes the restriction instance-level: it is then
        # evaluated against the loaded cache instead of folded into SQL
        ["", " AND COUNT(p->membership) >= 0"],
        ids=["schema", "cache"],
    )
    def test_attribute_reference(self, fig4_session, level, predicate):
        """An edge restriction can reference the relationship's attribute,
        at any depth of the predicate: the resolver substitutes its defining
        expression, the cache-side evaluator each connection's value."""
        co = fig4_session.query(
            f"""
            OUT OF ALL-DEPS-ORG
            WHERE membership (p, e) SUCH THAT {predicate}{level}
            TAKE *
            """
        )
        pairs = sorted(
            (c.parent["pname"], c.child["ename"], c["percentage"])
            for c in co.connections("membership")
        )
        assert pairs == [("p2", "e3", 50.0), ("p4", "e4", 100.0)]

    def test_involve_style_view(self, fig4_session):
        """Section 5's 'involve' example: a derived relationship with an
        attribute threshold, defined declaratively."""
        fig4_session.create_view(
            """
            CREATE VIEW INVOLVED AS
            OUT OF Xdept AS DEPT, Xemp AS EMP,
              involve AS (RELATE Xdept, Xemp
                WITH ATTRIBUTES ep.percentage
                USING PROJ pr, EMPPROJ ep
                WHERE Xdept.dno = pr.pdno AND pr.pno = ep.eppno
                  AND Xemp.eno = ep.epeno AND ep.percentage >= 50)
            TAKE *
            """
        )
        co = fig4_session.query("OUT OF INVOLVED TAKE *")
        pairs = sorted(
            (c.parent["dname"], c.child["ename"])
            for c in co.connections("involve")
        )
        # >= 50%: e3 on p2 (dept dNY owns p2), e4 on p4 (dept dSF owns p4)
        assert pairs == [("dNY", "e3"), ("dSF", "e4")]


class TestCODeleteGuards:
    def test_co_delete_over_aggregated_node_rejected(self, fig4_session):
        fig4_session.create_view(
            """
            CREATE VIEW AGGD AS
            OUT OF Xd AS (SELECT edno, COUNT(*) AS n FROM EMP GROUP BY edno)
            TAKE *
            """
        )
        with pytest.raises(XNFError):
            fig4_session.execute("OUT OF AGGD DELETE *")

    def test_read_only_node_update_rejected(self, fig4_session):
        co = fig4_session.query(
            "OUT OF Xd AS (SELECT edno, COUNT(*) AS n FROM EMP "
            "GROUP BY edno) TAKE *"
        )
        target = co.node("Xd")[0]
        with pytest.raises(UpdatabilityError):
            co.update(target, n=99)


class TestProjectionEdgeCases:
    def test_take_single_node_becomes_whole_candidate_set(self, fig4_session):
        """Taking only a node (dropping its incoming edges' parents) makes
        it a root: every candidate is then reachable by definition."""
        co = fig4_session.query("OUT OF ALL-DEPS TAKE Xemp(*)")
        assert len(co.node("Xemp")) == 4
        assert co.edges() == []

    def test_projection_then_restriction(self, fig4_session):
        co = fig4_session.query(
            """
            OUT OF ALL-DEPS
            WHERE Xemp e SUCH THAT e.sal >= 200
            TAKE Xdept(*), Xemp(ename), employment
            """
        )
        assert sorted(t["ename"] for t in co.node("Xemp")) == ["e2", "e3", "e4"]
        emp = co.node("Xemp")[0]
        with pytest.raises(XNFError):
            emp["sal"]  # projected away

    def test_pending_take_with_path_restriction(self, fig4_session):
        """Path restrictions force post-instantiation projection; the
        combination must still match Fig. 5-style semantics."""
        co = fig4_session.query(
            """
            OUT OF EXT-ALL-DEPS-ORG
            WHERE Xdept d SUCH THAT COUNT(d->employment) >= 2
            TAKE Xdept(*), employment, Xemp(*)
            """
        )
        assert sorted(t["dname"] for t in co.node("Xdept")) == ["dNY", "dSF"]
        assert co.nodes() == ["Xdept", "Xemp"]
        assert "ownership" not in co.edges()


class TestSnapshotsOfProjectedViews:
    def test_snapshot_keeps_projection(self, fig4_session):
        fig4_session.create_view(
            """
            CREATE VIEW SLIM AS
            OUT OF Xdept AS DEPT, Xemp AS EMP,
              employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno)
            TAKE Xdept(dname), Xemp(ename, sal), employment
            """
        )
        fig4_session.materialize_view("SLIM", "SLIMSNAP")
        snap = fig4_session.load_snapshot("SLIMSNAP")
        dept = snap.node("Xdept")[0]
        assert list(dept.as_dict()) == ["dname"]
        emp = dept.related("employment")[0]
        assert set(emp.as_dict()) == {"ename", "sal"}


class TestStreamCyclicSchemas:
    def test_stream_handles_cycles(self, fig4_session):
        from repro.xnf.stream import TupleItem, heterogeneous_stream
        from repro.xnf.semantic_rewrite import XNFCompiler
        from repro.xnf.views import resolve

        stored = fig4_session.views.get("EXT-ALL-DEPS-ORG")
        schema = resolve(stored, fig4_session.views)
        instance = XNFCompiler(fig4_session.db).instantiate(schema)
        items = list(heterogeneous_stream(instance))
        tuple_counts = {}
        for item in items:
            if isinstance(item, TupleItem):
                tuple_counts[item.component] = (
                    tuple_counts.get(item.component, 0) + 1
                )
        assert tuple_counts == {
            name: len(rows) for name, rows in instance.rows.items()
        }

    def test_stream_emits_every_connection_exactly_once(self, fig4_session):
        from repro.xnf.stream import ConnectionItem, heterogeneous_stream
        from repro.xnf.semantic_rewrite import XNFCompiler
        from repro.xnf.views import resolve

        stored = fig4_session.views.get("EXT-ALL-DEPS-ORG")
        schema = resolve(stored, fig4_session.views)
        instance = XNFCompiler(fig4_session.db).instantiate(schema)
        per_edge = {}
        for item in heterogeneous_stream(instance):
            if isinstance(item, ConnectionItem):
                per_edge[item.component] = per_edge.get(item.component, 0) + 1
        assert per_edge == {
            name: len(conns) for name, conns in instance.connections.items()
        }


class TestMatchPredicateWithoutPK:
    def test_update_on_pkless_base_table(self, db):
        """Propagation matches on all columns when no PK subset exists."""
        db.execute("CREATE TABLE NOTES (txt VARCHAR, prio INTEGER)")
        db.execute("INSERT INTO NOTES VALUES ('a', 1), ('b', NULL)")
        session = XNFSession(db)
        co = session.query("OUT OF Xn AS NOTES TAKE *")
        note_b = co.find("Xn", txt="b")
        co.update(note_b, prio=9)
        assert sorted(db.execute("SELECT * FROM NOTES").rows) == [
            ("a", 1), ("b", 9),
        ]

    def test_delete_with_null_match(self, db):
        db.execute("CREATE TABLE NOTES (txt VARCHAR, prio INTEGER)")
        db.execute("INSERT INTO NOTES VALUES ('a', 1), ('b', NULL)")
        session = XNFSession(db)
        co = session.query("OUT OF Xn AS NOTES TAKE *")
        co.delete(co.find("Xn", txt="b"))
        assert db.execute("SELECT * FROM NOTES").rows == [("a", 1)]


def test_relationship_child_predicate_under_index_nested_loop():
    """A child-only conjunct of a relationship predicate (``Xcomp.weight >
    250``) must hold for every reached component, also when the generated
    join probes COMPONENT's index."""
    from repro.workloads.design import build_design_database

    db = build_design_database(50)
    co = XNFSession(db).query(
        """
        OUT OF Xver AS (SELECT * FROM VERSION WHERE vid = 7),
               Xcomp AS COMPONENT,
               has AS (RELATE Xver, Xcomp
                       WHERE Xver.vid = Xcomp.cvid AND Xcomp.weight > 250)
        TAKE *
        """
    )
    expected = db.execute(
        "SELECT cid FROM COMPONENT WHERE cvid = 7 AND weight > 250"
    ).rows
    assert len(expected) == 9
    assert sorted(comp["cid"] for comp in co.node("Xcomp")) == sorted(
        row[0] for row in expected
    )
