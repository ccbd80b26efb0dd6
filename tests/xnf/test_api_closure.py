"""Session API, projection visibility, closure classification."""

import pytest

from repro.errors import XNFError
from repro.relational.engine import Database
from repro.workloads import company
from repro.xnf.api import CompositeObject, XNFSession
from repro.xnf.closure import QueryClass, classify, materialize_node


class TestSessionAPI:
    def test_execute_returns_co_for_take(self, company_session):
        result = company_session.execute(company.FIGURE1_CO)
        assert isinstance(result, CompositeObject)

    def test_query_rejects_non_take(self, fig4_session):
        with pytest.raises(XNFError):
            fig4_session.query("OUT OF ALL-DEPS DELETE *")

    def test_create_view_validates(self, company_session):
        with pytest.raises(Exception):
            company_session.create_view(
                "CREATE VIEW BAD AS OUT OF MISSING-VIEW TAKE *"
            )

    def test_create_view_requires_view_statement(self, company_session):
        with pytest.raises(XNFError):
            company_session.create_view("OUT OF Xdept AS DEPT TAKE *")

    def test_drop_view(self, fig4_session):
        fig4_session.execute("DROP VIEW ALL-DEPS")
        with pytest.raises(Exception):
            fig4_session.query("OUT OF ALL-DEPS TAKE *")

    def test_last_stats_populated(self, company_session):
        company_session.query(company.FIGURE1_CO)
        assert company_session.last_stats is not None
        assert company_session.last_stats.queries_issued > 0

    def test_describe(self, company_session):
        text = company_session.describe(company.FIGURE1_CO)
        assert "Xskill" in text and "empproperty" in text

    def test_repr(self, company_session):
        co = company_session.query(company.FIGURE1_CO)
        assert "tuples" in repr(co)


class TestProjectionVisibility:
    def test_hidden_columns_not_readable(self, fig4_session):
        co = fig4_session.query(
            "OUT OF ALL-DEPS TAKE Xdept(dno, dname), Xemp(*), employment"
        )
        dept = co.node("Xdept")[0]
        assert dept["dname"].startswith("d")
        with pytest.raises(XNFError):
            dept["budget"]

    def test_values_respect_projection(self, fig4_session):
        co = fig4_session.query(
            "OUT OF ALL-DEPS TAKE Xdept(dno, dname), Xemp(*), employment"
        )
        dept = co.node("Xdept")[0]
        assert len(dept.values()) == 2

    def test_edges_still_work_on_projected_nodes(self, fig4_session):
        """Edge predicates use the full internal row even when the join
        column is projected away for the application."""
        co = fig4_session.query(
            "OUT OF ALL-DEPS TAKE Xdept(dname), Xemp(ename), employment"
        )
        dept = co.find("Xdept", dname="dNY")
        assert sorted(t["ename"] for t in dept.related("employment")) == [
            "e1", "e2",
        ]

    def test_manipulation_works_despite_projection(self, fig4_session, fig4_db):
        co = fig4_session.query(
            "OUT OF ALL-DEPS TAKE Xdept(dname), Xemp(ename, sal), employment"
        )
        e1 = co.find("Xemp", ename="e1")
        co.update(e1, sal=77.0)
        assert fig4_db.execute("SELECT sal FROM EMP WHERE eno = 1").scalar() == 77.0


class TestClosure:
    def test_classify_type1(self):
        assert classify(
            "OUT OF a AS T, b AS U, r AS (RELATE a, b WHERE a.x = b.y) TAKE *"
        ) == QueryClass.NF_TO_XNF

    def test_classify_type2(self):
        assert classify("OUT OF SOME-VIEW TAKE *") == QueryClass.XNF_TO_XNF

    def test_classify_type4(self):
        assert classify("SELECT * FROM T") == QueryClass.NF_TO_NF

    def test_classify_create_view(self):
        assert classify(
            "CREATE VIEW V AS OUT OF OTHER-VIEW TAKE *"
        ) == QueryClass.XNF_TO_XNF

    def test_materialize_node_respects_projection(self, fig4_session, fig4_db):
        co = fig4_session.query(
            "OUT OF ALL-DEPS TAKE Xdept(*), Xemp(ename, sal), employment"
        )
        name = materialize_node(fig4_db, co.cache, "Xemp")
        result = fig4_db.execute(f"SELECT * FROM {name}")
        assert result.columns == ["ename", "sal"]
        assert len(result.rows) == 4

    def test_materialized_table_named(self, fig4_session, fig4_db):
        co = fig4_session.query("OUT OF ALL-DEPS TAKE *")
        name = co.to_table("Xdept", "DEPT_SNAP")
        assert name == "DEPT_SNAP"
        assert fig4_db.execute("SELECT COUNT(*) FROM DEPT_SNAP").scalar() == 2


class TestSharedDatabase:
    """Fig. 7: SQL applications and XNF applications share the data."""

    def test_sql_sees_xnf_changes(self, fig4_session, fig4_db):
        co = fig4_session.query("OUT OF ALL-DEPS TAKE *")
        e1 = co.find("Xemp", ename="e1")
        co.update(e1, sal=500.0)
        assert fig4_db.execute(
            "SELECT sal FROM EMP WHERE ename = 'e1'"
        ).scalar() == 500.0

    def test_xnf_sees_sql_changes(self, fig4_session, fig4_db):
        fig4_db.execute("INSERT INTO EMP VALUES (50, 'sqln', 1.0, 1, 'staff')")
        co = fig4_session.query("OUT OF ALL-DEPS TAKE *")
        assert co.find("Xemp", ename="sqln") is not None

    def test_traditional_app_needs_no_change(self, fig4_session, fig4_db):
        """Plain SQL keeps working mid-session, untouched by XNF use."""
        fig4_session.query("OUT OF EXT-ALL-DEPS-ORG TAKE *")
        result = fig4_db.execute(
            "SELECT d.dname, COUNT(*) FROM DEPT d, EMP e "
            "WHERE d.dno = e.edno GROUP BY d.dname ORDER BY 1"
        )
        assert result.rows == [("dNY", 2), ("dSF", 2)]


class TestOneStatementOneSnapshot:
    """A CO is the set of tuples reachable from its roots in *one* database
    state, however many generated queries its extraction runs."""

    CO = """
    OUT OF
     Xroot AS (SELECT * FROM PART WHERE pid = 1),
     Xpart AS PART,
     start AS (RELATE Xroot, Xpart WHERE Xroot.pid = Xpart.pid),
     connects AS (RELATE Xpart source, Xpart target USING CONN c
                  WHERE source.pid = c.cfrom AND target.pid = c.cto)
    TAKE *
    """

    @staticmethod
    def _chain():
        db = Database()
        db.execute("CREATE TABLE PART (pid INTEGER PRIMARY KEY)")
        db.execute("CREATE TABLE CONN (cfrom INTEGER, cto INTEGER)")
        db.execute("INSERT INTO PART VALUES (1), (2), (3), (4), (5)")
        db.execute("INSERT INTO CONN VALUES (1, 2), (2, 3), (3, 4)")
        return db

    def _take_with_commit_after(self, k):
        """Extract the CO; another session commits a re-wiring of the chain
        right after the extraction's k-th generated query."""
        db = self._chain()
        writer = db.connect()
        issued = [0]
        run_query = db.execute_ast

        def execute_ast(stmt, **kwargs):
            result = run_query(stmt, **kwargs)
            issued[0] += 1
            if issued[0] == k:
                writer.begin()
                writer.execute("DELETE FROM CONN WHERE cfrom = 3")
                writer.execute("INSERT INTO CONN VALUES (1, 5)")
                writer.commit()
            return result

        db.execute_ast = execute_ast
        co = XNFSession(db).query(self.CO)
        return {t["pid"] for t in co.node("Xpart")}, issued[0]

    def test_a_commit_between_generated_queries_never_tears_the_co(self):
        _, queries = self._take_with_commit_after(0)
        assert queries > 4
        before, after = {1, 2, 3, 4}, {1, 2, 3, 5}
        for k in range(queries + 1):
            parts, _ = self._take_with_commit_after(k)
            assert parts in (before, after), (k, parts)
