"""EXPLAIN ANALYZE: rendered row counts must equal actual cardinalities
(PR 3 satellite d, part 2)."""

import re

import pytest

from repro.relational.engine import Database

OP_LINE = re.compile(r"^\s*(.+?)\s+\((rows=[^)]*)\)\s*$")


def op_stats_lines(text):
    """Parse ``Op  (rows=…, loops=…, time=…)`` lines into (op, attrs) pairs."""
    out = []
    for line in text.splitlines():
        match = OP_LINE.match(line)
        if not match:
            continue
        attrs = {}
        for part in match.group(2).split(","):
            key, _, value = part.strip().partition("=")
            attrs[key] = value
        out.append((match.group(1), attrs))
    return out


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE DEPT (dno INTEGER PRIMARY KEY, dname VARCHAR)"
    )
    database.execute(
        "CREATE TABLE EMP (eno INTEGER PRIMARY KEY, name VARCHAR, "
        "dno INTEGER, salary INTEGER)"
    )
    for dno in range(1, 4):
        database.execute(f"INSERT INTO DEPT VALUES ({dno}, 'd{dno}')")
    for eno in range(1, 13):
        database.execute(
            f"INSERT INTO EMP VALUES ({eno}, 'e{eno}', {eno % 3 + 1}, "
            f"{1000 * eno})"
        )
    database.execute("ANALYZE")
    return database


class TestRowCountsMatchActuals:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT * FROM EMP",
            "SELECT * FROM EMP WHERE salary > 6000",
            "SELECT e.name, d.dname FROM EMP e, DEPT d WHERE e.dno = d.dno",
            "SELECT dno, COUNT(*) FROM EMP GROUP BY dno",
            "SELECT * FROM EMP ORDER BY salary DESC",
            "SELECT DISTINCT dno FROM EMP",
        ],
    )
    def test_root_rows_equal_result_cardinality(self, db, sql):
        actual = len(db.execute(sql).rows)
        text = db.explain_analyze(sql)
        ops = op_stats_lines(text)
        assert ops, f"no instrumented operators in:\n{text}"
        root_op, root_attrs = ops[0]
        assert int(root_attrs["rows"]) == actual
        assert f"actual rows: {actual}" in text

    def test_statement_form_matches_helper(self, db):
        sql = "SELECT * FROM EMP WHERE dno = 2"
        via_stmt = db.execute(f"EXPLAIN ANALYZE {sql}")
        text = "\n".join(row[0] for row in via_stmt.rows)
        actual = len(db.execute(sql).rows)
        assert f"actual rows: {actual}" in text
        assert "stages:" in text
        assert "plan cache:" in text

    def test_rows_in_consistent_with_children(self, db):
        """A join's rows_in is the sum of what its inputs produced."""
        text = db.explain_analyze(
            "SELECT e.name, d.dname FROM EMP e, DEPT d WHERE e.dno = d.dno"
        )
        ops = op_stats_lines(text)
        joins = [a for op, a in ops if "Join" in op]
        assert joins, f"no join operator in:\n{text}"
        leaf_rows = sum(
            int(a["rows"]) for op, a in ops if "Scan" in op
        )
        assert int(joins[0]["rows_in"]) == leaf_rows

    def test_stage_timings_cover_the_pipeline(self, db):
        text = db.explain_analyze("SELECT * FROM EMP")
        stage_line = next(
            line for line in text.splitlines() if line.startswith("stages:")
        )
        for stage in ("parse", "build_qgm", "rewrite", "optimize", "execute"):
            assert f"{stage}=" in stage_line

    def test_analyze_does_not_pollute_the_plan_cache(self, db):
        db.plan_cache.clear()
        before = db.plan_cache.stats()["entries"]
        db.explain_analyze("SELECT * FROM EMP WHERE dno = 1")
        db.execute("EXPLAIN ANALYZE SELECT * FROM EMP WHERE dno = 1")
        assert db.plan_cache.stats()["entries"] == before
        # and a subsequent normal execution still works and caches
        db.execute("SELECT * FROM EMP WHERE dno = 1")
        db.execute("SELECT * FROM EMP WHERE dno = 1")
        assert db.plan_cache.stats()["hits"] >= 1


class TestEstimates:
    def test_skewed_filter_prints_est_beside_rows(self):
        """1 000 rows, 990 of them ``b = 0``: ANALYZE's 11 distinct values
        make the uniform guess 1000 / 11, and the scan's line prints it
        beside the 990 rows it produced."""
        db = Database()
        db.execute("CREATE TABLE s (a INTEGER, b INTEGER)")
        db.execute("BEGIN")
        for i in range(1000):
            db.execute(f"INSERT INTO s VALUES ({i}, {0 if i < 990 else i})")
        db.execute("COMMIT")
        db.execute("ANALYZE")
        result = db.execute("EXPLAIN ANALYZE SELECT * FROM s WHERE b = 0")
        ops = op_stats_lines("\n".join(row[0] for row in result.rows))
        estimated = [(op, attrs) for op, attrs in ops if "est" in attrs]
        assert [(op, a["rows"], a["est"]) for op, a in estimated] == [
            ("Filter(s)", "990", "91")
        ]
        assert list(estimated[0][1])[:2] == ["rows", "est"]
