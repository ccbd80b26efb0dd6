"""Edge cases across the engine: tiny buffers, odd queries, planner paths."""

import pytest

from repro.errors import TypeCheckError
from repro.relational.engine import Database


class TestTinyBufferPool:
    """Queries stay correct when the working set far exceeds the buffer."""

    def test_scan_with_evictions(self):
        db = Database(page_size=512, buffer_capacity=3)
        db.execute("CREATE TABLE T (a INTEGER, payload VARCHAR)")
        table = db.catalog.get_table("T")
        for i in range(300):
            table.insert((i, f"row-{i}-padding-padding"))
        assert db.execute("SELECT COUNT(*) FROM T").scalar() == 300
        assert db.buffer_pool.evictions > 0

    def test_join_with_evictions(self):
        db = Database(page_size=512, buffer_capacity=3)
        db.execute("CREATE TABLE A (x INTEGER)")
        db.execute("CREATE TABLE B (y INTEGER)")
        for table_name, col in (("A", "x"), ("B", "y")):
            table = db.catalog.get_table(table_name)
            for i in range(120):
                table.insert((i,))
        result = db.execute("SELECT COUNT(*) FROM A, B WHERE A.x = B.y")
        assert result.scalar() == 120

    def test_update_survives_evictions(self):
        db = Database(page_size=512, buffer_capacity=3)
        db.execute("CREATE TABLE T (a INTEGER, s VARCHAR)")
        table = db.catalog.get_table("T")
        for i in range(200):
            table.insert((i, "x" * 30))
        db.execute("UPDATE T SET s = 'updated' WHERE a < 100")
        assert db.execute(
            "SELECT COUNT(*) FROM T WHERE s = 'updated'"
        ).scalar() == 100


class TestOddQueries:
    def test_select_constant_only(self, db):
        assert db.execute("SELECT 40 + 2").rows == [(42,)]

    def test_select_constant_with_subquery(self, people_db):
        result = people_db.execute("SELECT (SELECT MAX(age) FROM PEOPLE)")
        assert result.rows == [(35,)]

    def test_union_of_constants(self, db):
        result = db.execute("SELECT 1 UNION SELECT 2 UNION SELECT 1")
        assert sorted(result.rows) == [(1,), (2,)]

    def test_having_without_group_by(self, people_db):
        result = people_db.execute(
            "SELECT COUNT(*) FROM PEOPLE HAVING COUNT(*) > 3"
        )
        assert result.rows == [(5,)]
        result = people_db.execute(
            "SELECT COUNT(*) FROM PEOPLE HAVING COUNT(*) > 99"
        )
        assert result.rows == []

    def test_between_on_indexed_column(self, people_db):
        result = people_db.execute(
            "SELECT name FROM PEOPLE WHERE id BETWEEN 2 AND 4 ORDER BY id"
        )
        assert [r[0] for r in result.rows] == ["bob", "cat", "dan"]

    def test_nested_derived_tables(self, people_db):
        result = people_db.execute(
            "SELECT z.n FROM (SELECT y.n FROM (SELECT name AS n FROM PEOPLE "
            "WHERE age > 26) AS y) AS z ORDER BY z.n"
        )
        assert result.rows == [("ann",), ("cat",)]

    def test_empty_statement_rejected(self, db):
        with pytest.raises(Exception):
            db.execute("   ")

    def test_execute_script_returns_all_results(self, people_db):
        results = people_db.execute_script(
            "SELECT 1; SELECT COUNT(*) FROM PEOPLE; SELECT 3"
        )
        assert [r.scalar() for r in results] == [1, 5, 3]

    def test_string_concat_operator(self, people_db):
        result = people_db.execute(
            "SELECT name || '@' || city FROM PEOPLE WHERE id = 1"
        )
        assert result.rows == [("ann@NY",)]

    def test_arith_null_propagation_in_projection(self, people_db):
        result = people_db.execute("SELECT age + 1 FROM PEOPLE WHERE id = 4")
        assert result.rows == [(None,)]

    def test_in_list_with_null_candidate(self, people_db):
        # city IN ('NY', NULL): eve's NULL city -> unknown, others match NY
        result = people_db.execute(
            "SELECT COUNT(*) FROM PEOPLE WHERE city IN ('NY', NULL)"
        )
        assert result.scalar() == 2

    def test_substr_and_mod(self, people_db):
        result = people_db.execute(
            "SELECT SUBSTR(name, 1, 2), MOD(id, 2) FROM PEOPLE WHERE id = 3"
        )
        assert result.rows == [("ca", 1)]


def _named(n):
    """P(id, name VARCHAR, age INTEGER) with *n* rows."""
    db = Database()
    db.execute("CREATE TABLE P (id INTEGER PRIMARY KEY, name VARCHAR, age INTEGER)")
    db.execute(
        "INSERT INTO P VALUES " + ", ".join(f"({i}, 'n{i}', {i})" for i in range(n))
    )
    db.execute("ANALYZE")
    return db


class TestDomainChecks:
    """The hashed IN-list kernel answers and raises exactly as the row
    evaluator's left-to-right ``sql_compare`` fold, so the outcome never
    depends on the table size."""

    @pytest.mark.parametrize("n", [10, 100])
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT id FROM P WHERE name NOT IN (1, 2)",
            "SELECT id FROM P WHERE name IN (1, 2)",
            "SELECT id FROM P WHERE age IN ('a')",
            "SELECT id FROM P WHERE age NOT IN (NULL, 'a')",
            "SELECT id FROM P WHERE age IN (1, 'a')",
            "SELECT id FROM P WHERE name = 1",
        ],
    )
    def test_mismatched_in_list_raises(self, sql, n):
        with pytest.raises(TypeCheckError):
            _named(n).execute(sql)

    @pytest.mark.parametrize("n", [10, 100])
    def test_in_list_answers_match_the_row_fold(self, n):
        db = _named(n)
        count = "SELECT COUNT(*) FROM P WHERE "
        assert db.execute(count + "age NOT IN (3, 3)").scalar() == n - 1
        assert db.execute(count + "age NOT IN (3, NULL)").scalar() == 0
        assert db.execute(count + "name IN (NULL)").scalar() == 0
        assert db.execute(count + "name IN ('n1', 'n7', NULL)").scalar() == 2

    def test_avg_of_strings_is_a_type_error(self):
        db = _named(10)
        with pytest.raises(TypeCheckError):
            db.execute("SELECT AVG(name) FROM P")
        # SUM keeps the engine's string '+', which concatenates
        assert db.execute("SELECT SUM(name) FROM P WHERE id < 2").scalar() == "n0n1"


class TestManyTableJoins:
    def test_greedy_join_order_beyond_dp_threshold(self, db):
        """More than DP_THRESHOLD tables exercises the greedy planner."""
        names = [f"T{i}" for i in range(10)]
        for name in names:
            db.execute(f"CREATE TABLE {name} (k INTEGER, v INTEGER)")
            table = db.catalog.get_table(name)
            for i in range(6):
                table.insert((i, i * 10))
        joins = " AND ".join(
            f"{a}.k = {b}.k" for a, b in zip(names, names[1:])
        )
        froms = ", ".join(names)
        result = db.execute(
            f"SELECT COUNT(*) FROM {froms} WHERE {joins}"
        )
        assert result.scalar() == 6

    def test_star_join(self, db):
        db.execute("CREATE TABLE FACT (d1 INTEGER, d2 INTEGER, d3 INTEGER)")
        for dim in ("D1", "D2", "D3"):
            db.execute(f"CREATE TABLE {dim} (id INTEGER PRIMARY KEY, lab VARCHAR)")
            db.execute(f"INSERT INTO {dim} VALUES (1, 'a'), (2, 'b')")
        db.execute("INSERT INTO FACT VALUES (1, 2, 1), (2, 1, 2), (1, 1, 1)")
        db.execute("ANALYZE")
        result = db.execute(
            "SELECT COUNT(*) FROM FACT f, D1, D2, D3 "
            "WHERE f.d1 = D1.id AND f.d2 = D2.id AND f.d3 = D3.id "
            "AND D1.lab = 'a'"
        )
        assert result.scalar() == 2

    def test_outer_join_then_subquery_filter(self, people_db):
        people_db.execute("CREATE TABLE PETS (owner INTEGER, kind VARCHAR)")
        people_db.execute("INSERT INTO PETS VALUES (1, 'cat'), (3, 'dog')")
        result = people_db.execute(
            "SELECT p.name FROM PEOPLE p LEFT JOIN PETS q ON p.id = q.owner "
            "WHERE q.kind IS NULL AND EXISTS "
            "(SELECT 1 FROM PEOPLE r WHERE r.age = p.age AND r.id <> p.id) "
            "ORDER BY p.id"
        )
        assert result.rows == [("bob",), ("eve",)]


class TestWorkloadGenerators:
    def test_design_total_tuples_formula(self):
        from repro.workloads import design

        db = design.build_design_database(3)
        total = 0
        for name in ("DOCUMENT", "VERSION", "COMPONENT", "SUBCOMP"):
            total += db.execute(f"SELECT COUNT(*) FROM {name}").scalar()
        assert total == design.total_tuples(3)

    def test_oo1_connection_shape(self):
        import random

        from repro.workloads import oo1

        rows = oo1.generate_connections(100, random.Random(1))
        assert len(rows) == 100 * oo1.CONNECTIONS_PER_PART
        assert all(1 <= cto <= 100 for _, cto, _, _ in rows)

    def test_scaled_company_row_counts(self):
        from repro.workloads import company

        db = company.scaled_database(departments=5, employees_per_dept=4,
                                     projects_per_dept=2)
        assert db.execute("SELECT COUNT(*) FROM DEPT").scalar() == 5
        assert db.execute("SELECT COUNT(*) FROM EMP").scalar() == 20
        assert db.execute("SELECT COUNT(*) FROM PROJ").scalar() == 10
        # every project manager is an employee of the owning department
        bad = db.execute(
            "SELECT COUNT(*) FROM PROJ p WHERE p.pmgrno IS NOT NULL AND "
            "NOT EXISTS (SELECT 1 FROM EMP e WHERE e.eno = p.pmgrno "
            "AND e.edno = p.pdno)"
        ).scalar()
        assert bad == 0
