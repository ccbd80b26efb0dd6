"""EXPLAIN statement and plan rendering."""

import pytest



class TestExplainStatement:
    def test_explain_returns_plan_rows(self, people_db):
        result = people_db.execute("EXPLAIN SELECT * FROM PEOPLE WHERE id = 1")
        assert result.columns == ["plan"]
        text = "\n".join(row[0] for row in result.rows)
        assert "IndexEqScan" in text
        assert "Project" in text

    def test_explain_join_shows_method(self, people_db):
        people_db.execute("CREATE TABLE PETS (owner INTEGER)")
        rows = ", ".join(f"({i % 5 + 1})" for i in range(50))
        people_db.execute(f"INSERT INTO PETS VALUES {rows}")
        people_db.execute("ANALYZE")
        result = people_db.execute(
            "EXPLAIN SELECT p.name FROM PEOPLE p, PETS q WHERE p.id = q.owner"
        )
        text = "\n".join(row[0] for row in result.rows)
        assert "Join" in text

    def test_explain_does_not_execute(self, people_db):
        people_db.execute("EXPLAIN SELECT * FROM PEOPLE")
        assert people_db.execute("SELECT COUNT(*) FROM PEOPLE").scalar() == 5

    def test_explain_helper_matches_statement(self, people_db):
        via_stmt = "\n".join(
            row[0]
            for row in people_db.execute("EXPLAIN SELECT * FROM PEOPLE").rows
        )
        via_helper = people_db.explain("SELECT * FROM PEOPLE")
        assert via_stmt == via_helper

    def test_explain_requires_query(self, people_db):
        with pytest.raises(Exception):
            people_db.execute("EXPLAIN DELETE FROM PEOPLE")

    def test_each_explained_query_keeps_its_own_stats_row(self, people_db):
        people_db.execute("EXPLAIN ANALYZE SELECT name FROM PEOPLE WHERE id = 1")
        people_db.explain_analyze("SELECT age FROM PEOPLE WHERE city = 'NY'")
        people_db.execute("EXPLAIN SELECT name FROM PEOPLE")
        rows = people_db.execute(
            "SELECT fingerprint, calls FROM SYS_STAT_STATEMENTS"
        ).rows
        assert sorted(row for row in rows if row[0].startswith("EXPLAIN")) == [
            ("EXPLAIN ANALYZE SELECT age FROM PEOPLE WHERE (city = 'NY')", 1),
            ("EXPLAIN ANALYZE SELECT name FROM PEOPLE WHERE (id = 1)", 1),
            ("EXPLAIN SELECT name FROM PEOPLE", 1),
        ]


class TestOrderByAggregate:
    def test_order_by_count_star(self, people_db):
        result = people_db.execute(
            "SELECT city, COUNT(*) FROM PEOPLE GROUP BY city ORDER BY COUNT(*) DESC, city"
        )
        assert result.rows[0][0] == "NY"

    def test_order_by_sum(self, people_db):
        result = people_db.execute(
            "SELECT city, SUM(age) FROM PEOPLE WHERE city IS NOT NULL "
            "GROUP BY city ORDER BY SUM(age)"
        )
        assert [r[0] for r in result.rows] == ["LA", "SF", "NY"]

    def test_order_by_aggregate_alias_still_works(self, people_db):
        result = people_db.execute(
            "SELECT city, COUNT(*) AS n FROM PEOPLE GROUP BY city ORDER BY n DESC"
        )
        assert result.rows[0] == ('NY', 2)
