"""Cross-check our SQL semantics against SQLite.

SQLite is used purely as a *reference oracle* for the SQL dialect both
engines share — the engine itself never uses it.  Includes a randomized
query generator (hypothesis) comparing result multisets.
"""

import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from repro.relational.engine import Database

ROWS = [
    (1, "ann", 30, "NY", 1.5),
    (2, "bob", 25, "SF", 2.5),
    (3, "cat", 35, "NY", None),
    (4, "dan", None, "LA", 4.0),
    (5, "eve", 25, None, 0.5),
    (6, "fox", 25, "NY", 2.5),
]

PET_ROWS = [
    (1, 1, "cat", 4),
    (2, 1, "dog", 7),
    (3, 3, "fish", 1),
    (4, None, "owl", 2),
    (5, 6, "cat", 3),
]


def people_and_pets(n_people, n_pets):
    """Deterministic P and Q rows at any size, with NULLs in every column
    that takes part in predicates or join keys."""
    species = ("cat", "dog", "fish", "owl", "hen")
    cities = ("NY", "SF", "LA", None)
    people = [
        (
            i,
            f"p{i % 41:02d}",
            None if i % 13 == 0 else 20 + (i * 7) % 45,
            cities[(i * 3) % len(cities)],
            None if i % 11 == 0 else round((i * 1.7) % 9.5, 2),
        )
        for i in range(1, n_people + 1)
    ]
    pets = [
        (i, None if i % 17 == 0 else (i * 5) % (n_people + 20), species[i % len(species)], i % 19)
        for i in range(1, n_pets + 1)
    ]
    return people, pets


def _values(rows):
    return ", ".join(
        "(" + ", ".join("NULL" if v is None else repr(v) for v in row) + ")"
        for row in rows
    )


def load_engines(people, pets):
    """Our engine and SQLite holding the same P (people) and Q (pets)."""
    ours = Database()
    ours.execute(
        "CREATE TABLE P (id INTEGER PRIMARY KEY, name VARCHAR, age INTEGER, "
        "city VARCHAR, score FLOAT)"
    )
    ours.execute(
        "CREATE TABLE Q (pid INTEGER PRIMARY KEY, owner INTEGER, "
        "species VARCHAR, age INTEGER)"
    )
    ref = sqlite3.connect(":memory:")
    ref.execute("CREATE TABLE P (id INTEGER PRIMARY KEY, name TEXT, age INTEGER, city TEXT, score REAL)")
    ref.execute("CREATE TABLE Q (pid INTEGER PRIMARY KEY, owner INTEGER, species TEXT, age INTEGER)")
    for table, rows in (("P", people), ("Q", pets)):
        if rows:
            ours.execute(f"INSERT INTO {table} VALUES {_values(rows)}")
            marks = ",".join("?" * len(rows[0]))
            ref.executemany(f"INSERT INTO {table} VALUES ({marks})", rows)
    ours.execute("ANALYZE")
    return ours, ref


@pytest.fixture
def engines():
    return load_engines(ROWS, PET_ROWS)


def _cells(row):
    """Int/float unification; floats to 9 places, since a sum's last bits
    depend on the order the rows arrive in (sharded scans differ)."""
    def cell(v):
        if isinstance(v, float):
            return int(v) if v.is_integer() else round(v, 9)
        return v
    return tuple(cell(v) for v in row)


def norm(rows):
    """Multiset comparison key."""
    return sorted(
        (_cells(row) for row in rows),
        key=lambda r: tuple((v is None, str(type(v)), v if v is not None else 0) for v in r),
    )


def check(engines, query, ordered=False):
    ours, ref = engines
    mine = ours.execute(query).rows
    theirs = ref.execute(query).fetchall()
    if ordered:
        assert [_cells(r) for r in mine] == [_cells(r) for r in theirs], query
    else:
        assert norm(mine) == norm(theirs), query


CROSSCHECK_QUERIES = [
    "SELECT * FROM P",
    "SELECT name, age FROM P WHERE age > 25",
    "SELECT name FROM P WHERE age > 25 AND city = 'NY'",
    "SELECT name FROM P WHERE age IS NULL OR city IS NULL",
    "SELECT name FROM P WHERE age BETWEEN 25 AND 30",
    "SELECT name FROM P WHERE name LIKE '%a%'",
    "SELECT name FROM P WHERE age IN (25, 35)",
    "SELECT name FROM P WHERE age NOT IN (25, 35)",
    "SELECT DISTINCT age FROM P",
    "SELECT DISTINCT city, age FROM P",
    "SELECT COUNT(*), COUNT(age), COUNT(DISTINCT age) FROM P",
    "SELECT SUM(age), AVG(score), MIN(name), MAX(score) FROM P",
    "SELECT city, COUNT(*) FROM P GROUP BY city",
    "SELECT city, SUM(age) FROM P GROUP BY city HAVING COUNT(*) > 1",
    "SELECT age, city, COUNT(*) FROM P GROUP BY age, city",
    "SELECT P.name, Q.species FROM P, Q WHERE P.id = Q.owner",
    "SELECT P.name, Q.species FROM P JOIN Q ON P.id = Q.owner",
    "SELECT P.name, Q.species FROM P LEFT JOIN Q ON P.id = Q.owner",
    "SELECT P.name FROM P LEFT JOIN Q ON P.id = Q.owner WHERE Q.pid IS NULL",
    "SELECT a.name, b.name FROM P a, P b WHERE a.age = b.age AND a.id < b.id",
    "SELECT name FROM P WHERE id IN (SELECT owner FROM Q)",
    "SELECT name FROM P WHERE id NOT IN (SELECT owner FROM Q)",
    "SELECT name FROM P WHERE id NOT IN (SELECT owner FROM Q WHERE owner IS NOT NULL)",
    "SELECT name FROM P WHERE EXISTS (SELECT 1 FROM Q WHERE Q.owner = P.id)",
    "SELECT name FROM P WHERE NOT EXISTS (SELECT 1 FROM Q WHERE Q.owner = P.id)",
    "SELECT name FROM P WHERE age = (SELECT MAX(age) FROM P)",
    "SELECT name, (SELECT COUNT(*) FROM Q WHERE Q.owner = P.id) FROM P",
    "SELECT name FROM P WHERE score > (SELECT AVG(score) FROM P)",
    "SELECT age FROM P UNION SELECT age FROM Q",
    "SELECT age FROM P UNION ALL SELECT age FROM Q",
    "SELECT age FROM P INTERSECT SELECT age FROM Q",
    "SELECT age FROM P EXCEPT SELECT age FROM Q",
    "SELECT d.name FROM (SELECT name, age FROM P WHERE age >= 25) AS d WHERE d.age < 31",
    "SELECT CASE WHEN age >= 30 THEN 'o' WHEN age IS NULL THEN 'u' ELSE 'y' END FROM P",
    "SELECT name, age * 2 + 1 FROM P",
    "SELECT UPPER(name), LENGTH(city), ABS(score) FROM P",
    "SELECT COALESCE(age, 0), COALESCE(city, 'none') FROM P",
    "SELECT age + score FROM P",
    "SELECT city FROM P WHERE NOT (age = 25)",
    "SELECT city, AVG(age) FROM P WHERE score IS NOT NULL GROUP BY city",
]

ORDERED_QUERIES = [
    "SELECT name FROM P ORDER BY name",
    "SELECT name, age FROM P WHERE age IS NOT NULL ORDER BY age DESC, name",
    "SELECT name FROM P ORDER BY id LIMIT 3",
    "SELECT name FROM P ORDER BY id LIMIT 2 OFFSET 2",
    "SELECT age, COUNT(*) AS n FROM P WHERE age IS NOT NULL GROUP BY age ORDER BY n DESC, age",
]

#: Queries aimed at the batch kernels: wide IN lists, comparisons both
#: ways round, NULL join keys, multi-column grouping, correlated
#: subqueries, string kernels and int/float arithmetic.
EXTRA_QUERIES = [
    # the hashed IN kernel against the row fold, including the NULL item
    "SELECT id FROM P WHERE age IN (25, 26, 27, 31, 40, 41, 52, 63, NULL)",
    "SELECT id FROM P WHERE age NOT IN (25, 26, 27, 31, 40, 41, 52, 63)",
    "SELECT id FROM P WHERE id IN (" + ", ".join(map(str, range(0, 300, 7))) + ")",
    # comparison both ways around, and column-vs-column
    "SELECT id FROM P WHERE 40 <= age",
    "SELECT pid FROM Q WHERE age < owner",
    # NULL-key joins never match, LEFT pads
    "SELECT P.id, Q.pid FROM P LEFT JOIN Q ON P.age = Q.age",
    "SELECT P.id, Q.pid FROM P JOIN Q ON P.age = Q.age",
    "SELECT city, age, COUNT(*), SUM(score) FROM P GROUP BY city, age",
    "SELECT species, COUNT(DISTINCT owner) FROM Q GROUP BY species",
    # correlated subqueries: the row closure runs per live row
    "SELECT name FROM P WHERE EXISTS "
    "(SELECT 1 FROM Q WHERE Q.owner = P.id AND Q.age > P.age - 30)",
    "SELECT id, (SELECT MAX(age) FROM Q WHERE Q.owner = P.id) FROM P",
    # string kernels
    "SELECT name FROM P WHERE name LIKE 'p1%'",
    "SELECT name FROM P WHERE name NOT LIKE '%3'",
    "SELECT name || '/' || city FROM P",
    # arithmetic incl. NULL propagation and int/float mixing
    "SELECT id, age * score, age - id FROM P",
    "SELECT id FROM P WHERE age * 2 > id + 40",
]

EXTRA_ORDERED = [
    "SELECT id, age FROM P ORDER BY age DESC, id LIMIT 20",
    "SELECT id FROM P WHERE city = 'NY' ORDER BY score, id LIMIT 100000 OFFSET 5",
    "SELECT species, COUNT(*) AS n FROM Q GROUP BY species ORDER BY n DESC, species",
]


@pytest.mark.parametrize("query", CROSSCHECK_QUERIES + EXTRA_QUERIES)
def test_crosscheck_unordered(engines, query):
    check(engines, query)


@pytest.mark.parametrize("query", ORDERED_QUERIES + EXTRA_ORDERED)
def test_crosscheck_ordered(engines, query):
    check(engines, query, ordered=True)


# ---------------------------------------------------------------------------
# Randomised crosscheck
# ---------------------------------------------------------------------------

_COLUMNS = ["id", "age", "score"]
_COMPARATORS = ["=", "<>", "<", "<=", ">", ">="]


@st.composite
def predicates(draw, columns=_COLUMNS, depth=0):
    """A random 3VL predicate over *columns*; with more than one table's
    columns, comparisons may also be column against column."""
    kinds = ["cmp", "isnull", "between", "in"] + (["and", "or", "not"] if depth < 2 else [])
    if columns is not _COLUMNS:
        kinds.append("cmpcol")
    kind = draw(st.sampled_from(kinds))
    if kind == "cmp":
        column = draw(st.sampled_from(columns))
        op = draw(st.sampled_from(_COMPARATORS))
        value = draw(st.integers(min_value=-5, max_value=40))
        return f"{column} {op} {value}"
    if kind == "cmpcol":
        left, right = draw(st.sampled_from(columns)), draw(st.sampled_from(columns))
        return f"{left} {draw(st.sampled_from(_COMPARATORS))} {right}"
    if kind == "isnull":
        column = draw(st.sampled_from(columns))
        negated = draw(st.booleans())
        return f"{column} IS {'NOT ' if negated else ''}NULL"
    if kind == "between":
        column = draw(st.sampled_from(columns))
        low = draw(st.integers(min_value=0, max_value=20))
        high = draw(st.integers(min_value=20, max_value=40))
        return f"{column} BETWEEN {low} AND {high}"
    if kind == "in":
        column = draw(st.sampled_from(columns))
        items = draw(st.lists(st.integers(0, 40), min_size=1, max_size=4))
        return f"{column} IN ({', '.join(map(str, items))})"
    if kind == "not":
        return f"NOT ({draw(predicates(columns, depth + 1))})"
    left = draw(predicates(columns, depth + 1))
    right = draw(predicates(columns, depth + 1))
    return f"({left}) {kind.upper()} ({right})"


@settings(max_examples=settings.default.max_examples * 4 // 5, deadline=None)
@given(pred=predicates())
def test_random_predicates_match_sqlite(pred):
    ours, ref = load_engines(ROWS, [])
    query = f"SELECT id FROM P WHERE {pred}"
    assert norm(ours.execute(query).rows) == norm(ref.execute(query).fetchall()), query


# ---------------------------------------------------------------------------
# One predicate in every position an expression is evaluated in
# ---------------------------------------------------------------------------

#: Columns of P and Q, for predicates that may span both tables.
_PQ_COLUMNS = ["P.id", "P.age", "P.score", "Q.age", "Q.owner"]

#: Query shapes over P alone: {p} is a predicate over P's columns.
P_SHAPES = {
    "case_in_select": "SELECT id, CASE WHEN {p} THEN 1 WHEN NOT ({p}) THEN 0 END FROM P",
    "case_in_where": "SELECT id FROM P WHERE CASE WHEN {p} THEN 1 WHEN NOT ({p}) THEN 0 END = 1",
    "case_unknown_in_where": (
        "SELECT id FROM P WHERE CASE WHEN {p} THEN 1 WHEN NOT ({p}) THEN 0 END IS NULL"
    ),
    "having": "SELECT id, age, score FROM P GROUP BY id, age, score HAVING {p}",
}

#: Query shapes over P and Q: {p} is a predicate over both tables' columns.
PQ_SHAPES = {
    "inner_on_beside_equi": "SELECT P.id, Q.pid FROM P JOIN Q ON P.id = Q.owner AND ({p})",
    "left_on_beside_equi": "SELECT P.id, Q.pid FROM P LEFT JOIN Q ON P.id = Q.owner AND ({p})",
    "inner_on_non_equi": "SELECT P.id, Q.pid FROM P JOIN Q ON {p}",
    "left_on_non_equi": "SELECT P.id, Q.pid FROM P LEFT JOIN Q ON {p}",
    "correlated_exists": (
        "SELECT P.id FROM P WHERE EXISTS (SELECT 1 FROM Q WHERE Q.owner = P.id AND ({p}))"
    ),
}

#: Ordered shapes: the result is compared row by row.
ORDERED_SHAPES = {
    "order_by_case": (
        "SELECT id FROM P ORDER BY CASE WHEN {p} THEN 1 WHEN NOT ({p}) THEN 0 END, id"
    ),
}

_small_engines = {}


def small_engines():
    """P and Q of the fixture, loaded once for the positional properties."""
    if not _small_engines:
        _small_engines["pair"] = load_engines(ROWS, PET_ROWS)
    return _small_engines["pair"]


@pytest.mark.parametrize("shape", sorted(P_SHAPES))
@settings(deadline=None)
@given(data=st.data())
def test_predicate_positions_over_one_table_match_sqlite(shape, data):
    query = P_SHAPES[shape].format(p=data.draw(predicates()))
    check(small_engines(), query)


@pytest.mark.parametrize("shape", sorted(PQ_SHAPES))
@settings(deadline=None)
@given(data=st.data())
def test_predicate_positions_over_two_tables_match_sqlite(shape, data):
    query = PQ_SHAPES[shape].format(p=data.draw(predicates(_PQ_COLUMNS)))
    check(small_engines(), query)


@pytest.mark.parametrize("shape", sorted(ORDERED_SHAPES))
@settings(deadline=None)
@given(data=st.data())
def test_predicate_positions_in_order_match_sqlite(shape, data):
    query = ORDERED_SHAPES[shape].format(p=data.draw(predicates()))
    check(small_engines(), query, ordered=True)


def test_case_runs_then_only_on_rows_its_when_selected():
    """``CASE WHEN b <> 0 THEN a / b END`` never divides by zero."""
    db = Database()
    db.execute("CREATE TABLE D (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER)")
    db.execute("INSERT INTO D VALUES (1, 6, 2), (2, 5, 0), (3, 7, NULL), (4, -9, 2)")
    query = "SELECT id, CASE WHEN b <> 0 THEN a / b ELSE -1 END FROM D ORDER BY id"
    assert db.execute(query).rows == [(1, 3), (2, -1), (3, -1), (4, -4)]
    where = "SELECT id FROM D WHERE CASE WHEN b <> 0 THEN a / b END > 0"
    assert db.execute(where).rows == [(1,)]
    nested = (
        "SELECT id FROM D WHERE CASE WHEN b = 0 THEN 0 "
        "WHEN b IS NULL THEN 1 ELSE a / b END = 1"
    )
    assert db.execute(nested).rows == [(3,)]


# ---------------------------------------------------------------------------
# Joins large enough for index nested loops, with inner-side filters
# ---------------------------------------------------------------------------


def test_index_nl_join_applies_inner_filter():
    """The inner table's own predicate must survive an index nested loop."""
    from repro.workloads.design import build_design_database

    db = build_design_database(20)
    query = (
        "SELECT V.vid FROM DOCUMENT D, VERSION V "
        "WHERE D.did = 3 AND D.did = V.vdid AND V.vnum = 1"
    )
    assert "IndexNLJoin" in db.explain(query)
    assert db.execute(query).rows == [(7,)]
    derived = (
        "SELECT V.vid FROM DOCUMENT D, (SELECT * FROM VERSION WHERE vnum = 1) AS V "
        "WHERE D.did = 3 AND D.did = V.vdid"
    )
    assert db.execute(derived).rows == [(7,)]
    joined = (
        "SELECT V.vid FROM DOCUMENT D JOIN VERSION V ON D.did = V.vdid "
        "WHERE D.did = 3 AND V.vnum = 1"
    )
    assert db.execute(joined).rows == [(7,)]


_JOIN_SIZES = {"A": 320, "B": 360, "C": 400}
_join_engines = {}


def join_engines():
    """A -< B -< C with 320-400 rows each and an index on every join column,
    loaded once: big enough that the planner picks index nested loops."""
    if not _join_engines:
        ours, ref = Database(), sqlite3.connect(":memory:")
        rows = {
            "A": [(i, i % 7, None if i % 29 == 0 else (i * 13) % 50) for i in range(1, 321)],
            "B": [(i, None if i % 31 == 0 else (i * 7) % 330, (i * 11) % 50) for i in range(1, 361)],
            "C": [(i, (i * 5) % 370, (i * 3) % 50) for i in range(1, 401)],
        }
        for name, (fk, val) in {"A": ("k", "v"), "B": ("a_id", "w"), "C": ("b_id", "x")}.items():
            ddl = f"CREATE TABLE {name} (id INTEGER PRIMARY KEY, {fk} INTEGER, {val} INTEGER)"
            ours.execute(ddl)
            ref.execute(ddl)
            ours.execute(f"INSERT INTO {name} VALUES {_values(rows[name])}")
            ref.executemany(f"INSERT INTO {name} VALUES (?, ?, ?)", rows[name])
            if name != "A":
                index = f"CREATE INDEX idx_{name}_{fk} ON {name} ({fk})"
                ours.execute(index)
                ref.execute(index)
        ours.execute("ANALYZE")
        _join_engines.update(ours=ours, ref=ref)
    return _join_engines["ours"], _join_engines["ref"]


_LOCAL = {"A": ["id", "k", "v"], "B": ["id", "a_id", "w"], "C": ["id", "b_id", "x"]}


@st.composite
def local_predicates(draw, table):
    column = draw(st.sampled_from(_LOCAL[table]))
    kind = draw(st.sampled_from(["=", "<", ">=", "between", "in"]))
    if kind == "between":
        low = draw(st.integers(0, 60))
        return f"{table}.{column} BETWEEN {low} AND {low + draw(st.integers(0, 40))}"
    if kind == "in":
        items = draw(st.lists(st.integers(0, 60), min_size=1, max_size=3))
        return f"{table}.{column} IN ({', '.join(map(str, items))})"
    return f"{table}.{column} {kind} {draw(st.integers(0, 60))}"


@st.composite
def join_queries(draw):
    tables = ["A", "B", "C"][: draw(st.integers(2, 3))]
    joins = ["A.id = B.a_id", "B.id = C.b_id"][: len(tables) - 1]
    preds = list(joins)
    for table in tables:
        preds += draw(st.lists(local_predicates(table), max_size=2))
    order = draw(st.permutations(tables))
    heads = ", ".join(f"{table}.id" for table in tables)
    return f"SELECT {heads} FROM {', '.join(order)} WHERE {' AND '.join(preds)}"


@settings(max_examples=settings.default.max_examples * 2, deadline=None)
@given(query=join_queries())
def test_random_indexed_joins_match_sqlite(query):
    ours, ref = join_engines()
    assert norm(ours.execute(query).rows) == norm(ref.execute(query).fetchall()), query


#: An index nested loop's residual and inner filter: B's predicates make the
#: outer side small, C.x < 30 is the inner quantifier's own predicate.
INDEX_JOIN_SHAPE = (
    "SELECT B.id, C.id FROM B JOIN C ON B.id = C.b_id AND ({p}) "
    "WHERE B.w = 3 AND B.a_id > 5 AND C.x < 30"
)


def test_index_join_shape_probes_an_index():
    ours, _ = join_engines()
    plan = ours.explain(INDEX_JOIN_SHAPE.format(p="B.a_id > C.x"))
    assert "IndexNLJoin" in plan and "filter" in plan


@settings(deadline=None)
@given(pred=predicates(["B.a_id", "B.w", "C.id", "C.x"]))
def test_predicate_beside_an_index_join_key_matches_sqlite(pred):
    check(join_engines(), INDEX_JOIN_SHAPE.format(p=pred))

