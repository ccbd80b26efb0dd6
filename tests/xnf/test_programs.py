"""Compiled CO programs: a TAKE text of a shape seen before runs the
program the plan cache kept for it, its literals bound from the tokens.

The token path must be indistinguishable from compiling the text: every
result here is compared, rows, connections, their order and the
instantiation statistics, with a cold run (no plan cache, so nothing is
kept and every TAKE compiles) or with a fresh session.
"""

import ast
import pathlib
import re
import sys
import threading

import pytest

from repro.errors import ReproError
from repro.relational.engine import Database
from repro.workloads import company, oo1
from repro.workloads.design import build_design_database, working_set_co
from repro.xnf.api import XNFSession
from repro.xnf.lang import xast
from repro.xnf.lang.parser import parse_xnf_statements


def cold_statement(text):
    """*text* parsed: a session compiles a statement given as a tree, as
    no program is looked up for it."""
    (statement,) = parse_xnf_statements(text)
    return statement


def outcome(session, text):
    """What running *text* shows: the instance and the fixpoint's
    statistics, or the error it raised."""
    try:
        instance = session.query(text).cache.instance()
    except ReproError as exc:
        return type(exc).__name__, str(exc)
    return instance.columns, instance.rows, instance.connections, session.last_stats


# ---------------------------------------------------------------------------
# invalidation: what a program depends on besides its tokens
# ---------------------------------------------------------------------------

TEXT = """
OUT OF
  Xp AS (SELECT * FROM P WHERE pid <= {n}),
  Xc AS C,
  has AS (RELATE Xp, Xc WHERE Xp.pid = Xc.cp)
TAKE *
"""

VIEW_TEXT = "OUT OF WS TAKE *"


def small_db():
    db = Database()
    db.execute("CREATE TABLE P (pid INTEGER PRIMARY KEY, name VARCHAR)")
    db.execute("CREATE TABLE C (cid INTEGER PRIMARY KEY, cp INTEGER, w INTEGER)")
    db.execute("INSERT INTO P VALUES (1, 'a'), (2, 'b'), (3, 'c')")
    db.execute(
        "INSERT INTO C VALUES (10, 1, 5), (11, 1, 6), (12, 2, 7), (13, 3, 8), (14, 9, 9)"
    )
    return db


def create_view(session, n):
    session.execute(
        f"CREATE VIEW WS AS OUT OF Xp AS (SELECT * FROM P WHERE pid = {n}), "
        "Xc AS C, has AS (RELATE Xp, Xc WHERE Xp.pid = Xc.cp) TAKE *"
    )


def redefine_view(db, session):
    session.execute("DROP VIEW WS")
    create_view(session, 2)
    return lambda fresh: create_view(fresh, 2)


def recreate_table_wider(db, session):
    db.execute("DROP TABLE P")
    db.execute("CREATE TABLE P (pid INTEGER PRIMARY KEY, name VARCHAR, extra INTEGER)")
    db.execute("INSERT INTO P VALUES (1, 'a', 100), (2, 'b', 200), (3, 'c', 300)")


def index_join_column(db, session):
    db.execute("CREATE INDEX idx_c_cp ON C (cp)")


def drop_join_index(db, session):
    db.execute("DROP INDEX idx_c_cp")


def analyze(db, session):
    db.execute("ANALYZE")


CHANGES = {
    "view-redefined": (redefine_view, VIEW_TEXT),
    "table-recreated-wider": (recreate_table_wider, TEXT.format(n=2)),
    "index-created": (index_join_column, TEXT.format(n=2)),
    "index-dropped": (drop_join_index, TEXT.format(n=2)),
    "analyze": (analyze, TEXT.format(n=2)),
}


@pytest.mark.parametrize("name", sorted(CHANGES))
def test_a_change_between_two_takes_acts_as_a_cold_compile(name):
    change, text = CHANGES[name]
    db = small_db()
    if name == "index-dropped":
        db.execute("CREATE INDEX idx_c_cp ON C (cp)")
    session = XNFSession(db)
    create_view(session, 1)
    warm_up = text.replace("{n}", "1") if "{n}" in text else text
    outcome(session, TEXT.format(n=1))
    outcome(session, warm_up)
    before = outcome(session, text)
    assert db.plan_cache.stats()["program_hits"] >= 1

    setup_fresh = change(db, session)
    misses = db.plan_cache.stats()["program_misses"]
    warm = outcome(session, text)
    assert db.plan_cache.stats()["program_misses"] == misses + 1  # recompiled

    fresh = XNFSession(db)
    (setup_fresh or (lambda s: create_view(s, 1)))(fresh)
    assert warm == outcome(fresh, cold_statement(text))
    if name in ("view-redefined", "table-recreated-wider"):
        assert warm != before


def test_views_of_two_sessions_never_share_a_program():
    db = small_db()
    one, two = XNFSession(db), XNFSession(db)
    create_view(one, 1)
    create_view(two, 3)
    assert outcome(one, VIEW_TEXT) == outcome(one, VIEW_TEXT)
    assert outcome(two, VIEW_TEXT) != outcome(one, VIEW_TEXT)
    fresh = XNFSession(db)
    create_view(fresh, 3)
    assert outcome(two, VIEW_TEXT) == outcome(fresh, VIEW_TEXT)


def test_sessions_share_programs_that_read_no_view():
    """A program that reads no view depends on nothing of the session that
    compiled it: another session's first TAKE of its shape is a hit."""
    db = small_db()
    outcome(XNFSession(db), TEXT.format(n=1))
    hits = db.plan_cache.stats()["program_hits"]
    other = XNFSession(db)
    create_view(other, 1)
    assert outcome(other, TEXT.format(n=2)) == outcome(other, cold_statement(TEXT.format(n=2)))
    assert db.plan_cache.stats()["program_hits"] == hits + 1
    outcome(other, VIEW_TEXT)
    misses = db.plan_cache.stats()["program_misses"]
    third = XNFSession(db)
    create_view(third, 1)
    outcome(third, VIEW_TEXT)  # a view of its own: compiled here
    assert db.plan_cache.stats()["program_misses"] == misses + 1


def test_view_ddl_looks_no_program_up(monkeypatch):
    """CREATE and DROP VIEW never run a program, so their text is neither
    scanned nor matched against the plan cache."""
    db = small_db()
    session = XNFSession(db)
    matches = []
    match = db.plan_cache.match
    monkeypatch.setattr(
        db.plan_cache, "match", lambda *args: matches.append(args) or match(*args)
    )
    create_view(session, 1)
    session.execute("  drop view WS")
    create_view(session, 2)
    assert matches == []
    assert outcome(session, VIEW_TEXT) == outcome(session, cold_statement(VIEW_TEXT))
    assert len(matches) == 1  # the TAKE text; a tree is never looked up


def test_a_literal_also_left_in_a_plan_pins_its_token():
    """A relationship attribute's literal reaches the generated queries
    twice: in the SELECT list, where it stays, and through a SUCH THAT on
    the attribute, where it is lifted.  Its token is kept, so a text with
    another value compiles instead of binding it into only one place."""
    text = (
        "OUT OF Xp AS P, Xc AS C, has AS (RELATE Xp, Xc WITH ATTRIBUTES Xc.w * {k} AS ww"
        " WHERE Xp.pid = Xc.cp) WHERE has (p, c) SUCH THAT ww > 11 TAKE *"
    )
    db = small_db()
    session = XNFSession(db)
    outcome(session, text.format(k=2))
    misses = db.plan_cache.stats()["program_misses"]
    warm = outcome(session, text.format(k=3))
    assert db.plan_cache.stats()["program_misses"] == misses + 1
    assert warm == outcome(session, cold_statement(text.format(k=3)))


def test_concurrent_sessions_bind_their_own_literals():
    """Sessions on several threads share the plan cache and the generated
    queries' plans; each TAKE still binds its own text's literals."""
    db = small_db()
    expected = {n: outcome(XNFSession(db), TEXT.format(n=n)) for n in (1, 2, 3)}
    errors = []

    def worker(seed):
        try:
            session = XNFSession(db)
            for i in range(30):
                n = (seed + i) % 3 + 1
                got = outcome(session, TEXT.format(n=n))
                if got != expected[n]:
                    errors.append((n, got))
        except Exception as exc:  # noqa: BLE001 - reported by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[:3]
    assert db.plan_cache.stats()["program_hits"] >= 4 * 29


# ---------------------------------------------------------------------------
# equivalence: token key == tree path, over every TAKE text of the suite
# ---------------------------------------------------------------------------

#: literal edge cases on the Fig. 1 company database, each with a text of
#: the same shape and other literals
EDGE_CASES = [
    (  # a negative number and a string with an embedded quote
        "OUT OF Xdept AS (SELECT * FROM DEPT WHERE budget > -5 AND dname <> 'it''s'),"
        " Xemp AS EMP, employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno)"
        " TAKE *",
        "OUT OF Xdept AS (SELECT * FROM DEPT WHERE budget > -1500 AND dname <> 'd''1'),"
        " Xemp AS EMP, employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno)"
        " TAKE *",
    ),
    (  # NULL, in a node's SELECT list and in a predicate
        "OUT OF Xemp AS (SELECT eno, ename, NULL AS nothing, edno FROM EMP"
        " WHERE edno IS NOT NULL AND COALESCE(edno, NULL, 0) < 3) TAKE *",
        "OUT OF Xemp AS (SELECT eno, ename, NULL AS nothing, edno FROM EMP"
        " WHERE edno IS NOT NULL AND COALESCE(edno, NULL, 0) < 2) TAKE *",
    ),
    (  # literals in a node's SELECT list shape the program: they are kept
        "OUT OF Xdept AS (SELECT dno, 7 AS seven, 'x' AS tag FROM DEPT WHERE dno < 3),"
        " Xemp AS EMP, employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno)"
        " TAKE *",
        "OUT OF Xdept AS (SELECT dno, 7 AS seven, 'x' AS tag FROM DEPT WHERE dno < 2),"
        " Xemp AS EMP, employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno)"
        " TAKE *",
    ),
    (  # a TAKE projection
        company.FIGURE1_CO.replace("TAKE *", "TAKE Xdept(dname), employment, Xemp(ename)")
        .replace("Xdept AS DEPT", "Xdept AS (SELECT * FROM DEPT WHERE budget > 600)"),
        company.FIGURE1_CO.replace("TAKE *", "TAKE Xdept(dname), employment, Xemp(ename)")
        .replace("Xdept AS DEPT", "Xdept AS (SELECT * FROM DEPT WHERE budget > 1500)"),
    ),
    (  # a SUCH THAT instance restriction with a path: its literals are kept
        company.FIGURE1_CO.replace(
            "TAKE *", "WHERE Xdept d SUCH THAT COUNT(d->employment) >= 2 TAKE *"
        ).replace("Xemp AS EMP", "Xemp AS (SELECT * FROM EMP WHERE sal < 550)"),
        company.FIGURE1_CO.replace(
            "TAKE *", "WHERE Xdept d SUCH THAT COUNT(d->employment) >= 2 TAKE *"
        ).replace("Xemp AS EMP", "Xemp AS (SELECT * FROM EMP WHERE sal < 650)"),
    ),
]


def suite_takes():
    """Every string constant of tests/xnf that parses as one TAKE."""
    texts = {}
    for path in sorted(pathlib.Path(__file__).parent.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                texts.setdefault(node.value, None)
    takes = []
    for text in texts:
        if "OUT OF" not in text.upper() or "SYS_" in text:
            continue  # the SYS_* tables change with every statement run
        try:
            statements = parse_xnf_statements(text)
        except ReproError:
            continue
        if (
            len(statements) == 1
            and isinstance(statements[0], xast.XNFQuery)
            and statements[0].action == "TAKE"
        ):
            takes.append(text)
    return takes


def fixture_takes():
    return [company.FIGURE1_CO, oo1.PARTS_CO, working_set_co(2, 1)]


def other_literals(text):
    """*text* with every integer literal one larger (same shape)."""
    return re.sub(r"(?<![\w.'])(\d+)(?![\w.])", lambda m: str(int(m.group()) + 1), text)


def nodes_db(**db_kwargs):
    db = Database(**db_kwargs)
    db.execute("CREATE TABLE NODES (nid INTEGER PRIMARY KEY, tag VARCHAR)")
    db.execute("CREATE TABLE EDGES (src INTEGER, dst INTEGER)")
    db.execute("INSERT INTO NODES VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, 'd')")
    db.execute("INSERT INTO EDGES VALUES (1, 2), (2, 3), (3, 1), (3, 4)")
    return db


#: name -> (database builder, session setup)
FIXTURES = {
    "company": (company.figure1_database, None),
    "fig4": (company.figure4_database, company.create_paper_views),
    "parts": (lambda **kw: oo1.build_parts_database(60, seed=3, **kw), None),
    "design": (lambda **kw: build_design_database(3, **kw), None),
    "nodes": (nodes_db, None),
}


def session_on(fixture, cold=False, db=None):
    build, setup = FIXTURES[fixture]
    if db is None:
        db = build(plan_cache_capacity=0) if cold else build()
    session = XNFSession(db)
    if setup is not None:
        setup(session)
    return session


def as_sets(result):
    """*result* without the order of rows and connections, which follows
    the plans: a plan compiled from another execution's rows may order
    them differently (as every cached plan may)."""
    if isinstance(result[0], str):
        return result
    columns, rows, connections, stats = result
    return (
        columns,
        {name: sorted(values, key=repr) for name, values in rows.items()},
        {name: sorted(values, key=repr) for name, values in connections.items()},
        stats,
    )


def test_token_key_matches_the_tree_path_over_every_take():
    """Each TAKE runs warm twice (compile, then program hit), and a text of
    its shape with other literals runs warm (a hit that binds them).  Each
    outcome holds the instance of the cold run on a database without a plan
    cache, and the hit's equals, order included, what a fresh session
    compiling the text on the same database returns."""
    pairs = [(text, other_literals(text)) for text in suite_takes() + fixture_takes()]
    pairs += EDGE_CASES
    ran = 0
    hits = {}
    for fixture in FIXTURES:
        warm, cold = session_on(fixture), session_on(fixture, cold=True)
        hits_before = warm.db.plan_cache.stats()["program_hits"]
        for text, variant in pairs:
            expected = outcome(cold, text)
            if isinstance(expected[0], str):  # the text does not fit this fixture
                continue
            ran += 1
            first = outcome(warm, text)
            assert as_sets(first) == as_sets(expected), (fixture, text)
            assert outcome(warm, text) == first, (fixture, text)
            got = outcome(warm, variant)
            assert as_sets(got) == as_sets(outcome(cold, variant)), (fixture, variant)
            fresh = session_on(fixture, db=warm.db)
            assert got == outcome(fresh, cold_statement(variant)), (fixture, variant)
        hits[fixture] = warm.db.plan_cache.stats()["program_hits"] - hits_before
    assert ran >= 40, ran
    assert all(hits.values()), hits


def test_literal_edge_cases_hit_the_program():
    """Texts that differ only in literals that feed generated queries share
    one program; a kept literal (SELECT list, SUCH THAT) is part of it."""
    warm = session_on("company", cold=False)
    for text, variant in EDGE_CASES:
        outcome(warm, text)
        hits = warm.db.plan_cache.stats()["program_hits"]
        outcome(warm, variant)
        assert warm.db.plan_cache.stats()["program_hits"] == hits + 1, variant
    text = EDGE_CASES[2][0]
    misses = warm.db.plan_cache.stats()["program_misses"]
    outcome(warm, text.replace("7 AS seven", "8 AS seven"))
    assert warm.db.plan_cache.stats()["program_misses"] == misses + 1


def test_a_minus_folded_into_zero_keeps_its_sign():
    """``-0`` equals 0, so only the parser can tell that a minus sign was
    folded into it: a later text of the shape binds ``-2``, not 2."""
    text = (
        "OUT OF Xp AS (SELECT * FROM P WHERE pid > -{n}), Xc AS C, "
        "has AS (RELATE Xp, Xc WHERE Xp.pid = Xc.cp) TAKE *"
    )
    warm = XNFSession(small_db())
    outcome(warm, text.format(n=0))
    hits = warm.db.plan_cache.stats()["program_hits"]
    got = outcome(warm, text.format(n=2))
    assert warm.db.plan_cache.stats()["program_hits"] == hits + 1
    assert got[:3] == outcome(XNFSession(small_db()), text.format(n=2))[:3]


def schema_sql(schema):
    """Every SQL text *schema* holds, by component."""

    def sql(expr):
        return None if expr is None else expr.to_sql()

    nodes = {
        name: (sql(node.query), node.table, node.projection,
               [(alias, sql(predicate)) for alias, predicate in node.restrictions])
        for name, node in schema.nodes.items()
    }
    edges = {
        name: (sql(edge.predicate), [(attr, sql(expr)) for attr, expr in edge.attributes])
        for name, edge in schema.edges.items()
    }
    return schema.name, nodes, edges


#: TAKE texts of one shape on the Fig. 1 company database, with literals
#: in node queries, pushed restrictions and relationship predicates
SCHEMA_PAIRS = EDGE_CASES + [
    tuple(
        company.FIGURE1_CO.replace("TAKE *", f"WHERE Xemp e SUCH THAT e.sal < {n} TAKE *")
        .replace("Xemp.edno", f"Xemp.edno AND Xdept.budget > {n - 500}")
        for n in (550, 650)
    ),
]


def test_a_hit_shows_the_schema_of_its_own_text():
    """A CO a kept program extracted shows the schema a cold compile of its
    text shows, and the CO the program was compiled for keeps its own."""
    session = session_on("company")
    for first_text, text in SCHEMA_PAIRS:
        first = session.query(first_text)
        hits = session.db.plan_cache.stats()["program_hits"]
        co = session.query(text)
        assert session.db.plan_cache.stats()["program_hits"] == hits + 1, text
        cold = session.query(cold_statement(text))
        assert schema_sql(co.schema) == schema_sql(cold.schema), text
        assert schema_sql(first.schema) == schema_sql(
            session.query(cold_statement(first_text)).schema
        )
        remote = session.execute_remote(text)
        assert schema_sql(remote.schema) == schema_sql(
            session.execute_remote(cold_statement(text)).schema
        ), text
