"""Exact per-statement bookkeeping counts.

A statement leaves one span and one record, whichever way it runs: a
token-template hit, a prepared execution, or a statement XNF generates
inside a fixpoint round.  Each is counted by wrapping the callables that
do the bookkeeping (span opening, the statement-stats record, the
database-wide latency histogram, the SQL parser), never by timing.
"""

import pytest

from repro.obs.metrics import Histogram
from repro.relational import engine, plancache
from repro.relational.engine import Database
from repro.workloads.design import build_design_database, working_set_co
from repro.xnf import api, cursors, semantic_rewrite
from repro.xnf.api import XNFSession
from repro.xnf.lang.parser import parse_xnf
from repro.xnf.semantic_rewrite import XNFCompiler
from repro.xnf.views import XNFViewCatalog, resolve

RECURSIVE_CO = """
OUT OF
  Xroot AS (SELECT * FROM NODES WHERE nid = {root}),
  Xnode AS NODES,
  seed AS (RELATE Xroot, Xnode WHERE Xroot.nid = Xnode.nid),
  links AS (RELATE Xnode a, Xnode b
            USING EDGES e
            WHERE a.nid = e.src AND b.nid = e.dst)
TAKE *
"""


class Counts:
    """Running totals of spans opened, statement records, latency
    observations and parser calls on one database."""

    def __init__(self, db, monkeypatch):
        self.spans = self.records = self.observations = 0
        self.parses = 0
        span, record = db.tracer.span, db.statement_stats.record
        latency = db.statement_stats.latency
        observe, parse = Histogram.observe, engine.parse_statements

        def counted_span(*args, **kwargs):
            self.spans += 1
            return span(*args, **kwargs)

        def counted_record(*args, **kwargs):
            self.records += 1
            return record(*args, **kwargs)

        def counted_observe(histogram, value):
            if histogram is latency:
                self.observations += 1
            return observe(histogram, value)

        def counted_parse(sql, *literal_tokens):
            self.parses += 1
            return parse(sql, *literal_tokens)

        monkeypatch.setattr(db.tracer, "span", counted_span)
        monkeypatch.setattr(db.statement_stats, "record", counted_record)
        monkeypatch.setattr(Histogram, "observe", counted_observe)
        monkeypatch.setattr(engine, "parse_statements", counted_parse)

    def snapshot(self):
        return (self.spans, self.records, self.observations, self.parses)

    def delta(self, fn):
        before = self.snapshot()
        fn()
        return tuple(after - was for after, was in zip(self.snapshot(), before))


#: one span, one record, one latency observation, no parse
ONE_STATEMENT = (1, 1, 1, 0)


@pytest.fixture
def point_db():
    db = Database()
    db.execute("CREATE TABLE T (id INTEGER PRIMARY KEY, v INTEGER)")
    db.execute("INSERT INTO T VALUES (1, 10), (2, 20), (3, 30)")
    return db


def test_cached_point_select(point_db, monkeypatch):
    point_db.execute("SELECT v FROM T WHERE id = 1")  # leaves the template
    point_db.execute("SELECT v FROM T WHERE id = 2")  # warms the plan
    counts = Counts(point_db, monkeypatch)
    got = counts.delta(lambda: point_db.execute("SELECT v FROM T WHERE id = 3"))
    assert got == ONE_STATEMENT
    root = point_db.tracer.last_trace
    assert root.name == "sql.select" and not root.children
    assert root.attrs["plan_cache"] == "hit" and root.attrs["rows"] == 1


def test_prepared_select(point_db, monkeypatch):
    prepared = point_db.prepare("SELECT v FROM T WHERE id = ?")
    prepared.execute([1])
    counts = Counts(point_db, monkeypatch)
    assert counts.delta(lambda: prepared.execute([2])) == ONE_STATEMENT
    root = point_db.tracer.last_trace
    assert root.name == "sql.select" and not root.children
    assert root.attrs["plan_cache"] == "hit"


def nodes_db():
    db = Database()
    db.execute("CREATE TABLE NODES (nid INTEGER PRIMARY KEY, tag VARCHAR)")
    db.execute("CREATE TABLE EDGES (src INTEGER, dst INTEGER)")
    db.execute("INSERT INTO NODES VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, 'd')")
    db.execute("INSERT INTO EDGES VALUES (1, 2), (2, 3), (3, 1), (3, 4)")
    return db


def per_statement_counts(db, counts, monkeypatch):
    """Per ``execute_ast`` call, the bookkeeping counts it added."""
    per_statement = []
    execute_ast = db.execute_ast

    def counted_execute_ast(stmt, **kwargs):
        before = counts.snapshot()
        try:
            return execute_ast(stmt, **kwargs)
        finally:
            per_statement.append(
                tuple(a - b for a, b in zip(counts.snapshot(), before))
            )

    monkeypatch.setattr(db, "execute_ast", counted_execute_ast)
    return per_statement


def test_generated_statement_in_a_fixpoint_round(monkeypatch):
    db = nodes_db()
    schema = resolve(parse_xnf(RECURSIVE_CO.format(root=1)), XNFViewCatalog())
    XNFCompiler(db, semi_naive=True).instantiate(schema)  # warms every plan

    counts = Counts(db, monkeypatch)
    per_statement = per_statement_counts(db, counts, monkeypatch)
    XNFCompiler(db, semi_naive=True).instantiate(schema)
    assert per_statement and set(per_statement) == {ONE_STATEMENT}
    rounds = db.tracer.last_trace.find("xnf.fixpoint.round")
    statements = [span for r in rounds for span in r.children if span.name == "sql.select"]
    assert statements
    assert all(
        span.attrs["plan_cache"] == "hit" and not span.children for span in statements
    )


def count_calls(monkeypatch, targets):
    """Wrap each (owner, attribute) of *targets* to count its calls."""
    calls = {}
    for owner, name in targets:
        label = f"{getattr(owner, '__name__', type(owner).__name__)}.{name}"
        calls[label] = 0

        def counted(*args, _fn=getattr(owner, name), _label=label, **kwargs):
            calls[_label] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


#: (database, TAKE texts of one shape, a node and a path walked from each of
#: its tuples).  The program compiles from the first text and the counted
#: TAKE is the last, so it binds literals of its own.
WARM_TAKES = {
    "recursive": (
        nodes_db, [RECURSIVE_CO.format(root=r) for r in (1, 3, 2)], "Xnode", "links[b]"
    ),
    "working_set": (
        lambda: build_design_database(5),
        [working_set_co(1, 1), working_set_co(4, 3), working_set_co(2, 2)],
        "Xcomp",
        "has_subcomp",
    ),
}


@pytest.mark.parametrize("name", sorted(WARM_TAKES))
def test_warm_take_runs_its_compiled_program(name, monkeypatch):
    """A TAKE of a shape seen before neither parses, resolves, builds QGM
    nor normalizes: its program binds the new literals from the tokens and
    every generated statement is exactly one cached-plan execution.  Paths
    the CO is walked with come from the program's memo."""
    make_db, texts, node, path = WARM_TAKES[name]
    db = make_db()
    session = XNFSession(db)

    def take_and_walk(text):
        co = session.query(text)
        cursor = co.cursor(node)
        while cursor.fetch() is not None:
            list(co.dependent_cursor(cursor, path))
        return co.cache.instance()

    # warm-up: each literal value once (a sharded table prunes shards per
    # value, so this caches every shard's plan as well)
    for text in texts:
        take_and_walk(text)
    calls = count_calls(monkeypatch, [
        (api, "parse_xnf_statements"),
        (api, "resolve"),
        (engine, "normalize_statement"),
        (plancache, "normalize_statement"),
        (semantic_rewrite, "normalize_statement"),
        (cursors, "parse_path_steps"),
        (db.builder, "build_query"),
    ])
    counts = Counts(db, monkeypatch)
    per_statement = per_statement_counts(db, counts, monkeypatch)
    hits = db.plan_cache.stats()["program_hits"]
    warm = take_and_walk(texts[-1])
    assert set(calls.values()) == {0}, calls
    assert per_statement and set(per_statement) == {ONE_STATEMENT}
    assert db.plan_cache.stats()["program_hits"] == hits + 1
    [span] = db.tracer.last_trace.find("xnf.instantiate")
    assert span.attrs["program"] == "hit"
    monkeypatch.undo()
    cold = XNFSession(make_db()).query(texts[-1]).cache.instance()
    assert (warm.rows, warm.connections) == (cold.rows, cold.connections)
