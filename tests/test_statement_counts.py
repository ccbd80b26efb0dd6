"""Exact per-statement bookkeeping counts.

A statement leaves one span and one record, whichever way it runs: a
token-template hit, a prepared execution, or a statement XNF generates
inside a fixpoint round.  Each is counted by wrapping the callables that
do the bookkeeping (span opening, the statement-stats record, the
database-wide latency histogram, the SQL parser), never by timing.
"""

import pytest

from repro.obs.metrics import Histogram
from repro.relational import engine
from repro.relational.engine import Database
from repro.xnf.lang.parser import parse_xnf
from repro.xnf.semantic_rewrite import XNFCompiler
from repro.xnf.views import XNFViewCatalog, resolve

RECURSIVE_CO = """
OUT OF
  Xroot AS (SELECT * FROM NODES WHERE nid = 1),
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

        def counted_parse(sql):
            self.parses += 1
            return parse(sql)

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


def test_generated_statement_in_a_fixpoint_round(monkeypatch):
    db = Database()
    db.execute("CREATE TABLE NODES (nid INTEGER PRIMARY KEY, tag VARCHAR)")
    db.execute("CREATE TABLE EDGES (src INTEGER, dst INTEGER)")
    db.execute("INSERT INTO NODES VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, 'd')")
    db.execute("INSERT INTO EDGES VALUES (1, 2), (2, 3), (3, 1), (3, 4)")
    schema = resolve(parse_xnf(RECURSIVE_CO), XNFViewCatalog())
    XNFCompiler(db, semi_naive=True).instantiate(schema)  # warms every plan

    counts = Counts(db, monkeypatch)
    per_statement = []
    execute_ast = db.execute_ast

    def counted_execute_ast(stmt):
        before = counts.snapshot()
        try:
            return execute_ast(stmt)
        finally:
            per_statement.append(
                tuple(a - b for a, b in zip(counts.snapshot(), before))
            )

    monkeypatch.setattr(db, "execute_ast", counted_execute_ast)
    XNFCompiler(db, semi_naive=True).instantiate(schema)
    assert per_statement and set(per_statement) == {ONE_STATEMENT}
    rounds = db.tracer.last_trace.find("xnf.fixpoint.round")
    statements = [span for r in rounds for span in r.children if span.name == "sql.select"]
    assert statements
    assert all(
        span.attrs["plan_cache"] == "hit" and not span.children for span in statements
    )
