"""The paper's experiment shapes as exact counts.

Each test runs one experiment of PAPER.md on a fixed database and pins the
count that carries its claim: queries issued, pages read, statements run
or tuples extracted.  Wall clock is measured by ``perf/run.py``; these
counts do not move with the machine.  The other experiments are pinned
beside the code they exercise: E1 in ``test_perf_counts.py``, E3 and E6 in
``xnf/test_semantic_rewrite.py``, E4 in ``relational/test_storage.py``.

Every database here is plain: forced sharding would change the counts.
"""

import pytest

from repro.workloads import company, design
from repro.xnf.api import XNFSession


@pytest.fixture(autouse=True)
def unsharded(monkeypatch):
    monkeypatch.delenv("REPRO_SHARDS", raising=False)


@pytest.mark.parametrize("documents", [10, 40, 160])
def test_e2_working_set_queries_do_not_grow_with_the_database(documents):
    """One document version (102 tuples) out of 3 040, 12 160 or 48 640:
    the TAKE issues 8 queries at every size, the tuple-at-a-time loader
    23."""
    db = design.build_design_database(documents)
    session = XNFSession(db)
    co = design.extract_working_set(session, 5, 2)
    assert co.cache.total_tuples() == 102
    assert session.last_stats.queries_issued == 8
    assert design.extract_working_set_navigational(db, 5, 2) == (102, 23)


PATH_SQL = """
SELECT p.pname
FROM (SELECT * FROM DEPT WHERE budget > 500) AS d,
     (SELECT * FROM EMP WHERE sal > 20) AS e,
     (SELECT * FROM PROJ) AS p
WHERE d.dno = e.edno AND e.eno = p.pmgrno
"""


@pytest.mark.parametrize(
    "where, rows, pages",
    [("", 146, {True: 8, False: 8}), (" AND d.dno = 7", 4, {True: 3, False: 8})],
    ids=["whole-path", "rooted-path"],
)
def test_e5_path_rewrite_reads_no_more_pages(where, rows, pages):
    """A 2-hop path over three views.  The rewrite merges the views into
    one join: the whole path reads the same 8 pages either way, and a path
    rooted at one department reads 3 pages (index probes) instead of 8."""
    db = company.scaled_database(
        departments=40, employees_per_dept=10, projects_per_dept=4
    )
    results = {}
    for rewrite in (True, False):
        db.enable_rewrite = rewrite
        hits = db.io_stats()["buffer_hits"]
        results[rewrite] = sorted(db.execute(PATH_SQL + where).rows)
        assert db.io_stats()["buffer_hits"] - hits == pages[rewrite]
    assert results[True] == results[False]
    assert len(results[True]) == rows


def test_e7_deferred_propagation_batches_the_edit_phase():
    """60 cache-side updates: immediate propagation runs 60 statements in
    60 transactions while the application edits; deferred propagation runs
    none until ``flush``, which applies all 60 in one transaction."""
    text = """
    OUT OF Xdept AS DEPT, Xemp AS EMP,
      employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno)
    TAKE *
    """
    salaries = {}
    for deferred in (False, True):
        db = company.scaled_database(departments=15, employees_per_dept=6)
        co = XNFSession(db, deferred_propagation=deferred).query(text)
        statements = db.statements_executed
        commits = db.txn_manager.metrics()["commits"]
        for emp in co.node("Xemp")[:60]:
            co.update(emp, sal=emp["sal"] + 1.0)
        edit = (
            db.statements_executed - statements,
            db.txn_manager.metrics()["commits"] - commits,
        )
        if deferred:
            assert edit == (0, 0)
            assert co.flush() == 60
            assert db.statements_executed - statements == 60
            assert db.txn_manager.metrics()["commits"] - commits == 1
        else:
            assert edit == (60, 60)
        salaries[deferred] = db.execute("SELECT eno, sal FROM EMP").rows
    assert sorted(salaries[True]) == sorted(salaries[False])


def test_e8_snapshot_load_skips_the_derivation():
    """A materialized CO view loads in 7 queries where deriving it live
    takes 10; both give 1 017 tuples and 1 914 connections."""
    db = company.scaled_database(
        departments=60, employees_per_dept=12, projects_per_dept=4
    )
    session = XNFSession(db)
    session.create_view(
        """
        CREATE VIEW BIG-ORG AS
        OUT OF
          Xdept AS (SELECT * FROM DEPT WHERE budget > 300),
          Xemp AS (SELECT * FROM EMP WHERE sal > 10),
          Xproj AS PROJ,
          employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno),
          ownership AS (RELATE Xdept, Xproj WHERE Xdept.dno = Xproj.pdno),
          projmanagement AS (RELATE Xemp, Xproj WHERE Xemp.eno = Xproj.pmgrno),
          membership AS (RELATE Xproj, Xemp
            WITH ATTRIBUTES ep.percentage USING EMPPROJ ep
            WHERE Xproj.pno = ep.eppno AND Xemp.eno = ep.epeno)
        TAKE *
        """
    )
    session.materialize_view("BIG-ORG", "BIGSNAP")
    live = session.query("OUT OF BIG-ORG TAKE *")
    assert session.last_stats.queries_issued == 10
    executed = db.statements_executed
    snapshot = session.load_snapshot("BIGSNAP")
    assert session.last_stats.queries_issued == 7
    # each of the 7 stored tables is read by one engine statement
    assert db.statements_executed - executed == 7
    for co in (live, snapshot):
        assert co.cache.total_tuples() == 1017
        assert co.cache.total_connections() == 1914


def test_f8_extraction_decomposes_into_generated_queries():
    """Fig. 8's pipeline on a CO of three nodes and two relationships:
    5 generated queries over 2 fixpoint rounds, no temp table, 546 tuples
    and 507 connections into the cache."""
    db = company.scaled_database(departments=40, employees_per_dept=10)
    session = XNFSession(db)
    co = session.query(
        """
        OUT OF
          Xdept AS (SELECT * FROM DEPT WHERE budget > 500),
          Xemp AS EMP,
          Xproj AS PROJ,
          employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno),
          ownership AS (RELATE Xdept, Xproj WHERE Xdept.dno = Xproj.pdno)
        TAKE *
        """
    )
    stats = session.last_stats
    assert stats.queries_issued == 5
    assert stats.iterations == 2
    assert stats.temp_tables_created == 0
    assert co.cache.total_tuples() == 546
    assert co.cache.total_connections() == 507
