"""Greedy vs. DP join ordering must agree on results (plans may differ).

Above :data:`DP_THRESHOLD` quantifiers the planner switches from
Selinger-style DP enumeration to a greedy chain.  Join order is a pure
optimisation: whatever order either picks, the result set is fixed by the
query.  These tests pin that — also on a database whose estimates come
from ANALYZE statistics and which has run EXPLAIN ANALYZE on both queries.
EXPLAIN ANALYZE once fed observed row counts back into later plans; it no
longer does, so it must leave every later plan as it found it.
"""

import pytest

from repro.relational.optimizer import planner
from repro.workloads import company

#: 9 quantifiers — above DP_THRESHOLD (8), so the greedy path runs by
#: default and the DP path needs the threshold raised.
NINE_WAY = """
SELECT d.dname, e.ename, p.pname, s.sname, mgr.ename
FROM DEPT d, EMP e, PROJ p, EMPPROJ ep, SKILLS s, EMPSKILL es,
     PROJSKILL ps, EMP mgr, DEPT d2
WHERE e.edno = d.dno
  AND p.pdno = d.dno
  AND ep.epeno = e.eno AND ep.eppno = p.pno
  AND es.eseno = e.eno AND es.essno = s.sno
  AND ps.pspno = p.pno AND ps.pssno = s.sno
  AND mgr.eno = p.pmgrno
  AND d2.dno = mgr.edno
"""

FIVE_WAY = """
SELECT d.dname, e.ename, p.pname
FROM DEPT d, EMP e, PROJ p, EMPPROJ ep, EMP mgr
WHERE e.edno = d.dno AND p.pdno = d.dno
  AND ep.epeno = e.eno AND ep.eppno = p.pno
  AND mgr.eno = p.pmgrno AND e.sal > 20
"""


def _run(db, sql):
    return sorted(db.execute(sql).rows)


@pytest.fixture
def scaled_db():
    return company.scaled_database(departments=8, employees_per_dept=6,
                                   projects_per_dept=2, skills=12)


def _plan_text(db, sql):
    rows = db.execute("EXPLAIN " + sql).rows
    return [r[0] for r in rows if not r[0].startswith("plan cache:")]


def _with_threshold(monkeypatch, db, sql, threshold):
    monkeypatch.setattr(planner, "DP_THRESHOLD", threshold)
    db.plan_cache.clear()
    return _run(db, sql)


class TestGreedyVsDP:
    def test_nine_way_join_same_result(self, scaled_db, monkeypatch):
        greedy = _with_threshold(monkeypatch, scaled_db, NINE_WAY, 1)
        dp = _with_threshold(monkeypatch, scaled_db, NINE_WAY, 16)
        assert greedy == dp
        assert greedy  # non-degenerate: the workload joins to something

    def test_five_way_join_same_result(self, scaled_db, monkeypatch):
        greedy = _with_threshold(monkeypatch, scaled_db, FIVE_WAY, 1)
        dp = _with_threshold(monkeypatch, scaled_db, FIVE_WAY, 16)
        assert greedy == dp
        assert greedy

    def test_equivalence_survives_optimizer_feedback(
        self, scaled_db, monkeypatch
    ):
        scaled_db.execute("ANALYZE")
        for sql in (NINE_WAY, FIVE_WAY):
            for threshold in (1, 16):
                monkeypatch.setattr(planner, "DP_THRESHOLD", threshold)
                scaled_db.plan_cache.clear()
                before = _plan_text(scaled_db, sql)
                scaled_db.execute("EXPLAIN ANALYZE " + sql)
                scaled_db.plan_cache.clear()
                assert _plan_text(scaled_db, sql) == before
            greedy = _with_threshold(monkeypatch, scaled_db, sql, 1)
            dp = _with_threshold(monkeypatch, scaled_db, sql, 16)
            assert greedy == dp
            assert greedy

    def test_greedy_matches_unjoined_baseline(self, scaled_db, monkeypatch):
        # Cross-check against the default configuration (DP for the 5-way,
        # greedy for the 9-way): forcing either mode must not change rows.
        default_nine = _run(scaled_db, NINE_WAY)
        default_five = _run(scaled_db, FIVE_WAY)
        assert _with_threshold(monkeypatch, scaled_db, NINE_WAY, 1) == default_nine
        assert _with_threshold(monkeypatch, scaled_db, FIVE_WAY, 1) == default_five
