"""Semi-naive vs naive fixpoint equivalence on cyclic schema graphs.

The semi-naive evaluation (section 3.4) is a pure optimization: joining
only the per-round delta must reach exactly the same fixpoint as re-joining
the full reachable set each round — including when the schema graph is
cyclic (a relationship whose parent and child are the same node, or a
cycle through several nodes) and when the *data* contains cycles, which is
where a wrong delta bookkeeping would diverge or loop forever.
"""

import pytest

from repro.relational.engine import Database
from repro.xnf.lang.parser import parse_xnf
from repro.xnf.semantic_rewrite import XNFCompiler
from repro.xnf.views import XNFViewCatalog, resolve


def resolve_text(text):
    return resolve(parse_xnf(text), XNFViewCatalog())


def canonical(instance):
    return (
        {name: sorted(rows, key=repr) for name, rows in instance.rows.items()},
        {
            name: sorted(conns, key=repr)
            for name, conns in instance.connections.items()
        },
    )


def both_modes(db, text):
    schema = resolve_text(text)
    semi = XNFCompiler(db, semi_naive=True)
    naive = XNFCompiler(db, semi_naive=False)
    return (
        semi.instantiate(schema),
        naive.instantiate(schema),
        semi.stats,
        naive.stats,
    )


@pytest.fixture
def graph_db():
    """A directed graph with a self-loop, a 3-cycle, and a diamond."""
    db = Database()
    db.execute("CREATE TABLE NODES (nid INTEGER PRIMARY KEY, tag VARCHAR)")
    db.execute("CREATE TABLE EDGES (src INTEGER, dst INTEGER)")
    for nid in range(1, 9):
        db.execute(f"INSERT INTO NODES VALUES ({nid}, 'n{nid}')")
    edges = [
        (1, 2), (2, 3), (3, 4),        # chain from the root
        (4, 4),                        # self-loop
        (4, 5), (5, 6), (6, 4),        # 3-cycle back to 4
        (2, 7), (3, 7), (7, 8),        # diamond converging on 7
    ]
    for src, dst in edges:
        db.execute(f"INSERT INTO EDGES VALUES ({src}, {dst})")
    db.execute("CREATE INDEX ie ON EDGES (src); ANALYZE")
    return db


CYCLIC_CO = """
OUT OF
  Xroot AS (SELECT * FROM NODES WHERE nid = 1),
  Xnode AS NODES,
  seed AS (RELATE Xroot, Xnode WHERE Xroot.nid = Xnode.nid),
  links AS (RELATE Xnode a, Xnode b
            USING EDGES e
            WHERE a.nid = e.src AND b.nid = e.dst)
TAKE *
"""


class TestCyclicEquivalence:
    def test_same_instance_on_cyclic_graph(self, graph_db):
        semi, naive, _, _ = both_modes(graph_db, CYCLIC_CO)
        assert canonical(semi) == canonical(naive)
        # every node is reachable from 1 through the cycles
        assert len(semi.rows["Xnode"]) == 8

    def test_fixpoint_terminates_despite_cycles(self, graph_db):
        semi, naive, semi_stats, naive_stats = both_modes(graph_db, CYCLIC_CO)
        assert semi_stats.iterations <= 10
        assert naive_stats.iterations <= 10
        assert semi.total_connections() == naive.total_connections()

    def test_unreachable_component_excluded(self, graph_db):
        graph_db.execute("INSERT INTO NODES VALUES (100, 'island')")
        graph_db.execute("INSERT INTO EDGES VALUES (100, 100)")
        semi, naive, _, _ = both_modes(graph_db, CYCLIC_CO)
        assert canonical(semi) == canonical(naive)
        reached = {row[0] for row in semi.rows["Xnode"]}
        assert 100 not in reached

    def test_repeated_instantiations_stay_equivalent(self, graph_db):
        """Re-running both modes re-uses cached plans; results must stay
        identical across repetitions."""
        first = canonical(both_modes(graph_db, CYCLIC_CO)[0])
        for _ in range(3):
            semi, naive, _, _ = both_modes(graph_db, CYCLIC_CO)
            assert canonical(semi) == first
            assert canonical(naive) == first

    def test_semi_naive_issues_no_more_queries(self, graph_db):
        _, _, semi_stats, naive_stats = both_modes(graph_db, CYCLIC_CO)
        assert semi_stats.queries_issued <= naive_stats.queries_issued


def misses_per_round(db):
    """Plan-cache misses of each fixpoint round of the last extraction."""
    per_round = {}

    def walk(span, round_no):
        if span.name == "xnf.fixpoint.round":
            round_no = span.attrs["round"]
            per_round[round_no] = 0
        elif round_no is not None and span.attrs.get("plan_cache") == "miss":
            per_round[round_no] += 1
        for child in span.children:
            walk(child, round_no)

    walk(db.tracer.last_trace, None)
    return per_round


class TestPlanCacheStability:
    """The generated SQL of a round has the same fingerprint whatever rows
    it reads, so a recursive CO compiles each statement once."""

    @pytest.mark.parametrize("semi_naive", [True, False])
    def test_rounds_and_repeats_add_no_misses(self, graph_db, semi_naive):
        cache = graph_db.plan_cache
        XNFCompiler(graph_db, semi_naive=semi_naive).instantiate(
            resolve_text(CYCLIC_CO)
        )
        per_round = misses_per_round(graph_db)
        assert len(per_round) >= 4
        # round 1 compiles the seed edge's statement; the recursive edge's
        # parent has no rows until round 2, which compiles its statement
        assert per_round[1] == per_round[2] == 1
        assert all(per_round[r] == 0 for r in per_round if r > 2)
        misses = cache.misses
        again = XNFCompiler(graph_db, semi_naive=semi_naive)
        again.instantiate(resolve_text(CYCLIC_CO))
        assert again.stats.queries_issued > 0
        assert cache.misses == misses
