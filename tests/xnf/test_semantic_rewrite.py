"""The XNF semantic rewrite: generated-SQL instantiation and its ablations."""

import sys
import threading

import pytest

from repro.errors import ResourceExhaustedError
from repro.workloads import company
from repro.xnf.api import XNFSession
from repro.xnf.lang.parser import parse_xnf
from repro.xnf.semantic_rewrite import XNFCompiler, instantiate
from repro.xnf.views import XNFViewCatalog, resolve


def resolve_text(text, views=None):
    return resolve(parse_xnf(text), views or XNFViewCatalog())


def canonical(instance):
    """Order-independent image of an instance for equivalence checks."""
    return (
        {name: sorted(rows) for name, rows in instance.rows.items()},
        {name: sorted(conns) for name, conns in instance.connections.items()},
    )


class TestInstantiation:
    def test_candidate_restrictions_pushed(self, company_db):
        schema = resolve_text(
            "OUT OF Xdept AS DEPT WHERE Xdept SUCH THAT loc = 'NY' TAKE *"
        )
        instance = XNFCompiler(company_db).instantiate(schema)
        assert len(instance.rows["Xdept"]) == 2

    def test_duplicate_candidates_become_sets(self, db):
        db.execute("CREATE TABLE T (a INTEGER)")
        db.execute("INSERT INTO T VALUES (1), (1), (2)")
        schema = resolve_text("OUT OF n AS (SELECT a FROM T) TAKE *")
        instance = XNFCompiler(db).instantiate(schema)
        assert sorted(instance.rows["n"]) == [(1,), (2,)]

    def test_temp_tables_cleaned_up(self, company_db):
        before = set(company_db.catalog.tables)
        schema = resolve_text(company.FIGURE1_CO)
        XNFCompiler(company_db).instantiate(schema)
        assert set(company_db.catalog.tables) == before

    def test_temp_tables_cleaned_up_on_error(self, company_db):
        schema = resolve_text(
            "OUT OF Xdept AS DEPT, Xbad AS (SELECT missing FROM EMP), "
            "r AS (RELATE Xdept, Xbad WHERE Xdept.dno = Xbad.missing) TAKE *"
        )
        before = set(company_db.catalog.tables)
        with pytest.raises(Exception):
            XNFCompiler(company_db).instantiate(schema)
        assert set(company_db.catalog.tables) == before

    def test_stats_recorded(self, company_db):
        schema = resolve_text(company.FIGURE1_CO)
        compiler = XNFCompiler(company_db)
        compiler.instantiate(schema)
        stats = compiler.stats
        assert stats.queries_issued > 0
        assert stats.iterations >= 1
        # all Fig.-1 nodes are bare tables: only the root's seeding query
        assert stats.candidate_queries_run == 1
        assert stats.temp_tables_created == 0

    def test_empty_root_gives_empty_instance(self, company_db):
        schema = resolve_text(
            "OUT OF Xdept AS (SELECT * FROM DEPT WHERE dno > 999), Xemp AS EMP, "
            "r AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno) TAKE *"
        )
        instance = XNFCompiler(company_db).instantiate(schema)
        assert instance.rows["Xdept"] == []
        assert instance.rows["Xemp"] == []
        assert instance.connections["r"] == []


class TestCommonSubexpressionAblation:
    """reuse_common=False recomputes node queries at every use (E3)."""

    def test_results_identical(self, company_db):
        schema = resolve_text(company.FIGURE1_CO)
        with_reuse = instantiate(company_db, schema, reuse_common=True)
        without_reuse = instantiate(company_db, schema, reuse_common=False)
        assert canonical(with_reuse) == canonical(without_reuse)

    # Xskill is schema-shared (child of two edges) and non-trivial, so its
    # defining query is *used* twice: once per incoming relationship.
    RESTRICTED_CO = """
    OUT OF
      Xdept AS (SELECT * FROM DEPT WHERE budget > 0),
      Xemp AS (SELECT * FROM EMP WHERE sal > 0),
      Xproj AS (SELECT * FROM PROJ WHERE budget > 0),
      Xskill AS (SELECT * FROM SKILLS WHERE sno > 0),
      employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno),
      ownership AS (RELATE Xdept, Xproj WHERE Xdept.dno = Xproj.pdno),
      empproperty AS (RELATE Xemp, Xskill USING EMPSKILL es
                      WHERE Xemp.eno = es.eseno AND Xskill.sno = es.essno),
      projproperty AS (RELATE Xproj, Xskill USING PROJSKILL ps
                       WHERE Xproj.pno = ps.pspno AND Xskill.sno = ps.pssno)
    TAKE *
    """

    def test_ablation_recomputes_candidates(self, company_db):
        """Non-trivial node queries run once with reuse, per-use without:
        the four restricted nodes' queries run 4 times with reuse and 5
        without, because Xskill's runs once per incoming relationship."""
        reuse = XNFCompiler(company_db, reuse_common=True)
        shared = reuse.instantiate(resolve_text(self.RESTRICTED_CO))
        no_reuse = XNFCompiler(company_db, reuse_common=False)
        recomputed = no_reuse.instantiate(resolve_text(self.RESTRICTED_CO))
        assert canonical(shared) == canonical(recomputed)
        assert reuse.stats.candidate_queries_run == 4
        assert no_reuse.stats.candidate_queries_run == 5

    def test_trivial_nodes_referenced_directly(self, company_db):
        """Bare base-table nodes never get a candidate query or temp table:
        generated SQL references the base table (and its indexes)."""
        schema = resolve_text(company.FIGURE1_CO)
        compiler = XNFCompiler(company_db, reuse_common=True)
        compiler.instantiate(schema)
        # only the root's seeding query runs
        assert compiler.stats.candidate_queries_run == 1


class TestSemiNaiveAblation:
    """semi_naive=False re-joins the full reachable set per round (E6)."""

    def test_results_identical_on_recursive_co(self, fig4_db):
        session = XNFSession(fig4_db)
        company.create_paper_views(session)
        stored = session.views.get("EXT-ALL-DEPS-ORG")
        schema_a = resolve(stored, session.views)
        schema_b = resolve(stored, session.views)
        semi = instantiate(fig4_db, schema_a, semi_naive=True)
        naive = instantiate(fig4_db, schema_b, semi_naive=False)
        assert canonical(semi) == canonical(naive)

    def test_deep_chain(self, db):
        """A reports-to chain of depth 12 needs 12 fixpoint rounds."""
        db.execute(
            "CREATE TABLE NODES (nid INTEGER PRIMARY KEY, parent INTEGER)"
        )
        rows = ", ".join(
            f"({i}, {i - 1 if i > 1 else 'NULL'})" for i in range(1, 13)
        )
        db.execute(f"INSERT INTO NODES VALUES {rows}")
        schema = resolve_text(
            """
            OUT OF
              Xroot AS (SELECT * FROM NODES WHERE parent IS NULL),
              Xnode AS NODES,
              seed AS (RELATE Xroot, Xnode WHERE Xroot.nid = Xnode.nid),
              child_of AS (RELATE Xnode up, Xnode down
                           WHERE up.nid = down.parent)
            TAKE *
            """
        )
        compiler = XNFCompiler(db)
        instance = compiler.instantiate(schema)
        assert len(instance.rows["Xnode"]) == 12
        assert compiler.stats.iterations >= 12

    def test_semi_naive_issues_fewer_or_equal_rows_work(self, db):
        db.execute("CREATE TABLE NODES (nid INTEGER PRIMARY KEY, parent INTEGER)")
        rows = ", ".join(
            f"({i}, {i - 1 if i > 1 else 'NULL'})" for i in range(1, 16)
        )
        db.execute(f"INSERT INTO NODES VALUES {rows}")
        text = """
            OUT OF
              Xroot AS (SELECT * FROM NODES WHERE parent IS NULL),
              Xnode AS NODES,
              seed AS (RELATE Xroot, Xnode WHERE Xroot.nid = Xnode.nid),
              child_of AS (RELATE Xnode up, Xnode down
                           WHERE up.nid = down.parent)
            TAKE *
        """
        semi = XNFCompiler(db, semi_naive=True)
        semi.instantiate(resolve_text(text))
        naive = XNFCompiler(db, semi_naive=False)
        naive.instantiate(resolve_text(text))
        # same number of rounds, but naive re-materialises ever-growing
        # delta tables; measured as total queries it is never cheaper.
        assert semi.stats.queries_issued <= naive.stats.queries_issued


def catalog_state(db):
    """Every catalog name with its object version."""
    catalog = db.catalog
    names = [*catalog.tables, *catalog.views, *catalog.virtual_tables]
    return {name: catalog.object_version(name) for name in names}


def closure_co(root):
    return f"""
    OUT OF
      Xroot AS (SELECT * FROM PART WHERE pid = {root}),
      Xpart AS PART,
      anchor AS (RELATE Xroot, Xpart WHERE Xroot.pid = Xpart.pid),
      connects AS (RELATE Xpart source, Xpart target USING CONN c
                   WHERE source.pid = c.cfrom AND target.pid = c.cto)
    TAKE *
    """


class TestExtractionIsARead:
    """An extraction creates no catalog object, bumps no object version and
    needs no database-wide mutex."""

    @pytest.fixture
    def watched(self, company_db, monkeypatch):
        """company_db whose table names are recorded at every statement."""
        seen = []
        execute = company_db.execute_ast

        def watching(stmt, **kwargs):
            seen.append(set(company_db.catalog.tables))
            return execute(stmt, **kwargs)

        monkeypatch.setattr(company_db, "execute_ast", watching)
        return company_db, seen

    @pytest.mark.parametrize(
        "text",
        [company.FIGURE1_CO, TestCommonSubexpressionAblation.RESTRICTED_CO],
        ids=["bare-tables", "candidate-sets"],
    )
    def test_catalog_untouched(self, watched, text):
        db, seen = watched
        before = catalog_state(db)
        instance = XNFCompiler(db).instantiate(resolve_text(text))
        assert instance.total_tuples() > 0
        assert catalog_state(db) == before
        # not even while the extraction runs
        assert seen and all(names == set(db.catalog.tables) for names in seen)
        assert not [n for names in seen for n in names if n.startswith("XNF_")]

    def test_catalog_untouched_by_aborted_extraction(self, fig4_db):
        session = XNFSession(fig4_db, max_rounds=1)
        company.create_paper_views(session)
        before = catalog_state(fig4_db)
        with pytest.raises(ResourceExhaustedError):
            session.query("OUT OF EXT-ALL-DEPS-ORG TAKE *")
        assert catalog_state(fig4_db) == before

    def test_concurrent_extractions_match_serial(self, parts_db):
        roots = {0: range(1, 21), 1: range(21, 41)}
        serial = {
            root: canonical(instantiate(parts_db, resolve_text(closure_co(root))))
            for rows in roots.values()
            for root in rows
        }
        results, errors = {}, []
        barrier = threading.Barrier(len(roots))

        def worker(thread_no):
            try:
                barrier.wait()
                for root in roots[thread_no]:
                    schema = resolve_text(closure_co(root))
                    results[root] = canonical(instantiate(parts_db, schema))
            except Exception as err:  # reported below, on the test thread
                errors.append(err)

        threads = [threading.Thread(target=worker, args=(n,)) for n in roots]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the extractions finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert results == serial


class TestGeneratedQueriesGoThroughEngine:
    def test_statements_counted(self, company_db):
        before = company_db.statements_executed
        schema = resolve_text(company.FIGURE1_CO)
        XNFCompiler(company_db).instantiate(schema)
        assert company_db.statements_executed > before

    def test_paper_classification_of_reuse(self, company_db):
        """'when we generate the tuples of a parent node, we output them,
        and also use them again to find the tuples of the associated
        children' — with reuse on, each non-trivial node's query runs at
        most once, no matter how many relationships touch the node."""
        schema = resolve_text(
            TestCommonSubexpressionAblation.RESTRICTED_CO
        )
        compiler = XNFCompiler(company_db, reuse_common=True)
        compiler.instantiate(schema)
        assert compiler.stats.candidate_queries_run <= len(schema.nodes)
