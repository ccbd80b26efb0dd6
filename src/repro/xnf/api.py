"""Public API: :class:`XNFSession` and :class:`CompositeObject`.

This is the "XNF Application Language Interface" of Fig. 7: applications
hand XNF text to the session, receive a :class:`CompositeObject` whose
cache they browse with cursors and path expressions, manipulate its tuples
and relationships, and share the underlying relational database with plain
SQL applications (which need no change whatsoever).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Union

from repro.errors import XNFError
from repro.obs.profile import PIPELINE_STAGES, build_profile
from repro.relational.engine import Database
from repro.relational.plancache import Scanned, scan_statement
from repro.relational.sql.lexer import XNF_TOKENS
from repro.xnf import closure as closure_mod
from repro.xnf.cache import CachedTuple, COCache, Connection
from repro.xnf.cursors import DependentCursor, IndependentCursor
from repro.xnf.lang import xast
from repro.xnf.lang.parser import parse_xnf_statements
from repro.xnf.manipulate import Manipulator
from repro.xnf.monitor import install_monitor
from repro.xnf.restrict import apply_instance_restrictions
from repro.xnf.semantic_rewrite import COInstance, COProgram, InstantiationStats, XNFCompiler
from repro.xnf.views import XNFViewCatalog, apply_take, resolve


class CompositeObject:
    """A loaded composite object: cache + cursors + manipulation."""

    def __init__(self, session: "XNFSession", cache: COCache):
        self.session = session
        self.cache = cache
        self.manipulator = Manipulator(
            session.db, cache, deferred=session.deferred_propagation
        )

    # -- structure ---------------------------------------------------------------

    @property
    def schema(self):
        """The CO's schema.  A CO a kept program extracted for a text of its
        shape gets that text's literals in it at the first read."""
        cache = self.cache
        if cache.literals is not None:
            cache.schema = cache.program.bind_schema(cache.schema, cache.literals)
            cache.literals = None
        return cache.schema

    def nodes(self) -> List[str]:
        return self.cache.node_names()

    def edges(self) -> List[str]:
        return self.cache.edge_names()

    def node(self, name: str) -> List[CachedTuple]:
        return self.cache.node(name)

    def connections(self, edge: str) -> List[Connection]:
        return self.cache.connections_of(edge)

    def find(self, node: str, **criteria: Any) -> Optional[CachedTuple]:
        return self.cache.find(node, **criteria)

    def find_all(self, node: str, **criteria: Any) -> List[CachedTuple]:
        return self.cache.find_all(node, **criteria)

    def summary(self) -> str:
        return self.cache.summary()

    # -- navigation ---------------------------------------------------------------

    def cursor(self, node: str) -> IndependentCursor:
        """Open an independent cursor on a node."""
        return self.cache.cursor(node).open()  # type: ignore[return-value]

    def dependent_cursor(self, parent_cursor, path: str) -> DependentCursor:
        """Open a cursor bound to *parent_cursor* through *path*."""
        return self.cache.dependent_cursor(parent_cursor, path).open()  # type: ignore[return-value]

    def path(
        self, start: Union[CachedTuple, str], path_text: str
    ) -> List[CachedTuple]:
        """Evaluate a path expression; *start* is a tuple or a node name."""
        return self.cache.path(start, path_text)

    # -- manipulation (section 3.7) ---------------------------------------------------

    def update(self, cached: CachedTuple, **changes: Any) -> None:
        self.manipulator.update(cached, changes)

    def delete(self, cached: CachedTuple) -> None:
        self.manipulator.delete(cached)

    def insert(self, node: str, **values: Any) -> CachedTuple:
        return self.manipulator.insert(node, values)

    def connect(
        self,
        edge: str,
        parent: CachedTuple,
        child: CachedTuple,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> Connection:
        return self.manipulator.connect(edge, parent, child, attributes)

    def disconnect(self, conn: Connection) -> None:
        self.manipulator.disconnect(conn)

    def flush(self) -> int:
        """Apply deferred base-table propagation; returns statements run."""
        return self.manipulator.flush()

    # -- closure (type-3 queries) --------------------------------------------------------

    def to_table(self, node: str, table_name: Optional[str] = None) -> str:
        """Materialise a node as a base table for plain SQL (XNF → NF)."""
        return closure_mod.materialize_node(
            self.session.db, self.cache, node, table_name
        )

    def __repr__(self) -> str:
        return (
            f"CompositeObject({self.schema.name or '<anonymous>'}: "
            f"{self.cache.total_tuples()} tuples, "
            f"{self.cache.total_connections()} connections)"
        )


class XNFSession:
    """An XNF session over a relational database.

    Parameters
    ----------
    db:
        The shared relational database (plain SQL applications keep using
        it directly — Fig. 7's shared-database architecture).
    reuse_common:
        Compute node candidate sets once and share them across the
        generated queries (paper section 4.3); disable for the E3 ablation.
    semi_naive:
        Evaluate recursive reachability semi-naively; disable for the E6
        ablation (full re-join per round).
    deferred_propagation:
        Queue manipulation propagation until ``CompositeObject.flush()``.
    max_rounds / max_rows / timeout_s:
        Execution guards on the reachability fixpoint: a recursive CO that
        exceeds any of them aborts with
        :class:`~repro.errors.ResourceExhaustedError`; an extraction writes
        nothing, so there is nothing to clean up.  ``None`` disables a
        guard.
    """

    def __init__(
        self,
        db: Database,
        reuse_common: bool = True,
        semi_naive: bool = True,
        deferred_propagation: bool = False,
        max_rounds: Optional[int] = None,
        max_rows: Optional[int] = None,
        timeout_s: Optional[float] = None,
    ):
        self.db = db
        self.views = XNFViewCatalog()
        self.reuse_common = reuse_common
        self.semi_naive = semi_naive
        self.deferred_propagation = deferred_propagation
        self.max_rounds = max_rounds
        self.max_rows = max_rows
        self.timeout_s = timeout_s
        self.last_stats: Optional[InstantiationStats] = None
        # name -> (handle, resolved source schema); see materialize_view()
        self._snapshots: Dict[str, tuple] = {}
        # Built-in self-monitoring CO over the SYS_* tables (no-op when the
        # database's catalog lacks them).
        install_monitor(self)

    # -- statement execution -------------------------------------------------------

    def execute(
        self, source: Union[str, xast.XNFStatement]
    ) -> Union[CompositeObject, int, None]:
        """Execute one XNF statement.

        Returns a :class:`CompositeObject` for TAKE queries, the affected
        tuple count for CO-level DELETE/UPDATE, and None for view DDL.
        """
        return self._execute(source, self._run_take)

    def execute_remote(
        self, source: Union[str, xast.XNFStatement]
    ) -> Union[COInstance, int, None]:
        """:meth:`execute` for a wire client, which builds its own cache.

        A TAKE returns the CO's :class:`COInstance`, instance restrictions
        and TAKE projection applied, for the server to stream; no cache is
        built here unless a restriction or projection needs one.
        """
        return self._execute(source, self._take_instance)

    def _execute(self, source: Union[str, xast.XNFStatement],
                 take: Callable[[COProgram, Optional[List[Any]]], Any]) -> Any:
        """Run one statement.  A TAKE text of a shape run before in this
        scope (the same tokens but for literal values) runs the compiled
        program the plan cache kept, its literals bound from the tokens.
        View DDL never runs a program, so its text is not looked up."""
        scanned: Optional[Scanned] = None
        scope: Any = None
        literal_tokens: Optional[Dict[int, Any]] = None
        if isinstance(source, str) and not source.lstrip()[:6].upper().startswith(
            ("CREATE", "DROP")
        ):
            scanned = scan_statement(source, XNF_TOKENS)
            if scanned is not None:
                scope = self._scope(scanned)
                found = self.db.plan_cache.match(scanned, scope, self.db.catalog)
                if found:
                    return take(found[0].compiled, found[1])
                literal_tokens = {}
        statements = (
            parse_xnf_statements(source, literal_tokens)
            if isinstance(source, str)
            else [source]
        )
        if len(statements) != 1:
            raise XNFError("execute() takes exactly one XNF statement")
        statement = statements[0]
        if isinstance(statement, xast.CreateXNFView):
            # Validate eagerly: resolving catches unknown views/components.
            resolve(statement.query, self.views, statement.name)
            self.views.create(statement.name, statement.query)
            return None
        if isinstance(statement, xast.DropXNFView):
            self.views.drop(statement.name, statement.if_exists)
            return None
        assert isinstance(statement, xast.XNFQuery)
        if statement.action == "TAKE":
            program = self._compile(statement)
            if literal_tokens is not None:
                self.db.plan_cache.remember(
                    scanned, lambda: program.template(scanned, literal_tokens), scope
                )
            return take(program, None)
        if statement.action == "DELETE":
            return self._run_co_delete(statement)
        if statement.action == "UPDATE":
            return self._run_co_update(statement)
        raise XNFError(f"unknown XNF action {statement.action!r}")

    def query(self, source: Union[str, xast.XNFQuery]) -> CompositeObject:
        result = self.execute(source)
        if not isinstance(result, CompositeObject):
            raise XNFError("query() expects a TAKE query")
        return result

    def create_view(self, source: str) -> None:
        statement = parse_xnf_statements(source)[0]
        if not isinstance(statement, xast.CreateXNFView):
            raise XNFError("create_view() expects CREATE VIEW ... AS OUT OF ...")
        self.execute(statement)

    def classify(self, source: Union[str, xast.XNFStatement]) -> closure_mod.QueryClass:
        """Fig. 6 query classification."""
        return closure_mod.classify(source)

    def explain_analyze(self, source: str) -> str:
        """Run a TAKE query instrumented and render its full span tree.

        The rendering shows the XNF pipeline end to end: one span per
        reachability fixpoint round (with its delta-row count), every
        generated SQL statement with its per-operator actual row counts
        (the engine's analyze mode compiles them uncached and
        instrumented), aggregated per-stage timings, and the plan-cache
        counters.
        """
        db = self.db
        start = time.perf_counter()
        statements = parse_xnf_statements(source)
        parse_s = time.perf_counter() - start
        if len(statements) != 1 or not isinstance(statements[0], xast.XNFQuery):
            raise XNFError("explain_analyze() expects a single TAKE query")
        saved = (db.tracer.enabled, db.analyze_statements, db.tracer.sample_rate)
        db.tracer.enabled = True
        db.analyze_statements = True
        db.tracer.sample_rate = 1.0
        try:
            # Capture the take's spans under our own wrapper rather than
            # reading tracer.last_trace afterwards: when an outer span is
            # already open (the wire server's wire.<op> statement span),
            # the take's spans are children of it and no new root would
            # complete.  The wrapper subtree is the trace either way.
            db.tracer.force_sample()
            begin = time.perf_counter()
            with db.tracer.span("xnf.explain_analyze") as wrapper:
                if not wrapper.sampled:  # adopted an unsampled context
                    wrapper.sampled = True
                    wrapper.annotate(sampled="late")
                self._run_take(self._compile(statements[0]), None)
            total_s = time.perf_counter() - begin
        finally:
            db.tracer.enabled, db.analyze_statements, db.tracer.sample_rate = saved
        trace = wrapper
        stages_ms = build_profile(trace)["stages"]
        stages_ms["parse"] = parse_s * 1e3
        lines = trace.render().splitlines()
        lines.append(
            "stages: "
            + " ".join(
                f"{name}={stages_ms.get(name, 0.0):.3f}ms" for name in PIPELINE_STAGES
            )
        )
        lines.append(
            f"fixpoint rounds: {len(trace.find('xnf.fixpoint.round'))}  "
            f"total: {total_s * 1e3:.3f}ms"
        )
        stats = db.plan_cache.stats()
        lines.append(
            "plan cache: hits=%d misses=%d invalidations=%d entries=%d"
            % (
                stats["hits"],
                stats["misses"],
                stats["invalidations"],
                stats["entries"],
            )
        )
        return "\n".join(lines)

    def describe(self, source: str) -> str:
        """Resolve a query and render its CO schema graph."""
        statement = parse_xnf_statements(source)[0]
        query = (
            statement.query
            if isinstance(statement, xast.CreateXNFView)
            else statement
        )
        schema = resolve(query, self.views)
        return schema.describe()

    # -- materialized CO views (the paper's footnote-1 extension) ------------------

    def materialize_view(
        self, view_name: str, snapshot_name: Optional[str] = None
    ):
        """Instantiate an XNF view once and persist its instance.

        Returns a :class:`~repro.xnf.materialize.MaterializedCOView`
        handle.  :meth:`load_snapshot` then rebuilds the CO from the stored
        tables with cheap surrogate-key joins — no view derivation, no
        reachability fixpoint.
        """
        from repro.xnf import materialize as mat

        stored = self.views.get(view_name)
        if stored is None:
            raise XNFError(f"unknown XNF view {view_name!r}")
        program = self._compile(stored, name=view_name)
        instance = self._extract(program)
        name = (snapshot_name or f"SNAP_{view_name}").upper().replace("-", "_")
        if name in self._snapshots:
            raise XNFError(f"snapshot {name} already exists")
        handle = mat.store_instance(self.db, name, view_name, instance)
        self._snapshots[name] = (handle, program.schema)
        return handle

    def load_snapshot(self, name: str) -> CompositeObject:
        """Rebuild a CO from a snapshot's stored tables.

        The stored instance is closed under reachability, so loading is one
        ``SELECT *`` per stored table, all on one snapshot — no derivation
        joins, no fixpoint."""
        from repro.xnf import materialize as mat

        handle, schema = self._get_snapshot(name)
        instance = mat.load_stored_instance(self.db, handle, schema)
        self.last_stats = instance.stats
        return CompositeObject(self, COCache.load(instance))

    def refresh_snapshot(self, name: str):
        """Re-derive the snapshot from the current base data."""
        from repro.xnf import materialize as mat

        handle, schema = self._get_snapshot(name)
        mat.drop_snapshot(self.db, handle)
        del self._snapshots[handle.name]
        return self.materialize_view(handle.source_view, handle.name)

    def drop_snapshot(self, name: str) -> None:
        from repro.xnf import materialize as mat

        handle, _ = self._get_snapshot(name)
        mat.drop_snapshot(self.db, handle)
        del self._snapshots[handle.name]

    def snapshots(self) -> List[str]:
        return sorted(self._snapshots)

    def _get_snapshot(self, name: str):
        entry = self._snapshots.get(name.upper().replace("-", "_"))
        if entry is None:
            raise XNFError(f"unknown snapshot {name!r}")
        return entry

    # -- internals -------------------------------------------------------------------

    def _scope(self, scanned: Scanned) -> Any:
        """What besides its tokens a TAKE text's program depends on: the
        view catalog's version when a name in it is a view here (so sessions
        share only programs that read no view), and common-set reuse."""
        if any(name and self.views.get(name.strip('"')) for name in scanned[0][0]):
            return self.views.version, self.reuse_common
        return None, self.reuse_common

    def _compiler(self) -> XNFCompiler:
        return XNFCompiler(
            self.db,
            reuse_common=self.reuse_common,
            semi_naive=self.semi_naive,
            max_rounds=self.max_rounds,
            max_rows=self.max_rows,
            timeout_s=self.timeout_s,
        )

    def _compile(self, query: xast.XNFQuery, name: str = "") -> COProgram:
        return self._compiler().compile(resolve(query, self.views, name))

    def _extract(self, program: COProgram, literals: Optional[List[Any]] = None):
        """Instantiate *program* from one database state: every generated
        query of the extraction reads the same snapshot (the open
        transaction's, else one taken for this statement), so a commit
        landing between fixpoint rounds cannot tear the CO."""
        compiler = self._compiler()
        with self.db.snapshot_scope():
            instance = compiler.instantiate(program.schema, program, literals)
        self.last_stats = compiler.stats
        return instance

    def _take_instance(
        self, program: COProgram, literals: Optional[List[Any]]
    ) -> COInstance:
        instance = self._extract(program, literals)
        if program.schema.instance_restrictions:  # the TAKE projection may wait on them too
            instance = self._restrict(COCache.load(instance), program.schema).instance()
        if literals is not None:
            instance.schema = program.bind_schema(instance.schema, literals)
        return instance

    def _restrict(self, cache: COCache, schema) -> COCache:
        """Apply *schema*'s instance restrictions and pending TAKE."""
        if schema.instance_restrictions:
            apply_instance_restrictions(cache, schema.instance_restrictions)
        pending_take = getattr(schema, "pending_take", None)
        if pending_take is not None:
            projected = apply_take(schema, pending_take)
            projected.validate()
            cache.project(projected)
        return cache

    def _run_take(
        self, program: COProgram, literals: Optional[List[Any]]
    ) -> CompositeObject:
        cache = COCache.load(self._extract(program, literals))
        cache.program, cache.literals = program, literals
        return CompositeObject(self, self._restrict(cache, program.schema))

    def _run_co_delete(self, query: xast.XNFQuery) -> int:
        """CO deletion (section 3.7): remove the target CO's tuples and
        connections from their base tables."""
        co = self._run_take(self._compile(query), None)
        manipulator = co.manipulator
        removed = 0
        # Link rows of M:N relationships go first.
        for edge_name in co.edges():
            if manipulator.edge_info(edge_name).kind == "mn":
                for conn in co.connections(edge_name):
                    manipulator.disconnect(conn)
        for node_name in co.nodes():
            info = manipulator.node_info(node_name)
            if not info.updatable:
                raise XNFError(
                    f"CO DELETE: node {node_name} is not updatable ({info.reason})"
                )
            for cached in list(co.node(node_name)):
                where = manipulator._match_predicate(info, cached)
                from repro.relational.sql import ast as sql_ast

                manipulator._emit(sql_ast.DeleteStmt(info.base_table, where))
                co.cache.remove_tuple(cached)
                removed += 1
        if self.deferred_propagation:
            manipulator.flush()
        return removed

    def _run_co_update(self, query: xast.XNFQuery) -> int:
        from repro.xnf.paths import eval_instance_expr

        co = self._run_take(self._compile(query), None)
        node = query.update_node
        if node not in co.cache.tuples:
            raise XNFError(f"CO UPDATE: unknown node {node!r}")
        updated = 0
        for cached in list(co.node(node)):
            changes = {}
            for column, expr in query.update_assignments:
                bindings = {node: cached}
                changes[column] = eval_instance_expr(expr, bindings, co.cache)
            co.manipulator.update(cached, changes)
            updated += 1
        if self.deferred_propagation:
            co.manipulator.flush()
        return updated
