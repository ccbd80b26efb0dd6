"""The XNF semantic rewrite: composite objects → generated SQL.

Section 4.3 of the paper: "we formulate one query for each node or
relationship output of an XNF query, observing XNF semantics such as
reachability.  These queries typically use common subqueries to avoid
unnecessary redundant computations.  For instance, when we generate the
tuples of a parent node, we output them, and also use them again to find
the tuples of the associated children."

Concretely:

* each node's *candidate set* (its defining query, with schema-pushable
  SUCH THAT restrictions folded in) is materialised **once** into a
  temporary table and reused by every relationship that touches the node —
  the common-subexpression sharing the paper describes (ablation: pass
  ``reuse_common=False`` to recompute the defining query at every use,
  experiment E3);
* reachability is evaluated as a **semi-naive fixpoint** of generated
  parent⋈child SQL queries — one round for hierarchical COs, ``depth``
  rounds for recursive ones (ablation: ``semi_naive=False`` re-joins the
  full reachable set each round, experiment E6);
* finally one SQL query per relationship produces the connection instances
  (parent row, child row, attribute values).

Every generated query runs through the unmodified engine pipeline
(QGM → rewrite → optimizer → executor), which is the paper's architectural
point: the relational machinery is reused wholesale.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import CatalogError, ResourceExhaustedError, TypeCheckError
from repro.relational.catalog import Column, Table
from repro.relational.engine import Database
from repro.relational.sql import ast as sql_ast
from repro.relational.types import BOOLEAN, FLOAT, INTEGER, SQLType, VARCHAR
from repro.xnf import sharding
from repro.xnf.schema import COSchema, EdgeSchema, NodeSchema

Row = Tuple[Any, ...]

_temp_ids = itertools.count(1)


@dataclass
class InstantiationStats:
    """Measurements of one CO instantiation (benchmarks read these)."""

    iterations: int = 0
    queries_issued: int = 0
    candidate_queries_run: int = 0
    temp_tables_created: int = 0


@dataclass
class COInstance:
    """The instance level of a CO: reachable tuples plus connections."""

    schema: COSchema
    columns: Dict[str, List[str]] = field(default_factory=dict)
    rows: Dict[str, List[Row]] = field(default_factory=dict)
    #: edge name -> list of (parent_row, child_rows, attribute_values);
    #: child_rows is a tuple with one row per child partner (one for binary
    #: relationships, more for n-ary ones).
    connections: Dict[str, List[Tuple[Row, Tuple[Row, ...], Row]]] = field(
        default_factory=dict
    )
    stats: InstantiationStats = field(default_factory=InstantiationStats)

    def total_tuples(self) -> int:
        return sum(len(rows) for rows in self.rows.values())

    def total_connections(self) -> int:
        return sum(len(conns) for conns in self.connections.values())


class XNFCompiler:
    """Instantiates a :class:`COSchema` against a relational database."""

    def __init__(
        self,
        db: Database,
        reuse_common: bool = True,
        semi_naive: bool = True,
        max_rounds: Optional[int] = None,
        max_rows: Optional[int] = None,
        timeout_s: Optional[float] = None,
        scatter: bool = True,
    ):
        self.db = db
        self.reuse_common = reuse_common
        self.semi_naive = semi_naive
        #: scatter/gather over sharded tables (see repro.xnf.sharding): node
        #: candidate queries run per shard with bound/zone-map pruning.
        #: No-op on databases without sharded tables; ``False`` forces the
        #: facade plans (the equivalence ablation).
        self.scatter = scatter
        #: component name -> shard id -> rows that shard fed into the
        #: instance (reported to SYS_CO_STATS as kind="shard" rows)
        self.shard_stats: Dict[str, Dict[int, int]] = {}
        #: execution guards: abort a runaway reachability fixpoint (cyclic
        #: recursive COs can otherwise expand without bound) with
        #: ResourceExhaustedError.  None disables a guard.
        self.max_rounds = max_rounds
        self.max_rows = max_rows
        self.timeout_s = timeout_s
        #: scratch worktables currently attached to the catalog (name -> Table)
        self._attached: Dict[str, Table] = {}
        #: uniquely-named fallback tables (name collided with a user object);
        #: these are dropped, not pooled, on release
        self._fallback: set = set()
        self.stats = InstantiationStats()

    # -- public ------------------------------------------------------------------

    def instantiate(self, schema: COSchema) -> COInstance:
        self._current_schema = schema
        schema.validate()
        self.db.metrics.inc("xnf.fixpoint.instantiations")
        started = time.perf_counter()
        # Scratch worktables use stable names (for plan-cache fingerprint
        # reuse), so extractions on one Database must not interleave:
        # serialize them.  Base-table reads inside the fixpoint still
        # resolve through the caller's ambient MVCC snapshot, so a CO
        # extraction inside a transaction is snapshot-consistent while
        # writers proceed concurrently.
        with self.db.xnf_mutex:
            with self.db.tracer.span(
                "xnf.instantiate", co=schema.name or "<anonymous>"
            ) as span:
                try:
                    instance = self._instantiate(schema)
                finally:
                    self._release_temp_tables()
                span.annotate(
                    rounds=self.stats.iterations,
                    tuples=instance.total_tuples(),
                    connections=instance.total_connections(),
                )
                self._record_co_stats(
                    schema, instance, time.perf_counter() - started
                )
                return instance

    def _record_co_stats(
        self, schema: COSchema, instance: COInstance, duration_s: float
    ) -> None:
        """Report node/edge cardinalities and the fixpoint profile to the
        engine's CO-stats registry (surfaced as ``SYS_CO_STATS``)."""
        registry = getattr(self.db, "co_stats", None)
        if registry is None:
            return
        registry.record(
            schema.name or "<anonymous>",
            {name: len(rows) for name, rows in instance.rows.items()},
            {name: len(conns) for name, conns in instance.connections.items()},
            self.stats.iterations,
            self.stats.queries_issued,
            duration_s,
            shards=self.shard_stats or None,
        )

    # -- candidate sets ------------------------------------------------------------

    def candidate_query(self, node: NodeSchema) -> sql_ast.Query:
        """The node's defining query with pushed restrictions wrapped in."""
        if node.table is not None:
            query: sql_ast.Query = sql_ast.SelectStmt(
                [sql_ast.SelectItem(sql_ast.Star())],
                [sql_ast.NamedTable(node.table, node.name)],
            )
        else:
            assert node.query is not None
            query = node.query
        for alias, predicate in node.restrictions:
            query = sql_ast.SelectStmt(
                [sql_ast.SelectItem(sql_ast.Star())],
                [sql_ast.DerivedTable(query, alias)],
                where=predicate,
            )
        return query

    def _run_candidates(self, node: NodeSchema) -> Tuple[List[str], List[Row]]:
        query = self.candidate_query(node)
        if self.scatter:
            scattered = sharding.scatter_candidates(self.db, query)
            if scattered is not None:
                columns, rows, per_shard, _pruned = scattered
                self.stats.queries_issued += len(per_shard)
                self.stats.candidate_queries_run += 1
                if per_shard:
                    sink = self.shard_stats.setdefault(node.name, {})
                    for shard_id, count in per_shard.items():
                        sink[shard_id] = sink.get(shard_id, 0) + count
                if columns is None:
                    # every shard was pruned; derive the header statically
                    columns = self._node_columns(node)
                return columns, list(dict.fromkeys(rows))
        result = self.db.execute_ast(query)
        self.stats.queries_issued += 1
        self.stats.candidate_queries_run += 1
        unique: Dict[Row, None] = dict.fromkeys(result.rows)
        return result.columns, list(unique)

    def _node_columns(self, node: NodeSchema) -> List[str]:
        """Column names of a node without running its query."""
        if node.table is not None and not node.restrictions:
            return self.db.catalog.get_table(node.table).column_names()
        box = self.db.builder.build_query(self.candidate_query(node))
        return box.output_columns()

    @staticmethod
    def _is_trivial(node: NodeSchema) -> bool:
        """A bare base-table node: referenced directly in generated SQL,
        so the optimizer can use the base table's indexes."""
        return node.table is not None and not node.restrictions

    # -- the main algorithm -------------------------------------------------------------

    def _instantiate(self, schema: COSchema) -> COInstance:
        instance = COInstance(schema, stats=self.stats)
        # Column layouts are derived without executing anything; node
        # queries run lazily — roots eagerly (their rows seed reachability),
        # non-root candidate sets only when (and if) an edge needs them.
        columns: Dict[str, List[str]] = {}
        for name, node in schema.nodes.items():
            columns[name] = self._node_columns(node)
            instance.columns[name] = columns[name]
        candidate_tables: Dict[str, str] = {}

        # Reachability: ordered sets per node, seeded from the root tables.
        reachable: Dict[str, Dict[Row, None]] = {
            name: {} for name in schema.nodes
        }
        roots = schema.roots()
        delta: Dict[str, Dict[Row, None]] = {name: {} for name in schema.nodes}
        for root in roots:
            _, rows = self._run_candidates(schema.nodes[root])
            for row in rows:
                reachable[root][row] = None
                delta[root][row] = None

        edges = list(schema.edges.values())
        tracer = self.db.tracer
        metrics = self.db.metrics
        fixpoint_start = time.perf_counter()
        while any(delta.values()):
            self._check_guards(reachable, fixpoint_start)
            self.stats.iterations += 1
            with tracer.span(
                "xnf.fixpoint.round", round=self.stats.iterations
            ) as round_span:
                new_delta: Dict[str, Dict[Row, None]] = {
                    name: {} for name in schema.nodes
                }
                for edge in edges:
                    source = (
                        delta[edge.parent]
                        if self.semi_naive
                        else reachable[edge.parent]
                    )
                    if not source:
                        continue
                    derived = self._derive_children(
                        edge, columns, candidate_tables, list(source)
                    )
                    for child_name, rows in derived.items():
                        target = reachable[child_name]
                        pending = new_delta[child_name]
                        for row in rows:
                            if row not in target and row not in pending:
                                pending[row] = None
                for name, rows in new_delta.items():
                    reachable[name].update(rows)
                delta = new_delta
                delta_rows = sum(len(rows) for rows in delta.values())
                round_span.annotate(delta_rows=delta_rows)
                metrics.inc("xnf.fixpoint.rounds")
                metrics.inc("xnf.fixpoint.delta_rows", delta_rows)

        for name in schema.nodes:
            instance.rows[name] = list(reachable[name])

        # Connection instances: one query per relationship over the
        # materialised reachable sets (another shared subexpression).
        reachable_tables: Dict[str, str] = {}
        for edge in edges:
            with tracer.span("xnf.connections", edge=edge.name) as span:
                instance.connections[edge.name] = self._derive_connections(
                    edge, instance, reachable_tables
                )
                span.annotate(rows=len(instance.connections[edge.name]))
        return instance

    def _check_guards(
        self, reachable: Dict[str, Dict[Row, None]], started: float
    ) -> None:
        """Abort a runaway fixpoint before the next round starts.

        Raised between rounds, so the catalog, the scratch-table pool and
        the plan cache are never left mid-mutation: ``instantiate``'s
        ``finally`` clause releases the worktables exactly as it does after
        a successful run.
        """
        if self.max_rounds is not None and self.stats.iterations >= self.max_rounds:
            self.db.metrics.inc("xnf.fixpoint.guard_trips")
            raise ResourceExhaustedError(
                f"XNF fixpoint exceeded {self.max_rounds} rounds "
                "(recursive CO did not converge)"
            )
        if self.max_rows is not None:
            total = sum(len(rows) for rows in reachable.values())
            if total > self.max_rows:
                self.db.metrics.inc("xnf.fixpoint.guard_trips")
                raise ResourceExhaustedError(
                    f"XNF fixpoint exceeded {self.max_rows} reachable rows "
                    f"(got {total})"
                )
        if (
            self.timeout_s is not None
            and time.perf_counter() - started > self.timeout_s
        ):
            self.db.metrics.inc("xnf.fixpoint.guard_trips")
            raise ResourceExhaustedError(
                f"XNF fixpoint exceeded timeout of {self.timeout_s}s"
            )

    # -- generated queries ------------------------------------------------------------

    def _derive_children(
        self,
        edge: EdgeSchema,
        columns: Dict[str, List[str]],
        candidate_tables: Dict[str, str],
        parent_rows: List[Row],
    ) -> Dict[str, List[Row]]:
        """SQL for: children of *parent_rows* via *edge* (reachability join).

        One generated query per child partner (one for a binary edge); every
        query joins the delta with *all* child partners plus the USING
        tables, because the relationship predicate mentions all of them.
        """
        delta_table = self._materialize(
            f"DELTA_{edge.parent}", columns[edge.parent], parent_rows
        )
        from_tables: List[sql_ast.TableRef] = [
            sql_ast.NamedTable(delta_table, edge.parent_binding),
        ]
        for child_name, binding in zip(edge.child_names(), edge.child_bindings()):
            from_tables.append(
                self._node_reference(child_name, candidate_tables, binding)
            )
        from_tables.extend(
            sql_ast.NamedTable(u.table, u.alias) for u in edge.using
        )
        derived: Dict[str, List[Row]] = {}
        for child_name, binding in zip(edge.child_names(), edge.child_bindings()):
            query = sql_ast.SelectStmt(
                [sql_ast.SelectItem(sql_ast.Star(binding))],
                list(from_tables),
                where=edge.predicate,
                distinct=True,
            )
            result = self.db.execute_ast(query)
            self.stats.queries_issued += 1
            derived.setdefault(child_name, []).extend(result.rows)
        return derived

    def _derive_connections(
        self,
        edge: EdgeSchema,
        instance: COInstance,
        reachable_tables: Dict[str, str],
    ) -> List[Tuple[Row, Tuple[Row, ...], Row]]:
        parent_table = self._reachable_table(edge.parent, instance, reachable_tables)
        select_items = [sql_ast.SelectItem(sql_ast.Star(edge.parent_binding))]
        from_tables: List[sql_ast.TableRef] = [
            sql_ast.NamedTable(parent_table, edge.parent_binding),
        ]
        child_names = edge.child_names()
        child_bindings = edge.child_bindings()
        for child_name, binding in zip(child_names, child_bindings):
            child_table = self._reachable_table(
                child_name, instance, reachable_tables
            )
            select_items.append(sql_ast.SelectItem(sql_ast.Star(binding)))
            from_tables.append(sql_ast.NamedTable(child_table, binding))
        for attr_name, attr_expr in edge.attributes:
            select_items.append(sql_ast.SelectItem(attr_expr, attr_name))
        from_tables.extend(
            sql_ast.NamedTable(u.table, u.alias) for u in edge.using
        )
        query = sql_ast.SelectStmt(
            select_items, from_tables, where=edge.predicate, distinct=True
        )
        result = self.db.execute_ast(query)
        self.stats.queries_issued += 1
        parent_width = len(instance.columns[edge.parent])
        child_widths = [len(instance.columns[name]) for name in child_names]
        connections: List[Tuple[Row, Tuple[Row, ...], Row]] = []
        for row in result.rows:
            child_rows = []
            offset = parent_width
            for width in child_widths:
                child_rows.append(row[offset : offset + width])
                offset += width
            connections.append((row[:parent_width], tuple(child_rows), row[offset:]))
        return connections

    def _node_reference(
        self,
        node_name: str,
        candidate_tables: Dict[str, str],
        binding: str,
    ) -> sql_ast.TableRef:
        """Reference a node's candidate set in a generated query.

        With common-subexpression reuse this is the materialised temp table;
        without it the node's defining query is inlined and recomputed."""
        node = self._current_schema.nodes[node_name]
        if self._is_trivial(node):
            # Bare base table: reference it directly so the plan optimizer
            # can pick its indexes (both modes — there is nothing to share).
            return sql_ast.NamedTable(node.table, binding)
        if self.reuse_common:
            table = candidate_tables.get(node_name)
            if table is None:
                columns, rows = self._run_candidates(node)
                table = self._materialize(f"CAND_{node_name}", columns, rows)
                candidate_tables[node_name] = table
            return sql_ast.NamedTable(table, binding)
        # Without reuse, the node's defining query is rebuilt and re-run at
        # every use — the ablation's whole point (experiment E3).
        self.stats.candidate_queries_run += 1
        return sql_ast.DerivedTable(self.candidate_query(node), binding)

    def _reachable_table(
        self,
        node_name: str,
        instance: COInstance,
        reachable_tables: Dict[str, str],
    ) -> str:
        table = reachable_tables.get(node_name)
        if table is None:
            table = self._materialize(
                f"REACH_{node_name}",
                instance.columns[node_name],
                instance.rows[node_name],
            )
            reachable_tables[node_name] = table
        return table

    # -- temp-table plumbing ----------------------------------------------------------
    #
    # Worktables get *stable* names (XNF_DELTA_<node>, XNF_CAND_<node>,
    # XNF_REACH_<node>) so that the generated per-round / per-refresh SQL has
    # an identical fingerprint every time and re-hits the engine's plan
    # cache.  The Table objects themselves are recycled: refills go through
    # ``Table.truncate()`` (no catalog version bump — compiled plans bind the
    # Table object and stay valid) and, between instantiations, the tables
    # are parked in ``Database.scratch_tables`` via ``detach_scratch`` /
    # ``attach_scratch`` so the catalog looks clean while extractions are
    # not running.

    def _materialize(
        self, prefix: str, columns: Sequence[str], rows: List[Row]
    ) -> str:
        name = f"XNF_{prefix}".upper()
        table = self._acquire_scratch(name, columns, rows)
        self.stats.temp_tables_created += 1
        return table.name

    def _acquire_scratch(
        self, name: str, columns: Sequence[str], rows: List[Row]
    ) -> Table:
        catalog = self.db.catalog
        table = self._attached.get(name)
        if table is None:
            pooled = self.db.scratch_tables.get(name)
            if pooled is not None and not catalog.has_table(name):
                del self.db.scratch_tables[name]
                catalog.attach_scratch(pooled)
                table = self._attached[name] = pooled
        if table is not None:
            same_layout = [c.upper() for c in table.column_names()] == [
                str(c).upper() for c in columns
            ]
            if same_layout:
                try:
                    table.truncate()
                    table.insert_many(rows)
                    return table
                except TypeCheckError:
                    pass  # column types drifted; rebuild below
            # Layout changed: rebuild under the same name.  drop_table bumps
            # the catalog version, correctly invalidating plans compiled
            # against the old layout.
            self._attached.pop(name, None)
            catalog.drop_table(name, if_exists=True)
        column_defs = [
            Column(col, _infer_type(rows, pos), nullable=True)
            for pos, col in enumerate(columns)
        ]
        try:
            table = catalog.create_table(name, column_defs)
        except CatalogError:
            # The stable name collides with a user table/view: fall back to a
            # uniquified throwaway (dropped, not pooled, on release).
            name = f"{name}_{next(_temp_ids)}"
            table = catalog.create_table(name, column_defs)
            self._fallback.add(name)
        table.insert_many(rows)
        self._attached[name] = table
        return table

    def _release_temp_tables(self) -> None:
        for name, table in list(self._attached.items()):
            if name in self._fallback:
                self.db.catalog.drop_table(name, if_exists=True)
            else:
                detached = self.db.catalog.detach_scratch(name)
                if detached is not None:
                    detached.truncate()
                    self.db.scratch_tables[name] = detached
        self._attached.clear()
        self._fallback.clear()


def instantiate(
    db: Database,
    schema: COSchema,
    reuse_common: bool = True,
    semi_naive: bool = True,
) -> COInstance:
    """Instantiate *schema* against *db*; see :class:`XNFCompiler`."""
    compiler = XNFCompiler(db, reuse_common=reuse_common, semi_naive=semi_naive)
    return compiler.instantiate(schema)


def _infer_type(rows: List[Row], position: int) -> SQLType:
    for row in rows:
        value = row[position]
        if value is None:
            continue
        if isinstance(value, bool):
            return BOOLEAN
        if isinstance(value, int):
            return INTEGER
        if isinstance(value, float):
            return FLOAT
        if isinstance(value, str):
            return VARCHAR()
    return VARCHAR()
