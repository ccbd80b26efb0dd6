"""The XNF semantic rewrite: composite objects → generated SQL.

Section 4.3 of the paper: "we formulate one query for each node or
relationship output of an XNF query, observing XNF semantics such as
reachability.  These queries typically use common subqueries to avoid
unnecessary redundant computations.  For instance, when we generate the
tuples of a parent node, we output them, and also use them again to find
the tuples of the associated children."

Concretely:

* each node's *candidate set* (its defining query, with schema-pushable
  SUCH THAT restrictions folded in) is computed **once** and reused by
  every relationship that touches the node — the common-subexpression
  sharing the paper describes (ablation: pass ``reuse_common=False`` to
  recompute the defining query at every use, experiment E3);
* reachability is evaluated as a **semi-naive fixpoint** of generated
  parent⋈child SQL queries — one round for hierarchical COs, ``depth``
  rounds for recursive ones (ablation: ``semi_naive=False`` re-joins the
  full reachable set each round, experiment E6);
* finally one SQL query per relationship produces the connection instances
  (parent row, child row, attribute values).

Every generated query runs through the unmodified engine pipeline
(QGM → rewrite → optimizer → executor), which is the paper's architectural
point: the relational machinery is reused wholesale.  The shared sets —
per-round delta, candidate sets, reachable sets — enter those queries as
relation-valued parameters (``RowsTable`` FROM items), so an extraction is
a pure read: it creates no catalog object and writes no page, and the
plan cache keys on ``(VALUES ?n) AS alias(...)`` whatever the rows are.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ResourceExhaustedError
from repro.relational.engine import Database
from repro.relational.sql import ast as sql_ast
from repro.xnf import sharding
from repro.xnf.schema import COSchema, EdgeSchema, NodeSchema

Row = Tuple[Any, ...]


@dataclass
class InstantiationStats:
    """Measurements of one CO instantiation (benchmarks read these)."""

    iterations: int = 0
    queries_issued: int = 0
    candidate_queries_run: int = 0
    #: catalog tables written; stays 0 since the shared sets are bound as
    #: in-memory relations (kept so ledgers can show that)
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
        self.stats = InstantiationStats()

    # -- public ------------------------------------------------------------------

    def instantiate(self, schema: COSchema) -> COInstance:
        self._current_schema = schema
        schema.validate()
        self.db.metrics.inc("xnf.fixpoint.instantiations")
        started = time.perf_counter()
        # A pure read: extractions on one Database may interleave freely.
        # Base-table reads inside the fixpoint resolve through the caller's
        # ambient snapshot (XNFSession opens one per XNF statement), so the
        # CO is snapshot-consistent while writers proceed concurrently.
        with self.db.tracer.span(
            "xnf.instantiate", co=schema.name or "<anonymous>"
        ) as span:
            instance = self._instantiate(schema)
            span.annotate(
                rounds=self.stats.iterations,
                tuples=instance.total_tuples(),
                connections=instance.total_connections(),
            )
            self._record_co_stats(schema, instance, time.perf_counter() - started)
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
        candidates: Dict[str, Tuple[List[str], List[Row]]] = {}

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
                        edge, columns, candidates, list(source)
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
        # reachable sets (another shared subexpression).
        for edge in edges:
            with tracer.span("xnf.connections", edge=edge.name) as span:
                instance.connections[edge.name] = self._derive_connections(
                    edge, instance
                )
                span.annotate(rows=len(instance.connections[edge.name]))
        return instance

    def _check_guards(
        self, reachable: Dict[str, Dict[Row, None]], started: float
    ) -> None:
        """Abort a runaway fixpoint before the next round starts.

        Raised between rounds; the extraction wrote nothing, so there is
        nothing to undo.
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
        candidates: Dict[str, Tuple[List[str], List[Row]]],
        parent_rows: List[Row],
    ) -> Dict[str, List[Row]]:
        """SQL for: children of *parent_rows* via *edge* (reachability join).

        One generated query per child partner (one for a binary edge); every
        query joins the delta with *all* child partners plus the USING
        tables, because the relationship predicate mentions all of them.
        """
        from_tables: List[sql_ast.TableRef] = [
            sql_ast.RowsTable(columns[edge.parent], parent_rows, edge.parent_binding),
        ]
        for child_name, binding in zip(edge.child_names(), edge.child_bindings()):
            from_tables.append(self._node_reference(child_name, candidates, binding))
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
    ) -> List[Tuple[Row, Tuple[Row, ...], Row]]:
        child_names = edge.child_names()
        partners = [
            (edge.parent, edge.parent_binding),
            *zip(child_names, edge.child_bindings()),
        ]
        select_items = [sql_ast.SelectItem(sql_ast.Star(b)) for _, b in partners]
        from_tables: List[sql_ast.TableRef] = [
            sql_ast.RowsTable(instance.columns[name], instance.rows[name], binding)
            for name, binding in partners
        ]
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
        candidates: Dict[str, Tuple[List[str], List[Row]]],
        binding: str,
    ) -> sql_ast.TableRef:
        """Reference a node's candidate set in a generated query.

        With common-subexpression reuse this is the set computed once and
        bound as a relation; without it the node's defining query is
        inlined and recomputed."""
        node = self._current_schema.nodes[node_name]
        if self._is_trivial(node):
            # Bare base table: reference it directly so the plan optimizer
            # can pick its indexes (both modes — there is nothing to share).
            return sql_ast.NamedTable(node.table, binding)
        if self.reuse_common:
            if node_name not in candidates:
                candidates[node_name] = self._run_candidates(node)
            columns, rows = candidates[node_name]
            return sql_ast.RowsTable(columns, rows, binding)
        # Without reuse, the node's defining query is rebuilt and re-run at
        # every use — the ablation's whole point (experiment E3).
        self.stats.candidate_queries_run += 1
        return sql_ast.DerivedTable(self.candidate_query(node), binding)


def instantiate(
    db: Database,
    schema: COSchema,
    reuse_common: bool = True,
    semi_naive: bool = True,
) -> COInstance:
    """Instantiate *schema* against *db*; see :class:`XNFCompiler`."""
    compiler = XNFCompiler(db, reuse_common=reuse_common, semi_naive=semi_naive)
    return compiler.instantiate(schema)

