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

import copy
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import ResourceExhaustedError, SQLError
from repro.relational.catalog import Catalog
from repro.relational.engine import Database
from repro.relational.plancache import (
    NormalizedStatement,
    Scanned,
    StatementTemplate,
    normalize_statement,
    referenced_objects,
    token_template,
)
from repro.relational.sql import ast as sql_ast
from repro.xnf import sharding
from repro.xnf.lang import xast
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


class _Rows(NamedTuple):
    """A relation-valued slot of a program's query, bound at run time: the
    parent's delta (``name`` None) or a node's candidate or reachable rows.
    Normalization lifts it where it would lift the rows."""

    name: Optional[str]


class GeneratedQuery(NamedTuple):
    """A program's query, normalized once; *layout* holds, per lifted
    value, its index in the literals or the :class:`_Rows` bound there."""

    normalized: NormalizedStatement
    layout: Tuple[Any, ...]

    def values(self, literals: List[Any], sets: Any) -> List[Any]:
        return [
            literals[slot] if type(slot) is int else sets[slot.name]
            for slot in self.layout
        ]


@dataclass
class COProgram:
    """A CO schema compiled into the queries its extraction runs (section
    4.3: one per node or relationship, compiled once, run many times).

    ``lifted_values`` are the literals of the text it was compiled from;
    the plan cache's template of that text binds another text's from its
    tokens.  A program memoizes the paths its COs are navigated with and
    holds no extracted rows.
    """

    schema: COSchema
    columns: Dict[str, List[str]]
    queries: Dict[Any, GeneratedQuery]
    lifted_values: List[Any]
    #: catalog version of every object the queries reference
    dependencies: Dict[str, int]
    #: at most this many memoized paths (the plan cache's capacity)
    path_limit: int
    #: the schema component and literal node each of ``lifted_values`` is from
    sources: List[Tuple[str, sql_ast.Literal]] = field(default_factory=list)
    paths: Dict[str, List[xast.PathStep]] = field(default_factory=dict)

    def stale(self, catalog: Catalog) -> bool:
        return any(
            catalog.object_version(name) != version
            for name, version in self.dependencies.items()
        )

    def bind_schema(self, schema: COSchema, literals: List[Any]) -> COSchema:
        """*schema* (the program's, or its TAKE projection) with a hit's
        *literals* in place of the program's: the components holding one
        are copied."""
        memo = {id(node): replace(node, value=value)
                for (_, node), value in zip(self.sources, literals)}
        holders = {component for component, _ in self.sources}
        bound = copy.copy(schema)
        bound.nodes = {n: copy.deepcopy(c, memo) if n in holders else c
                       for n, c in schema.nodes.items()}
        bound.edges = {n: copy.deepcopy(c, memo) if n in holders else c
                       for n, c in schema.edges.items()}
        return bound

    def template(
        self, scanned: Scanned, literal_tokens: Dict[int, Tuple[Any, int]]
    ) -> Optional[StatementTemplate]:
        """The plan-cache template of the text *scanned* that compiled to
        this program, its parse having put each literal node's token in
        *literal_tokens*.  A literal left in a query (a SELECT-list
        constant, say) pins its token: its value is in the plans."""
        positions = [literal_tokens.get(id(node), (None, None))[1] for _, node in self.sources]
        pinned = {
            literal_tokens[id(node)][1]
            for query in self.queries.values()
            for block in sql_ast.queries(query.normalized.statement)
            for expr in sql_ast.clause_exprs(block)
            for node in sql_ast.walk(expr)
            if id(node) in literal_tokens
        }
        return token_template(scanned, self, positions, pinned)

    def path_steps(self, text: str) -> List[xast.PathStep]:
        steps = self.paths.get(text)
        if steps is None:
            from repro.xnf import cursors

            steps = cursors.parse_path_steps(text)
            # racing threads at worst parse a path twice; the steps are equal
            if len(self.paths) < self.path_limit:
                self.paths[text] = steps
        return steps


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

    def instantiate(
        self,
        schema: COSchema,
        program: Optional[COProgram] = None,
        literals: Optional[List[Any]] = None,
    ) -> COInstance:
        """Extract *schema*'s instance by running *program*, its compiled
        queries (compiled here when not given).  *literals* are the values
        a cached program bound from a TAKE text of its shape (a hit);
        without them it runs on the literals it was compiled from."""
        schema.validate()
        self.db.metrics.inc("xnf.fixpoint.instantiations")
        started = time.perf_counter()
        # A pure read: extractions on one Database may interleave freely.
        # Base-table reads inside the fixpoint resolve through the caller's
        # ambient snapshot (XNFSession opens one per XNF statement), so the
        # CO is snapshot-consistent while writers proceed concurrently.
        with self.db.tracer.span(
            "xnf.instantiate",
            co=schema.name or "<anonymous>",
            program="miss" if literals is None else "hit",
        ) as span:
            self.program = program or self.compile(schema)
            self.literals = self.program.lifted_values if literals is None else literals
            instance = self._instantiate(schema)
            span.annotate(
                rounds=self.stats.iterations,
                tuples=instance.total_tuples(),
                connections=instance.total_connections(),
            )
            self._record_co_stats(schema, instance, time.perf_counter() - started)
            return instance

    def compile(self, schema: COSchema) -> COProgram:
        """Compile *schema* into its :class:`COProgram`."""
        columns = {name: self._node_columns(node) for name, node in schema.nodes.items()}
        catalog = self.db.catalog
        queries: Dict[Any, GeneratedQuery] = {}
        literals: List[Any] = []
        dependencies: Dict[str, int] = {}
        sources: List[Tuple[str, sql_ast.Literal]] = []
        for key, query in self._generate(schema, columns).items():
            lifted_from: List[Any] = []
            normalized = normalize_statement(query, lifted_from)
            if normalized.n_explicit:
                raise SQLError("statement contains ? parameters; use Database.prepare()")
            layout: List[Any] = []
            for value, source in zip(normalized.lifted_values, lifted_from):
                if isinstance(value, _Rows):
                    layout.append(value)
                else:
                    layout.append(len(literals))
                    literals.append(value)
                    sources.append((key if isinstance(key, str) else key[0], source))
            queries[key] = GeneratedQuery(normalized, tuple(layout))
            for name in referenced_objects(normalized.statement, catalog):
                dependencies[name] = catalog.object_version(name)
        return COProgram(
            schema, columns, queries, literals, dependencies,
            self.db.plan_cache.capacity, sources,
        )

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
        query = self.program.queries[node.name]
        values = query.values(self.literals, None)
        if self.scatter:
            scattered = sharding.scatter_candidates(self.db, query.normalized, values)
            if scattered is not None:
                columns, rows, per_shard, _pruned = scattered
                self.stats.queries_issued += len(per_shard)
                self.stats.candidate_queries_run += 1
                if per_shard:
                    sink = self.shard_stats.setdefault(node.name, {})
                    for shard_id, count in per_shard.items():
                        sink[shard_id] = sink.get(shard_id, 0) + count
                if columns is None:
                    # every shard was pruned; the header is the program's
                    columns = self.program.columns[node.name]
                return columns, list(dict.fromkeys(rows))
        result = self._execute(node.name)
        self.stats.candidate_queries_run += 1
        unique: Dict[Row, None] = dict.fromkeys(result.rows)
        return result.columns, list(unique)

    def _execute(self, key: Any, sets: Any = None) -> Any:
        """Run the program's query *key*, its row-set slots bound from
        *sets* (name -> rows); every generated query counts as issued."""
        query = self.program.queries[key]
        normalized = query.normalized
        result = self.db.execute_ast(
            normalized.statement,
            normalized=normalized,
            values=query.values(self.literals, sets),
        )
        self.stats.queries_issued += 1
        return result

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
        # Node queries run lazily — roots eagerly (their rows seed
        # reachability), non-root candidate sets only when (and if) an edge
        # needs them.
        for name, columns in self.program.columns.items():
            instance.columns[name] = list(columns)
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
                    derived = self._derive_children(edge, candidates, list(source))
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

    def _generate(
        self, schema: COSchema, columns: Dict[str, List[str]]
    ) -> Dict[Any, sql_ast.Query]:
        """Every query an extraction of *schema* may run: a node's
        candidates (keyed by node name), an edge's children through each
        child partner (``(edge, binding)``) and its connections (edge
        name).  The sets the fixpoint computes enter as relation-valued
        FROM items whose rows are :class:`_Rows` slots."""
        queries: Dict[Any, sql_ast.Query] = {
            name: self.candidate_query(node) for name, node in schema.nodes.items()
        }
        for edge in schema.edges.values():
            partners = list(zip(edge.child_names(), edge.child_bindings()))
            using = [sql_ast.NamedTable(u.table, u.alias) for u in edge.using]
            # the reachability join of the parent's delta: one query per
            # child partner, each joining all partners plus the USING tables,
            # because the relationship predicate mentions all of them
            from_tables: List[sql_ast.TableRef] = [
                sql_ast.RowsTable(columns[edge.parent], _Rows(None), edge.parent_binding),
                *(
                    self._node_reference(schema.nodes[name], columns[name], binding)
                    for name, binding in partners
                ),
                *using,
            ]
            for _, binding in partners:
                queries[edge.name, binding] = sql_ast.SelectStmt(
                    [sql_ast.SelectItem(sql_ast.Star(binding))],
                    list(from_tables),
                    where=edge.predicate,
                    distinct=True,
                )
            # connection instances over the reachable sets (another shared
            # subexpression): parent row, child rows, attribute values
            partners.insert(0, (edge.parent, edge.parent_binding))
            items = [sql_ast.SelectItem(sql_ast.Star(b)) for _, b in partners]
            items += [sql_ast.SelectItem(expr, name) for name, expr in edge.attributes]
            queries[edge.name] = sql_ast.SelectStmt(
                items,
                [sql_ast.RowsTable(columns[n], _Rows(n), b) for n, b in partners] + using,
                where=edge.predicate,
                distinct=True,
            )
        return queries

    def _node_reference(
        self, node: NodeSchema, columns: List[str], binding: str
    ) -> sql_ast.TableRef:
        """A node's candidate set in a generated query: a bare base table
        directly (so the optimizer can use its indexes), else the set
        computed once and bound as a relation, or, without common
        subexpressions, the inlined defining query (experiment E3)."""
        if self._is_trivial(node):
            return sql_ast.NamedTable(node.table, binding)
        if self.reuse_common:
            return sql_ast.RowsTable(columns, _Rows(node.name), binding)
        return sql_ast.DerivedTable(self.candidate_query(node), binding)

    def _derive_children(
        self,
        edge: EdgeSchema,
        candidates: Dict[str, Tuple[List[str], List[Row]]],
        parent_rows: List[Row],
    ) -> Dict[str, List[Row]]:
        """Children of *parent_rows* via *edge* (the reachability join)."""
        sets: Dict[Optional[str], List[Row]] = {None: parent_rows}
        for name in edge.child_names():
            node = self.program.schema.nodes[name]
            if self._is_trivial(node):
                continue
            if not self.reuse_common:
                # the ablation re-runs the inlined defining query at every use
                self.stats.candidate_queries_run += 1
                continue
            if name not in candidates:
                candidates[name] = self._run_candidates(node)
            sets[name] = candidates[name][1]
        derived: Dict[str, List[Row]] = {}
        for name, binding in zip(edge.child_names(), edge.child_bindings()):
            result = self._execute((edge.name, binding), sets)
            derived.setdefault(name, []).extend(result.rows)
        return derived

    def _derive_connections(
        self,
        edge: EdgeSchema,
        instance: COInstance,
    ) -> List[Tuple[Row, Tuple[Row, ...], Row]]:
        result = self._execute(edge.name, instance.rows)
        parent_width = len(instance.columns[edge.parent])
        child_widths = [len(instance.columns[name]) for name in edge.child_names()]
        connections: List[Tuple[Row, Tuple[Row, ...], Row]] = []
        for row in result.rows:
            child_rows = []
            offset = parent_width
            for width in child_widths:
                child_rows.append(row[offset : offset + width])
                offset += width
            connections.append((row[:parent_width], tuple(child_rows), row[offset:]))
        return connections


def instantiate(
    db: Database,
    schema: COSchema,
    reuse_common: bool = True,
    semi_naive: bool = True,
) -> COInstance:
    """Instantiate *schema* against *db*; see :class:`XNFCompiler`."""
    compiler = XNFCompiler(db, reuse_common=reuse_common, semi_naive=semi_naive)
    return compiler.instantiate(schema)

