"""Database engine facade.

:class:`Database` wires the full pipeline of Fig. 8 of the paper (minus the
XNF stages, which :mod:`repro.xnf` adds on top):

    parse → QGM build → query rewrite → plan optimization → execution

and owns the shared substrate: disk, buffer pool, catalog, transaction
manager.  Per-stage wall-clock timings of the last statement are kept in
``last_timings`` (the stages of Fig. 8).
"""

from __future__ import annotations

import contextlib
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import (
    CatalogError,
    ExecutionError,
    IOFaultError,
    ReproError,
    ResourceExhaustedError,
    SQLError,
    SimulatedCrash,
    TransactionError,
)
from repro.obs.analyze import instrument_plan, render_analyzed
from repro.obs.costats import COStatsRegistry
from repro.obs.feedback import FeedbackRegistry
from repro.obs.metrics import MetricsRegistry
from repro.obs.network import NetworkStats, WireSessionRegistry
from repro.obs.slowlog import SlowQueryLog
from repro.obs.statements import StatementStatsRegistry
from repro.obs.trace import NULL_SPAN, Span, TraceContext, Tracer
from repro.relational.catalog import Catalog, Column, ShardedTable, Table
from repro.relational.storage.sharded import PartitionSpec
from repro.relational.executor.exprs import PlanContext, constant_value
from repro.relational.optimizer.planner import CompiledPlan, Planner
from repro.relational.plancache import (
    CacheEntry,
    NormalizedStatement,
    PlanCache,
    bind_rows,
    normalize_statement,
    referenced_objects,
    scan_statement,
    sql_template,
)
from repro.relational.qgm.build import QGMBuilder
from repro.relational.qgm.model import Box
from repro.relational.rewrite import Rewriter
from repro.relational.sql import ast
from repro.relational.sql.parser import parse_statements
from repro.relational.storage import BufferPool, DiskManager
from repro.relational.systables import install_sys_tables
from repro.relational.txn.manager import (
    IsolationLevel,
    Transaction,
    TransactionManager,
)
from repro.relational.txn.mvcc import current_snapshot, set_ambient_snapshot
from repro.relational.txn.wal import WriteAheadLog
from repro.relational.types import type_from_name


def _sql_of(stmt: ast.Statement) -> str:
    """SQL text of *stmt* for the slow log (DDL nodes render as their repr)."""
    try:
        return stmt.to_sql()
    except Exception:
        return repr(stmt)


def _fingerprint_of(stmt: ast.Statement) -> str:
    """Statement-stats key of a statement that ran without normalizing."""
    try:
        if isinstance(stmt, (ast.InsertStmt, *Database._TEMPLATED)):
            return normalize_statement(stmt).fingerprint
        return stmt.to_sql()
    except Exception:
        return type(stmt).__name__


class _SessionState(threading.local):
    """One thread's session state; every field exists from the first
    read, so the per-statement reads never take the missing-attribute
    path of a bare ``threading.local``."""

    def __init__(self) -> None:
        self.txn: Optional[Transaction] = None
        self.isolation: Optional[IsolationLevel] = None
        self.timeout_override: Optional[float] = None
        self.session_id: Optional[int] = None
        self.retry_wait = 0.0


@dataclass
class Result:
    """Outcome of one statement."""

    columns: List[str] = field(default_factory=list)
    rows: List[Tuple[Any, ...]] = field(default_factory=list)
    rowcount: int = 0

    def scalar(self) -> Any:
        """First column of the first row (None when empty)."""
        if self.rows:
            return self.rows[0][0]
        return None

    def first(self) -> Optional[Tuple[Any, ...]]:
        return self.rows[0] if self.rows else None

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def pretty(self, max_rows: int = 20) -> str:
        """Simple aligned-text rendering for examples and demos."""
        header = self.columns or []
        body = [
            ["NULL" if v is None else str(v) for v in row]
            for row in self.rows[:max_rows]
        ]
        widths = [len(h) for h in header]
        for row in body:
            for idx, cell in enumerate(row):
                if idx < len(widths):
                    widths[idx] = max(widths[idx], len(cell))
                else:
                    widths.append(len(cell))
        def fmt(cells: Sequence[str]) -> str:
            return " | ".join(
                cell.ljust(widths[idx]) for idx, cell in enumerate(cells)
            )
        lines = []
        if header:
            lines.append(fmt(header))
            lines.append("-+-".join("-" * w for w in widths))
        lines.extend(fmt(row) for row in body)
        if len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        return "\n".join(lines)


class Session:
    """A connection with its own transaction state over a shared Database.

    Sessions may interleave cooperatively on one thread — the setting where
    the no-wait lock manager surfaces conflicts as immediate
    :class:`DeadlockError`\\ s — or run one-session-per-thread against a
    shared Database (the Database's transaction pointer is thread-local).
    Reads never block on writers; see the README cookbook for the
    multi-threaded pattern.  Used to demonstrate the isolation
    degrees of section 1 across "applications" sharing the database
    (Fig. 7).
    """

    def __init__(self, db: "Database", isolation: Optional[IsolationLevel] = None):
        self.db = db
        self.isolation = isolation or db.isolation
        self._txn: Optional[Transaction] = None
        #: per-session statement timeout; None inherits the database default
        self.statement_timeout_s: Optional[float] = None
        #: wire-session id (stamped into statement stats / the slow log
        #: while this session is active); None for in-process sessions
        self.session_id: Optional[int] = None
        #: distributed-trace parent adopted for the duration of each
        #: activation: the wire server sets this per frame (FRESH_CONTEXT
        #: when the client sent no trace) before dispatching to the pool
        self.trace_context: Optional[TraceContext] = None

    def execute(self, sql: str) -> "Result":
        with self._activate():
            return self.db.execute(sql)

    def execute_ast(self, stmt: ast.Statement) -> "Result":
        with self._activate():
            return self.db.execute_ast(stmt)

    def begin(self, isolation: Optional[IsolationLevel] = None) -> None:
        with self._activate():
            self.db.begin(isolation or self.isolation)

    def commit(self) -> None:
        with self._activate():
            self.db.commit()

    def rollback(self) -> None:
        with self._activate():
            self.db.rollback()

    @property
    def in_transaction(self) -> bool:
        return self._txn is not None and self._txn.active

    def run_retryable(self, fn, **kwargs) -> Any:
        """Session-scoped :meth:`Database.run_retryable`: retries run under
        this session's transaction state (one session per thread is the
        supported multi-threaded pattern)."""
        # The database-level retry loop cannot see this session's open
        # transaction (each Session call swaps it in and out of the
        # thread-local pointer), so roll it back here before a retry —
        # every attempt must start on a fresh snapshot.
        def attempt():
            try:
                return fn()
            except ReproError as err:
                if getattr(err, "retryable", False) and self.in_transaction:
                    try:
                        self.rollback()
                    except ReproError:
                        pass
                raise

        return self.db.run_retryable(attempt, **kwargs)

    def _activate(self):
        session = self

        class _Swap:
            def __enter__(self):
                db = session.db
                self.saved = (
                    db._txn, db.isolation, db._timeout_override, db._session_id
                )
                db._txn = session._txn
                db.isolation = session.isolation
                db._timeout_override = session.statement_timeout_s
                db._session_id = session.session_id
                # Adopt the handed-over trace context (if any) so the root
                # span this thread opens parents under the caller's trace.
                self.adopted = None
                if session.trace_context is not None:
                    self.adopted = db.tracer.adopt(session.trace_context)
                    self.adopted.__enter__()
                return session

            def __exit__(self, *exc_info):
                db = session.db
                if self.adopted is not None:
                    self.adopted.__exit__(*exc_info)
                session._txn = db._txn
                (
                    db._txn, db.isolation, db._timeout_override, db._session_id
                ) = self.saved
                return False

        return _Swap()


class Database:
    """An embedded relational database instance."""

    def __init__(
        self,
        page_size: int = 4096,
        buffer_capacity: int = 256,
        enable_rewrite: bool = True,
        plan_cache_capacity: int = 256,
        disk: Optional[DiskManager] = None,
        wal: Optional[WriteAheadLog] = None,
        statement_timeout_s: Optional[float] = None,
        io_retries: int = 3,
        io_retry_backoff_s: float = 0.001,
        tracing: bool = True,
        trace_sample_rate: Optional[float] = None,
        slow_query_threshold_s: Optional[float] = None,
        statement_stats: bool = True,
        optimizer_feedback: bool = False,
        mvcc: bool = True,
        max_concurrent_txns: Optional[int] = None,
        shards: Optional[int] = None,
    ):
        # Snapshot isolation is the only concurrency control; ``mvcc=``
        # survives as a keyword whose one legal value is True.
        if not mvcc:
            raise ExecutionError(
                "mvcc=False is not supported: snapshot isolation is the "
                "only concurrency control"
            )
        # An existing disk/WAL pair may be passed in: that is how a crashed
        # instance is reopened over its surviving stable storage (see
        # Database.recover and tests/relational/test_crash_recovery.py).
        self.disk = disk if disk is not None else DiskManager(page_size)
        self.buffer_pool = BufferPool(self.disk, buffer_capacity)
        self.txn_manager = TransactionManager(
            wal=wal, max_concurrent_txns=max_concurrent_txns
        )
        #: snapshots and version store: reads are served from snapshots and
        #: take no locks, writers take no-wait table X locks, and
        #: write-write conflicts raise the retryable SerializationError
        self.mvcc = self.txn_manager.mvcc
        self.catalog = Catalog(self.buffer_pool, self.mvcc)
        self.builder = QGMBuilder(self.catalog)
        self.buffer_pool.pre_write_hook = self._wal_ahead_of
        #: database-wide default; wire sessions may override it per-thread
        #: through the ``statement_timeout_s`` property (Session swaps the
        #: override in and out alongside the transaction pointer).
        self._default_statement_timeout_s = statement_timeout_s
        self.io_retries = io_retries
        self.io_retry_backoff_s = io_retry_backoff_s
        self.enable_rewrite = enable_rewrite
        #: default shard count for CREATE TABLE: explicit ``shards=``
        #: argument, then the REPRO_SHARDS environment variable, else 0
        #: (unsharded).  Values < 2 mean unsharded.  Sharded heaps are
        #: memory-only (not ARIES-durable), so asking for them explicitly
        #: on a durable database (disk/wal) is an error; the environment
        #: default is ignored there instead, so a REPRO_SHARDS=4 test leg
        #: still runs the crash suites.
        durable = disk is not None or wal is not None
        if shards is None:
            try:
                shards = 0 if durable else int(os.environ.get("REPRO_SHARDS", "0"))
            except ValueError:
                shards = 0
        elif shards >= 2 and durable:
            raise ExecutionError(
                f"shards={shards} with disk=/wal=: sharded heaps are "
                "memory-only (not WAL-logged); open the durable database "
                "unsharded"
            )
        self.default_shards = shards if shards >= 2 else 0
        # Per-thread session state (the current transaction, the session's
        # isolation, timeout override and wire-session id) lives in a
        # thread-local, so one Database instance can be shared by
        # concurrent session threads (each thread runs its own statements
        # against its own transaction).
        self._tls = _SessionState()
        self._default_isolation = IsolationLevel.REPEATABLE_READ
        self.last_timings: Dict[str, float] = {}
        self.statements_executed = 0
        self.plan_cache = PlanCache(plan_cache_capacity)
        #: span tracer: every statement leaves a tree in tracer.last_trace.
        #: Head-based sampling: explicit ``trace_sample_rate=`` argument,
        #: then the REPRO_TRACE_SAMPLE environment variable, default 1.0
        #: (trace everything); slow statements are always sampled once a
        #: slow-query threshold is configured.
        if trace_sample_rate is None:
            try:
                trace_sample_rate = float(
                    os.environ.get("REPRO_TRACE_SAMPLE", "1")
                )
            except ValueError:
                trace_sample_rate = 1.0
        self.tracer = Tracer(
            enabled=tracing,
            sample_rate=trace_sample_rate,
            slow_sample_s=slow_query_threshold_s,
        )
        #: process-wide named metrics (XNF fixpoint, statement latencies, …)
        self.metrics = MetricsRegistry()
        self.tracer.metrics = self.metrics
        #: statements slower than the threshold, span trees attached
        self.slow_query_log = SlowQueryLog(slow_query_threshold_s)
        #: EXPLAIN ANALYZE mode: queries compile uncached and instrumented,
        #: attaching per-operator row counts to their execute spans (the
        #: XNF explain_analyze path flips this around an instantiation)
        self.analyze_statements = False
        #: per-fingerprint statement statistics (behind SYS_STAT_STATEMENTS)
        self.statement_stats = StatementStatsRegistry(enabled=statement_stats)
        #: estimate-vs-actual cardinality feedback (behind SYS_STAT_ESTIMATES)
        self.feedback = FeedbackRegistry()
        #: when True, the planner consults ``feedback`` at (re)planning time
        #: and corrects selectivity guesses with observed cardinalities
        self.optimizer_feedback = optimizer_feedback
        #: per-CO instantiation statistics (behind SYS_CO_STATS), fed by the
        #: XNF semantic-rewrite layer
        self.co_stats = COStatsRegistry()
        #: wire-server frame/byte counters (behind SYS_STAT_NETWORK); zero
        #: forever unless a repro.server.XNFServer serves this database
        self.network = NetworkStats()
        #: live wire sessions (behind SYS_SESSIONS)
        self.wire_sessions = WireSessionRegistry()
        install_sys_tables(self)

    # -- per-thread session state --------------------------------------------

    @property
    def _txn(self) -> Optional[Transaction]:
        return self._tls.txn

    @_txn.setter
    def _txn(self, value: Optional[Transaction]) -> None:
        self._tls.txn = value

    @property
    def isolation(self) -> IsolationLevel:
        return self._tls.isolation or self._default_isolation

    @isolation.setter
    def isolation(self, value: Optional[IsolationLevel]) -> None:
        self._tls.isolation = value

    @property
    def statement_timeout_s(self) -> Optional[float]:
        """Effective statement timeout for the calling thread.

        A per-session override (installed by :class:`Session` /
        the wire server) wins over the database-wide default.
        """
        override = self._tls.timeout_override
        if override is not None:
            return override
        return self._default_statement_timeout_s

    @statement_timeout_s.setter
    def statement_timeout_s(self, value: Optional[float]) -> None:
        self._default_statement_timeout_s = value

    @property
    def _timeout_override(self) -> Optional[float]:
        return self._tls.timeout_override

    @_timeout_override.setter
    def _timeout_override(self, value: Optional[float]) -> None:
        self._tls.timeout_override = value

    @property
    def _session_id(self) -> Optional[int]:
        """Wire-session id of the active Session on this thread (if any)."""
        return self._tls.session_id

    @_session_id.setter
    def _session_id(self, value: Optional[int]) -> None:
        self._tls.session_id = value

    @property
    def _retry_wait_s(self) -> float:
        """Seconds this thread has slept in transparent retry backoff
        (statement IO retries + run_retryable serialization retries);
        monotonically growing, read as a delta around one statement."""
        return self._tls.retry_wait

    def _note_retry_sleep(self, seconds: float) -> None:
        self._tls.retry_wait += seconds

    # -- public API ----------------------------------------------------------

    def execute(self, sql: str) -> Result:
        """Execute one statement; the last result is returned for batches.

        A statement whose template the plan cache holds is recognised from
        its tokens and runs without the parser (:meth:`PlanCache.match`);
        any other text is parsed under a ``statement`` span, and a single
        cacheable statement leaves its template behind for the next time.
        """
        if self.plan_cache.capacity > 0 and not self.analyze_statements:
            start = time.perf_counter()
            scanned = scan_statement(sql)
            matched = None if scanned is None else self.plan_cache.match(scanned)
            if matched is not None:
                self.last_timings["parse"] = time.perf_counter() - start
                template, values = matched
                normalized = template.compiled
                return self._run_statement(normalized.statement, normalized, values, sql)
        else:
            scanned = None
        with self.tracer.span("statement", sql=sql[:200]):
            start = time.perf_counter()
            literal_tokens: Optional[Dict[int, Any]] = {} if scanned else None
            with self.tracer.span("parse"):
                statements = parse_statements(sql, literal_tokens)
            self.last_timings["parse"] = time.perf_counter() - start
            if not statements:
                raise SQLError("empty statement")
            result = Result()
            for stmt in statements:
                result = self.execute_ast(stmt)
            if scanned and len(statements) == 1 and isinstance(stmt, self._TEMPLATED):
                self.plan_cache.remember(
                    scanned, lambda: sql_template(scanned, stmt, literal_tokens)
                )
            return result

    #: statements that run on a cached plan and whose templates the plan
    #: cache keeps: queries and UPDATE/DELETE (INSERT, DDL, EXPLAIN and the
    #: rest always parse and dispatch on their tree)
    _TEMPLATED = (ast.SelectStmt, ast.SetOpStmt, ast.UpdateStmt, ast.DeleteStmt)

    def execute_script(self, sql: str) -> List[Result]:
        return [self.execute_ast(stmt) for stmt in parse_statements(sql)]

    def query(self, sql: str) -> Result:
        return self.execute(sql)

    def connect(self, isolation: Optional[IsolationLevel] = None) -> Session:
        """Open an additional session (own transaction state, shared data)."""
        return Session(self, isolation)

    _SPAN_NAMES: Dict[type, str] = {}

    def _stmt_span_name(self, stmt: ast.Statement) -> str:
        name = self._SPAN_NAMES.get(type(stmt))
        if name is None:
            kind = type(stmt).__name__.replace("Stmt", "").lower()
            name = self._SPAN_NAMES[type(stmt)] = f"sql.{kind}"
        return name

    def execute_ast(
        self,
        stmt: ast.Statement,
        normalized: Optional[NormalizedStatement] = None,
        values: Sequence[Any] = (),
    ) -> Result:
        """Run a statement tree.  An XNF program passes a generated query
        *normalized* once, with its parameter *values*."""
        return self._run_statement(stmt, normalized, values)

    def _run_statement(
        self,
        stmt: ast.Statement,
        normalized: Optional[NormalizedStatement] = None,
        values: Sequence[Any] = (),
        sql: Optional[str] = None,
    ) -> Result:
        """Run one statement and keep its one record.

        Every way a statement runs comes through here.  A token-template
        hit (*sql* is its text) and :meth:`Prepared.execute` pass the
        *normalized* statement with its whole parameter vector *values*;
        the parsed tree path and XNF's generated statements pass the bare
        *stmt*, normalized here when it runs on a cached plan.

        The statement leaves one ``sql.<kind>`` span carrying ``sql``,
        ``rows``, ``fingerprint``, ``plan_cache`` and ``execute_ms``; its
        only children are the compile stages of a plan-cache miss.  The
        outcome is one statement-stats record (which also feeds the
        database-wide latency histogram) and, past the threshold, one
        slow-log entry.
        """
        self.statements_executed += 1
        span = self.tracer.span(self._stmt_span_name(stmt))
        start = time.perf_counter()
        hit: Optional[bool] = None
        result: Optional[Result] = None
        error: Optional[BaseException] = None
        try:
            if normalized is None and isinstance(stmt, self._TEMPLATED) and (
                isinstance(stmt, (ast.UpdateStmt, ast.DeleteStmt))
                or (self.plan_cache.capacity > 0 and not self.analyze_statements)
            ):
                normalized = self._normalized(stmt)
                values = normalized.lifted_values
            if normalized is None:
                result = self._dispatch_ast(stmt, span)
            elif isinstance(stmt, ast.InsertStmt):
                result = self._run_insert(stmt, span, values)
            elif self.analyze_statements and isinstance(stmt, (ast.SelectStmt, ast.SetOpStmt)):
                result = self._run_query(normalized.statement, span, values)
            else:
                plan, hit = self._cached_plan(normalized, values)
                if isinstance(stmt, (ast.UpdateStmt, ast.DeleteStmt)):
                    result = self._run_guarded(lambda: self._do_write(stmt, plan, values))
                else:
                    result = self._run_plan(plan, values, span)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            elapsed = time.perf_counter() - start
            rows = result.rowcount if result is not None else 0
            stats = self.statement_stats
            fingerprint = None
            if normalized is not None:
                fingerprint = normalized.fingerprint
            elif stats.enabled:
                fingerprint = _fingerprint_of(stmt)
            if span is not NULL_SPAN:
                attrs = span.attrs
                if sql is not None:
                    attrs["sql"] = sql[:200]
                if rows:
                    attrs["rows"] = rows
                if fingerprint is not None:
                    attrs["fingerprint"] = fingerprint
                if hit is not None:
                    attrs["plan_cache"] = "hit" if hit else "miss"
                span.__exit__(None if error is None else type(error), error, None)
            session_id = self._tls.session_id
            trace_id = span.trace_id or None
            stats.record(
                fingerprint, elapsed, rows, bool(hit), error is not None, session_id, trace_id
            )
            slow = self.slow_query_log
            if slow.threshold_s is not None and elapsed >= slow.threshold_s:
                slow.maybe_record(
                    _sql_of(stmt) if sql is None else parse_statements(sql)[0].to_sql(),
                    elapsed,
                    trace=None if span is NULL_SPAN else span.to_dict(),
                    timings={k: round(v, 6) for k, v in self.last_timings.items()},
                    session_id=session_id,
                    trace_id=trace_id,
                )
                self.metrics.inc("sql.slow_statements")

    @staticmethod
    def _normalized(stmt: ast.Statement) -> NormalizedStatement:
        """Normalize a statement that runs without explicit parameters."""
        normalized = normalize_statement(stmt)
        if normalized.n_explicit:
            raise SQLError("statement contains ? parameters; use Database.prepare()")
        return normalized

    def _dispatch_ast(self, stmt: ast.Statement, span: Span) -> Result:
        """Run a statement that does not run on a cached plan."""
        if isinstance(stmt, (ast.SelectStmt, ast.SetOpStmt)):
            return self._run_query(stmt, span)
        if isinstance(stmt, ast.InsertStmt):
            return self._run_insert(stmt, span)
        if isinstance(stmt, ast.CreateTableStmt):
            return self._run_create_table(stmt)
        if isinstance(stmt, ast.CreateIndexStmt):
            return self._run_create_index(stmt)
        if isinstance(stmt, ast.CreateViewStmt):
            return self._run_create_view(stmt)
        if isinstance(stmt, ast.DropStmt):
            return self._run_drop(stmt)
        if isinstance(stmt, ast.AnalyzeStmt):
            return self._run_analyze(stmt)
        if isinstance(stmt, ast.ExplainStmt):
            text = (
                self._explain_analyze_text(stmt.query, span)
                if stmt.analyze
                else self._explain_text(stmt.query)
            )
            lines = text.splitlines()
            return Result(["plan"], [(line,) for line in lines], len(lines))
        if isinstance(stmt, ast.BeginStmt):
            self.begin()
            return Result()
        if isinstance(stmt, ast.CommitStmt):
            self.commit()
            return Result()
        if isinstance(stmt, ast.RollbackStmt):
            self.rollback()
            return Result()
        raise SQLError(f"unsupported statement {stmt!r}")

    def explain(self, sql: str) -> str:
        """Return the physical plan of a query, as an indented tree, plus the
        current plan-cache counters."""
        return self._explain_text(self._single_query(sql))

    def explain_analyze(self, sql: str) -> str:
        """Execute *sql* under operator instrumentation and return the plan
        annotated with actual row counts, loops and cumulative times, plus
        the pipeline's per-stage timings and the plan-cache counters.

        Equivalent to ``execute("EXPLAIN ANALYZE <sql>")``.
        """
        start = time.perf_counter()
        query = self._single_query(sql)
        self.last_timings["parse"] = time.perf_counter() - start
        result = self._run_statement(ast.ExplainStmt(query, analyze=True))
        return "\n".join(line for (line,) in result.rows)

    def _single_query(self, sql: str) -> ast.Query:
        statements = parse_statements(sql)
        if len(statements) != 1 or not isinstance(
            statements[0], (ast.SelectStmt, ast.SetOpStmt)
        ):
            raise SQLError("EXPLAIN supports a single query")
        return statements[0]

    def _explain_text(self, query: ast.Query) -> str:
        # Compile outside the cache: EXPLAIN must not disturb the counters
        # it reports (the EXPLAIN statement and the explain() helper render
        # identical text for the same query).
        plan = self.compile_query(query, use_cache=False)
        lines = plan.op.explain().splitlines()
        lines.append(self._plan_cache_line())
        return "\n".join(lines)

    def _explain_analyze_text(self, query: ast.Query, span: Span) -> str:
        """EXPLAIN ANALYZE: run the query instrumented, render actuals.

        The plan is compiled outside the cache so the shadowed (counting)
        ``rows`` methods can never leak into a cached, shared plan.
        """
        plan = self._analyze_compile(query)
        op_stats = instrument_plan(plan.op)
        rows = self._run_plan(plan, None, span, op_stats).rows
        lines = render_analyzed(plan.op, op_stats).splitlines()
        lines.append(f"actual rows: {len(rows)}")
        lines.append(self._stage_timings_line())
        lines.append(self._plan_cache_line())
        return "\n".join(lines)

    def _analyze_compile(
        self, query: ast.Query, values: Optional[Sequence[Any]] = None
    ) -> CompiledPlan:
        """Uncached, instrumentable compile over the *normalized* statement.

        Normalizing first makes the feedback keys recorded from this run
        (parameter markers where literals stood) line up with the keys that
        cached compiles of literal-differing statements produce, so EXPLAIN
        ANALYZE observations transfer to later re-planning.  A query that
        comes normalized, with its parameter *values*, is compiled as it is.
        """
        if values is not None:
            return self._compile_statement(bind_rows(query, values))
        normalized = normalize_statement(query)
        if normalized.n_explicit:
            return self._compile_statement(query)
        plan = self._compile_statement(normalized.statement)
        plan.context.params[:] = list(normalized.lifted_values)
        return plan

    def _record_estimates(self, op_stats) -> None:
        """Feed per-operator estimate-vs-actual pairs into the feedback
        registry (``SYS_STAT_ESTIMATES``); actuals are per-loop averages so
        inner sides of nested loops compare against their per-probe estimate."""
        for stat in op_stats.values():
            op = stat.op
            est = getattr(op, "est_rows", None)
            if est is None or not stat.loops:
                continue
            self.feedback.record(
                getattr(op, "feedback_source", None) or op.label,
                op.label,
                getattr(op, "feedback_predicate", ""),
                float(est),
                stat.rows_out / stat.loops,
            )

    def _stage_timings_line(self) -> str:
        stages = ("parse", "build_qgm", "rewrite", "optimize", "execute")
        parts = [
            f"{stage}={self.last_timings[stage] * 1e3:.3f}ms"
            for stage in stages
            if stage in self.last_timings
        ]
        return "stages: " + " ".join(parts)

    def _plan_cache_line(self) -> str:
        stats = self.plan_cache.stats()
        return (
            "plan cache: hits=%d misses=%d invalidations=%d entries=%d token_lookups=%d"
            % (
                stats["hits"],
                stats["misses"],
                stats["invalidations"],
                stats["entries"],
                stats["token_lookups"],
            )
        )

    # -- prepared statements -------------------------------------------------------

    def prepare(self, sql: str) -> "Prepared":
        """Compile a statement once; re-execute it with new parameters.

        ``?`` placeholders in the SQL text become positional parameters of
        :meth:`Prepared.execute`.
        """
        statements = parse_statements(sql)
        if len(statements) != 1:
            raise SQLError("prepare() expects exactly one statement")
        return Prepared(self, statements[0])

    # -- query compilation (shared with the XNF layer) ----------------------------

    def compile_query(self, query: ast.Query, use_cache: bool = True) -> CompiledPlan:
        """Full pipeline minus execution; records per-stage timings.

        With *use_cache* (the default) the statement is normalized — WHERE
        constants lifted into a parameter vector — and looked up in the plan
        cache; on a hit, build/rewrite/optimize are skipped entirely and the
        cached closures are rebound to the statement's constants.
        """
        if use_cache and self.plan_cache.capacity > 0:
            normalized = self._normalized(query)
            plan = self._cached_plan(normalized)[0]
            plan.context.params[:] = normalized.lifted_values
            return plan
        return self._compile_statement(query)

    def _cached_plan(
        self, normalized: NormalizedStatement, values: Optional[Sequence[Any]] = None
    ) -> Tuple[CompiledPlan, bool]:
        """Look up (or compile and cache) the plan of a normalized query;
        returns it with whether the cache held it.  A miss compiles with the
        rows of the relation-valued slots in *values*, if given, for the
        estimates (an XNF program's normalized queries hold no rows).

        The caller binds ``plan.context.params`` before executing.
        """
        key = (normalized.fingerprint, self.enable_rewrite)
        entry = self.plan_cache.lookup(key, self.catalog)
        if entry is None:
            stmt = normalized.statement
            plan = self._compile_statement(stmt if values is None else bind_rows(stmt, values))
            deps = referenced_objects(normalized.statement, self.catalog)
            entry = CacheEntry(
                plan,
                {name: self.catalog.object_version(name) for name in deps},
                volatile=any(self.catalog.is_virtual(name) for name in deps),
            )
            self.plan_cache.store(key, entry)
            return plan, False
        self.last_timings.update({"build_qgm": 0.0, "rewrite": 0.0, "optimize": 0.0})
        return entry.plan, True

    def _compile_statement(self, stmt: ast.Statement) -> CompiledPlan:
        """Compile a query, or the row-finding plan of an UPDATE/DELETE."""
        if isinstance(stmt, (ast.UpdateStmt, ast.DeleteStmt)):
            return self._compile_write(stmt)
        timings: Dict[str, float] = {}
        start = time.perf_counter()
        with self.tracer.span("build_qgm"):
            box = self.builder.build_query(stmt)
        timings["build_qgm"] = time.perf_counter() - start
        start = time.perf_counter()
        with self.tracer.span("rewrite"):
            box = self._rewrite(box)
        timings["rewrite"] = time.perf_counter() - start
        start = time.perf_counter()
        with self.tracer.span("optimize"):
            plan = self._planner().plan_statement(box)
        timings["optimize"] = time.perf_counter() - start
        self.last_timings.update(timings)
        return plan

    def _compile_write(self, stmt: ast.Statement) -> CompiledPlan:
        """Resolve WHERE and SET over the target table, then plan."""
        table = self.catalog.get_table(stmt.table)
        columns = table.column_names()

        def resolve(expr: ast.Expr) -> ast.Expr:
            return self.builder.resolve_standalone_predicate(
                expr, table.name, columns
            )

        where = resolve(stmt.where) if stmt.where is not None else None
        assignments = [
            (col, resolve(expr)) for col, expr in getattr(stmt, "assignments", ())
        ]
        start = time.perf_counter()
        with self.tracer.span("optimize"):
            plan = self._planner().plan_write(table, where, assignments)
        self.last_timings["optimize"] = time.perf_counter() - start
        return plan

    def _planner(self) -> Planner:
        return Planner(
            self.catalog, feedback=self.feedback if self.optimizer_feedback else None
        )

    def _rewrite(self, box: Box) -> Box:
        if not self.enable_rewrite:
            return box
        return Rewriter().rewrite(box)

    def _run_query(
        self, query: ast.Query, span: Span, values: Optional[Sequence[Any]] = None
    ) -> Result:
        """Run a query off the statement's own cached-plan path: in analyze
        mode (compiled uncached and instrumented, so the counting operators
        stay private to this execution; a normalized query comes with its
        parameter *values*), with the plan cache disabled, or as an INSERT's
        SELECT."""
        if self.analyze_statements:
            plan = self._analyze_compile(query, values)
            return self._run_plan(plan, values, span, instrument_plan(plan.op))
        if self.plan_cache.capacity > 0:
            normalized = self._normalized(query)
            plan = self._cached_plan(normalized)[0]
            return self._run_plan(plan, normalized.lifted_values, span)
        return self._run_plan(self._compile_statement(query), None, span)

    def _run_plan(
        self,
        plan: CompiledPlan,
        values: Optional[Sequence[Any]],
        span: Span,
        op_stats=None,
    ) -> Result:
        """Execute a query plan (binding *values* into a cached one) and put
        its execute time on the statement's *span*; an instrumented plan's
        *op_stats* add the operator tree (``detail``) and batch count."""
        start = time.perf_counter()
        rows = self._execute_plan(plan, values)
        elapsed = self.last_timings["execute"] = time.perf_counter() - start
        if span is not NULL_SPAN:
            span.annotate(execute_ms=round(elapsed * 1e3, 4))
        if op_stats is not None:
            batches = sum(stat.batches for stat in op_stats.values())
            if batches:
                span.annotate(batches=batches)
            span.annotate(detail=render_analyzed(plan.op, op_stats))
            self._record_estimates(op_stats)
        return Result(plan.columns, rows, len(rows))

    @contextlib.contextmanager
    def snapshot_scope(self):
        """Install the calling statement's snapshot as this thread's
        ambient snapshot, and yield it.

        A scope already open for the same owner is reused, so everything
        one statement runs — an XNF statement's generated queries, an
        INSERT's SELECT, an UPDATE's row-finding plan — reads one database
        state.  Otherwise the snapshot is the open transaction's (re-taken
        first under cursor stability) or, outside a transaction, a fresh
        ephemeral one retired when the scope closes.
        """
        txn = self._txn
        active = txn is not None and txn.active
        ambient = current_snapshot()
        if ambient is not None and ambient.owner == (txn.txn_id if active else 0):
            yield ambient
            return
        mv = self.mvcc
        if not active:
            snap = mv.snapshots.begin()
        elif txn.isolation is IsolationLevel.CURSOR_STABILITY:
            snap = self.txn_manager.refresh_snapshot(txn)
        else:
            snap = txn.snapshot
        prev = set_ambient_snapshot(snap)
        try:
            yield snap
        finally:
            set_ambient_snapshot(prev)
            if not active:
                mv.release(snap)

    def _execute_plan(
        self, plan: CompiledPlan, values: Optional[Sequence[Any]]
    ) -> List[Tuple[Any, ...]]:
        """Bind parameters (when *values* is given — cached, shared plans)
        and collect rows under the plan's bind lock and this thread's
        snapshot.  Holding the bind lock across bind + execution keeps two
        threads from re-binding one shared compiled plan mid-run."""
        with self.snapshot_scope():
            if values is None:
                return self._collect_rows(plan)
            with plan.bind_lock:
                plan.context.params[:] = values
                return self._collect_rows(plan)

    def _collect_rows(self, plan: CompiledPlan) -> List[Tuple[Any, ...]]:
        """Materialize a plan's rows under the execution guards.

        * the statement timeout is checked per produced batch, so a runaway
          query aborts with :class:`ResourceExhaustedError` instead of
          spinning;
        * a transient :class:`IOFaultError` (injected read error) restarts
          the whole collection after a short backoff, up to ``io_retries``
          times — queries have no side effects, so re-running the plan's
          operator tree from scratch is safe.
        """
        backoff = self.io_retry_backoff_s
        timeout = self.statement_timeout_s
        for attempt in range(self.io_retries + 1):
            deadline = None if timeout is None else time.perf_counter() + timeout
            try:
                rows: List[Tuple[Any, ...]] = []
                # one transpose per batch instead of one generator hop per row
                for batch in plan.batches():
                    if deadline is not None and time.perf_counter() > deadline:
                        self._timed_out()
                    rows.extend(batch.to_rows())
                if deadline is not None and time.perf_counter() > deadline:
                    self._timed_out()
                return rows
            except IOFaultError as err:
                if err.transient and attempt < self.io_retries:
                    self.metrics.inc("sql.statement_retries")
                    if backoff > 0:
                        time.sleep(backoff)
                        self._note_retry_sleep(backoff)
                    backoff *= 2
                    continue
                raise
        raise AssertionError("unreachable")  # pragma: no cover

    def _timed_out(self) -> None:
        raise ResourceExhaustedError(
            f"query exceeded statement timeout of {self.statement_timeout_s}s"
        )

    # -- DML ------------------------------------------------------------------

    def _run_guarded(self, fn) -> Result:
        """Run one DML statement with statement-level atomicity.

        Outside an explicit transaction, the statement runs in an implicit
        per-statement transaction that commits (force-WAL) on success — the
        replacement for unrecoverable "txn 0" autocommit logging.  On any
        failure the statement's own changes are undone via the WAL undo
        list (CLR-logged), so a half-applied multi-row statement never
        leaks: inside an explicit transaction the earlier statements
        survive, outside it the implicit transaction is rolled back.
        Transient I/O faults additionally get a bounded retry with
        exponential backoff.  A :class:`SimulatedCrash` passes through
        untouched — the "machine" is dead and recovery owns cleanup.
        """
        implicit = not self.in_transaction
        if implicit:
            self._txn = self.txn_manager.begin(self.isolation)
        txn = self._txn
        assert txn is not None
        try:
            backoff = self.io_retry_backoff_s
            for attempt in range(self.io_retries + 1):
                mark = len(txn.undo)
                try:
                    with self.snapshot_scope():
                        result = fn()
                    break
                except SimulatedCrash:
                    raise
                except IOFaultError as err:
                    self.txn_manager.rollback_statement(txn, mark)
                    if err.transient and attempt < self.io_retries:
                        self.metrics.inc("sql.statement_retries")
                        if backoff > 0:
                            time.sleep(backoff)
                            self._note_retry_sleep(backoff)
                        backoff *= 2
                        continue
                    raise
                except Exception:
                    self.txn_manager.rollback_statement(txn, mark)
                    raise
            if implicit:
                self.txn_manager.commit(txn)
                self._txn = None
            return result
        except SimulatedCrash:
            self._txn = None if implicit else self._txn
            raise
        except BaseException:
            if implicit:
                if txn.active:
                    self.txn_manager.rollback(txn)
                self._txn = None
            raise

    def _run_insert(
        self, stmt: ast.InsertStmt, span: Span, params: Optional[Sequence[Any]] = None
    ) -> Result:
        return self._run_guarded(lambda: self._do_insert(stmt, span, params))

    def _do_insert(
        self, stmt: ast.InsertStmt, span: Span, params: Optional[Sequence[Any]] = None
    ) -> Result:
        table = self.catalog.get_table(stmt.table)
        txn = self._txn
        self.txn_manager.locks.acquire(txn.txn_id, table.name)
        if stmt.columns is not None:
            positions = [table.position_of(col) for col in stmt.columns]
        else:
            positions = list(range(len(table.columns)))
        incoming: List[Tuple[Any, ...]] = []
        if stmt.select is not None:
            incoming = list(self._run_query(stmt.select, span).rows)
        else:
            planner = Planner(self.catalog, PlanContext(list(params or [])))
            compiler = planner.compiler({})
            for row_exprs in stmt.rows or []:
                resolved = [
                    self.builder.resolve_standalone_predicate(e, "__none__", [])
                    for e in row_exprs
                ]
                incoming.append(
                    tuple(constant_value(compiler.compile_value(e), []) for e in resolved)
                )
        count = 0
        for values in incoming:
            if len(values) != len(positions):
                raise ExecutionError(
                    f"INSERT expects {len(positions)} values, got {len(values)}"
                )
            row: List[Any] = [None] * len(table.columns)
            for pos, value in zip(positions, values):
                row[pos] = value
            rid = self.mvcc.store.insert_with_note(txn.txn_id, table, tuple(row))
            self._record_insert(table, rid)
            count += 1
        return Result(rowcount=count)

    def _do_write(
        self, stmt: ast.Statement, plan: CompiledPlan, params: Sequence[Any]
    ) -> Result:
        """UPDATE/DELETE: run the cached row-finding *plan*
        (:meth:`Planner.plan_write`), then write each row it found.

        Halloween protection is the materialised RID stream: every target
        row is found before the first write, so an update that moves a row
        into the probed index range never visits it twice.
        """
        table = self.catalog.get_table(stmt.table)
        txn = self._txn
        self.txn_manager.locks.acquire(txn.txn_id, table.name)
        found = self._execute_plan(plan, params)
        width = len(table.columns) + 1
        for tagged in found:
            rid, old_row, new_row = tagged[0], tagged[1:width], tagged[width:]
            # first-committer-wins: the row's current version must not be
            # newer than this transaction's snapshot
            self.mvcc.store.check_write(table.name, rid, txn.snapshot)
            if isinstance(stmt, ast.DeleteStmt):
                self._mvcc_apply(table, rid, old_row, None, lambda: table.delete(rid))
                self._record_delete(table, rid, old_row)
            else:
                self._mvcc_apply(
                    table, rid, old_row, new_row, lambda: table.update(rid, new_row)
                )
                self._record_update(table, rid, old_row, new_row)
        return Result(rowcount=len(found))

    # -- DDL -------------------------------------------------------------------

    def _run_create_table(self, stmt: ast.CreateTableStmt) -> Result:
        if stmt.if_not_exists and self.catalog.has_table(stmt.name):
            return Result()
        columns = [
            Column(
                col.name,
                type_from_name(col.type_name, col.size),
                nullable=not col.not_null,
                primary_key=col.primary_key,
                references=col.references,
            )
            for col in stmt.columns
        ]
        partition = None
        if self.default_shards >= 2:
            # Auto-shard SQL DDL tables by hash on the primary key (first
            # column as fallback).  Scratch/internal tables bypass this path
            # by calling catalog.create_table directly.
            key_col = next(
                (col.name for col in columns if col.primary_key), columns[0].name
            )
            partition = PartitionSpec("hash", key_col, self.default_shards)
        self.catalog.create_table(stmt.name, columns, partition=partition)
        return Result()

    def _run_create_index(self, stmt: ast.CreateIndexStmt) -> Result:
        table = self.catalog.get_table(stmt.table)
        table.add_index(stmt.name, stmt.columns, unique=stmt.unique, kind=stmt.kind)
        return Result()

    def _run_create_view(self, stmt: ast.CreateViewStmt) -> Result:
        # Validate eagerly: building the QGM catches unknown names now.
        self.builder.build_query(stmt.query)
        self.catalog.create_view(stmt.name, stmt.sql_text, stmt.query)
        return Result()

    def _run_drop(self, stmt: ast.DropStmt) -> Result:
        if stmt.kind == "TABLE":
            self.catalog.drop_table(stmt.name, stmt.if_exists)
        elif stmt.kind == "VIEW":
            self.catalog.drop_view(stmt.name, stmt.if_exists)
        elif stmt.kind == "INDEX":
            dropped = False
            candidates = (
                [self.catalog.get_table(stmt.table)]
                if stmt.table
                else list(self.catalog.tables.values())
            )
            for table in candidates:
                if stmt.name in table.indexes:
                    table.drop_index(stmt.name)
                    dropped = True
                    break
            if not dropped and not stmt.if_exists:
                raise CatalogError(f"no index named {stmt.name}")
        return Result()

    def _run_analyze(self, stmt: ast.AnalyzeStmt) -> Result:
        tables = (
            [self.catalog.get_table(stmt.table)]
            if stmt.table
            else list(self.catalog.tables.values())
        )
        for table in tables:
            table.analyze()
        return Result(rowcount=len(tables))

    # -- transactions -------------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._txn is not None and self._txn.active

    def begin(self, isolation: Optional[IsolationLevel] = None) -> None:
        if self.in_transaction:
            raise TransactionError("transaction already in progress")
        self._txn = self.txn_manager.begin(isolation or self.isolation)

    def commit(self) -> None:
        if not self.in_transaction:
            raise TransactionError("no transaction in progress")
        self.txn_manager.commit(self._txn)  # type: ignore[arg-type]
        self._txn = None

    def rollback(self) -> None:
        if not self.in_transaction:
            raise TransactionError("no transaction in progress")
        self.txn_manager.rollback(self._txn)  # type: ignore[arg-type]
        self._txn = None

    def run_retryable(
        self,
        fn: Callable[[], Any],
        *,
        retries: int = 5,
        backoff_s: Optional[float] = None,
        max_backoff_s: float = 0.25,
        jitter: float = 0.5,
        rng: Optional[random.Random] = None,
    ) -> Any:
        """Run *fn* (typically a whole transaction) retrying retryable
        errors with exponential backoff and jitter.

        Retryable errors are the ones the taxonomy marks so: no-wait
        deadlock victims (:class:`DeadlockError`), snapshot write-write
        conflicts (:class:`SerializationError`), admission rejections
        (:class:`AdmissionError`) and transient :class:`IOFaultError`.
        Any transaction this thread left open is rolled back before each
        retry, so *fn* always starts on a fresh snapshot.  After *retries*
        failed re-runs the last error propagates.  Pass a seeded *rng* for
        deterministic backoff in tests.

        ``backoff_s=None`` (the default) seeds the first delay from the
        error's ``backoff_hint_s`` (falling back to 2 ms); explicit zero or
        negative values are treated the same — a zero seed would otherwise
        never grow (``0 * 2 == 0``) and busy-spin the retry budget.  The
        post-jitter sleep is clamped to ``max_backoff_s`` so jitter cannot
        overshoot the configured ceiling.  :meth:`WireClient.run_retryable`
        keeps the identical contract for remote callers.
        """
        rng = rng if rng is not None else random.Random()
        delay = backoff_s
        for attempt in range(retries + 1):
            try:
                return fn()
            except ReproError as err:
                if not getattr(err, "retryable", False):
                    raise
                if self.in_transaction:
                    try:
                        self.rollback()
                    except ReproError:
                        pass
                if attempt >= retries:
                    raise
                self.metrics.inc("txn.retries")
                if delay is None or delay <= 0:
                    delay = getattr(err, "backoff_hint_s", None) or 0.002
                sleep_s = min(delay, max_backoff_s) * (1.0 + jitter * rng.random())
                sleep_s = min(sleep_s, max_backoff_s)
                if sleep_s > 0:
                    time.sleep(sleep_s)
                    self._note_retry_sleep(sleep_s)
                delay *= 2
        raise AssertionError("unreachable")  # pragma: no cover

    def vacuum(self) -> Dict[str, int]:
        """Run one MVCC garbage-collection pass: drop row versions older
        than the oldest active snapshot."""
        return self.mvcc.store.vacuum()

    # -- sharding ------------------------------------------------------------------

    def repartition(
        self,
        name: str,
        shards: int,
        kind: str = "hash",
        column: Optional[str] = None,
        bounds: Optional[List[Any]] = None,
    ) -> Table:
        """Rebuild table *name* partitioned into *shards* shards
        (``shards < 2`` rebuilds it unsharded).

        The table is dropped and recreated with the same schema and
        secondary indexes, and its rows are re-inserted through partition
        routing.  *column* defaults to the primary key (first column as a
        fallback); range partitioning without explicit *bounds* derives
        equi-depth split points from the existing data.  Cheapest on an
        empty table right after DDL — then every later load routes live.
        """
        if self.in_transaction:
            raise TransactionError("cannot repartition inside a transaction")
        catalog = self.catalog
        table = catalog.get_table(name)
        if getattr(table, "is_virtual", False):
            raise CatalogError(f"cannot repartition system table {name}")
        if table.is_shard_view:
            raise CatalogError(
                f"{name} is a shard view; repartition its parent table"
            )
        if self.mvcc.store.dirty(table.name):
            raise TransactionError(
                f"cannot repartition {name} while row versions are in flight"
            )
        columns = list(table.columns)
        if column is None:
            column = next(
                (col.name for col in columns if col.primary_key), columns[0].name
            )
        rows = [row for _, row in table.heap.scan()]
        index_defs = [
            (
                idx.name,
                list(idx.column_names),
                idx.unique,
                "btree" if idx.supports_range else "hash",
            )
            for idx in table.indexes.values()
            if idx.name != f"pk_{table.name}"
        ]
        partition: Optional[PartitionSpec] = None
        if shards >= 2:
            if kind == "range" and bounds is None:
                key_pos = table.position_of(column)
                values = sorted(
                    (row[key_pos] for row in rows if row[key_pos] is not None),
                )
                if not values:
                    raise CatalogError(
                        f"range repartition of empty {name} needs explicit bounds"
                    )
                bounds = [
                    values[(i * len(values)) // shards] for i in range(1, shards)
                ]
            partition = PartitionSpec(kind, column, shards, bounds)
        catalog.drop_table(table.name)
        new_table = catalog.create_table(table.name, columns, partition=partition)
        if rows:
            new_table.insert_many(rows)
        for index_name, index_columns, unique, index_kind in index_defs:
            new_table.add_index(index_name, index_columns, unique=unique, kind=index_kind)
        if rows:
            new_table.analyze()
        return new_table

    def _mvcc_apply(self, table: Table, rid, before, after, apply_fn) -> None:
        """Run a physical update/delete with its version note registered
        *first*: lock-free readers read the heap row before the store, so
        a missing entry must mean the heap row was untouched at read time.
        If the physical change fails the note is retracted."""
        store = self.mvcc.store
        txn_id = self._txn.txn_id
        store.note_write(txn_id, table.name, rid, before, after)
        try:
            apply_fn()
        except BaseException:
            store.pop_note(txn_id)
            raise

    def _record_insert(self, table: Table, rid) -> None:
        # DML always runs inside a transaction now: explicit, or the
        # implicit per-statement one _run_guarded opened (which replaces
        # the old unrecoverable "txn 0" autocommit logging).
        row = table.fetch(rid)
        self.txn_manager.record_insert(self._txn, table, rid, row)

    def _record_update(self, table: Table, rid, before, after) -> None:
        self.txn_manager.record_update(self._txn, table, rid, before, after)

    def _record_delete(self, table: Table, rid, row) -> None:
        self.txn_manager.record_delete(self._txn, table, rid, row)

    # -- durability ------------------------------------------------------------

    def _wal_ahead_of(self, page) -> None:
        """WAL rule: no page reaches disk before the log that describes it.

        Wired as the buffer pool's ``pre_write_hook``; raises
        :class:`IOFaultError` (and thereby blocks the page write) when the
        WAL cannot be made stable up to the page's LSN.
        """
        wal = self.txn_manager.wal
        if page.page_lsn <= wal.stable_lsn:
            return
        for _ in range(TransactionManager.FLUSH_ATTEMPTS):
            if wal.flush() >= page.page_lsn:
                return
        raise IOFaultError(
            f"WAL-ahead: cannot stabilize log up to LSN {page.page_lsn} "
            f"before writing page {page.page_id}"
        )

    def checkpoint(self) -> int:
        """Take a fuzzy checkpoint (bounds recovery's redo pass)."""
        return self.txn_manager.checkpoint(self.buffer_pool)

    def recover(self):
        """Run crash recovery over this instance's disk and stable WAL.

        Meant to be called on a *fresh* Database constructed over the disk
        and WAL of a crashed one (``Database(disk=old.disk, wal=old.wal)``)
        after re-creating the schema; returns
        :class:`~repro.relational.txn.recovery.RecoveryStats`.  Safe to run
        repeatedly — the second pass finds nothing to redo or undo.
        """
        return self.txn_manager.recover(self)

    # -- helpers ---------------------------------------------------------------------

    def io_stats(self) -> Dict[str, int]:
        """Storage counters: the pages an extraction or a scan touched."""
        return {
            "disk_reads": self.disk.reads,
            "disk_writes": self.disk.writes,
            "buffer_hits": self.buffer_pool.hits,
            "buffer_misses": self.buffer_pool.misses,
            "evictions": self.buffer_pool.evictions,
        }

    def metrics_snapshot(self) -> Dict[str, Any]:
        """One coherent snapshot of every subsystem's counters.

        Sections: ``buffer`` (hit rate, evictions, pins), ``disk``,
        ``wal`` (flushes, bytes, torn-flush repairs), ``locks``
        (acquisitions, no-wait conflicts), ``txn`` (commits/aborts/
        retries), ``fixpoint`` (XNF rounds, delta rows, guard trips),
        ``plan_cache``, and ``statements`` (count, latency histogram,
        slow-query log size).  Values are plain ints/floats/dicts — the
        whole snapshot is JSON-serializable.
        """
        registry = self.metrics.snapshot()
        fixpoint = {
            name[len("xnf.fixpoint."):]: value
            for name, value in registry.items()
            if name.startswith("xnf.fixpoint.")
        }
        fixpoint.setdefault("rounds", 0)
        fixpoint.setdefault("delta_rows", 0)
        fixpoint.setdefault("instantiations", 0)
        fixpoint.setdefault("guard_trips", 0)
        return {
            "buffer": self.buffer_pool.metrics(),
            "disk": {"reads": self.disk.reads, "writes": self.disk.writes},
            "wal": self.txn_manager.wal.metrics(),
            "locks": self.txn_manager.locks.metrics(),
            "txn": {
                **self.txn_manager.metrics(),
                "statement_retries": self.metrics.counter(
                    "sql.statement_retries"
                ).value,
                "retries": self.metrics.counter("txn.retries").value,
            },
            "mvcc": self.mvcc.metrics(),
            "fixpoint": fixpoint,
            "plan_cache": self.plan_cache.stats(),
            "statements": {
                "executed": self.statements_executed,
                "latency": self.statement_stats.latency_snapshot(),
                "slow_logged": self.slow_query_log.total_logged,
                "slow_evicted": self.slow_query_log.evicted,
                "tracked_fingerprints": len(self.statement_stats),
                "fingerprint_evictions": self.statement_stats.evicted,
            },
            "estimates": {
                "tracked": len(self.feedback),
                "evicted": self.feedback.evicted,
            },
            "trace": {
                "orphan_spans": self.tracer.orphans,
                "sampled_out": self.tracer.sampled_out,
                "export_failures": self.tracer.export_failures,
                "sample_rate": self.tracer.sample_rate,
            },
            "network": {
                **self.network.snapshot(),
                "live_sessions": len(self.wire_sessions),
            },
            "sharding": {
                "sharded_tables": sum(
                    1
                    for table in self.catalog.tables.values()
                    if isinstance(table, ShardedTable)
                ),
                "scatter_queries": self.metrics.counter(
                    "xnf.scatter.queries"
                ).value,
                "shards_pruned": self.metrics.counter("xnf.scatter.pruned").value,
            },
        }

    def reset_io_stats(self) -> None:
        self.disk.reset_stats()
        self.buffer_pool.reset_stats()


class Prepared:
    """A statement compiled once and re-executable with fresh parameters.

    Obtained from :meth:`Database.prepare`.  For queries and UPDATE/DELETE,
    the plan lives in the database's plan cache: re-executions rebind the
    parameter vector into the compiled closures without re-running
    parse/QGM/rewrite/optimize (the cache hit counter proves it).  DDL and
    transaction-control statements are executed as-is on each call.
    """

    def __init__(self, db: Database, stmt: ast.Statement):
        self.db = db
        self.statement = stmt
        self._normalized: Optional[NormalizedStatement] = None
        if isinstance(
            stmt, (ast.SelectStmt, ast.SetOpStmt, ast.InsertStmt, ast.UpdateStmt, ast.DeleteStmt)
        ):
            self._normalized = normalize_statement(stmt)
            self.n_params = self._normalized.n_explicit
        else:
            self.n_params = 0
        # Compile eagerly so the first execute() is already a re-bind.
        if isinstance(
            stmt, (ast.SelectStmt, ast.SetOpStmt, ast.UpdateStmt, ast.DeleteStmt)
        ):
            self.db._cached_plan(self._normalized)

    @property
    def sql(self) -> str:
        return self.statement.to_sql()

    def execute(self, params: Sequence[Any] = ()) -> Result:
        values = list(params)
        if len(values) != self.n_params:
            raise SQLError(
                f"prepared statement expects {self.n_params} parameters, "
                f"got {len(values)}"
            )
        normalized = self._normalized
        if normalized is None:
            return self.db.execute_ast(self.statement)
        return self.db._run_statement(
            self.statement, normalized, values + normalized.lifted_values
        )
