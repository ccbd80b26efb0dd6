"""SYS_* virtual system tables: live telemetry as ordinary relations.

``install_sys_tables(db)`` registers read-only :class:`VirtualTable`\\ s
whose providers snapshot the engine's registries at *scan* time — so the
same cached plan re-reads live data on every execution (the plan cache
marks such plans volatile purely for accounting; see ``CacheEntry``).
Because they resolve through ``Catalog.get_table`` like any base table,
SYS tables can be JOINed, aggregated, filtered, ANALYZEd and used inside
XNF composite objects (the built-in ``SYS_MONITOR`` CO does exactly that).

The catalog of tables:

======================  =====================================================
``SYS_STAT_STATEMENTS``  per-fingerprint calls / latency quantiles / rows /
                         plan-cache hits
``SYS_STAT_TABLES``      base-table cardinalities, pages, index counts
``SYS_STAT_INDEXES``     index kind / uniqueness / key columns
``SYS_STAT_BUFFER``      buffer-pool counters (one wide row)
``SYS_STAT_WAL``         WAL counters incl. torn-flush repairs (one row)
``SYS_STAT_LOCKS``       write-lock counters (one row)
``SYS_LOCK_HOLDERS``     point-in-time (table, txn) write-lock grants
``SYS_SNAPSHOTS``        active MVCC snapshots + version-store / conflict /
                         vacuum counters (one counter-only row when idle)
``SYS_TRACE_SPANS``      flattened recent span trees with parent_span_id;
                         a statement span's ``execute_ms`` is listed as
                         its ``execute`` leaf (span_id = -parent's)
``SYS_CO_STATS``         per-CO node/edge cardinalities + fixpoint profile
``SYS_SESSIONS``         live wire-server sessions (state, statements,
                         open COs/cursors, age/idle)
``SYS_STAT_NETWORK``     wire-server frame/byte/error counters (one row)
``SYS_SHARDS``           per-shard rows/pages + partition-key range of every
                         sharded table (skew is the row-count imbalance)
======================  =====================================================
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Sequence, Tuple

from repro.relational.catalog import Column, ShardedTable, VirtualTable
from repro.relational.types import BOOLEAN, FLOAT, INTEGER, VARCHAR

#: every installed system-table name (also the drop-protection set)
SYS_TABLE_NAMES = (
    "SYS_STAT_STATEMENTS",
    "SYS_STAT_TABLES",
    "SYS_STAT_INDEXES",
    "SYS_STAT_BUFFER",
    "SYS_STAT_WAL",
    "SYS_STAT_LOCKS",
    "SYS_LOCK_HOLDERS",
    "SYS_SNAPSHOTS",
    "SYS_TRACE_SPANS",
    "SYS_CO_STATS",
    "SYS_SESSIONS",
    "SYS_STAT_NETWORK",
    "SYS_SHARDS",
)


def _columns(*specs: Tuple[str, Any]) -> List[Column]:
    return [Column(name, sql_type) for name, sql_type in specs]


def _statements_provider(db) -> Callable[[], Iterable[Tuple]]:
    return db.statement_stats.rows_snapshot


def _tables_provider(db) -> Callable[[], Iterable[Tuple]]:
    def provider() -> List[Tuple]:
        catalog = db.catalog
        return [
            (
                table.name,
                table.heap.row_count,
                table.heap.num_pages(),
                len(table.indexes),
                table.stats.analyzed,
                catalog.object_version(table.name),
            )
            for table in catalog.tables.values()
            # shard views are an implementation detail of their parent;
            # SYS_SHARDS carries the per-shard numbers
            if not table.is_shard_view
        ]
    return provider


def _shards_provider(db) -> Callable[[], Iterable[Tuple]]:
    def provider() -> List[Tuple]:
        out: List[Tuple] = []
        for table in db.catalog.tables.values():
            if not isinstance(table, ShardedTable):
                continue
            spec = table.partition
            for shard_id, shard in enumerate(table.heap.shards):
                bounds = table.heap.zone_maps[shard_id].bounds_for(
                    spec.column_pos
                )
                out.append((
                    table.name,
                    shard_id,
                    spec.kind,
                    spec.column,
                    shard.row_count,
                    shard.num_pages(),
                    None if bounds is None else str(bounds[0]),
                    None if bounds is None else str(bounds[1]),
                ))
        return out
    return provider


def _indexes_provider(db) -> Callable[[], Iterable[Tuple]]:
    def provider() -> List[Tuple]:
        out: List[Tuple] = []
        for table in db.catalog.tables.values():
            if table.is_shard_view:
                continue
            for index in table.indexes.values():
                kind = type(index).__name__.replace("Index", "").lower()
                out.append((
                    table.name,
                    index.name,
                    kind,
                    bool(index.unique),
                    ",".join(index.column_names),
                ))
        return out
    return provider


def _wide_row_provider(metrics_fn, keys: Sequence[str]) -> Callable[[], List[Tuple]]:
    def provider() -> List[Tuple]:
        snapshot = metrics_fn()
        return [tuple(snapshot.get(key) for key in keys)]
    return provider


_BUFFER_KEYS = (
    "capacity", "hits", "misses", "hit_rate", "evictions", "pins",
    "resident_pages", "pinned_pages",
)
_WAL_KEYS = (
    "flushes", "dropped_flushes", "torn_flushes", "torn_repairs",
    "records_flushed", "bytes_flushed", "stable_lsn", "stable_records",
    "tail_records",
)
_LOCK_KEYS = ("acquisitions", "conflicts", "held", "tables_locked")

#: MVCC counter columns shared by every SYS_SNAPSHOTS row
_SNAPSHOT_COUNTER_KEYS = (
    "oldest_read_ts", "commit_clock", "versioned_rows", "version_images",
    "max_chain_len", "vacuum_runs", "versions_pruned", "entries_dropped",
    "serialization_conflicts",
)


def _lock_holders_provider(db) -> Callable[[], Iterable[Tuple]]:
    def provider() -> List[Tuple]:
        return db.txn_manager.locks.holders_snapshot()
    return provider


def _snapshots_provider(db) -> Callable[[], Iterable[Tuple]]:
    """One row per active snapshot; a single NULL-txn row when idle so
    the shared counters are always queryable."""
    def provider() -> List[Tuple]:
        mv = db.mvcc
        stats = mv.metrics()
        counters = tuple(stats.get(key) for key in _SNAPSHOT_COUNTER_KEYS)
        tail = (db.txn_manager.admission_rejects, _retry_count(db))
        active = sorted(
            mv.snapshots.active_snapshots(), key=lambda s: s.snap_id
        )
        if not active:
            return [(None, None) + counters + tail]
        return [
            (snap.owner or None, snap.read_ts) + counters + tail
            for snap in active
        ]
    return provider


def _retry_count(db) -> int:
    return db.metrics.counter("txn.retries").value


def _spans_provider(db) -> Callable[[], Iterable[Tuple]]:
    def provider() -> List[Tuple]:
        out: List[Tuple] = []

        def emit(span, trace_id: int, parent_id, depth: int) -> None:
            attrs = span._attrs or {}
            out.append((
                trace_id,
                span.span_id,
                parent_id,
                span.name,
                depth,
                round(span.duration_s * 1e3, 4),
                attrs.get("rows"),
                attrs.get("fingerprint"),
                str(attrs["plan_cache"]) if "plan_cache" in attrs else None,
                str(attrs["error"]) if "error" in attrs else None,
                attrs.get("batches"),
                span.thread_id,
                attrs.get("shard"),
            ))
            if "execute_ms" in attrs:
                out.append((
                    trace_id, -span.span_id, span.span_id, "execute", depth + 1,
                    attrs["execute_ms"], attrs.get("rows"), None, None, None,
                    attrs.get("batches"), span.thread_id, None,
                ))
            for child in span.children:
                emit(child, trace_id, span.span_id, depth + 1)

        for root in list(db.tracer.recent):
            # A root adopted from a remote TraceContext keeps the remote
            # trace id and parent span id, so client- and server-side rows
            # join on trace_id; purely local roots fall back to their own
            # span id (pre-distributed-tracing behaviour).
            emit(root, root.trace_id or root.span_id, root.parent_id, 0)
        return out
    return provider


def _co_stats_provider(db) -> Callable[[], Iterable[Tuple]]:
    return db.co_stats.rows_snapshot


def _wire_sessions_provider(db) -> Callable[[], Iterable[Tuple]]:
    return db.wire_sessions.rows_snapshot


_NETWORK_KEYS = (
    "connections_opened", "connections_active", "connections_refused",
    "frames_in", "frames_out", "bytes_in", "bytes_out",
    "errors_sent", "retryable_errors_sent", "protocol_errors",
)


def build_sys_tables(db) -> List[VirtualTable]:
    """Construct (but do not register) every SYS virtual table for *db*."""
    return [
        VirtualTable(
            "SYS_STAT_STATEMENTS",
            _columns(
                ("fingerprint", VARCHAR()),
                ("calls", INTEGER),
                ("errors", INTEGER),
                ("rows_returned", INTEGER),
                ("plan_cache_hits", INTEGER),
                ("total_ms", FLOAT),
                ("mean_ms", FLOAT),
                ("p50_ms", FLOAT),
                ("p95_ms", FLOAT),
                ("p99_ms", FLOAT),
                ("max_ms", FLOAT),
                ("last_session_id", INTEGER),
                ("last_trace_id", INTEGER),
            ),
            _statements_provider(db),
        ),
        VirtualTable(
            "SYS_STAT_TABLES",
            _columns(
                ("table_name", VARCHAR()),
                ("row_count", INTEGER),
                ("page_count", INTEGER),
                ("index_count", INTEGER),
                ("analyzed", BOOLEAN),
                ("version", INTEGER),
            ),
            _tables_provider(db),
        ),
        VirtualTable(
            "SYS_STAT_INDEXES",
            _columns(
                ("table_name", VARCHAR()),
                ("index_name", VARCHAR()),
                ("kind", VARCHAR()),
                ("is_unique", BOOLEAN),
                ("key_columns", VARCHAR()),
            ),
            _indexes_provider(db),
        ),
        VirtualTable(
            "SYS_STAT_BUFFER",
            _columns(
                ("capacity", INTEGER),
                ("hits", INTEGER),
                ("misses", INTEGER),
                ("hit_rate", FLOAT),
                ("evictions", INTEGER),
                ("pins", INTEGER),
                ("resident_pages", INTEGER),
                ("pinned_pages", INTEGER),
            ),
            _wide_row_provider(db.buffer_pool.metrics, _BUFFER_KEYS),
        ),
        VirtualTable(
            "SYS_STAT_WAL",
            _columns(
                ("flushes", INTEGER),
                ("dropped_flushes", INTEGER),
                ("torn_flushes", INTEGER),
                ("torn_repairs", INTEGER),
                ("records_flushed", INTEGER),
                ("bytes_flushed", INTEGER),
                ("stable_lsn", INTEGER),
                ("stable_records", INTEGER),
                ("tail_records", INTEGER),
            ),
            _wide_row_provider(lambda: db.txn_manager.wal.metrics(), _WAL_KEYS),
        ),
        VirtualTable(
            "SYS_STAT_LOCKS",
            _columns(
                ("acquisitions", INTEGER),
                ("conflicts", INTEGER),
                ("held", INTEGER),
                ("tables_locked", INTEGER),
            ),
            _wide_row_provider(lambda: db.txn_manager.locks.metrics(), _LOCK_KEYS),
        ),
        VirtualTable(
            "SYS_LOCK_HOLDERS",
            _columns(
                ("table_name", VARCHAR()),
                ("txn_id", INTEGER),
            ),
            _lock_holders_provider(db),
        ),
        VirtualTable(
            "SYS_SNAPSHOTS",
            _columns(
                ("txn_id", INTEGER),
                ("read_ts", INTEGER),
                ("oldest_read_ts", INTEGER),
                ("commit_clock", INTEGER),
                ("versioned_rows", INTEGER),
                ("version_images", INTEGER),
                ("max_chain_len", INTEGER),
                ("vacuum_runs", INTEGER),
                ("versions_pruned", INTEGER),
                ("entries_dropped", INTEGER),
                ("serialization_conflicts", INTEGER),
                ("admission_rejects", INTEGER),
                ("retries", INTEGER),
            ),
            _snapshots_provider(db),
        ),
        VirtualTable(
            "SYS_TRACE_SPANS",
            _columns(
                ("trace_id", INTEGER),
                ("span_id", INTEGER),
                ("parent_span_id", INTEGER),
                ("name", VARCHAR()),
                ("depth", INTEGER),
                ("duration_ms", FLOAT),
                ("row_count", INTEGER),
                ("fingerprint", VARCHAR()),
                ("plan_cache", VARCHAR()),
                ("error", VARCHAR()),
                ("batches", INTEGER),
                ("thread", INTEGER),
                ("shard", INTEGER),
            ),
            _spans_provider(db),
        ),
        VirtualTable(
            "SYS_CO_STATS",
            _columns(
                ("co_name", VARCHAR()),
                ("component", VARCHAR()),
                ("kind", VARCHAR()),
                ("cardinality", INTEGER),
                ("rounds", INTEGER),
                ("queries", INTEGER),
                ("duration_ms", FLOAT),
                ("instantiations", INTEGER),
            ),
            _co_stats_provider(db),
        ),
        VirtualTable(
            "SYS_SESSIONS",
            _columns(
                ("session_id", INTEGER),
                ("peer", VARCHAR()),
                ("state", VARCHAR()),
                ("statements", INTEGER),
                ("rows_sent", INTEGER),
                ("errors", INTEGER),
                ("retryable_errors", INTEGER),
                ("cursors_open", INTEGER),
                ("in_txn", BOOLEAN),
                ("age_ms", FLOAT),
                ("idle_ms", FLOAT),
            ),
            _wire_sessions_provider(db),
        ),
        VirtualTable(
            "SYS_STAT_NETWORK",
            _columns(
                ("connections_opened", INTEGER),
                ("connections_active", INTEGER),
                ("connections_refused", INTEGER),
                ("frames_in", INTEGER),
                ("frames_out", INTEGER),
                ("bytes_in", INTEGER),
                ("bytes_out", INTEGER),
                ("errors_sent", INTEGER),
                ("retryable_errors_sent", INTEGER),
                ("protocol_errors", INTEGER),
            ),
            _wide_row_provider(db.network.snapshot, _NETWORK_KEYS),
        ),
        VirtualTable(
            "SYS_SHARDS",
            _columns(
                ("table_name", VARCHAR()),
                ("shard", INTEGER),
                ("kind", VARCHAR()),
                ("partition_column", VARCHAR()),
                ("row_count", INTEGER),
                ("page_count", INTEGER),
                ("min_key", VARCHAR()),
                ("max_key", VARCHAR()),
            ),
            _shards_provider(db),
        ),
    ]


def install_sys_tables(db) -> None:
    """Register the SYS tables on *db*'s catalog (idempotent)."""
    catalog = db.catalog
    for table in build_sys_tables(db):
        if not catalog.is_virtual(table.name):
            catalog.register_virtual(table)
