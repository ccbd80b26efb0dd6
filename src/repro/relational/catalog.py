"""Catalog: schemas, tables, views, indexes and statistics.

The :class:`Table` object is the integration point of the storage layer: it
owns a heap file, keeps every index on the table in sync on each write, and
enforces declarative constraints (NOT NULL, PRIMARY KEY via a unique index,
FOREIGN KEY by lookup in the referenced table).  Foreign keys additionally
feed the XNF layer's updatability analysis (section 3.7 of the paper: a
relationship defined by a foreign key is disconnected by nullifying the FK).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import threading

from repro.errors import CatalogError, ExecutionError, IntegrityError, PageNotFoundError
from repro.relational.indexes import BTreeIndex, HashIndex, Index
from repro.relational.storage import BufferPool, HeapFile, RID
from repro.relational.storage.sharded import PartitionSpec, ShardedHeap
from repro.relational.types import SQLType, sort_key


@dataclass
class Column:
    """One column of a table schema."""

    name: str
    sql_type: SQLType
    nullable: bool = True
    primary_key: bool = False
    references: Optional[Tuple[str, str]] = None  # (table, column)

    def __str__(self) -> str:
        parts = [self.name, str(self.sql_type)]
        if self.primary_key:
            parts.append("PRIMARY KEY")
        elif not self.nullable:
            parts.append("NOT NULL")
        if self.references:
            parts.append(f"REFERENCES {self.references[0]}({self.references[1]})")
        return " ".join(parts)


@dataclass
class ColumnStats:
    """Optimizer statistics for one column (filled in by ANALYZE)."""

    n_distinct: int = 0
    null_count: int = 0
    min_value: Any = None
    max_value: Any = None


@dataclass
class TableStats:
    """Optimizer statistics for one table."""

    row_count: int = 0
    page_count: int = 1
    columns: Dict[str, ColumnStats] = field(default_factory=dict)
    analyzed: bool = False


class Table:
    """A base table: schema + heap file + indexes + constraints."""

    #: set on :class:`ShardedTable` / :class:`ShardView` subclasses
    is_sharded = False
    is_shard_view = False

    def __init__(self, name: str, columns: Sequence[Column], buffer_pool: BufferPool):
        self.name = name
        self.columns = list(columns)
        self.column_positions = {col.name: pos for pos, col in enumerate(columns)}
        if len(self.column_positions) != len(self.columns):
            raise CatalogError(f"duplicate column name in table {name}")
        self.heap = HeapFile(name, buffer_pool)
        self.indexes: Dict[str, Index] = {}
        self.stats = TableStats()
        self._catalog: Optional["Catalog"] = None
        #: MVCC version-store key: shard views read their parent's entries
        #: (writes always go through the parent facade), every other table
        #: reads its own.
        self.mvcc_name = name
        #: optional ``(rid, row) -> bool`` filter applied to version-store
        #: candidates; shard views install one so cross-shard versions of the
        #: shared parent key are not double-counted.
        self._mvcc_accept = None
        pk_columns = [col.name for col in columns if col.primary_key]
        if pk_columns:
            self.add_index(f"pk_{name}", pk_columns, unique=True, kind="btree")

    # -- schema helpers -------------------------------------------------------

    def column_names(self) -> List[str]:
        return [col.name for col in self.columns]

    def position_of(self, column: str) -> int:
        try:
            return self.column_positions[column]
        except KeyError:
            raise CatalogError(f"table {self.name} has no column {column!r}") from None

    def column(self, name: str) -> Column:
        return self.columns[self.position_of(name)]

    # -- index management --------------------------------------------------------

    def add_index(
        self,
        index_name: str,
        column_names: Sequence[str],
        unique: bool = False,
        kind: str = "btree",
    ) -> Index:
        if index_name in self.indexes:
            raise CatalogError(f"index {index_name} already exists on {self.name}")
        positions = [self.position_of(col) for col in column_names]
        cls = BTreeIndex if kind == "btree" else HashIndex
        index = cls(index_name, self.name, column_names, positions, unique=unique)
        # Backfill from existing rows.
        for rid, row in self.heap.scan():
            index.insert_row(row, rid)
        self.indexes[index_name] = index
        if self._catalog is not None:
            self._catalog.bump_version(self.name)
        return index

    def drop_index(self, index_name: str) -> None:
        if index_name not in self.indexes:
            raise CatalogError(f"no index {index_name} on table {self.name}")
        del self.indexes[index_name]
        if self._catalog is not None:
            self._catalog.bump_version(self.name)

    def index_on(self, column_names: Sequence[str], require_range: bool = False) -> Optional[Index]:
        """Find an index whose key is exactly *column_names* (order-sensitive)."""
        wanted = list(column_names)
        for index in self.indexes.values():
            if index.column_names == wanted:
                if require_range and not index.supports_range:
                    continue
                return index
        return None

    # -- constraint checks ---------------------------------------------------------

    def _check_row(self, row: Tuple[Any, ...], skip_fk: bool = False) -> Tuple[Any, ...]:
        if len(row) != len(self.columns):
            raise IntegrityError(
                f"table {self.name} expects {len(self.columns)} values, got {len(row)}"
            )
        coerced = []
        for col, value in zip(self.columns, row):
            value = col.sql_type.validate(value)
            if value is None and (not col.nullable or col.primary_key):
                raise IntegrityError(
                    f"column {self.name}.{col.name} may not be NULL"
                )
            coerced.append(value)
        result = tuple(coerced)
        if not skip_fk:
            self._check_foreign_keys(result)
        return result

    def _check_foreign_keys(self, row: Tuple[Any, ...]) -> None:
        if self._catalog is None:
            return
        for col, value in zip(self.columns, row):
            if col.references is None or value is None:
                continue
            ref_table_name, ref_column = col.references
            ref_table = self._catalog.tables.get(ref_table_name)
            if ref_table is None:
                raise IntegrityError(
                    f"FK {self.name}.{col.name} references missing table {ref_table_name}"
                )
            if not ref_table.contains_value(ref_column, value):
                raise IntegrityError(
                    f"FK violation: {self.name}.{col.name}={value!r} has no match "
                    f"in {ref_table_name}.{ref_column}"
                )

    def contains_value(self, column: str, value: Any) -> bool:
        index = self.index_on([column])
        if index is not None:
            return bool(index.search((value,)))
        pos = self.position_of(column)
        return any(row[pos] == value for _, row in self.heap.scan())

    # -- write path -------------------------------------------------------------

    def insert(self, row: Sequence[Any], rid_hint: Optional[RID] = None) -> RID:
        """Validate, store and index one row; returns its RID."""
        checked = self._check_row(tuple(row))
        rid = self.heap.insert(checked) if rid_hint is None else rid_hint
        try:
            for index in self.indexes.values():
                index.insert_row(checked, rid)
        except IntegrityError:
            if rid_hint is None:
                self.heap.delete(rid)
            for index in self.indexes.values():
                index.delete_row(checked, rid)
            raise
        self.stats.row_count = self.heap.row_count
        return rid

    def insert_many(self, rows: Sequence[Sequence[Any]]) -> List[RID]:
        """Validate and bulk-append many rows, then maintain indexes.

        Equivalent to :meth:`insert` per row but amortises page pinning via
        :meth:`HeapFile.append_rows` and validates column-at-a-time (one
        tight loop per column instead of one dispatch per value).
        All-or-nothing per call: a constraint violation rolls back every row
        of this batch.
        """
        checked = self._check_rows_bulk(rows)
        rids = self.heap.append_rows(checked)
        done = 0
        try:
            for row, rid in zip(checked, rids):
                for index in self.indexes.values():
                    index.insert_row(row, rid)
                done += 1
        except IntegrityError:
            # Un-index the fully indexed prefix plus the partially indexed
            # failing row (delete_row tolerates missing entries), then drop
            # the heap rows.
            for row, rid in zip(checked[: done + 1], rids[: done + 1]):
                for index in self.indexes.values():
                    index.delete_row(row, rid)
            for rid in rids:
                self.heap.delete(rid)
            self.stats.row_count = self.heap.row_count
            raise
        self.stats.row_count = self.heap.row_count
        return rids

    def _check_rows_bulk(
        self, rows: Sequence[Sequence[Any]]
    ) -> List[Tuple[Any, ...]]:
        """Column-wise :meth:`_check_row` for bulk loads.

        Same checks, transposed: validate/coerce one column vector at a
        time, test NOT NULL per column, and probe each FK column once per
        *distinct* value instead of once per row.
        """
        expected = len(self.columns)
        for row in rows:
            if len(row) != expected:
                raise IntegrityError(
                    f"table {self.name} expects {expected} values, "
                    f"got {len(row)}"
                )
        if not rows:
            return []
        in_cols = list(zip(*rows))
        out_cols = []
        for col, values in zip(self.columns, in_cols):
            validate = col.sql_type.validate
            coerced = [validate(v) for v in values]
            if (not col.nullable or col.primary_key) and None in coerced:
                raise IntegrityError(
                    f"column {self.name}.{col.name} may not be NULL"
                )
            if col.references is not None and self._catalog is not None:
                ref_table_name, ref_column = col.references
                ref_table = self._catalog.tables.get(ref_table_name)
                if ref_table is None:
                    raise IntegrityError(
                        f"FK {self.name}.{col.name} references missing "
                        f"table {ref_table_name}"
                    )
                for value in set(coerced):
                    if value is None:
                        continue
                    if not ref_table.contains_value(ref_column, value):
                        raise IntegrityError(
                            f"FK violation: {self.name}.{col.name}={value!r} "
                            f"has no match in {ref_table_name}.{ref_column}"
                        )
            out_cols.append(coerced)
        return list(zip(*out_cols))

    def insert_prechecked(self, row: Tuple[Any, ...], rid: RID) -> None:
        """Index a row that was placed by a clustering bulk loader."""
        checked = self._check_row(row)
        for index in self.indexes.values():
            index.insert_row(checked, rid)
        self.stats.row_count = self.heap.row_count

    def update(self, rid: RID, new_row: Sequence[Any]) -> None:
        old_row = self.heap.fetch_row(rid)
        checked = self._check_row(tuple(new_row))
        for index in self.indexes.values():
            index.update_row(old_row, checked, rid)
        self.heap.update(rid, checked)
        self.stats.row_count = self.heap.row_count

    def delete(self, rid: RID) -> Tuple[Any, ...]:
        row = self.heap.fetch_row(rid)
        for index in self.indexes.values():
            index.delete_row(row, rid)
        self.heap.delete(rid)
        self.stats.row_count = self.heap.row_count
        return row

    # -- undo/redo (transaction manager back-calls; constraints are skipped
    # because these restore a state that was valid when first produced) --------

    def undo_insert(self, rid: RID) -> None:
        row = self.heap.fetch_row(rid)
        for index in self.indexes.values():
            index.delete_row(row, rid)
        self.heap.delete(rid)
        self.stats.row_count = self.heap.row_count

    def undo_delete(self, row: Tuple[Any, ...]) -> RID:
        rid = self.heap.insert(row)
        for index in self.indexes.values():
            index.insert_row(row, rid)
        self.stats.row_count = self.heap.row_count
        return rid

    def undo_update(self, rid: RID, before: Tuple[Any, ...]) -> None:
        old_row = self.heap.fetch_row(rid)
        for index in self.indexes.values():
            index.update_row(old_row, before, rid)
        self.heap.update(rid, before)

    # -- redo (WAL replay into a fresh schema) -----------------------------------

    def redo_insert(self, row: Tuple[Any, ...]) -> None:
        self.undo_delete(row)

    def redo_delete(self, row: Tuple[Any, ...]) -> None:
        for rid, existing in self.heap.scan():
            if existing == row:
                self.undo_insert(rid)
                return

    def redo_update(self, before: Tuple[Any, ...], after: Tuple[Any, ...]) -> None:
        for rid, existing in self.heap.scan():
            if existing == before:
                self.undo_update(rid, after)
                return

    def stamp_lsn(self, rid: RID, lsn: int) -> None:
        """Record *lsn* as the page LSN of the page holding *rid*.

        Called by the transaction manager right after logging a change to
        this row; crash recovery's redo pass replays a record only when the
        on-disk page LSN is older.
        """
        pool = self.heap.buffer_pool
        page = pool.fetch(rid.page_id)
        try:
            if lsn > page.page_lsn:
                page.page_lsn = lsn
        finally:
            pool.unpin(rid.page_id, dirty=True)

    # -- read path ---------------------------------------------------------------
    #
    # Reads resolve against the calling thread's ambient snapshot (the
    # engine installs one per statement).  The heap is always read *first*
    # and the version store consulted after: writers create their version
    # entry before touching the heap, so a table that checks clean after
    # the read proves the rows read are unmodified baseline images — they
    # pass through with no RID construction or per-row resolution.  A
    # check taken before the read would be unsound (a writer may start
    # versioning the table mid-read), which is why scans re-take the
    # verdict per page and index probes per probe, always after the read.

    def _mvcc_read_state(self):
        """``(store, snapshot)`` inside a statement, else None (outside
        any snapshot a read sees the latest heap state)."""
        mv = self._catalog.mvcc
        snap = mv.current_snapshot()
        if snap is None:
            return None
        return mv.store, snap

    def scan(self) -> Iterator[Tuple[RID, Tuple[Any, ...]]]:
        state = self._mvcc_read_state()
        if state is None:
            return self.heap.scan()
        return self._scan_mvcc(*state)

    def _scan_mvcc(self, store, snap) -> Iterator[Tuple[RID, Tuple[Any, ...]]]:
        name = self.mvcc_name
        # Bound lock-free clean check (see VersionStore.dirty for why no
        # lock is needed); bound once because small-table scans are hot.
        entries_of = store._tables.get
        seen: set = set()
        seen_pages: set = set()
        for page_id in self.heap.page_ids():
            pairs = self.heap.scan_page_pairs(page_id)
            # The check must follow the page read: entry creation precedes
            # heap mutation, so a clean verdict proves the rows just read
            # are baseline images.
            if not entries_of(name):
                seen_pages.add(page_id)
                yield from pairs
                continue
            seen.update(rid for rid, _ in pairs)
            yield from store.resolve_batch(name, pairs, snap)
        # rows absent from the heap (committed or pending deletes) whose
        # images are still visible to this snapshot
        if entries_of(name):
            accept = self._mvcc_accept
            for rid, image in store.candidates(name, snap, seen, seen_pages):
                if accept is None or accept(rid, image):
                    yield rid, image

    def scan_row_chunks(self) -> Iterator[List[Tuple[Any, ...]]]:
        """Row chunks for the batch scan: page-at-a-time, resolved
        against the snapshot only where the table is versioned."""
        state = self._mvcc_read_state()
        if state is None:
            return self.heap.scan_row_chunks()
        return self._scan_chunks_mvcc(*state)

    def _scan_chunks_mvcc(self, store, snap) -> Iterator[List[Tuple[Any, ...]]]:
        name = self.mvcc_name
        entries_of = store._tables.get  # lock-free, see VersionStore.dirty
        seen: set = set()
        seen_pages: set = set()
        for page_id, rows in self.heap.scan_page_rows():
            # Check after the page read, as in _scan_mvcc.  Clean page:
            # the rows pass through untouched — the same shape (and cost)
            # as a plain heap chunk scan.
            if not entries_of(name):
                seen_pages.add(page_id)
                if rows:
                    yield rows
                continue
            # Dirty: re-read the page with RIDs and resolve.  The re-read
            # is the authoritative one — resolution is sound against
            # whatever heap state it observes.
            pairs = self.heap.scan_page_pairs(page_id)
            seen.update(rid for rid, _ in pairs)
            rows = [image for _rid, image in store.resolve_batch(name, pairs, snap)]
            if rows:
                yield rows
        if entries_of(name):
            accept = self._mvcc_accept
            extra = [
                image
                for rid, image in store.candidates(name, snap, seen, seen_pages)
                if accept is None or accept(rid, image)
            ]
            if extra:
                yield extra

    def fetch(self, rid: RID) -> Tuple[Any, ...]:
        return self.heap.fetch_row(rid)

    def probe(
        self,
        rids: Sequence[RID],
        verify: Callable[[Tuple[Any, ...], Any], bool],
        key: Any,
        emit_rid: bool = False,
    ) -> List[Tuple[Any, ...]]:
        """The rows visible to the ambient snapshot for an index probe that
        returned *rids* under *key* (each prefixed by its RID with
        *emit_rid*).

        The probed rows are read first, then the table's version entries
        are checked, lock-free, exactly as a scan checks each page: clean,
        the rows pass through as read.  Dirty, each row is resolved to its
        snapshot image and ``verify(row, key)`` re-checks the probed key or
        range on it (an index holds latest-state keys), and versioned rows
        the index no longer files under *key* — deleted, or re-keyed after
        the snapshot — are added from the store's candidates.
        """
        try:
            rows = self.heap.fetch_rows(rids)
        except (ExecutionError, PageNotFoundError):
            rows = None  # a row left the heap after the index search
        mv = self._catalog.mvcc
        name = self.mvcc_name
        # lock-free clean check after the read (see VersionStore.dirty)
        if rows is not None and not mv.store._tables.get(name):
            if emit_rid:
                return [(rid,) + row for rid, row in zip(rids, rows)]
            return rows
        if rows is None:
            rows = [self._fetch_or_none(rid) for rid in rids]
        pairs = list(zip(rids, rows))
        snap = mv.current_snapshot()
        if snap is None:
            found = [(rid, row) for rid, row in pairs if row is not None]
        else:
            found = [
                (rid, row)
                for rid, row in mv.store.resolve_batch(name, pairs, snap)
                if row is not None and verify(row, key)
            ]
            accept = self._mvcc_accept
            for rid, row in mv.store.candidates(name, snap, set(rids)):
                if verify(row, key) and (accept is None or accept(rid, row)):
                    found.append((rid, row))
        if emit_rid:
            return [(rid,) + row for rid, row in found]
        return [row for _rid, row in found]

    def probe_many(
        self,
        keys: Sequence[Any],
        rid_lists: Sequence[Sequence[RID]],
        verify: Callable[[Tuple[Any, ...], Any], bool],
    ) -> List[List[Tuple[Any, ...]]]:
        """:meth:`probe` of each ``(key, rids)`` pair of a batch of index
        probes, reading every RID in page order with one ``fetch_rows`` —
        one pin per page per batch — and checking the version entries once,
        lock-free, after that read.  Clean, each key's rows pass through as
        read, in its RIDs' order.  On a versioned table, or when a row left
        the heap after the index search, the batch is resolved as one probe:
        one ``resolve_batch`` over the rows read, each key keeping the
        resolved rows its ``verify`` passes, then one ``candidates`` pass
        whose rows go to each key they verify under that did not file them."""
        wanted = sorted({rid for rids in rid_lists for rid in rids})
        try:
            read = dict(zip(wanted, self.heap.fetch_rows(wanted)))
        except (ExecutionError, PageNotFoundError):
            read = None  # a row left the heap after the index search
        mv = self._catalog.mvcc
        name = self.mvcc_name
        # lock-free clean check after the read (see VersionStore.dirty)
        if read is not None and not mv.store._tables.get(name):
            return [[read[rid] for rid in rids] for rids in rid_lists]
        if read is None:
            read = {rid: self._fetch_or_none(rid) for rid in wanted}
        snap = mv.current_snapshot()
        if snap is None:
            return [[read[rid] for rid in rids if read[rid] is not None] for rids in rid_lists]
        resolved = dict(mv.store.resolve_batch(name, list(read.items()), snap))
        found = [
            [row for row in map(resolved.get, rids) if row is not None and verify(row, key)]
            for key, rids in zip(keys, rid_lists)
        ]
        accept = self._mvcc_accept
        extra = [
            (rid, row)
            for rid, row in mv.store.candidates(name, snap, set())
            if accept is None or accept(rid, row)
        ]
        if extra:
            for key, rids, rows in zip(keys, rid_lists, found):
                filed = set(rids)
                rows.extend(row for rid, row in extra if rid not in filed and verify(row, key))
        return found

    def _fetch_or_none(self, rid: RID) -> Optional[Tuple[Any, ...]]:
        try:
            return self.heap.fetch_row(rid)
        except (ExecutionError, PageNotFoundError):
            return None

    def truncate(self) -> None:
        """Drop all rows but keep the schema and index definitions.

        Plans compiled against this Table object remain valid: the heap and
        index *objects* survive, only their contents reset.
        """
        self.heap.truncate()
        for index in self.indexes.values():
            index.clear()
        self.stats = TableStats()

    # -- statistics ----------------------------------------------------------------

    def analyze(self) -> TableStats:
        """Compute exact statistics for the optimizer."""
        stats = TableStats(analyzed=True)
        distinct: List[set] = [set() for _ in self.columns]
        nulls = [0] * len(self.columns)
        minima: List[Any] = [None] * len(self.columns)
        maxima: List[Any] = [None] * len(self.columns)
        count = 0
        for _, row in self.heap.scan():
            count += 1
            for pos, value in enumerate(row):
                if value is None:
                    nulls[pos] += 1
                    continue
                distinct[pos].add(value)
                if minima[pos] is None or sort_key(value) < sort_key(minima[pos]):
                    minima[pos] = value
                if maxima[pos] is None or sort_key(value) > sort_key(maxima[pos]):
                    maxima[pos] = value
        stats.row_count = count
        stats.page_count = max(1, self.heap.num_pages())
        for pos, col in enumerate(self.columns):
            stats.columns[col.name] = ColumnStats(
                n_distinct=len(distinct[pos]),
                null_count=nulls[pos],
                min_value=minima[pos],
                max_value=maxima[pos],
            )
        self.stats = stats
        if self._catalog is not None:
            self._catalog.bump_version(self.name)
        return stats


class ShardedTable(Table):
    """A table whose heap is hash/range-partitioned into N shards.

    The full read/write API of :class:`Table` is inherited unchanged: the
    :class:`~repro.relational.storage.sharded.ShardedHeap` routes every heap
    operation to the owning shard, and indexes (which key on globally unique
    RIDs from the shared buffer pool) span all shards.  The per-shard child
    heaps are additionally exposed as read-only :class:`ShardView` tables so
    the XNF scatter stage can target one shard with ordinary SQL.
    """

    is_sharded = True

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        buffer_pool: BufferPool,
        partition: PartitionSpec,
    ):
        super().__init__(name, columns, buffer_pool)
        partition.bind(self.column_positions)
        self.partition = partition
        self.heap = ShardedHeap(name, buffer_pool, partition)
        self.shard_views: List["ShardView"] = [
            ShardView(self, shard_id) for shard_id in range(partition.num_shards)
        ]

    def shard_view_name(self, shard_id: int) -> str:
        return f"{self.name}__S{shard_id}"


class ShardView(Table):
    """Read-only window onto one shard of a :class:`ShardedTable`.

    Registered in the catalog as a real (non-virtual) table so per-shard
    generated queries stay plan-cacheable; constraints and indexes are
    stripped (all DML goes through the parent facade, which owns them).
    Reads resolve against the *parent's* version-store entries — filtered
    to this shard by physical page ownership, falling back to partition
    routing for images whose row left the heap.
    """

    is_shard_view = True

    def __init__(self, parent: ShardedTable, shard_id: int):
        # Deliberately no super().__init__(): the view shares the parent's
        # buffer pool pages via the child heap and must not allocate a heap
        # or pk index of its own.
        self.name = parent.shard_view_name(shard_id)
        self.parent = parent
        self.shard_id = shard_id
        self.columns = [Column(col.name, col.sql_type) for col in parent.columns]
        self.column_positions = dict(parent.column_positions)
        self.heap = parent.heap.shards[shard_id]
        self.indexes: Dict[str, Index] = {}
        self.stats = TableStats()
        self._catalog: Optional["Catalog"] = None
        self.mvcc_name = parent.name
        sharded_heap = parent.heap
        spec = parent.partition

        def _accept(rid: RID, row: Tuple[Any, ...]) -> bool:
            owner = sharded_heap.owner_of(rid.page_id)
            if owner is not None:
                return owner == shard_id
            return spec.route(row) == shard_id

        self._mvcc_accept = _accept

    # -- write path: refused (DML must go through the parent facade) ----------

    def _read_only(self) -> CatalogError:
        return CatalogError(
            f"{self.name} is a read-only shard view of {self.parent.name}"
        )

    def insert(self, row: Sequence[Any], rid_hint: Optional[RID] = None) -> RID:
        raise self._read_only()

    def insert_many(self, rows: Sequence[Sequence[Any]]) -> List[RID]:
        raise self._read_only()

    def insert_prechecked(self, row: Tuple[Any, ...], rid: RID) -> None:
        raise self._read_only()

    def update(self, rid: RID, new_row: Sequence[Any]) -> None:
        raise self._read_only()

    def delete(self, rid: RID) -> Tuple[Any, ...]:
        raise self._read_only()

    def truncate(self) -> None:
        raise self._read_only()

    def add_index(
        self,
        index_name: str,
        column_names: Sequence[str],
        unique: bool = False,
        kind: str = "btree",
    ) -> Index:
        raise self._read_only()

    def drop_index(self, index_name: str) -> None:
        raise self._read_only()


class VirtualTable:
    """A read-only system table backed by a snapshot provider function.

    The provider is called afresh on every :meth:`scan`, so each scan sees
    the *live* registry state even when the plan that drives it was served
    from the plan cache (the cache stores plans, not results; see
    ``CacheEntry.volatile``).  Virtual tables duck-type the read path of
    :class:`Table` — columns, positions, stats, ``scan()``,
    ``scan_row_chunks()`` and ``fetch()`` — which is all the planner and
    executor need; every write-path entry point raises
    :class:`CatalogError`.
    """

    is_virtual = True

    def __init__(self, name: str, columns: Sequence[Column], provider):
        self.name = name.upper()
        self.columns = list(columns)
        self.column_positions = {col.name: pos for pos, col in enumerate(columns)}
        if len(self.column_positions) != len(self.columns):
            raise CatalogError(f"duplicate column name in table {name}")
        self.provider = provider
        self.indexes: Dict[str, Index] = {}
        # Nominal row-count guess so the cost model has something to chew
        # on before an explicit ANALYZE; never trusted for correctness.
        self.stats = TableStats(row_count=16)
        self._catalog: Optional["Catalog"] = None

    # -- schema helpers (mirrors Table) ---------------------------------------

    def column_names(self) -> List[str]:
        return [col.name for col in self.columns]

    def position_of(self, column: str) -> int:
        try:
            return self.column_positions[column]
        except KeyError:
            raise CatalogError(f"table {self.name} has no column {column!r}") from None

    def column(self, name: str) -> Column:
        return self.columns[self.position_of(name)]

    def index_on(self, column_names: Sequence[str], require_range: bool = False) -> Optional[Index]:
        return None

    def contains_value(self, column: str, value: Any) -> bool:
        pos = self.position_of(column)
        return any(row[pos] == value for _, row in self.scan())

    # -- read path ----------------------------------------------------------------

    def scan(self) -> Iterator[Tuple[int, Tuple[Any, ...]]]:
        """Pull a fresh snapshot from the provider and yield (rid, row)."""
        width = len(self.columns)
        for rid, row in enumerate(self.provider()):
            values = tuple(row)
            if len(values) != width:
                raise CatalogError(
                    f"virtual table {self.name} provider yielded {len(values)} "
                    f"values, expected {width}"
                )
            yield rid, values

    def scan_row_chunks(self) -> Iterator[List[Tuple[Any, ...]]]:
        """The batch scan's view of :meth:`scan`: one chunk per provider
        pull."""
        yield [row for _, row in self.scan()]

    def fetch(self, rid: int) -> Tuple[Any, ...]:
        for current, row in self.scan():
            if current == rid:
                return row
        raise CatalogError(f"virtual table {self.name}: no row {rid}")

    # -- statistics -----------------------------------------------------------------

    def analyze(self) -> TableStats:
        """Exact statistics over one provider snapshot (they age immediately)."""
        stats = TableStats(analyzed=True)
        distinct: List[set] = [set() for _ in self.columns]
        nulls = [0] * len(self.columns)
        minima: List[Any] = [None] * len(self.columns)
        maxima: List[Any] = [None] * len(self.columns)
        count = 0
        for _, row in self.scan():
            count += 1
            for pos, value in enumerate(row):
                if value is None:
                    nulls[pos] += 1
                    continue
                distinct[pos].add(value)
                if minima[pos] is None or sort_key(value) < sort_key(minima[pos]):
                    minima[pos] = value
                if maxima[pos] is None or sort_key(value) > sort_key(maxima[pos]):
                    maxima[pos] = value
        stats.row_count = count
        for pos, col in enumerate(self.columns):
            stats.columns[col.name] = ColumnStats(
                n_distinct=len(distinct[pos]),
                null_count=nulls[pos],
                min_value=minima[pos],
                max_value=maxima[pos],
            )
        self.stats = stats
        if self._catalog is not None:
            self._catalog.bump_version(self.name)
        return stats

    # -- write path: refused ---------------------------------------------------------

    def _read_only(self) -> "CatalogError":
        return CatalogError(f"{self.name} is a read-only system table")

    def insert(self, row: Sequence[Any], rid_hint=None):
        raise self._read_only()

    def insert_prechecked(self, row, rid) -> None:
        raise self._read_only()

    def update(self, rid, new_row) -> None:
        raise self._read_only()

    def delete(self, rid):
        raise self._read_only()

    def truncate(self) -> None:
        raise self._read_only()

    def add_index(self, index_name, column_names, unique=False, kind="btree"):
        raise self._read_only()

    def drop_index(self, index_name) -> None:
        raise self._read_only()


@dataclass
class ViewDefinition:
    """A named view: its SQL text and parsed body (filled by the engine)."""

    name: str
    sql_text: str
    body: Any  # parsed SelectStmt AST; typed Any to avoid an import cycle


class Catalog:
    """Name space of tables, views and their indexes."""

    def __init__(self, buffer_pool: BufferPool, mvcc: Any):
        self.buffer_pool = buffer_pool
        self.tables: Dict[str, Table] = {}
        self.views: Dict[str, ViewDefinition] = {}
        #: read-only system tables backed by snapshot providers; resolved by
        #: :meth:`get_table` after base tables so user tables always win.
        self.virtual_tables: Dict[str, VirtualTable] = {}
        #: monotonically increasing per-object schema/stats versions, keyed
        #: by upper-cased table or view name.  Cached plans record the
        #: versions of every object they reference; a later mismatch marks
        #: the plan stale.  Names are never reset on drop, so a DROP+CREATE
        #: of the same name yields a fresh version (the plan holds the old
        #: Table object and must not survive).
        self._object_versions: Dict[str, int] = {}
        self._version_clock = 0
        #: the owning Database's MVCCController; Table read paths consult
        #: it (duck-typed — the catalog never imports the txn layer)
        self.mvcc = mvcc
        # serializes name-space and version mutations across session
        # threads; lookups stay lock-free (single dict reads are atomic)
        self._mutex = threading.RLock()

    def bump_version(self, name: str) -> None:
        """Record a schema/stats change to *name* (table or view)."""
        with self._mutex:
            self._version_clock += 1
            self._object_versions[name.upper()] = self._version_clock

    def object_version(self, name: str) -> int:
        return self._object_versions.get(name.upper(), 0)

    def register_virtual(self, table: VirtualTable) -> VirtualTable:
        """Install a read-only system table.

        Virtual tables never get a version bump after registration: cached
        plans over them stay valid forever (the *scan* re-pulls live data),
        except after an explicit ANALYZE which recompiles on purpose.
        """
        with self._mutex:
            key = table.name.upper()
            if key in self.tables or key in self.views:
                raise CatalogError(f"table or view {table.name} already exists")
            table._catalog = self
            self.virtual_tables[key] = table
            return table

    def is_virtual(self, name: str) -> bool:
        return name.upper() in self.virtual_tables

    def create_table(
        self,
        name: str,
        columns: Sequence[Column],
        partition: Optional[PartitionSpec] = None,
    ) -> Table:
        with self._mutex:
            key = name.upper()
            if key in self.tables or key in self.views or key in self.virtual_tables:
                raise CatalogError(f"table or view {name} already exists")
            if partition is not None:
                table: Table = ShardedTable(key, columns, self.buffer_pool, partition)
            else:
                table = Table(key, columns, self.buffer_pool)
            table._catalog = self
            self.tables[key] = table
            if isinstance(table, ShardedTable):
                for view in table.shard_views:
                    vkey = view.name.upper()
                    if vkey in self.tables or vkey in self.views or vkey in self.virtual_tables:
                        raise CatalogError(f"table or view {view.name} already exists")
                    view._catalog = self
                    self.tables[vkey] = view
                    self.bump_version(vkey)
            self.bump_version(key)
            return table

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        with self._mutex:
            key = name.upper()
            if key in self.virtual_tables:
                raise CatalogError(f"{key} is a system table and cannot be dropped")
            table = self.tables.get(key)
            if table is not None and table.is_shard_view:
                raise CatalogError(
                    f"{key} is a shard view; drop its parent table instead"
                )
            table = self.tables.pop(key, None)
            if table is None:
                if if_exists:
                    return
                raise CatalogError(f"no table named {name}")
            if isinstance(table, ShardedTable):
                for view in table.shard_views:
                    self.tables.pop(view.name.upper(), None)
                    self.bump_version(view.name)
            table.heap.truncate()
            self.bump_version(key)

    def get_table(self, name: str) -> Table:
        key = name.upper()
        table = self.tables.get(key)
        if table is None:
            table = self.virtual_tables.get(key)
        if table is None:
            raise CatalogError(f"no table named {name}")
        return table

    def has_table(self, name: str) -> bool:
        key = name.upper()
        return key in self.tables or key in self.virtual_tables

    def create_view(self, name: str, sql_text: str, body: Any) -> ViewDefinition:
        with self._mutex:
            key = name.upper()
            if key in self.tables or key in self.views or key in self.virtual_tables:
                raise CatalogError(f"table or view {name} already exists")
            view = ViewDefinition(key, sql_text, body)
            self.views[key] = view
            self.bump_version(key)
            return view

    def drop_view(self, name: str, if_exists: bool = False) -> None:
        with self._mutex:
            key = name.upper()
            if key not in self.views:
                if if_exists:
                    return
                raise CatalogError(f"no view named {name}")
            del self.views[key]
            self.bump_version(key)

    def get_view(self, name: str) -> Optional[ViewDefinition]:
        return self.views.get(name.upper())
