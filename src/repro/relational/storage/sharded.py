"""Sharded heap files: hash/range partitioning behind the ``HeapFile`` API.

ROADMAP item 3 (scale-out): a :class:`ShardedHeap` splits one table's rows
across N child :class:`~repro.relational.storage.heap.HeapFile` instances that
share the owning table's buffer pool.  Page ids come from the shared pool, so
RIDs stay globally unique and every facade-level index keeps working
unchanged; a page→shard owner map routes point operations (fetch/update/
delete) to the owning child without probing all of them.

Each shard additionally keeps *zone maps* (per-column min/max, widened on
every write, never shrunk) so the XNF scatter stage can prove a shard cannot
contribute rows to a restriction predicate and skip scanning it entirely —
the work-reduction that makes partitioned extraction faster than a full scan
on a single core.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import CatalogError, ExecutionError
from repro.relational.storage.buffer import BufferPool
from repro.relational.storage.heap import HeapFile, RID
from repro.relational.storage.page import Page


def _stable_hash(value: Any) -> int:
    """Deterministic, process-independent hash for partition routing.

    Python's builtin ``hash`` is salted per process for strings; routing must
    be stable across restarts so repartitioned data and fresh inserts agree.
    """
    if value is None:
        return 0
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return zlib.crc32(value.encode("utf-8"))
    return zlib.crc32(repr(value).encode("utf-8"))


class PartitionSpec:
    """How a table's rows map onto shards.

    ``kind`` is ``"hash"`` (``_stable_hash(value) % num_shards``) or
    ``"range"`` (``bisect_right(bounds, value)``; ``bounds`` holds the N-1
    ascending split points, rows with ``value < bounds[0]`` land on shard 0).
    ``NULL`` partition keys always route to shard 0.
    """

    def __init__(
        self,
        kind: str,
        column: str,
        num_shards: int,
        bounds: Optional[Sequence[Any]] = None,
    ):
        if kind not in ("hash", "range"):
            raise CatalogError(f"unknown partition kind {kind!r}")
        if num_shards < 2:
            raise CatalogError("partitioning needs at least 2 shards")
        if kind == "range":
            if not bounds:
                raise CatalogError("range partitioning needs split bounds")
            if len(bounds) != num_shards - 1:
                raise CatalogError(
                    f"range partitioning into {num_shards} shards needs "
                    f"{num_shards - 1} bounds, got {len(bounds)}"
                )
        self.kind = kind
        self.column = column
        self.num_shards = num_shards
        self.bounds: List[Any] = list(bounds) if bounds else []
        self.column_pos: Optional[int] = None

    def bind(self, column_positions: Dict[str, int]) -> None:
        """Resolve the partition column to its position in the row tuple."""
        pos = column_positions.get(self.column)
        if pos is None:
            pos = column_positions.get(self.column.lower())
        if pos is None:
            pos = column_positions.get(self.column.upper())
        if pos is None:
            raise CatalogError(f"partition column {self.column!r} not in table")
        self.column_pos = pos

    def route_value(self, value: Any) -> int:
        if self.kind == "hash":
            return _stable_hash(value) % self.num_shards
        if value is None:
            return 0
        try:
            return bisect_right(self.bounds, value)
        except TypeError:
            return 0

    def route(self, row: Tuple[Any, ...]) -> int:
        assert self.column_pos is not None, "PartitionSpec not bound"
        return self.route_value(row[self.column_pos])

    def range_of(self, shard: int) -> Tuple[Any, Any]:
        """(low, high) key range of a range shard; None = unbounded."""
        low = self.bounds[shard - 1] if shard > 0 else None
        high = self.bounds[shard] if shard < len(self.bounds) else None
        return low, high


class _ZoneMap:
    """Per-shard per-column min/max, widened on write, never shrunk.

    Conservative by construction: deletes do not shrink and updates widen
    both the physical shard and the shard the new key would route to, so a
    pruning decision based on the zone map can only ever skip shards that
    truly hold no matching rows.
    """

    def __init__(self) -> None:
        # col_pos -> [min, max]; a column maps to None once a value defeats
        # ordering (mixed types), meaning "unknown, never prune on this".
        self._ranges: Dict[int, Optional[List[Any]]] = {}

    def widen(self, row: Tuple[Any, ...]) -> None:
        ranges = self._ranges
        for pos, value in enumerate(row):
            if value is None:
                continue
            current = ranges.get(pos, _MISSING)
            if current is _MISSING:
                ranges[pos] = [value, value]
            elif current is not None:
                try:
                    if value < current[0]:
                        current[0] = value
                    elif value > current[1]:
                        current[1] = value
                except TypeError:
                    ranges[pos] = None

    def bounds_for(self, pos: int) -> Optional[Tuple[Any, Any]]:
        current = self._ranges.get(pos, _MISSING)
        if current is _MISSING or current is None:
            return None
        return current[0], current[1]

    def classify(self, pos: int) -> Tuple[str, Optional[Tuple[Any, Any]]]:
        """``("empty", None)`` — no non-NULL value was ever written here
        (NULL-rejecting predicates match nothing); ``("range", (min, max))``
        — bounded; ``("unknown", None)`` — mixed types defeated tracking."""
        current = self._ranges.get(pos, _MISSING)
        if current is _MISSING:
            return "empty", None
        if current is None:
            return "unknown", None
        return "range", (current[0], current[1])

    def clear(self) -> None:
        self._ranges.clear()


_MISSING = object()


class ShardedHeap:
    """N child heap files behind the single-heap API.

    The children share the parent's buffer pool, so page ids (and therefore
    RIDs) are globally unique and can be routed through ``_page_owner``.
    Scans chain the children in shard order, which keeps row order
    deterministic (and equal to the order a scatter/gather over the shards
    produces when results are gathered in shard index order).
    """

    def __init__(self, table: str, buffer_pool: BufferPool, spec: PartitionSpec):
        self.table = table
        self.buffer_pool = buffer_pool
        self.spec = spec
        # The children tag page slots with the *facade* name, not a per-shard
        # name: WAL records and redo both speak the facade name, and a
        # database reopened from disk (which never auto-shards) claims rows
        # by that tag.  Shard separation does not need the tag — each
        # HeapFile only ever reads the pages it registered itself.
        self.shards: List[HeapFile] = [
            HeapFile(table, buffer_pool) for _ in range(spec.num_shards)
        ]
        self.zone_maps: List[_ZoneMap] = [_ZoneMap() for _ in range(spec.num_shards)]
        self._page_owner: Dict[int, int] = {}

    # -- routing ---------------------------------------------------------------

    @property
    def row_count(self) -> int:
        return sum(shard.row_count for shard in self.shards)

    @row_count.setter
    def row_count(self, value: int) -> None:  # pragma: no cover - defensive
        raise ExecutionError("row_count of a sharded heap is derived")

    def owner_of(self, page_id: int) -> Optional[int]:
        return self._page_owner.get(page_id)

    def _shard_for_rid(self, rid: RID) -> HeapFile:
        owner = self._page_owner.get(rid.page_id)
        if owner is None:
            raise ExecutionError(f"fetch of missing row {rid} in {self.table}")
        return self.shards[owner]

    def _claim(self, shard_id: int, rids: Sequence[RID]) -> None:
        owner = self._page_owner
        for rid in rids:
            owner[rid.page_id] = shard_id

    # -- write path ------------------------------------------------------------

    def insert(self, row: Tuple[Any, ...]) -> RID:
        shard_id = self.spec.route(row)
        rid = self.shards[shard_id].insert(row)
        self._page_owner[rid.page_id] = shard_id
        self.zone_maps[shard_id].widen(row)
        return rid

    def append_rows(self, rows: Sequence[Tuple[Any, ...]]) -> List[RID]:
        if not rows:
            return []
        route = self.spec.route
        buckets: Dict[int, List[int]] = {}
        for i, row in enumerate(rows):
            buckets.setdefault(route(row), []).append(i)
        rids: List[Optional[RID]] = [None] * len(rows)
        for shard_id, positions in buckets.items():
            # Re-tuple instead of referencing the caller's tuples: the input
            # arrives in generation order, interleaved across shards, so the
            # original tuple objects of one shard are scattered through the
            # allocator's arena.  Fresh copies built bucket-by-bucket lay
            # each shard's tuples out contiguously, which is what the
            # chunked scan's slot gather walks — sequential scans over a
            # shard otherwise run measurably colder than over a plain heap.
            shard_rows = [(*rows[i],) for i in positions]
            shard_rids = self.shards[shard_id].append_rows(shard_rows)
            self._claim(shard_id, shard_rids)
            zone = self.zone_maps[shard_id]
            for pos, rid, row in zip(positions, shard_rids, shard_rows):
                rids[pos] = rid
                zone.widen(row)
        return rids  # type: ignore[return-value]

    def insert_on_page(self, page: Page, row: Tuple[Any, ...]) -> RID:
        # CoCluster placement: honour the requested page only when it does
        # not cross a shard boundary; otherwise correctness beats clustering
        # and the row goes through normal routing.
        shard_id = self.spec.route(row)
        owner = self._page_owner.get(page.page_id)
        if owner is None or owner == shard_id:
            rid = self.shards[shard_id].insert_on_page(page, row)
            self._page_owner[rid.page_id] = shard_id
            self.zone_maps[shard_id].widen(row)
            return rid
        return self.insert(row)

    def update(self, rid: RID, row: Tuple[Any, ...]) -> None:
        owner = self._page_owner.get(rid.page_id)
        if owner is None:
            raise ExecutionError(f"update of missing row {rid} in {self.table}")
        self.shards[owner].update(rid, row)
        self.zone_maps[owner].widen(row)
        routed = self.spec.route(row)
        if routed != owner:
            # Partition drift: the key changed in place, so the row now lives
            # on the "wrong" physical shard.  Widening the routed shard's zone
            # map too keeps pruning conservative for both views of the row.
            self.zone_maps[routed].widen(row)

    def delete(self, rid: RID) -> None:
        self._shard_for_rid(rid).delete(rid)

    # -- read path -------------------------------------------------------------

    def fetch_row(self, rid: RID) -> Tuple[Any, ...]:
        return self._shard_for_rid(rid).fetch_row(rid)

    def fetch_rows(self, rids: Sequence[RID]) -> List[Tuple[Any, ...]]:
        owner = self._page_owner
        for rid in rids:
            if rid.page_id not in owner:
                raise ExecutionError(f"fetch of missing row {rid} in {self.table}")
        # every child tags its slots with the facade name, so any one child
        # reads the rows of every owned page
        return self.shards[0].fetch_rows(rids)

    def scan(self) -> Iterator[Tuple[RID, Tuple[Any, ...]]]:
        for shard in self.shards:
            yield from shard.scan()

    def scan_row_chunks(self) -> Iterator[List[Tuple[Any, ...]]]:
        for shard in self.shards:
            yield from shard.scan_row_chunks()

    def page_ids(self) -> List[int]:
        ids: List[int] = []
        for shard in self.shards:
            ids.extend(shard.page_ids())
        return ids

    def scan_page_rows(self) -> Iterator[Tuple[int, List[Tuple[Any, ...]]]]:
        for shard in self.shards:
            yield from shard.scan_page_rows()

    def scan_page_pairs(self, page_id: int) -> List[Tuple[RID, Tuple[Any, ...]]]:
        owner = self._page_owner.get(page_id)
        if owner is None:
            return []
        return self.shards[owner].scan_page_pairs(page_id)

    def register_page(self, page_id: int) -> None:  # pragma: no cover - unused
        raise ExecutionError("pages of a sharded heap are registered per shard")

    def num_pages(self) -> int:
        return sum(shard.num_pages() for shard in self.shards)

    def truncate(self) -> None:
        for shard in self.shards:
            shard.truncate()
        for zone in self.zone_maps:
            zone.clear()
        self._page_owner.clear()
