"""Heap files: unordered per-table row storage over the buffer pool.

A heap file tracks the set of pages that contain at least one of its rows.
Because page slots are tagged with the owning table, several heap files may
share pages — that is how :class:`~repro.relational.storage.cluster.CoCluster`
achieves composite-object clustering without changing the executor.
"""

from __future__ import annotations

from typing import Any, Iterator, List, NamedTuple, Sequence, Tuple

from repro.errors import ExecutionError
from repro.relational.storage.buffer import BufferPool
from repro.relational.storage.page import Page, estimate_row_size


class RID(NamedTuple):
    """Row identifier: physical address of a row."""

    page_id: int
    slot: int


class HeapFile:
    """Unordered collection of rows belonging to one table."""

    def __init__(self, table: str, buffer_pool: BufferPool):
        self.table = table
        self.buffer_pool = buffer_pool
        self._page_ids: List[int] = []
        self._page_id_set: set[int] = set()
        self.row_count = 0

    # -- write path ----------------------------------------------------------

    def insert(self, row: Tuple[Any, ...]) -> RID:
        """Insert at the end of the file (last page, else a new page)."""
        size = estimate_row_size(row)
        if self._page_ids:
            last_id = self._page_ids[-1]
            page = self.buffer_pool.fetch(last_id)
            if page.can_fit(row, size):
                slot = page.insert(self.table, row, size)
                self.buffer_pool.unpin(last_id, dirty=True)
                self.row_count += 1
                return RID(last_id, slot)
            self.buffer_pool.unpin(last_id)
        page = self.buffer_pool.new_page()
        slot = page.insert(self.table, row, size)
        self.register_page(page.page_id)
        self.buffer_pool.unpin(page.page_id, dirty=True)
        self.row_count += 1
        return RID(page.page_id, slot)

    def append_rows(self, rows: Sequence[Tuple[Any, ...]]) -> List[RID]:
        """Bulk insert at the end of the file.

        Equivalent to :meth:`insert` per row, but the tail page stays pinned
        across consecutive rows instead of being re-fetched for each one —
        the write-side counterpart of the batch scan.
        """
        rids: List[RID] = []
        if not rows:
            return rids
        page = None
        page_id = -1
        dirty = False
        if self._page_ids:
            page_id = self._page_ids[-1]
            page = self.buffer_pool.fetch(page_id)
        for row in rows:
            size = estimate_row_size(row)
            if page is None or not page.can_fit(row, size):
                if page is not None:
                    self.buffer_pool.unpin(page_id, dirty=dirty)
                page = self.buffer_pool.new_page()
                page_id = page.page_id
                self.register_page(page_id)
                dirty = False
            slot = page.insert(self.table, row, size)
            dirty = True
            rids.append(RID(page_id, slot))
        self.buffer_pool.unpin(page_id, dirty=dirty)
        self.row_count += len(rows)
        return rids

    def insert_on_page(self, page: Page, row: Tuple[Any, ...]) -> RID:
        """Insert onto a specific (already pinned) page — used by CoCluster."""
        slot = page.insert(self.table, row)
        self.register_page(page.page_id)
        self.row_count += 1
        return RID(page.page_id, slot)

    def update(self, rid: RID, row: Tuple[Any, ...]) -> None:
        page = self.buffer_pool.fetch(rid.page_id)
        try:
            content = page.read(rid.slot)
            if content is None or content[0] != self.table:
                raise ExecutionError(f"update of missing row {rid} in {self.table}")
            page.update(rid.slot, row)
        finally:
            self.buffer_pool.unpin(rid.page_id, dirty=True)

    def delete(self, rid: RID) -> None:
        page = self.buffer_pool.fetch(rid.page_id)
        try:
            content = page.read(rid.slot)
            if content is None or content[0] != self.table:
                raise ExecutionError(f"delete of missing row {rid} in {self.table}")
            page.delete(rid.slot)
        finally:
            self.buffer_pool.unpin(rid.page_id, dirty=True)
        self.row_count -= 1

    # -- read path -----------------------------------------------------------

    def fetch_row(self, rid: RID) -> Tuple[Any, ...]:
        page = self.buffer_pool.fetch(rid.page_id)
        try:
            content = page.read(rid.slot)
            if content is None or content[0] != self.table:
                raise ExecutionError(f"fetch of missing row {rid} in {self.table}")
            return content[1]
        finally:
            self.buffer_pool.unpin(rid.page_id)

    def fetch_rows(self, rids: Sequence[RID]) -> List[Tuple[Any, ...]]:
        """:meth:`fetch_row` for each of *rids*, pinning a run of RIDs on
        one page once — an index probe's matches usually share a page."""
        pool, table = self.buffer_pool, self.table
        rows: List[Tuple[Any, ...]] = []
        page_id, page = -1, None
        try:
            for rid in rids:
                if rid.page_id != page_id:
                    if page is not None:
                        pool.unpin(page_id)
                        page = None
                    page_id = rid.page_id
                    page = pool.fetch(page_id)
                content = page.read(rid.slot)
                if content is None or content[0] != table:
                    raise ExecutionError(f"fetch of missing row {rid} in {table}")
                rows.append(content[1])
        finally:
            if page is not None:
                pool.unpin(page_id)
        return rows

    def scan(self) -> Iterator[Tuple[RID, Tuple[Any, ...]]]:
        """Yield (rid, row) for every live row of this table."""
        # Snapshot the page list: concurrent inserts may extend it.
        for page_id in list(self._page_ids):
            page = self.buffer_pool.fetch(page_id)
            try:
                rows = [
                    (RID(page_id, slot), content[1])
                    for slot, content in enumerate(page.slots)
                    if content is not None and content[0] == self.table
                ]
            finally:
                self.buffer_pool.unpin(page_id)
            yield from rows

    def scan_row_chunks(self) -> Iterator[List[Tuple[Any, ...]]]:
        """Yield the live rows one page at a time, without RIDs.

        The batch scan transposes these chunks straight into column
        batches; skipping the per-row RID allocation of :meth:`scan` is a
        measurable part of its constant-factor win.
        """
        table = self.table
        for page_id in list(self._page_ids):
            page = self.buffer_pool.fetch(page_id)
            try:
                rows = [
                    content[1]
                    for content in page.slots
                    if content is not None and content[0] == table
                ]
            finally:
                self.buffer_pool.unpin(page_id)
            if rows:
                yield rows

    def page_ids(self) -> List[int]:
        """Point-in-time copy of the page list (concurrent inserts extend it)."""
        return list(self._page_ids)

    def scan_page_rows(self) -> Iterator[Tuple[int, List[Tuple[Any, ...]]]]:
        """Yield ``(page_id, live rows)`` per page — :meth:`scan_row_chunks`
        plus the page id.  MVCC chunk scans use this for clean pages (no
        version entries for the table) and re-read dirty pages with RIDs
        via :meth:`scan_page_pairs`."""
        table = self.table
        for page_id in list(self._page_ids):
            page = self.buffer_pool.fetch(page_id)
            try:
                rows = [
                    content[1]
                    for content in page.slots
                    if content is not None and content[0] == table
                ]
            finally:
                self.buffer_pool.unpin(page_id)
            yield page_id, rows

    def scan_page_pairs(self, page_id: int) -> List[Tuple[RID, Tuple[Any, ...]]]:
        """The ``(rid, row)`` pairs of one page, read under the pin."""
        page = self.buffer_pool.fetch(page_id)
        try:
            return [
                (RID(page_id, slot), content[1])
                for slot, content in enumerate(page.slots)
                if content is not None and content[0] == self.table
            ]
        finally:
            self.buffer_pool.unpin(page_id)

    def register_page(self, page_id: int) -> None:
        if page_id not in self._page_id_set:
            self._page_id_set.add(page_id)
            self._page_ids.append(page_id)

    def num_pages(self) -> int:
        return len(self._page_ids)

    def truncate(self) -> None:
        """Delete all rows of this table.

        Pages the table owns exclusively (the common case — sharing only
        happens under CO clustering) are wiped wholesale; shared pages fall
        back to per-slot tombstoning so co-located rows keep their RIDs.
        """
        table = self.table
        for page_id in list(self._page_ids):
            page = self.buffer_pool.fetch(page_id)
            try:
                slots = page.slots
                if all(c is None or c[0] == table for c in slots):
                    page.clear()
                else:
                    for slot, content in enumerate(slots):
                        if content is not None and content[0] == table:
                            page.delete(slot)
            finally:
                self.buffer_pool.unpin(page_id, dirty=True)
        self._page_ids.clear()
        self._page_id_set.clear()
        self.row_count = 0
