"""Buffer pool: LRU page cache over the simulated disk.

Pin/unpin discipline mirrors a textbook buffer manager.  ``hits`` and
``misses`` are the metric of the clustering experiment (E4,
``TestCoCluster``): a CO-clustered layout touches far fewer distinct pages per composite
object, which shows up directly as fewer misses for the same trace.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict

from repro.errors import ExecutionError
from repro.relational.storage.disk import DiskManager
from repro.relational.storage.page import Page


class BufferPool:
    """Fixed-capacity LRU cache of pages with pin counting."""

    def __init__(self, disk: DiskManager, capacity: int = 128):
        if capacity < 1:
            raise ValueError("buffer pool needs at least one frame")
        self.disk = disk
        self.capacity = capacity
        # One latch over frame/pin bookkeeping: fetch/unpin/eviction all
        # mutate the LRU order and pin counts, which must stay coherent
        # when session threads share the pool.  RLock because a flush can
        # call back into the WAL-ahead hook while the latch is held (lock
        # order is always buffer -> wal, never the reverse).
        self._latch = threading.RLock()
        self._frames: "OrderedDict[int, Page]" = OrderedDict()
        self._pins: Dict[int, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: total pin operations (fetches + page allocations), for metrics
        self.pin_count = 0
        #: WAL-ahead hook: called with the page about to be written to
        #: disk (eviction or checkpoint); the engine wires this to a WAL
        #: flush up to the page's LSN so no page with unlogged changes can
        #: reach stable storage.
        self.pre_write_hook = None

    def _write_page(self, page: Page) -> None:
        if self.pre_write_hook is not None:
            self.pre_write_hook(page)
        self.disk.write(page)

    # -- page access -------------------------------------------------------

    def fetch(self, page_id: int) -> Page:
        """Pin and return the page, reading it from disk on a miss."""
        with self._latch:
            self.pin_count += 1
            if page_id in self._frames:
                self.hits += 1
                self._frames.move_to_end(page_id)
                self._pins[page_id] = self._pins.get(page_id, 0) + 1
                return self._frames[page_id]
            self.misses += 1
            self._evict_if_full()
            page = self.disk.read(page_id)
            self._frames[page_id] = page
            self._pins[page_id] = 1
            return page

    def unpin(self, page_id: int, dirty: bool = False) -> None:
        with self._latch:
            pins = self._pins.get(page_id, 0)
            if pins <= 0:
                raise ExecutionError(f"unpin of unpinned page {page_id}")
            self._pins[page_id] = pins - 1
            if dirty:
                self._frames[page_id].dirty = True

    def new_page(self) -> Page:
        """Allocate a fresh page on disk and pin it in the pool."""
        with self._latch:
            self.pin_count += 1
            page_id = self.disk.allocate()
            self._evict_if_full()
            page = Page(page_id, self.disk.page_size)
            self._frames[page_id] = page
            self._pins[page_id] = 1
            return page

    # -- maintenance ---------------------------------------------------------

    def flush_all(self) -> None:
        """Write every dirty resident page back to disk (checkpoint)."""
        with self._latch:
            for page in self._frames.values():
                if page.dirty:
                    self._write_page(page)
                    page.dirty = False

    def clear(self) -> None:
        """Flush and drop all frames — simulates a cold cache."""
        with self._latch:
            self.flush_all()
            unpinned = [pid for pid, pins in self._pins.items() if pins == 0]
            for pid in unpinned:
                del self._frames[pid]
                del self._pins[pid]

    def invalidate(self) -> None:
        """Drop every frame WITHOUT writing anything back.

        Used by crash recovery: the recovery pass rebuilds pages directly
        on disk, so any frame still cached here is stale (and possibly
        pinned state left over from the statement that crashed).
        """
        with self._latch:
            self._frames.clear()
            self._pins.clear()

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.pin_count = 0

    def metrics(self) -> Dict[str, Any]:
        """Counter snapshot for ``Database.metrics_snapshot()``."""
        looked_up = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "pins": self.pin_count,
            "hit_rate": round(self.hits / looked_up, 4) if looked_up else None,
            "resident_pages": len(self._frames),
            "pinned_pages": sum(1 for pins in self._pins.values() if pins > 0),
            "capacity": self.capacity,
        }

    def _evict_if_full(self) -> None:
        while len(self._frames) >= self.capacity:
            victim_id = None
            for pid in self._frames:  # OrderedDict iterates LRU-first
                if self._pins.get(pid, 0) == 0:
                    victim_id = pid
                    break
            if victim_id is None:
                raise ExecutionError("buffer pool exhausted: all pages pinned")
            # Write back BEFORE dropping the frame: a failed write must
            # leave the victim resident and dirty, because this frame is
            # the only copy of changes the WAL already promised.  Dropping
            # first and then failing the write would silently revert the
            # page to its stale disk image on the next fetch — later
            # inserts would reuse slots that committed records still
            # occupy in the log, and the page's eventual successful flush
            # would carry a page LSN that makes redo skip those records.
            victim = self._frames[victim_id]
            if victim.dirty:
                self._write_page(victim)
                victim.dirty = False
            del self._frames[victim_id]
            del self._pins[victim_id]
            self.evictions += 1
