"""Storage engine: slotted pages, buffer pool, heap files, CO clustering.

The paper's section 4 argues that composite-object processing needs
*clustering of component tuples belonging to different tables* and cheap,
measurable I/O.  We model a paged store:

* :class:`~repro.relational.storage.disk.DiskManager` — the "disk": a page
  array with read/write counters,
* :class:`~repro.relational.storage.buffer.BufferPool` — LRU page cache with
  hit/miss accounting (the unit the clustering experiment counts),
* :class:`~repro.relational.storage.heap.HeapFile` — per-table row storage;
  pages are tagged per slot with the owning table, so a single page can hold
  a department tuple next to its employees (CO clustering, experiment E4),
* :class:`~repro.relational.storage.cluster.CoCluster` — lays out
  parent/child tuples of a relationship contiguously, the Starburst "IMS
  attachment" style clustering the paper cites,
* :class:`~repro.relational.storage.faults.FaultInjector` — deterministic
  fault injection (I/O errors, torn writes, dropped flushes, hard crash
  points) for the crash-recovery property harness.
"""

from repro.relational.storage.disk import DiskManager
from repro.relational.storage.buffer import BufferPool
from repro.relational.storage.heap import HeapFile, RID
from repro.relational.storage.page import Page, estimate_row_size
from repro.relational.storage.cluster import CoCluster
from repro.relational.storage.faults import FaultInjector, FaultPlan

__all__ = [
    "DiskManager",
    "BufferPool",
    "HeapFile",
    "RID",
    "Page",
    "estimate_row_size",
    "CoCluster",
    "FaultInjector",
    "FaultPlan",
]
