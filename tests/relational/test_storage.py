"""Storage layer: pages, disk, buffer pool, heap files, CO clustering."""

import pytest

from repro.errors import (
    ChecksumError,
    ExecutionError,
    IOFaultError,
    PageNotFoundError,
    SimulatedCrash,
    SQLError,
    StorageError,
)
from repro.relational.storage import (
    BufferPool,
    CoCluster,
    DiskManager,
    FaultInjector,
    FaultPlan,
    HeapFile,
    Page,
    estimate_row_size,
)


class TestPage:
    def test_insert_read(self):
        page = Page(0)
        slot = page.insert("T", (1, "x"))
        assert page.read(slot) == ("T", (1, "x"))

    def test_slots_are_stable_after_delete(self):
        page = Page(0)
        s0 = page.insert("T", (1,))
        s1 = page.insert("T", (2,))
        page.delete(s0)
        assert page.read(s0) is None
        assert page.read(s1) == ("T", (2,))

    def test_deleted_slot_reused(self):
        page = Page(0)
        s0 = page.insert("T", (1,))
        page.insert("T", (2,))
        page.delete(s0)
        s2 = page.insert("T", (3,))
        assert s2 == s0

    def test_byte_accounting(self):
        page = Page(0, page_size=100)
        row = (1, "abcdefgh")
        size = estimate_row_size(row)
        assert page.can_fit(row)
        page.insert("T", row)
        assert page.used_bytes == size
        page.delete(0)
        assert page.used_bytes == 0

    def test_can_fit_respects_page_size(self):
        page = Page(0, page_size=64)
        big = ("x" * 100,)
        assert not page.can_fit(big)

    def test_update_adjusts_bytes(self):
        page = Page(0, page_size=1000)
        page.insert("T", ("short",))
        before = page.used_bytes
        page.update(0, ("a much longer string value",))
        assert page.used_bytes > before

    def test_mixed_table_slots(self):
        page = Page(0)
        page.insert("A", (1,))
        page.insert("B", (2,))
        assert page.read(0)[0] == "A"
        assert page.read(1)[0] == "B"


class TestDiskManager:
    def test_allocate_and_rw(self):
        disk = DiskManager()
        pid = disk.allocate()
        page = disk.read(pid)
        page.insert("T", (1,))
        disk.write(page)
        again = disk.read(pid)
        assert again.read(0) == ("T", (1,))

    def test_counters(self):
        disk = DiskManager()
        pid = disk.allocate()
        disk.read(pid)
        disk.read(pid)
        page = disk.read(pid)
        disk.write(page)
        assert disk.reads == 3
        assert disk.writes == 1
        disk.reset_stats()
        assert disk.reads == 0 and disk.writes == 0

    def test_read_returns_copy(self):
        disk = DiskManager()
        pid = disk.allocate()
        page = disk.read(pid)
        page.insert("T", (1,))
        # Not written back: the next read must not see it.
        assert disk.read(pid).read(0) is None

    def test_read_of_unallocated_page_raises_typed_error(self):
        disk = DiskManager()
        with pytest.raises(PageNotFoundError) as excinfo:
            disk.read(999)
        assert excinfo.value.page_id == 999
        # typed as a storage error inside the SQLError hierarchy, so the
        # generic handlers of callers still catch it
        assert isinstance(excinfo.value, StorageError)
        assert isinstance(excinfo.value, SQLError)

    def test_page_images_are_checksummed(self):
        disk = DiskManager()
        pid = disk.allocate()
        page = disk.read(pid)
        page.insert("T", (1, "x"))
        disk.write(page)
        # corrupt the stored image behind the checksum's back
        disk._pages[pid].slots.append(("T", (999,)))
        with pytest.raises(ChecksumError) as excinfo:
            disk.read(pid)
        assert excinfo.value.page_id == pid


class TestFaultInjector:
    def _disk_with_injector(self, **kwargs):
        disk = DiskManager()
        injector = FaultInjector(**kwargs)
        disk.fault_injector = injector
        injector.arm()
        return disk, injector

    def test_injected_read_error(self):
        disk, injector = self._disk_with_injector()
        pid = disk.allocate()
        injector.fail_next_reads(1)
        with pytest.raises(IOFaultError) as excinfo:
            disk.read(pid)
        assert excinfo.value.transient
        assert disk.read(pid) is not None  # one-shot: next read succeeds
        assert injector.counts["io_errors"] == 1

    def test_torn_write_detected_on_next_read(self):
        disk, injector = self._disk_with_injector()
        pid = disk.allocate()
        page = disk.read(pid)
        for i in range(4):
            page.insert("T", (i, "payload"))
        injector.tear_next_writes(1)
        disk.write(page)
        assert pid in injector.torn_pages
        with pytest.raises(ChecksumError):
            disk.read(pid)
        # recovery-side read flags instead of raising
        _, ok = disk.read_unchecked(pid)
        assert not ok

    def test_clean_rewrite_clears_torn_state(self):
        disk, injector = self._disk_with_injector()
        pid = disk.allocate()
        page = disk.read(pid)
        page.insert("T", (1,))
        injector.tear_next_writes(1)
        disk.write(page)
        disk.write(page)  # clean write replaces the torn image
        assert pid not in injector.torn_pages
        assert disk.read(pid).read(0) == ("T", (1,))

    def test_torn_write_of_empty_page_still_detected(self):
        disk, injector = self._disk_with_injector()
        pid = disk.allocate()
        page = disk.read(pid)
        injector.tear_next_writes(1)
        disk.write(page)
        with pytest.raises(ChecksumError):
            disk.read(pid)

    def test_crash_after_n_ops(self):
        disk, injector = self._disk_with_injector(crash_after_ops=3)
        pid = disk.allocate()
        disk.read(pid)
        disk.read(pid)
        with pytest.raises(SimulatedCrash) as excinfo:
            disk.read(pid)
        assert excinfo.value.op_index == 3
        # SimulatedCrash must not be swallowed by `except Exception`
        assert not isinstance(excinfo.value, Exception)
        # the machine is dead: nothing fires after the crash
        assert not injector.armed

    def test_deterministic_schedule_per_seed(self):
        plan = FaultPlan(read_error_rate=0.3)

        def run(seed):
            disk = DiskManager()
            injector = FaultInjector(seed=seed, plan=plan)
            disk.fault_injector = injector
            injector.arm()
            pid = disk.allocate()
            outcomes = []
            for _ in range(50):
                try:
                    disk.read(pid)
                    outcomes.append("ok")
                except IOFaultError:
                    outcomes.append("fault")
            return outcomes

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_disarmed_injector_is_silent(self):
        disk, injector = self._disk_with_injector(
            plan=FaultPlan(read_error_rate=1.0)
        )
        injector.disarm()
        pid = disk.allocate()
        disk.read(pid)  # no fault
        assert injector.injected_total() == 0


class TestBufferPool:
    def test_hit_miss_accounting(self):
        disk = DiskManager()
        pool = BufferPool(disk, capacity=4)
        pid = disk.allocate()
        pool.fetch(pid)
        pool.unpin(pid)
        pool.fetch(pid)
        pool.unpin(pid)
        assert pool.misses == 1
        assert pool.hits == 1

    def test_lru_eviction(self):
        disk = DiskManager()
        pool = BufferPool(disk, capacity=2)
        pids = [disk.allocate() for _ in range(3)]
        for pid in pids:
            pool.fetch(pid)
            pool.unpin(pid)
        assert pool.evictions == 1
        # pids[0] was evicted; touching it again is a miss.
        pool.fetch(pids[0])
        pool.unpin(pids[0])
        assert pool.misses == 4

    def test_pinned_pages_not_evicted(self):
        disk = DiskManager()
        pool = BufferPool(disk, capacity=2)
        p0 = disk.allocate()
        p1 = disk.allocate()
        p2 = disk.allocate()
        pool.fetch(p0)  # stays pinned
        pool.fetch(p1)
        pool.unpin(p1)
        pool.fetch(p2)  # must evict p1, not p0
        page0 = pool._frames.get(p0)
        assert page0 is not None

    def test_all_pinned_raises(self):
        disk = DiskManager()
        pool = BufferPool(disk, capacity=1)
        p0 = disk.allocate()
        p1 = disk.allocate()
        pool.fetch(p0)
        with pytest.raises(ExecutionError):
            pool.fetch(p1)

    def test_fully_pinned_pool_raises_cleanly(self):
        """Exhaustion must raise without corrupting the pool: resident
        pages stay pinned and intact, and one unpin makes it usable again."""
        disk = DiskManager()
        pool = BufferPool(disk, capacity=3)
        resident = [disk.allocate() for _ in range(3)]
        for pid in resident:
            pool.fetch(pid)  # all frames pinned
        extra = disk.allocate()
        with pytest.raises(ExecutionError, match="all pages pinned"):
            pool.fetch(extra)
        with pytest.raises(ExecutionError, match="all pages pinned"):
            pool.new_page()
        # the failed requests must not have (partially) registered frames
        assert sorted(pool._frames) == sorted(resident)
        assert all(pool._pins[pid] == 1 for pid in resident)
        # releasing one pin makes the pool usable again
        pool.unpin(resident[0])
        fetched = pool.fetch(extra)
        assert fetched.page_id == extra
        assert resident[0] not in pool._frames  # the unpinned page was evicted

    def test_dirty_page_written_on_eviction(self):
        disk = DiskManager()
        pool = BufferPool(disk, capacity=1)
        p0 = disk.allocate()
        page = pool.fetch(p0)
        page.insert("T", (42,))
        pool.unpin(p0, dirty=True)
        p1 = disk.allocate()
        pool.fetch(p1)
        pool.unpin(p1)
        assert disk.read(p0).read(0) == ("T", (42,))

    def test_failed_writeback_keeps_victim_resident_and_dirty(self):
        """An eviction whose write-back fails must not lose the dirty frame.

        The frame is the only copy of changes the WAL already logged; if
        eviction dropped it before the write succeeded, the next fetch
        would resurrect the stale disk image and later inserts would
        reuse slots that committed log records still occupy — committed
        rows would then vanish across a crash because redo trusts the
        page LSN of the eventual successful flush.
        """
        disk = DiskManager()
        pool = BufferPool(disk, capacity=1)
        p0 = disk.allocate()
        page = pool.fetch(p0)
        page.insert("T", (42,))
        pool.unpin(p0, dirty=True)

        injector = FaultInjector(seed=1)
        disk.fault_injector = injector
        injector.arm()
        injector.fail_next_writes(1)
        p1 = disk.allocate()
        with pytest.raises(IOFaultError):
            pool.fetch(p1)
        # the victim survived the failed eviction, still dirty
        assert p0 in pool._frames
        assert pool._frames[p0].dirty
        assert pool._frames[p0].read(0) == ("T", (42,))

        # once the disk heals, eviction completes and persists the row
        injector.disarm()
        pool.fetch(p1)
        pool.unpin(p1)
        assert disk.read(p0).read(0) == ("T", (42,))

    def test_unpin_unpinned_raises(self):
        disk = DiskManager()
        pool = BufferPool(disk, capacity=2)
        pid = disk.allocate()
        pool.fetch(pid)
        pool.unpin(pid)
        with pytest.raises(ExecutionError):
            pool.unpin(pid)

    def test_clear_simulates_cold_cache(self):
        disk = DiskManager()
        pool = BufferPool(disk, capacity=8)
        pid = disk.allocate()
        page = pool.fetch(pid)
        page.insert("T", (1,))
        pool.unpin(pid, dirty=True)
        pool.clear()
        pool.reset_stats()
        fetched = pool.fetch(pid)
        assert pool.misses == 1
        assert fetched.read(0) == ("T", (1,))

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BufferPool(DiskManager(), capacity=0)


def make_heap(capacity=64, page_size=4096):
    disk = DiskManager(page_size)
    pool = BufferPool(disk, capacity)
    return HeapFile("T", pool), pool


class TestHeapFile:
    def test_insert_fetch(self):
        heap, _ = make_heap()
        rid = heap.insert((1, "a"))
        assert heap.fetch_row(rid) == (1, "a")

    def test_scan_order(self):
        heap, _ = make_heap()
        rows = [(i, f"r{i}") for i in range(50)]
        for row in rows:
            heap.insert(row)
        assert [row for _, row in heap.scan()] == rows

    def test_spans_pages(self):
        heap, _ = make_heap(page_size=128)
        for i in range(100):
            heap.insert((i, "payload-xxxx"))
        assert heap.num_pages() > 1
        assert heap.row_count == 100

    def test_update(self):
        heap, _ = make_heap()
        rid = heap.insert((1, "a"))
        heap.update(rid, (1, "b"))
        assert heap.fetch_row(rid) == (1, "b")

    def test_delete(self):
        heap, _ = make_heap()
        rid = heap.insert((1, "a"))
        heap.delete(rid)
        assert heap.row_count == 0
        with pytest.raises(ExecutionError):
            heap.fetch_row(rid)

    def test_delete_missing_raises(self):
        heap, _ = make_heap()
        rid = heap.insert((1,))
        heap.delete(rid)
        with pytest.raises(ExecutionError):
            heap.delete(rid)

    def test_truncate(self):
        heap, _ = make_heap()
        for i in range(20):
            heap.insert((i,))
        heap.truncate()
        assert heap.row_count == 0
        assert list(heap.scan()) == []

    def test_shared_page_scan_filters_by_table(self):
        disk = DiskManager()
        pool = BufferPool(disk, 16)
        heap_a = HeapFile("A", pool)
        heap_b = HeapFile("B", pool)
        with CoCluster(pool) as cluster:
            cluster.load_group([(heap_a, (1,)), (heap_b, (2,)), (heap_b, (3,))])
        assert [row for _, row in heap_a.scan()] == [(1,)]
        assert [row for _, row in heap_b.scan()] == [(2,), (3,)]


class TestCoCluster:
    def test_group_colocated_on_one_page(self):
        disk = DiskManager(4096)
        pool = BufferPool(disk, 16)
        parent = HeapFile("P", pool)
        child = HeapFile("C", pool)
        with CoCluster(pool) as cluster:
            rids = cluster.load_group(
                [(parent, (1, "p")), (child, (1, 1)), (child, (1, 2))]
            )
        pages = {rid.page_id for rid in rids}
        assert len(pages) == 1

    def test_groups_pack_until_full(self):
        disk = DiskManager(256)
        pool = BufferPool(disk, 16)
        parent = HeapFile("P", pool)
        with CoCluster(pool) as cluster:
            for i in range(30):
                cluster.load_group([(parent, (i, "x" * 20))])
        assert parent.num_pages() > 1
        assert parent.row_count == 30

    def test_clustered_read_touches_fewer_pages(self):
        """E4: read 150 composite objects (a parent and its 6 children,
        1 KB pages).  Through 4 frames, the children's arrival order costs
        1 050 misses and any object-ordered load 48, with or without
        CoCluster.  Through one frame, which cannot hold a page of both
        tables, only CoCluster's shared pages keep it at 48."""

        def objects():
            for i in range(150):
                children = [(i, j, f"child-{i}-{j}", j * 1.5) for j in range(6)]
                yield (i, f"parent-{i}", i * 10), children

        def read_trace_misses(layout, frames):
            pool = BufferPool(DiskManager(1024), frames)
            parents = HeapFile("P", pool)
            children = HeapFile("C", pool)
            if layout == "co":
                with CoCluster(pool) as cluster:
                    for parent_row, child_rows in objects():
                        cluster.load_group(
                            [(parents, parent_row)]
                            + [(children, row) for row in child_rows]
                        )
            elif layout == "object":
                for parent_row, child_rows in objects():
                    parents.insert(parent_row)
                    for row in child_rows:
                        children.insert(row)
            else:
                # arrival order: one object's children scatter over pages
                for parent_row, _ in objects():
                    parents.insert(parent_row)
                for j in range(6):
                    for _, child_rows in objects():
                        children.insert(child_rows[j])
            parent_rids = [rid for rid, _ in parents.scan()]
            child_rids = {}
            for rid, row in children.scan():
                child_rids.setdefault(row[0], []).append(rid)
            pool.clear()
            pool.reset_stats()
            for i, rid in enumerate(parent_rids):
                parents.fetch_row(rid)
                for child_rid in child_rids[i]:
                    children.fetch_row(child_rid)
            return pool.misses

        expected = {
            ("arrival", 4): 1050,
            ("object", 4): 48,
            ("co", 4): 48,
            ("object", 1): 325,
            ("co", 1): 48,
        }
        assert {key: read_trace_misses(*key) for key in expected} == expected
