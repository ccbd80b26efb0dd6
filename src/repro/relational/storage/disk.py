"""Simulated disk: a flat page array with I/O counters and checksums.

Reads and writes copy the page image, so the buffer pool really is the only
place where live page objects exist — exactly the boundary a clustering
experiment needs to count.

Every write stores a CRC32 of the page image next to it; every read
verifies it, so a torn or corrupted write (the
:class:`~repro.relational.storage.faults.FaultInjector` can produce both)
is detected as a :class:`~repro.errors.ChecksumError` instead of being
served as valid data.  An installed fault injector sees every physical
transfer and may fail it, tear it, or crash the "machine" mid-operation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import ChecksumError, PageNotFoundError
from repro.relational.storage.page import Page, DEFAULT_PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.relational.storage.faults import FaultInjector


class DiskManager:
    """Allocates page ids and stores checksummed page images.

    ``reads``/``writes`` count physical page transfers; :meth:`reset_stats`
    zeroes them.  ``fault_injector`` (optional) is
    consulted on every transfer.
    """

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE):
        self.page_size = page_size
        self._pages: Dict[int, Page] = {}
        #: stored CRC per page, written alongside the image; a torn write
        #: stores the checksum of the *intended* image with a partial one,
        #: which is how the mismatch is detected on the next read.
        self._checksums: Dict[int, int] = {}
        self._next_page_id = 0
        self.reads = 0
        self.writes = 0
        self.fault_injector: Optional["FaultInjector"] = None

    def allocate(self) -> int:
        """Allocate and format a fresh (empty, durable) page."""
        page_id = self._next_page_id
        self._next_page_id += 1
        page = Page(page_id, self.page_size)
        self._pages[page_id] = page
        self._checksums[page_id] = page.content_checksum()
        return page_id

    def read(self, page_id: int) -> Page:
        self.reads += 1
        if self.fault_injector is not None:
            self.fault_injector.on_disk_read(page_id)
        if page_id not in self._pages:
            raise PageNotFoundError(page_id)
        page = self._pages[page_id]
        stored = self._checksums.get(page_id, 0)
        actual = page.content_checksum()
        if stored != actual:
            raise ChecksumError(page_id, stored, actual)
        return page.copy()

    def write(self, page: Page) -> None:
        self.writes += 1
        image = page.copy()
        checksum = image.content_checksum()
        if self.fault_injector is not None:
            torn = self.fault_injector.on_disk_write(image)
            if torn is not None:
                # Torn write: the partial image lands on disk, but the
                # checksum of the intended image was already in the header
                # sector — the next read detects the mismatch.
                self._pages[page.page_id] = torn
                self._checksums[page.page_id] = checksum
                return
        self._pages[page.page_id] = image
        self._checksums[page.page_id] = checksum

    # -- recovery-side access (no fault injection, no checksum raise) --------

    def page_ids(self) -> List[int]:
        return sorted(self._pages)

    def ensure(self, page_id: int) -> None:
        """Re-format a page slot lost in a crash before it ever hit disk.

        Redo may reference pages that were allocated but whose first image
        never survived; recovery recreates them empty.
        """
        if page_id not in self._pages:
            page = Page(page_id, self.page_size)
            self._pages[page_id] = page
            self._checksums[page_id] = page.content_checksum()
            self._next_page_id = max(self._next_page_id, page_id + 1)

    def read_unchecked(self, page_id: int) -> Tuple[Page, bool]:
        """Read a page for recovery: returns ``(image, checksum_ok)``.

        Unlike :meth:`read`, a corrupt page is returned (flagged) rather
        than raised, so the recovery pass can rebuild it from the log.
        """
        if page_id not in self._pages:
            raise PageNotFoundError(page_id)
        page = self._pages[page_id]
        ok = self._checksums.get(page_id, 0) == page.content_checksum()
        return page.copy(), ok

    def write_unlogged(self, page: Page) -> None:
        """Recovery-side write: bypasses the fault injector."""
        self.writes += 1
        image = page.copy()
        self._pages[page.page_id] = image
        self._checksums[page.page_id] = image.content_checksum()

    def num_pages(self) -> int:
        return len(self._pages)

    def reset_stats(self) -> None:
        self.reads = 0
        self.writes = 0
