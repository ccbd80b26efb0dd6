"""Common index interface.

Indexes map key tuples (values of the indexed columns) to sets of RIDs.
Rows whose key contains a NULL are not indexed: SQL equality never matches
NULL, and our executor routes ``IS NULL`` predicates to scans.

Every index carries a latch serialising structural changes against
lookups.  MVCC readers take no table locks, so a scan can run while a
writer splits B-tree nodes or rehashes buckets; without the latch a
concurrent split can double-yield or skip committed keys mid-iteration.
Subclass lookups must acquire it (range scans materialise their matches
under it), and the maintenance entry points here hold it so the
unique-check + insert pair is atomic as well.
"""

from __future__ import annotations

import threading

from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.errors import IntegrityError
from repro.relational.storage.heap import RID

Key = Tuple[Any, ...]


class Index:
    """Abstract index over a fixed list of column positions."""

    #: set by subclasses: whether range_scan is supported
    supports_range = False

    def __init__(
        self,
        name: str,
        table: str,
        column_names: Sequence[str],
        column_positions: Sequence[int],
        unique: bool = False,
    ):
        self.name = name
        self.table = table
        self.column_names = list(column_names)
        self.column_positions = list(column_positions)
        self.unique = unique
        self._latch = threading.RLock()

    # -- key extraction ------------------------------------------------------

    def key_of(self, row: Tuple[Any, ...]) -> Optional[Key]:
        """Extract the index key from a row; None if any component is NULL."""
        key = tuple(row[pos] for pos in self.column_positions)
        if any(component is None for component in key):
            return None
        return key

    # -- maintenance ---------------------------------------------------------

    def insert_row(self, row: Tuple[Any, ...], rid: RID) -> None:
        key = self.key_of(row)
        if key is None:
            return
        with self._latch:
            if self.unique and self.search(key):
                raise IntegrityError(
                    f"unique index {self.name} violated by key {key!r}"
                )
            self._insert(key, rid)

    def delete_row(self, row: Tuple[Any, ...], rid: RID) -> None:
        key = self.key_of(row)
        if key is None:
            return
        with self._latch:
            self._delete(key, rid)

    def update_row(
        self, old_row: Tuple[Any, ...], new_row: Tuple[Any, ...], rid: RID
    ) -> None:
        old_key = self.key_of(old_row)
        new_key = self.key_of(new_row)
        if old_key == new_key:
            return
        with self._latch:
            if old_key is not None:
                self._delete(old_key, rid)
            if new_key is not None:
                if self.unique and self.search(new_key):
                    raise IntegrityError(
                        f"unique index {self.name} violated by key {new_key!r}"
                    )
                self._insert(new_key, rid)

    # -- lookup (subclass responsibilities) ------------------------------------

    def search(self, key: Key) -> List[RID]:
        raise NotImplementedError

    def search_many(self, keys: Sequence[Key]) -> List[List[RID]]:
        """:meth:`search` of each of *keys* under one latch acquisition."""
        with self._latch:
            return [self.search(key) for key in keys]

    def range_scan(
        self,
        low: Optional[Key] = None,
        high: Optional[Key] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[Tuple[Key, RID]]:
        raise NotImplementedError

    def _insert(self, key: Key, rid: RID) -> None:
        raise NotImplementedError

    def _delete(self, key: Key, rid: RID) -> None:
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError
