"""B+-tree index with leaf chaining for range scans.

Design notes
------------
* Keys are normalised component-wise with :func:`repro.relational.types.sort_key`
  so ints/floats/bools interoperate and ordering is total within a column's
  domain.
* Duplicates are stored as a set of RIDs per key.
* Deletion is *lazy* (keys are removed from leaves, but nodes are not merged
  or rebalanced) — the same policy PostgreSQL's nbtree uses: lookups stay
  correct and structure is reclaimed on bulk rebuild.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Set, Tuple

import bisect

from repro.relational.indexes.base import Index, Key
from repro.relational.storage.heap import RID
from repro.relational.types import sort_key

#: Maximum number of keys per node before a split.
DEFAULT_ORDER = 64

NormKey = Tuple[Any, ...]


def _normalise(key: Key) -> NormKey:
    return tuple(map(sort_key, key))


class _Leaf:
    __slots__ = ("keys", "values", "next")

    def __init__(self):
        self.keys: List[NormKey] = []
        # parallel to keys: (original_key, set of RIDs)
        self.values: List[Tuple[Key, Set[RID]]] = []
        self.next: Optional["_Leaf"] = None


class _Internal:
    __slots__ = ("keys", "children")

    def __init__(self):
        self.keys: List[NormKey] = []
        self.children: List[Any] = []  # _Leaf or _Internal


class BTreeIndex(Index):
    """Order-``DEFAULT_ORDER`` B+-tree supporting equality and range scans."""

    supports_range = True

    def __init__(self, *args, order: int = DEFAULT_ORDER, **kwargs):
        super().__init__(*args, **kwargs)
        if order < 4:
            raise ValueError("B+-tree order must be at least 4")
        self.order = order
        self._root: Any = _Leaf()
        self._size = 0

    # -- lookup ----------------------------------------------------------------

    def search(self, key: Key) -> List[RID]:
        with self._latch:
            norm = _normalise(key)
            leaf = self._find_leaf(norm)
            pos = bisect.bisect_left(leaf.keys, norm)
            if pos < len(leaf.keys) and leaf.keys[pos] == norm:
                return sorted(leaf.values[pos][1])
            return []

    def search_many(self, keys: Sequence[Key]) -> List[List[RID]]:
        """:meth:`search` of each of *keys*, in one pass over the leaves.

        The keys are visited in normalised order: one descent finds the
        first, and each later key walks on along the leaf chain.  Leaf keys
        are globally sorted along the chain, so a key is in the first leaf
        whose largest key is not below it; leaves emptied by lazy deletes
        are stepped over.  A key beyond the next leaf re-descends instead,
        so sparse keys cost a descent each, never a walk over the leaves
        between them.
        """
        found: List[List[RID]] = [[] for _ in keys]
        if not keys:
            return found
        norms = [_normalise(key) for key in keys]
        order = sorted(range(len(norms)), key=norms.__getitem__)
        with self._latch:
            leaf = self._find_leaf(norms[order[0]])
            for i in order:
                norm = norms[i]
                while not leaf.keys or leaf.keys[-1] < norm:
                    after = leaf.next
                    if after is None:
                        break
                    if after.keys and after.keys[-1] < norm:
                        leaf = self._find_leaf(norm)
                        break
                    leaf = after
                pos = bisect.bisect_left(leaf.keys, norm)
                if pos < len(leaf.keys) and leaf.keys[pos] == norm:
                    found[i] = sorted(leaf.values[pos][1])
        return found

    def range_scan(
        self,
        low: Optional[Key] = None,
        high: Optional[Key] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[Tuple[Key, RID]]:
        """(original_key, rid) pairs in key order within [low, high].

        Materialised under the index latch: lazily walking the live leaf
        chain would let a concurrent split double-yield or skip keys.
        """
        with self._latch:
            return iter(
                list(self._iter_range(low, high, low_inclusive, high_inclusive))
            )

    def _iter_range(
        self,
        low: Optional[Key],
        high: Optional[Key],
        low_inclusive: bool,
        high_inclusive: bool,
    ) -> Iterator[Tuple[Key, RID]]:
        norm_high = _normalise(high) if high is not None else None
        if low is not None:
            norm_low = _normalise(low)
            leaf = self._find_leaf(norm_low)
            pos = bisect.bisect_left(leaf.keys, norm_low)
            if not low_inclusive:
                while pos < len(leaf.keys) and leaf.keys[pos] == norm_low:
                    pos += 1
        else:
            leaf = self._leftmost_leaf()
            pos = 0
        while leaf is not None:
            while pos < len(leaf.keys):
                norm = leaf.keys[pos]
                if norm_high is not None:
                    if high_inclusive and norm > norm_high:
                        return
                    if not high_inclusive and norm >= norm_high:
                        return
                original_key, rids = leaf.values[pos]
                for rid in sorted(rids):
                    yield original_key, rid
                pos += 1
            leaf = leaf.next
            pos = 0

    # -- maintenance -------------------------------------------------------------

    def _insert(self, key: Key, rid: RID) -> None:
        norm = _normalise(key)
        split = self._insert_into(self._root, norm, key, rid)
        if split is not None:
            separator, right = split
            new_root = _Internal()
            new_root.keys = [separator]
            new_root.children = [self._root, right]
            self._root = new_root

    def _delete(self, key: Key, rid: RID) -> None:
        norm = _normalise(key)
        leaf = self._find_leaf(norm)
        pos = bisect.bisect_left(leaf.keys, norm)
        if pos < len(leaf.keys) and leaf.keys[pos] == norm:
            _, rids = leaf.values[pos]
            if rid in rids:
                rids.discard(rid)
                self._size -= 1
                if not rids:
                    leaf.keys.pop(pos)
                    leaf.values.pop(pos)

    def clear(self) -> None:
        with self._latch:
            self._root = _Leaf()
            self._size = 0

    def __len__(self) -> int:
        return self._size

    def distinct_keys(self) -> int:
        with self._latch:
            count = 0
            leaf = self._leftmost_leaf()
            while leaf is not None:
                count += len(leaf.keys)
                leaf = leaf.next
            return count

    # -- internals ------------------------------------------------------------

    def _find_leaf(self, norm: NormKey) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            pos = bisect.bisect_right(node.keys, norm)
            node = node.children[pos]
        return node

    def _leftmost_leaf(self) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
        return node

    def _insert_into(
        self, node: Any, norm: NormKey, key: Key, rid: RID
    ) -> Optional[Tuple[NormKey, Any]]:
        """Insert and return (separator, new_right_node) if *node* split."""
        if isinstance(node, _Leaf):
            pos = bisect.bisect_left(node.keys, norm)
            if pos < len(node.keys) and node.keys[pos] == norm:
                rids = node.values[pos][1]
                if rid not in rids:
                    rids.add(rid)
                    self._size += 1
                return None
            node.keys.insert(pos, norm)
            node.values.insert(pos, (key, {rid}))
            self._size += 1
            if len(node.keys) > self.order:
                return self._split_leaf(node)
            return None
        pos = bisect.bisect_right(node.keys, norm)
        split = self._insert_into(node.children[pos], norm, key, rid)
        if split is None:
            return None
        separator, right = split
        node.keys.insert(pos, separator)
        node.children.insert(pos + 1, right)
        if len(node.keys) > self.order:
            return self._split_internal(node)
        return None

    def _split_leaf(self, leaf: _Leaf) -> Tuple[NormKey, _Leaf]:
        mid = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[mid:]
        right.values = leaf.values[mid:]
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        right.next = leaf.next
        leaf.next = right
        return right.keys[0], right

    def _split_internal(self, node: _Internal) -> Tuple[NormKey, _Internal]:
        mid = len(node.keys) // 2
        separator = node.keys[mid]
        right = _Internal()
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        return separator, right
