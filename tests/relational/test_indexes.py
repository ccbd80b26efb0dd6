"""Hash and B+-tree indexes, including model-based property tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IntegrityError
from repro.relational.indexes import BTreeIndex, HashIndex
from repro.relational.storage.heap import RID


def make_btree(order=4, unique=False):
    return BTreeIndex("i", "T", ["k"], [0], unique=unique, order=order)


def make_hash(unique=False):
    return HashIndex("i", "T", ["k"], [0], unique=unique)


class TestHashIndex:
    def test_insert_search(self):
        index = make_hash()
        index.insert_row((5, "x"), RID(0, 0))
        assert index.search((5,)) == [RID(0, 0)]
        assert index.search((6,)) == []

    def test_duplicates(self):
        index = make_hash()
        index.insert_row((5,), RID(0, 0))
        index.insert_row((5,), RID(0, 1))
        assert index.search((5,)) == [RID(0, 0), RID(0, 1)]
        assert len(index) == 2
        assert index.distinct_keys() == 1

    def test_delete(self):
        index = make_hash()
        index.insert_row((5,), RID(0, 0))
        index.delete_row((5,), RID(0, 0))
        assert index.search((5,)) == []
        assert len(index) == 0

    def test_null_keys_not_indexed(self):
        index = make_hash()
        index.insert_row((None,), RID(0, 0))
        assert len(index) == 0

    def test_unique_violation(self):
        index = make_hash(unique=True)
        index.insert_row((5,), RID(0, 0))
        with pytest.raises(IntegrityError):
            index.insert_row((5,), RID(0, 1))

    def test_update_row_moves_key(self):
        index = make_hash()
        index.insert_row((5,), RID(0, 0))
        index.update_row((5,), (6,), RID(0, 0))
        assert index.search((5,)) == []
        assert index.search((6,)) == [RID(0, 0)]

    def test_idempotent_insert(self):
        index = make_hash()
        index.insert_row((5,), RID(0, 0))
        index.insert_row((5,), RID(0, 0))
        assert len(index) == 1


class TestBTreeIndex:
    def test_insert_search(self):
        index = make_btree()
        for i in range(100):
            index.insert_row((i,), RID(0, i))
        for i in range(100):
            assert index.search((i,)) == [RID(0, i)]

    def test_reverse_insert_order(self):
        index = make_btree()
        for i in reversed(range(100)):
            index.insert_row((i,), RID(0, i))
        assert [k[0] for k, _ in index.range_scan()] == list(range(100))

    def test_range_scan_bounds(self):
        index = make_btree()
        for i in range(20):
            index.insert_row((i,), RID(0, i))
        keys = [k[0] for k, _ in index.range_scan((5,), (10,))]
        assert keys == [5, 6, 7, 8, 9, 10]
        keys = [k[0] for k, _ in index.range_scan((5,), (10,), False, False)]
        assert keys == [6, 7, 8, 9]
        keys = [k[0] for k, _ in index.range_scan(None, (3,))]
        assert keys == [0, 1, 2, 3]
        keys = [k[0] for k, _ in index.range_scan((17,), None)]
        assert keys == [17, 18, 19]

    def test_duplicates_in_range(self):
        index = make_btree()
        index.insert_row((5,), RID(0, 0))
        index.insert_row((5,), RID(0, 1))
        index.insert_row((6,), RID(0, 2))
        results = list(index.range_scan((5,), (5,)))
        assert len(results) == 2

    def test_delete_lazy(self):
        index = make_btree()
        for i in range(50):
            index.insert_row((i,), RID(0, i))
        for i in range(0, 50, 2):
            index.delete_row((i,), RID(0, i))
        assert len(index) == 25
        assert [k[0] for k, _ in index.range_scan()] == list(range(1, 50, 2))

    def test_string_keys(self):
        index = make_btree()
        words = ["pear", "apple", "fig", "banana"]
        for pos, word in enumerate(words):
            index.insert_row((word,), RID(0, pos))
        assert [k[0] for k, _ in index.range_scan()] == sorted(words)

    def test_mixed_int_float_ordering(self):
        index = make_btree()
        index.insert_row((2,), RID(0, 0))
        index.insert_row((1.5,), RID(0, 1))
        index.insert_row((3,), RID(0, 2))
        assert [k[0] for k, _ in index.range_scan()] == [1.5, 2, 3]

    def test_unique_violation(self):
        index = make_btree(unique=True)
        index.insert_row((5,), RID(0, 0))
        with pytest.raises(IntegrityError):
            index.insert_row((5,), RID(0, 1))

    def test_order_validation(self):
        with pytest.raises(ValueError):
            make_btree(order=2)

    def test_composite_keys(self):
        index = BTreeIndex("i", "T", ["a", "b"], [0, 1])
        index.insert_row((1, "x"), RID(0, 0))
        index.insert_row((1, "y"), RID(0, 1))
        assert index.search((1, "x")) == [RID(0, 0)]
        assert index.search((1, "z")) == []


class TestBTreePropertyBased:
    """Model-based testing against a plain dict of key -> set(RID)."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete"]),
                st.integers(min_value=-50, max_value=50),
                st.integers(min_value=0, max_value=5),
            ),
            max_size=200,
        )
    )
    def test_matches_model(self, operations):
        index = make_btree(order=4)
        model = {}
        for op, key, slot in operations:
            rid = RID(0, slot)
            if op == "insert":
                index.insert_row((key,), rid)
                model.setdefault(key, set()).add(rid)
            else:
                index.delete_row((key,), rid)
                if key in model:
                    model[key].discard(rid)
                    if not model[key]:
                        del model[key]
        # searches agree
        for key in range(-50, 51):
            assert index.search((key,)) == sorted(model.get(key, set()))
        # full scan sorted and complete
        scanned = [(k[0], rid) for k, rid in index.range_scan()]
        expected = [
            (key, rid) for key in sorted(model) for rid in sorted(model[key])
        ]
        assert scanned == expected
        assert len(index) == sum(len(s) for s in model.values())

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(-1000, 1000), unique=True, min_size=1, max_size=300),
        st.integers(-1000, 1000),
        st.integers(-1000, 1000),
    )
    def test_range_scan_matches_filter(self, keys, low, high):
        if low > high:
            low, high = high, low
        index = make_btree(order=8)
        for pos, key in enumerate(keys):
            index.insert_row((key,), RID(0, pos))
        scanned = [k[0] for k, _ in index.range_scan((low,), (high,))]
        assert scanned == sorted(k for k in keys if low <= k <= high)


class TestSearchMany:
    """``search_many`` answers exactly what ``search`` answers, key by key,
    in the order the keys were given."""

    def _agrees(self, index, keys):
        assert index.search_many(keys) == [index.search(key) for key in keys]

    def test_missing_keys_and_duplicate_rids(self):
        index = make_btree(order=4)
        for i in range(60):
            index.insert_row((i % 20,), RID(i // 10, i % 10))
        keys = [(k,) for k in (19, -1, 0, 7, 7, 100, 3, 20, 11)]
        found = index.search_many(keys)
        assert found[0] == [RID(1, 9), RID(3, 9), RID(5, 9)]
        assert found[1] == found[5] == found[7] == []
        assert found[3] == found[4]
        self._agrees(index, keys)
        assert index.search_many([]) == []

    def test_int_float_and_bool_keys_compare_equal(self):
        index = make_btree(order=4)
        for i in range(12):
            index.insert_row((i,), RID(0, i))
        keys = [(1.0,), (True,), (1,), (2.5,), (False,), (0,), (3,), (3.0,)]
        found = index.search_many(keys)
        assert found[0] == found[1] == found[2] == [RID(0, 1)]
        assert found[3] == []
        assert found[4] == found[5] == [RID(0, 0)]
        self._agrees(index, keys)

    def test_leaves_emptied_by_lazy_deletes(self):
        index = make_btree(order=4)
        for i in range(100):
            index.insert_row((i,), RID(0, i))
        # empty whole runs of leaves; the nodes stay in the chain
        for i in list(range(10, 60)) + list(range(70, 95)):
            index.delete_row((i,), RID(0, i))
        keys = [(k,) for k in (5, 10, 30, 59, 60, 65, 70, 94, 95, 99, 200)]
        assert [rids != [] for rids in index.search_many(keys)] == [
            True, False, False, False, True, True, False, False, True, True, False,
        ]
        self._agrees(index, keys)
        self._agrees(index, [(k,) for k in range(-5, 105)])

    def test_hash_index_loops_under_one_latch(self):
        index = make_hash()
        for i in range(30):
            index.insert_row((i % 10,), RID(0, i))
        keys = [(3,), (3.0,), (True,), (42,), (9,)]
        found = index.search_many(keys)
        assert found[0] == found[1] == [RID(0, 3), RID(0, 13), RID(0, 23)]
        assert found[3] == []
        self._agrees(index, keys)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "insert", "delete"]),
                st.integers(min_value=-40, max_value=40),
                st.integers(min_value=0, max_value=3),
            ),
            max_size=250,
        ),
        st.lists(st.integers(min_value=-45, max_value=45), max_size=40),
    )
    def test_matches_search_after_inserts_and_deletes(self, operations, probes):
        index = make_btree(order=4)
        for op, key, slot in operations:
            if op == "insert":
                index.insert_row((key,), RID(0, slot))
            else:
                index.delete_row((key,), RID(0, slot))
        self._agrees(index, [(key,) for key in probes])
