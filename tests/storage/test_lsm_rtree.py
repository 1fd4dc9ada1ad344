"""Tests for the LSM R-tree and its deleted-key design (§V-B)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adm import APoint, ARectangle
from repro.storage import BufferCache
from repro.storage.lsm import LSMRTree, NoMergePolicy, ConstantMergePolicy
from tests.storage.test_lsm_btree import assert_dropped, merge_slice


def pt(x, y):
    p = APoint(x, y)
    return ARectangle(p, p)


def window(x0, y0, x1, y1):
    return ARectangle(APoint(x0, y0), APoint(x1, y1))


@pytest.fixture
def lsm(fm, cache):
    return LSMRTree(fm, cache, "r", memory_budget_bytes=1 << 20,
                    merge_policy=NoMergePolicy())


class TestBasics:
    def test_insert_search(self, lsm):
        lsm.insert(pt(1, 1), (1.0, 1.0, 10))
        lsm.insert(pt(9, 9), (9.0, 9.0, 20))
        got = list(lsm.search(window(0, 0, 5, 5)))
        assert got == [(1.0, 1.0, 10)]

    def test_delete_in_memory(self, lsm):
        lsm.insert(pt(1, 1), (1.0, 1.0, 10))
        lsm.delete((1.0, 1.0, 10))
        assert list(lsm.search(window(0, 0, 5, 5))) == []

    def test_reinsert_after_delete(self, lsm):
        key = (1.0, 1.0, 10)
        lsm.insert(pt(1, 1), key)
        lsm.delete(key)
        lsm.insert(pt(1, 1), key)
        assert list(lsm.search(window(0, 0, 5, 5))) == [key]

    def test_len(self, lsm):
        for i in range(10):
            lsm.insert(pt(i, i), (float(i), float(i), i))
        lsm.delete((3.0, 3.0, 3))
        assert len(lsm) == 9
        assert lsm.stats.searches == 0   # a count is not a query


class TestFlushAndDeletedKeys:
    def test_flush_preserves_entries(self, lsm):
        for i in range(100):
            lsm.insert(pt(i % 10, i // 10), (float(i % 10), float(i // 10), i))
        lsm.flush()
        assert lsm.num_disk_components == 1
        assert len(list(lsm.search(window(0, 0, 9, 9)))) == 100

    def test_delete_across_components(self, lsm):
        key = (2.0, 2.0, 7)
        lsm.insert(pt(2, 2), key)
        lsm.flush()
        lsm.delete(key)           # tombstone in memory kills disk entry
        assert list(lsm.search(window(0, 0, 5, 5))) == []
        lsm.flush()               # tombstone now in deleted-key B+ tree
        assert list(lsm.search(window(0, 0, 5, 5))) == []

    def test_delete_then_reinsert_across_flushes(self, lsm):
        key = (2.0, 2.0, 7)
        lsm.insert(pt(2, 2), key)
        lsm.flush()
        lsm.delete(key)
        lsm.flush()
        lsm.insert(pt(2, 2), key)
        lsm.flush()
        assert list(lsm.search(window(0, 0, 5, 5))) == [key]

    def test_auto_flush_on_budget(self, fm, cache):
        lsm = LSMRTree(fm, cache, "r", memory_budget_bytes=4096,
                       merge_policy=NoMergePolicy())
        for i in range(300):
            lsm.insert(pt(i % 20, i % 17), (float(i % 20), float(i % 17), i))
        assert lsm.num_disk_components >= 1


class TestMerge:
    def test_full_merge_purges_tombstones(self, lsm):
        keys = [(float(i), float(i), i) for i in range(10)]
        for i, key in enumerate(keys):
            lsm.insert(pt(i, i), key)
        lsm.flush()
        for key in keys[:5]:
            lsm.delete(key)
        lsm.flush()
        merged = lsm.merge()
        assert lsm.num_disk_components == 1
        assert merged.num_entries == 5
        assert merged.deleted_keys.count == 0
        assert sorted(k[2] for k in lsm.search(window(0, 0, 20, 20))) == \
            [5, 6, 7, 8, 9]

    def test_partial_merge_keeps_tombstones(self, lsm):
        key = (1.0, 1.0, 1)
        lsm.insert(pt(1, 1), key)
        lsm.flush()                    # oldest, holds the matter
        lsm.delete(key)
        lsm.flush()
        lsm.insert(pt(5, 5), (5.0, 5.0, 5))
        lsm.flush()
        lsm.merge(slice(0, 2))
        assert lsm.num_disk_components == 2
        assert list(lsm.search(window(0, 0, 2, 2))) == []

    def test_merge_policy_runs(self, fm, cache):
        lsm = LSMRTree(fm, cache, "r", memory_budget_bytes=2048,
                       merge_policy=ConstantMergePolicy(2))
        for i in range(400):
            lsm.insert(pt(i % 20, i % 19), (float(i % 20), float(i % 19), i))
        assert lsm.stats.merges > 0
        assert lsm.num_disk_components <= 3


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["ins", "del", "flush", "merge", "reopen"]),
            st.integers(0, 9), st.integers(0, 9),
        ),
        max_size=50,
    )
)
@settings(max_examples=40, deadline=None)
def test_lsm_rtree_matches_set_model(tmp_path_factory, ops):
    from repro.storage import FileManager, IODevice

    root = str(tmp_path_factory.mktemp("rprop"))
    fm = FileManager([IODevice(0, root)], page_size=1024)
    cache = BufferCache(fm, num_pages=64)
    kwargs = dict(memory_budget_bytes=1 << 20,
                  merge_policy=ConstantMergePolicy(4))
    lsm = LSMRTree(fm, cache, "r", **kwargs)
    model = set()
    for op, x, y in ops:
        key = (float(x), float(y), x * 10 + y)
        if op == "ins":
            lsm.insert(pt(x, y), key)
            model.add(key)
        elif op == "del":
            lsm.delete(key)
            model.discard(key)
        elif op == "flush":
            lsm.flush()
        elif op == "merge":
            if lsm.num_disk_components >= 2:
                lsm.merge(merge_slice(lsm.num_disk_components, x * 10 + y))
        else:                     # restart: reopen from the manifest
            lsm.flush()
            fm.close()
            fm = FileManager([IODevice(0, root)], page_size=1024)
            cache = BufferCache(fm, num_pages=64)
            lsm = LSMRTree.recover(fm, cache, "r", **kwargs)
    got = set(lsm.search(window(0, 0, 9, 9)))
    assert got == model
    assert len(lsm) == len(model)
    assert_dropped(lsm, fm, root)
    fm.close()
