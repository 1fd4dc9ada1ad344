"""Tests for the LSM B+ tree: flush, antimatter, merge policies."""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adm import APoint, ARectangle
from repro.common.errors import DuplicateKeyError
from repro.storage import BufferCache
from repro.storage.lsm import (
    ConstantMergePolicy,
    LSMBTree,
    LSMRTree,
    NoMergePolicy,
    PrefixMergePolicy,
)


def write(lsm, i):
    """One entry keyed by ``i`` in either component kind."""
    if isinstance(lsm, LSMBTree):
        lsm.upsert((i,), b"v%d" % i)
    else:
        p = APoint(float(i), float(i))
        lsm.insert(ARectangle(p, p), (float(i), float(i), i))


@pytest.fixture
def lsm(fm, cache):
    return LSMBTree(fm, cache, "t", memory_budget_bytes=4096,
                    merge_policy=NoMergePolicy())


class TestWriteRead:
    def test_upsert_search(self, lsm):
        lsm.upsert((1,), b"one")
        assert lsm.search((1,)) == b"one"
        lsm.upsert((1,), b"uno")
        assert lsm.search((1,)) == b"uno"

    def test_insert_unique(self, lsm):
        lsm.insert_unique((1,), b"a")
        with pytest.raises(DuplicateKeyError):
            lsm.insert_unique((1,), b"b")

    def test_delete(self, lsm):
        lsm.upsert((1,), b"a")
        lsm.delete((1,))
        assert lsm.search((1,)) is None
        assert list(lsm.scan()) == []

    def test_delete_of_absent_key_is_noop_logically(self, lsm):
        lsm.delete((99,))
        assert lsm.search((99,)) is None

    def test_scan_ordered(self, lsm):
        for k in [5, 1, 3]:
            lsm.upsert((k,), str(k).encode())
        assert [k[0] for k, _ in lsm.scan()] == [1, 3, 5]

    def test_scan_range(self, lsm):
        for k in range(20):
            lsm.upsert((k,), b"")
        got = [k[0] for k, _ in lsm.scan((5,), (8,))]
        assert got == [5, 6, 7, 8]


class TestFlush:
    def test_explicit_flush_preserves_data(self, lsm):
        for k in range(50):
            lsm.upsert((k,), str(k).encode())
        lsm.flush()
        assert lsm.num_disk_components == 1
        assert len(lsm.memory) == 0
        assert lsm.search((25,)) == b"25"
        assert len(list(lsm.scan())) == 50

    def test_auto_flush_on_budget(self, fm, cache):
        lsm = LSMBTree(fm, cache, "t", memory_budget_bytes=2048,
                       merge_policy=NoMergePolicy())
        for k in range(500):
            lsm.upsert((k,), b"v" * 20)
        assert lsm.num_disk_components >= 2
        assert lsm.search((499,)) == b"v" * 20

    def test_flush_empty_is_noop(self, lsm):
        assert lsm.flush() is None

    def test_newest_component_wins(self, lsm):
        lsm.upsert((1,), b"old")
        lsm.flush()
        lsm.upsert((1,), b"new")
        lsm.flush()
        assert lsm.num_disk_components == 2
        assert lsm.search((1,)) == b"new"
        assert [v for _, v in lsm.scan()] == [b"new"]

    def test_antimatter_across_components(self, lsm):
        lsm.upsert((1,), b"a")
        lsm.upsert((2,), b"b")
        lsm.flush()
        lsm.delete((1,))
        lsm.flush()
        assert lsm.search((1,)) is None
        assert lsm.search((2,)) == b"b"
        assert [k[0] for k, _ in lsm.scan()] == [2]

    def test_reinsert_after_delete(self, lsm):
        lsm.upsert((1,), b"a")
        lsm.flush()
        lsm.delete((1,))
        lsm.flush()
        lsm.upsert((1,), b"back")
        assert lsm.search((1,)) == b"back"

    def test_component_lsn_recorded(self, lsm):
        lsm.upsert((1,), b"a", lsn=17)
        lsm.upsert((2,), b"b", lsn=23)
        comp = lsm.flush()
        assert comp.lsn == 23

    def test_bloom_skips_counted(self, lsm):
        for k in range(100):
            lsm.upsert((k,), b"x")
        lsm.flush()
        for k in range(200, 220):
            lsm.upsert((k,), b"y")
        lsm.flush()
        lsm.stats.bloom_skips = 0
        for k in range(100):
            lsm.search((k,))
        assert lsm.stats.bloom_skips > 50


class TestMerge:
    def test_full_merge_drops_antimatter(self, fm, cache):
        lsm = LSMBTree(fm, cache, "t", memory_budget_bytes=1 << 20,
                       merge_policy=NoMergePolicy())
        for k in range(10):
            lsm.upsert((k,), b"x")
        lsm.flush()
        for k in range(5):
            lsm.delete((k,))
        lsm.flush()
        merged = lsm.merge()
        assert lsm.num_disk_components == 1
        assert merged.num_entries == 5  # tombstones purged
        assert [k[0] for k, _ in lsm.scan()] == [5, 6, 7, 8, 9]

    def test_partial_merge_keeps_antimatter(self, fm, cache):
        lsm = LSMBTree(fm, cache, "t", memory_budget_bytes=1 << 20,
                       merge_policy=NoMergePolicy())
        lsm.upsert((1,), b"old")
        lsm.flush()                      # oldest component
        lsm.delete((1,))
        lsm.flush()
        lsm.upsert((2,), b"x")
        lsm.flush()
        lsm.merge(slice(0, 2))           # merge the two newest only
        assert lsm.num_disk_components == 2
        assert lsm.search((1,)) is None  # tombstone still effective

    def test_merged_files_deleted(self, fm, cache, tmp_path):
        lsm = LSMBTree(fm, cache, "t", memory_budget_bytes=1 << 20,
                       merge_policy=NoMergePolicy())
        for batch in range(3):
            for k in range(batch * 10, batch * 10 + 10):
                lsm.upsert((k,), b"x")
            lsm.flush()
        handles = [c.handle for c in lsm.components]
        lsm.merge()
        assert all(h.deleted for h in handles)

    def test_constant_policy_bounds_components(self, fm, cache):
        lsm = LSMBTree(fm, cache, "t", memory_budget_bytes=1024,
                       merge_policy=ConstantMergePolicy(3))
        for k in range(2000):
            lsm.upsert((k,), b"v" * 16)
        assert lsm.num_disk_components <= 3 + 1
        assert lsm.stats.merges > 0

    def test_prefix_policy_merges_small_runs(self, fm, cache):
        lsm = LSMBTree(
            fm, cache, "t", memory_budget_bytes=1024,
            merge_policy=PrefixMergePolicy(max_mergable_size=100_000,
                                           max_tolerance_count=3),
        )
        for k in range(3000):
            lsm.upsert((k,), b"v" * 16)
        assert lsm.stats.merges > 0
        assert lsm.num_disk_components <= 4
        # data integrity after all that churn
        assert lsm.search((1500,)) == b"v" * 16

    def test_component_id_spans(self, fm, cache):
        lsm = LSMBTree(fm, cache, "t", memory_budget_bytes=1 << 20,
                       merge_policy=NoMergePolicy())
        for batch in range(3):
            lsm.upsert((batch,), b"x")
            lsm.flush()
        lsm.merge()
        assert lsm.components[0].component_id == (0, 2)


class TestNoMergeAccumulates:
    def test_components_accumulate(self, fm, cache):
        lsm = LSMBTree(fm, cache, "t", memory_budget_bytes=512,
                       merge_policy=NoMergePolicy())
        for k in range(500):
            lsm.upsert((k,), b"v" * 16)
        assert lsm.num_disk_components > 3
        assert lsm.stats.merges == 0


class TestManifest:
    @pytest.mark.parametrize("cls", [LSMBTree, LSMRTree])
    def test_failed_save_keeps_the_previous_manifest(self, fm, cache,
                                                     monkeypatch, cls):
        """A manifest save that dies partway (process killed, disk full)
        must leave the last good manifest, so recovery still reopens
        every component it listed."""
        lsm = cls(fm, cache, "m", memory_budget_bytes=1 << 20,
                  merge_policy=NoMergePolicy())
        write(lsm, 1)
        lsm.flush()
        saved = [c.component_id for c in lsm.components]

        def torn_dump(obj, f, **kwargs):
            f.write('[{"file": "m_c')
            raise OSError("no space left on device")

        monkeypatch.setattr(json, "dump", torn_dump)
        write(lsm, 2)
        with pytest.raises(OSError):
            lsm.flush()
        monkeypatch.undo()

        again = cls.recover(fm, cache, "m", memory_budget_bytes=1 << 20,
                            merge_policy=NoMergePolicy())
        assert [c.component_id for c in again.components] == saved
        if cls is LSMBTree:
            assert again.search((1,)) == b"v1"
        else:
            box = ARectangle(APoint(0.0, 0.0), APoint(5.0, 5.0))
            assert list(again.search(box)) == [(1.0, 1.0, 1)]

    def test_held_flush_and_merge_are_saved_later(self, fm, cache):
        """What a held index (one an open transaction writes) flushes or
        merges away is not recoverable state until save_deferred, or —
        after an abort cleared ``held`` — until the next save."""
        lsm = LSMBTree(fm, cache, "h", memory_budget_bytes=1 << 20,
                       merge_policy=NoMergePolicy())
        lsm.upsert((1,), b"a", lsn=1)
        lsm.flush()

        def listed():
            with open(lsm._manifest_path()) as f:
                return [tuple(entry["id"]) for entry in json.load(f)]

        lsm.held = True
        lsm.upsert((2,), b"b", lsn=2)
        lsm.flush()
        merged_away = [c.handle for c in lsm.components]
        lsm.merge()
        assert listed() == [(0, 0)] and lsm.durable_lsn() == 1
        assert not any(h.deleted for h in merged_away)
        lsm.held = False
        lsm.save_deferred()
        assert listed() == [(0, 1)] and lsm.durable_lsn() == 2
        assert all(h.deleted for h in merged_away)
        lsm.save_deferred()   # nothing left to save: a no-op
        lsm.held = True       # an aborted op: held cleared, nothing saved
        lsm.upsert((3,), b"c", lsn=3)
        lsm.flush()
        lsm.held = False
        assert listed() == [(0, 1)]
        lsm.upsert((4,), b"d")   # a later non-transactional flush
        lsm.flush()
        assert listed() == [(3, 3), (2, 2), (0, 1)]

    @pytest.mark.parametrize("cls", [LSMBTree, LSMRTree])
    def test_crash_in_held_merge_leaves_no_orphans(self, tmp_path, cls):
        """A held flush and merge whose transaction never commits write
        files no manifest lists.  After a crash, recovery deletes exactly
        those: listed components, their sidecars and an index whose name
        merely extends this one's (``a_c1``) stay, and so does the data."""
        from repro.storage import FileManager, IODevice

        root = str(tmp_path / "dev")
        kwargs = dict(memory_budget_bytes=1 << 20,
                      merge_policy=NoMergePolicy())

        def open_fm():
            fm = FileManager([IODevice(0, root)], page_size=512)
            return fm, BufferCache(fm, num_pages=64)

        fm, cache = open_fm()
        neighbour = LSMBTree(fm, cache, "a_c1", **kwargs)
        neighbour.upsert((9,), b"n")
        neighbour.flush()
        lsm = cls(fm, cache, "a", **kwargs)
        for i in (1, 2):
            write(lsm, i)
            lsm.flush()
        lsm.held = True
        write(lsm, 3)
        lsm.flush()
        lsm.merge()                     # a_c0-2: in no manifest
        ext = lsm.ext
        assert f"a_c0-2.{ext}" in os.listdir(root)
        fm.close()                      # crash before the commit

        fm, cache = open_fm()
        again = cls.recover(fm, cache, "a", **kwargs)
        sidecar = "btree.bloom" if cls is LSMBTree else "deleted"
        assert sorted(os.listdir(root)) == sorted([
            "a.manifest", f"a_c0.{ext}", f"a_c0.{sidecar}",
            f"a_c1.{ext}", f"a_c1.{sidecar}",
            "a_c1.manifest", "a_c1_c0.btree", "a_c1_c0.btree.bloom"])
        if cls is LSMBTree:
            assert [k[0] for k, _ in again.scan()] == [1, 2]
        else:
            box = ARectangle(APoint(0.0, 0.0), APoint(5.0, 5.0))
            assert sorted(again.search(box)) == [(1.0, 1.0, 1),
                                                 (2.0, 2.0, 2)]
        assert LSMBTree.recover(fm, cache, "a_c1").search((9,)) == b"n"
        fm.close()


def merge_slice(num_components: int, draw: int) -> slice:
    """A newest-first slice of >= 2 adjacent components picked by
    ``draw``; one that stops short of the oldest keeps its tombstones."""
    start = draw % (num_components - 1)
    return slice(start, start + 2 + draw // 3 % (num_components - start - 1))


def assert_dropped(lsm, fm, root):
    """drop() leaves no open handle and no file named after the index
    (components, ``.bloom``/``.deleted`` companions, manifest)."""
    lsm.drop()
    assert fm.handles_under(lsm.name) == []
    assert [f for f in os.listdir(root) if f.startswith(lsm.name)] == []


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["put", "del", "flush", "merge",
                                   "reopen"]),
                  st.integers(0, 25)),
        max_size=60,
    )
)
@settings(max_examples=40, deadline=None)
def test_lsm_matches_dict_model(tmp_path_factory, ops):
    """Property: LSM upsert/delete/flush/merge/recover behaves like a
    dict, and drop() removes every file."""
    from repro.storage import FileManager, IODevice

    root = str(tmp_path_factory.mktemp("lprop"))
    fm = FileManager([IODevice(0, root)], page_size=512)
    cache = BufferCache(fm, num_pages=64)
    kwargs = dict(memory_budget_bytes=1 << 20,
                  merge_policy=ConstantMergePolicy(4))
    lsm = LSMBTree(fm, cache, "t", **kwargs)
    model = {}
    for op, k in ops:
        if op == "put":
            lsm.upsert((k,), str(k).encode())
            model[k] = str(k).encode()
        elif op == "del":
            lsm.delete((k,))
            model.pop(k, None)
        elif op == "flush":
            lsm.flush()
        elif op == "merge":
            if lsm.num_disk_components >= 2:
                lsm.merge(merge_slice(lsm.num_disk_components, k))
        else:                     # restart: reopen from the manifest
            lsm.flush()
            fm.close()
            fm = FileManager([IODevice(0, root)], page_size=512)
            cache = BufferCache(fm, num_pages=64)
            lsm = LSMBTree.recover(fm, cache, "t", **kwargs)
    assert [k[0] for k, _ in lsm.scan()] == sorted(model)
    for k in range(26):
        assert lsm.search((k,)) == model.get(k)
    assert_dropped(lsm, fm, root)
    fm.close()
