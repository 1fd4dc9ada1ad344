"""Tests for the page-based B+ tree."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adm import serialize
from repro.adm.serializer import serialize_tuple
from repro.common.errors import DuplicateKeyError, StorageError
from repro.storage import BTree, BufferCache, FileManager, IODevice
from repro.storage import btree as btree_module


def val(i):
    return serialize({"v": i})


class TestBasics:
    def test_empty_search(self, fm, cache):
        tree = BTree.create(cache, fm.create_file("t"))
        assert tree.search((1,)) is None
        assert list(tree.range_scan()) == []

    def test_insert_and_search(self, fm, cache):
        tree = BTree.create(cache, fm.create_file("t"))
        tree.insert((5,), b"five")
        tree.insert((3,), b"three")
        assert tree.search((5,)) == b"five"
        assert tree.search((3,)) == b"three"
        assert tree.search((4,)) is None
        assert tree.count == 2

    def test_unique_violation(self, fm, cache):
        tree = BTree.create(cache, fm.create_file("t"))
        tree.insert((1,), b"a", unique=True)
        with pytest.raises(DuplicateKeyError):
            tree.insert((1,), b"b", unique=True)

    def test_replace(self, fm, cache):
        tree = BTree.create(cache, fm.create_file("t"))
        tree.insert((1,), b"a")
        tree.insert((1,), b"b", replace=True)
        assert tree.search((1,)) == b"b"
        assert tree.count == 1

    def test_composite_keys(self, fm, cache):
        tree = BTree.create(cache, fm.create_file("t"))
        tree.insert(("alice", 2), b"a2")
        tree.insert(("alice", 1), b"a1")
        tree.insert(("bob", 1), b"b1")
        keys = [k for k, _ in tree.range_scan(lo=("alice",), hi=("alice", 99))]
        assert keys == [("alice", 1), ("alice", 2)]

    def test_string_and_mixed_keys(self, fm, cache):
        tree = BTree.create(cache, fm.create_file("t"))
        tree.insert(("zeta",), b"z")
        tree.insert((10,), b"i")
        tree.insert((2.5,), b"f")
        keys = [k[0] for k, _ in tree.range_scan()]
        assert keys == [2.5, 10, "zeta"]  # numerics before strings


class TestSplits:
    def test_many_inserts_force_splits(self, fm, cache):
        tree = BTree.create(cache, fm.create_file("t"))
        n = 2000
        order = list(range(n))
        random.Random(42).shuffle(order)
        for i in order:
            tree.insert((i,), val(i))
        assert tree.height > 1
        assert tree.count == n
        for i in random.Random(7).sample(range(n), 50):
            assert tree.search((i,)) == val(i)
        keys = [k[0] for k, _ in tree.range_scan()]
        assert keys == list(range(n))

    def test_descending_inserts(self, fm, cache):
        tree = BTree.create(cache, fm.create_file("t"))
        for i in reversed(range(500)):
            tree.insert((i,), b"x")
        assert [k[0] for k, _ in tree.range_scan()] == list(range(500))

    def test_large_values(self, fm, cache):
        tree = BTree.create(cache, fm.create_file("t"))
        big = b"x" * 1000
        for i in range(20):
            tree.insert((i,), big)
        assert tree.search((7,)) == big

    def test_oversized_value_rejected(self, fm, cache):
        tree = BTree.create(cache, fm.create_file("t"))
        with pytest.raises(StorageError):
            tree.insert((1,), b"x" * 5000)


class TestRangeScan:
    @pytest.fixture
    def tree(self, fm, cache):
        t = BTree.create(cache, fm.create_file("t"))
        for i in range(0, 100, 2):  # evens 0..98
            t.insert((i,), val(i))
        return t

    def test_full_scan(self, tree):
        assert len(list(tree.range_scan())) == 50

    def test_bounded_inclusive(self, tree):
        keys = [k[0] for k, _ in tree.range_scan(lo=(10,), hi=(20,))]
        assert keys == [10, 12, 14, 16, 18, 20]

    def test_bounded_exclusive(self, tree):
        keys = [k[0] for k, _ in tree.range_scan(
            lo=(10,), hi=(20,), lo_inclusive=False, hi_inclusive=False)]
        assert keys == [12, 14, 16, 18]

    def test_bounds_between_keys(self, tree):
        keys = [k[0] for k, _ in tree.range_scan(lo=(9,), hi=(15,))]
        assert keys == [10, 12, 14]

    def test_open_ended_high(self, tree):
        keys = [k[0] for k, _ in tree.range_scan(lo=(94,))]
        assert keys == [94, 96, 98]

    def test_open_ended_low(self, tree):
        keys = [k[0] for k, _ in tree.range_scan(hi=(4,))]
        assert keys == [0, 2, 4]

    def test_empty_range(self, tree):
        assert list(tree.range_scan(lo=(51,), hi=(51,))) == []


class TestBulkLoad:
    def test_bulk_load_and_search(self, fm, cache):
        pairs = [((i,), val(i)) for i in range(5000)]
        tree = BTree.bulk_load(cache, fm.create_file("t"), pairs)
        assert tree.count == 5000
        assert tree.height >= 2
        for i in (0, 1, 2499, 4999):
            assert tree.search((i,)) == val(i)
        assert [k[0] for k, _ in tree.range_scan(lo=(100,), hi=(105,))] == \
            [100, 101, 102, 103, 104, 105]

    def test_bulk_load_empty(self, fm, cache):
        tree = BTree.bulk_load(cache, fm.create_file("t"), [])
        assert tree.count == 0
        assert tree.search((1,)) is None

    def test_bulk_load_rejects_unsorted(self, fm, cache):
        with pytest.raises(StorageError, match="sorted"):
            BTree.bulk_load(cache, fm.create_file("t"),
                            [((2,), b"b"), ((1,), b"a")])

    def test_bulk_load_cheaper_than_inserts(self, fm, device):
        """The Graefe lesson's load half (E2): loading sorted data writes
        far fewer pages than one-at-a-time inserts."""
        from repro.storage import BufferCache, FileManager

        pairs = [((i,), val(i)) for i in range(3000)]

        fm_bulk = fm
        cache = BufferCache(fm_bulk, num_pages=16)
        before = device.stats.snapshot()
        BTree.bulk_load(cache, fm_bulk.create_file("bulk"), pairs)
        bulk_writes = device.stats.diff(before).total_writes

        shuffled = list(pairs)
        random.Random(3).shuffle(shuffled)
        cache2 = BufferCache(fm_bulk, num_pages=16)
        tree = BTree.create(cache2, fm_bulk.create_file("onebyone"))
        before = device.stats.snapshot()
        for k, v in shuffled:
            tree.insert(k, v)
        cache2.flush_all()
        after = device.stats.diff(before)
        insert_io = after.total_writes + after.total_reads

        assert bulk_writes * 2 < insert_io

    def test_bulk_load_serializes_each_key_a_bounded_number_of_times(
            self, fm, cache, monkeypatch):
        """Deciding whether a page is full costs O(1): loading N keys
        serializes each key a constant number of times (sizing it, encoding
        its page, and for a leaf's first key its separator), not once per
        entry already on its page."""
        calls = 0

        def counting(key):
            nonlocal calls
            calls += 1
            return serialize_tuple(key)

        monkeypatch.setattr(btree_module, "serialize_tuple", counting)
        n = 5000
        BTree.bulk_load(cache, fm.create_file("t"),
                        [((i, "k" * 8), b"v" * 8) for i in range(n)])
        assert calls <= 4 * n

    def test_reopen(self, fm, cache):
        handle = fm.create_file("t")
        pairs = [((i,), val(i)) for i in range(100)]
        BTree.bulk_load(cache, handle, pairs)
        cache.evict_file(handle)
        reopened = BTree.open(cache, handle)
        assert reopened.count == 100
        assert reopened.search((42,)) == val(42)


class TestSmallCachePressure:
    def test_works_with_tiny_cache(self, fm, small_cache):
        tree = BTree.create(small_cache, fm.create_file("t"))
        for i in range(800):
            tree.insert((i,), val(i))
        assert tree.search((777,)) == val(777)
        assert len(list(tree.range_scan())) == 800


SMALL_PAGE = 256


def small_page_stack(root):
    """A storage stack with small pages (many splits) and a cache that
    holds every page of these tests."""
    fm = FileManager([IODevice(0, str(root))], page_size=SMALL_PAGE)
    return fm, BufferCache(fm, num_pages=512)


def entry_bytes(key, value):
    """Independent of the tree: one leaf entry's encoded size."""
    return 4 + len(serialize_tuple(key)) + len(value)


def leaves(tree):
    """The tree's leaves, left to right along the sibling chain."""
    node = tree._read_node(tree.root_page)
    while isinstance(node, btree_module._Interior):
        node = tree._read_node(node.children[0])
    yield node
    while node.next_leaf != btree_module._NO_PAGE:
        node = tree._read_node(node.next_leaf)
        yield node


@given(
    sizes=st.lists(st.tuples(st.integers(0, 60), st.integers(0, 150)),
                   max_size=120),
    fill_factor=st.sampled_from([1.0, 0.75]),
)
@settings(max_examples=60, deadline=None)
def test_bulk_load_packs_every_leaf_full(tmp_path_factory, sizes,
                                         fill_factor):
    """Same greedy layout as a page-by-page fill: every leaf but the last
    holds all it can, and the next leaf's first entry would not fit.  (A
    leaf always takes its first entry, even one larger than the fill
    limit.)"""
    fm, cache = small_page_stack(tmp_path_factory.mktemp("fill"))
    pairs = [((i, "k" * klen), b"v" * vlen)
             for i, (klen, vlen) in enumerate(sizes)]
    tree = BTree.bulk_load(cache, fm.create_file("t"), pairs, fill_factor)
    limit = int(SMALL_PAGE * fill_factor)
    loaded = list(leaves(tree))
    assert [k for leaf in loaded for k in leaf.keys] == [k for k, _ in pairs]
    for leaf, following in zip(loaded, loaded[1:]):
        used = 7 + sum(map(entry_bytes, leaf.keys, leaf.values))
        assert used <= limit or len(leaf.keys) == 1
        assert used + entry_bytes(following.keys[0],
                                  following.values[0]) > limit
    fm.close()


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["insert", "replace"]),
                  st.integers(0, 200), st.integers(0, 40),
                  st.integers(0, 30)),
        min_size=60, max_size=150,       # enough to split interior nodes
    )
)
@settings(max_examples=30, deadline=None)
def test_node_byte_counts_match_encode(tmp_path_factory, ops):
    """After every insert, in-place replace and split, each cached node's
    running ``nbytes`` is exactly the length ``encode`` fills: the node
    encodes into ``nbytes`` bytes and overflows ``nbytes - 1``."""
    fm, cache = small_page_stack(tmp_path_factory.mktemp("nbytes"))
    handle = fm.create_file("t")
    tree = BTree.create(cache, handle)
    present = []
    for op, k, klen, vlen in ops:
        if op == "replace" and present:
            key = present[k % len(present)]
        else:
            key = (k, "s" * klen)
        if key in present:
            # grow in place only as far as the page has room (a replace
            # never splits); the room is counted independently of nbytes
            _, leaf = tree._find_leaf(key)
            room = SMALL_PAGE - 7 - sum(map(entry_bytes, leaf.keys,
                                            leaf.values))
            vlen = min(vlen, len(tree.search(key)) + room)
        else:
            present.append(key)
        tree.insert(key, b"v" * vlen, replace=True)
        for page in cache._pages.values():
            node = page.parsed
            if page.key[0] != handle.file_id or node is None:
                continue
            node.encode(node.nbytes)
            with pytest.raises(StorageError, match="overflow"):
                node.encode(node.nbytes - 1)
    assert [k for k, _ in tree.range_scan()] == sorted(present)
    fm.close()


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "search"]),
            st.integers(0, 50),
        ),
        max_size=60,
    )
)
@settings(max_examples=40, deadline=None)
def test_btree_matches_dict_model(tmp_path_factory, ops):
    """Property: a B+ tree behaves like a dict (modulo ordering)."""
    from repro.storage import FileManager, IODevice

    root = tmp_path_factory.mktemp("prop")
    fm = FileManager([IODevice(0, str(root))], page_size=512)
    cache = BufferCache(fm, num_pages=32)
    tree = BTree.create(cache, fm.create_file("t"))
    model = {}
    for op, k in ops:
        if op == "insert":
            tree.insert((k,), val(k), replace=True)
            model[k] = val(k)
        else:
            expect = model.get(k)
            assert tree.search((k,)) == expect
    assert [k[0] for k, _ in tree.range_scan()] == sorted(model)
    fm.close()
