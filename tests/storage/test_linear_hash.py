"""Tests for Linear Hashing (the §V-C/E2 structure)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import DuplicateKeyError
from repro.storage import BufferCache
from zoo.linear_hash import LinearHashIndex


class TestBasics:
    def test_insert_search(self, fm, cache):
        idx = LinearHashIndex.create(cache, fm.create_file("h"))
        idx.insert((1,), b"one")
        idx.insert(("two",), b"2")
        assert idx.search((1,)) == b"one"
        assert idx.search(("two",)) == b"2"
        assert idx.search((3,)) is None

    def test_duplicate_rejected(self, fm, cache):
        idx = LinearHashIndex.create(cache, fm.create_file("h"))
        idx.insert((1,), b"a")
        with pytest.raises(DuplicateKeyError):
            idx.insert((1,), b"b")

    def test_items_complete(self, fm, cache):
        idx = LinearHashIndex.create(cache, fm.create_file("h"))
        for i in range(100):
            idx.insert((i,), bytes([i % 256]))
        assert len(list(idx.items())) == 100


class TestSplitting:
    def test_buckets_grow_with_data(self, fm, cache):
        idx = LinearHashIndex.create(cache, fm.create_file("h"),
                                     initial_buckets=4)
        for i in range(5000):
            idx.insert((i,), b"v" * 20)
        assert idx.num_buckets > 4
        assert idx.level >= 1

    def test_all_keys_findable_after_splits(self, fm, cache):
        idx = LinearHashIndex.create(cache, fm.create_file("h"))
        n = 3000
        for i in range(n):
            idx.insert((i,), str(i).encode())
        for i in range(0, n, 37):
            assert idx.search((i,)) == str(i).encode()

    def test_lookup_io_stays_flat(self, fm, device):
        """O(1) expected lookups: page reads per probe don't grow with N."""
        cache = BufferCache(fm, num_pages=4)  # effectively no caching
        idx = LinearHashIndex.create(cache, fm.create_file("h"))

        def probe_cost(n_probes, n):
            before = device.stats.snapshot()
            for i in range(0, n, max(1, n // n_probes)):
                idx.search((i,))
            reads = device.stats.diff(before).total_reads
            return reads / n_probes

        for i in range(500):
            idx.insert((i,), b"v" * 16)
        small_cost = probe_cost(50, 500)
        for i in range(500, 5000):
            idx.insert((i,), b"v" * 16)
        big_cost = probe_cost(50, 5000)
        assert big_cost <= small_cost * 2 + 1


@given(
    keys=st.lists(st.integers(0, 500), unique=True, min_size=1, max_size=80)
)
@settings(max_examples=30, deadline=None)
def test_hash_matches_dict_model(tmp_path_factory, keys):
    from repro.storage import FileManager, IODevice

    root = tmp_path_factory.mktemp("hprop")
    fm = FileManager([IODevice(0, str(root))], page_size=512)
    cache = BufferCache(fm, num_pages=32)
    idx = LinearHashIndex.create(cache, fm.create_file("h"),
                                 initial_buckets=2)
    model = {}
    for k in keys:
        idx.insert((k,), str(k).encode())
        model[k] = str(k).encode()
    for k in model:
        assert idx.search((k,)) == model[k]
    assert idx.search((501,)) is None
    assert len(list(idx.items())) == len(model)
    fm.close()
