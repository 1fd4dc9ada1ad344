"""Tests for PartitionStorage: primary + secondary maintenance."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adm import ADateTime, APoint, ARectangle
from repro.common.errors import (
    DuplicateKeyError,
    InvalidArgumentError,
    MetadataError,
)
from repro.storage import BufferCache, FileManager, IODevice
from repro.storage.dataset_storage import (
    PartitionStorage,
    SecondaryIndexSpec,
    field_value,
)


def user(i, alias=None, since=0, loc=None):
    rec = {
        "id": i,
        "alias": alias or f"user{i}",
        "userSince": ADateTime(since),
        "message": f"hello from user {i}",
    }
    if loc is not None:
        rec["senderLocation"] = APoint(*loc)
    return rec


@pytest.fixture
def part(fm, cache):
    return PartitionStorage(fm, cache, "GleambookUsers", 0, ("id",),
                            memory_budget_bytes=1 << 20)


class TestFieldValue:
    def test_simple(self):
        assert field_value({"a": 1}, "a") == 1

    def test_dotted(self):
        assert field_value({"a": {"b": 2}}, "a.b") == 2

    def test_missing(self):
        from repro.adm import MISSING

        assert field_value({"a": 1}, "b") is MISSING
        assert field_value({"a": 1}, "a.b") is MISSING


class TestPrimary:
    def test_insert_get(self, part):
        part.insert(user(1))
        assert part.get((1,))["alias"] == "user1"
        assert part.get((2,)) is None

    def test_scan_and_get_build_only_the_named_fields(self, part):
        for i in range(6):
            part.insert(user(i, loc=(i, i) if i % 2 else None))
        full = dict(part.scan())
        wanted = frozenset({"alias", "senderLocation", "nope"})
        assert dict(part.scan(fields=wanted)) == {
            pk: {k: r[k] for k in wanted if k in r}
            for pk, r in full.items()}
        assert dict(part.scan((2,), (3,), fields=frozenset())) == {
            (2,): {}, (3,): {}}
        assert part.get((3,), fields=frozenset({"id"})) == {"id": 3}
        assert part.get((9,), fields=frozenset({"id"})) is None

    def test_insert_duplicate(self, part):
        part.insert(user(1))
        with pytest.raises(DuplicateKeyError):
            part.insert(user(1))

    def test_upsert_replaces(self, part):
        part.insert(user(1, alias="old"))
        old = part.upsert(user(1, alias="new"))
        assert old["alias"] == "old"
        assert part.get((1,))["alias"] == "new"

    def test_upsert_fresh_returns_none(self, part):
        assert part.upsert(user(5)) is None

    def test_delete(self, part):
        part.insert(user(1))
        deleted = part.delete((1,))
        assert deleted["id"] == 1
        assert part.get((1,)) is None
        assert part.delete((1,)) is None

    def test_pk_required(self, part):
        with pytest.raises(InvalidArgumentError, match="primary key"):
            part.insert({"alias": "nokey"})

    def test_scan_ordered_by_pk(self, part):
        for i in [5, 1, 3]:
            part.insert(user(i))
        assert [pk[0] for pk, _ in part.scan()] == [1, 3, 5]

    def test_count(self, part):
        for i in range(7):
            part.insert(user(i))
        part.delete((3,))
        assert part.count() == 6

    def test_composite_pk(self, fm, cache):
        ps = PartitionStorage(fm, cache, "ds", 0, ("org", "id"))
        ps.insert({"org": "uci", "id": 1, "x": "a"})
        ps.insert({"org": "uci", "id": 2, "x": "b"})
        assert ps.get(("uci", 2))["x"] == "b"


class TestBTreeSecondary:
    def test_create_and_search(self, part):
        part.create_secondary(SecondaryIndexSpec("byAlias", "btree",
                                                 ("alias",)))
        part.insert(user(1, alias="bob"))
        part.insert(user(2, alias="alice"))
        got = list(part.search_btree("byAlias", ("alice",), ("alice",)))
        assert got == [(2,)]

    def test_build_from_existing_data(self, part):
        for i in range(10):
            part.insert(user(i, since=i * 1000))
        part.create_secondary(SecondaryIndexSpec("bySince", "btree",
                                                 ("userSince",)))
        got = list(part.search_btree(
            "bySince", (ADateTime(3000),), (ADateTime(5000),)))
        assert sorted(got) == [(3,), (4,), (5,)]

    def test_maintained_on_upsert(self, part):
        part.create_secondary(SecondaryIndexSpec("byAlias", "btree",
                                                 ("alias",)))
        part.insert(user(1, alias="old"))
        part.upsert(user(1, alias="new"))
        assert list(part.search_btree("byAlias", ("old",), ("old",))) == []
        assert list(part.search_btree("byAlias", ("new",), ("new",))) == [(1,)]

    def test_maintained_on_delete(self, part):
        part.create_secondary(SecondaryIndexSpec("byAlias", "btree",
                                                 ("alias",)))
        part.insert(user(1, alias="gone"))
        part.delete((1,))
        assert list(part.search_btree("byAlias", ("gone",), ("gone",))) == []

    def test_null_missing_not_indexed(self, part):
        part.create_secondary(SecondaryIndexSpec("byNick", "btree",
                                                 ("nickname",)))
        part.insert(user(1))  # no nickname
        rec = user(2)
        rec["nickname"] = None
        part.insert(rec)
        rec3 = user(3)
        rec3["nickname"] = "frump"
        part.insert(rec3)
        assert list(part.search_btree("byNick")) == [(3,)]

    def test_range_scan_secondary(self, part):
        part.create_secondary(SecondaryIndexSpec("byAlias", "btree",
                                                 ("alias",)))
        for i, a in enumerate(["ann", "bob", "cat", "dan"]):
            part.insert(user(i, alias=a))
        got = list(part.search_btree("byAlias", ("b",), ("d",)))
        assert sorted(got) == [(1,), (2,)]

    def test_duplicate_index_name(self, part):
        spec = SecondaryIndexSpec("i", "btree", ("alias",))
        part.create_secondary(spec)
        with pytest.raises(MetadataError):
            part.create_secondary(spec)

    def test_drop_secondary(self, part):
        part.create_secondary(SecondaryIndexSpec("i", "btree", ("alias",)))
        part.drop_secondary("i")
        with pytest.raises(MetadataError):
            list(part.search_btree("i"))


class TestRTreeSecondary:
    def test_window_search(self, part):
        part.create_secondary(SecondaryIndexSpec("byLoc", "rtree",
                                                 ("senderLocation",)))
        part.insert(user(1, loc=(1.0, 1.0)))
        part.insert(user(2, loc=(50.0, 50.0)))
        window = ARectangle(APoint(0, 0), APoint(10, 10))
        assert list(part.search_rtree("byLoc", window)) == [(1,)]

    def test_non_point_field_rejected(self, part):
        part.create_secondary(SecondaryIndexSpec("byLoc", "rtree",
                                                 ("alias",)))
        with pytest.raises(InvalidArgumentError, match="point"):
            part.insert(user(1))

    def test_maintained_on_delete(self, part):
        part.create_secondary(SecondaryIndexSpec("byLoc", "rtree",
                                                 ("senderLocation",)))
        part.insert(user(1, loc=(5.0, 5.0)))
        part.delete((1,))
        window = ARectangle(APoint(0, 0), APoint(10, 10))
        assert list(part.search_rtree("byLoc", window)) == []


class TestInvertedSecondary:
    def test_keyword_search(self, part):
        part.create_secondary(SecondaryIndexSpec("byMsg", "keyword",
                                                 ("message",)))
        part.insert({"id": 1, "message": "big data systems"})
        part.insert({"id": 2, "message": "tiny scripts"})
        assert part.search_keyword("byMsg", "big data") == [(1,)]

    def test_maintained_on_upsert(self, part):
        part.create_secondary(SecondaryIndexSpec("byMsg", "keyword",
                                                 ("message",)))
        part.insert({"id": 1, "message": "alpha beta"})
        part.upsert({"id": 1, "message": "gamma delta"})
        assert part.search_keyword("byMsg", "alpha") == []
        assert part.search_keyword("byMsg", "gamma") == [(1,)]


class TestFetchMany:
    def test_fetch_resolves_pks(self, part):
        for i in range(10):
            part.insert(user(i))
        got = dict(part.fetch_many([(3,), (7,), (99,)]))
        assert set(got) == {(3,), (7,)}

    def test_sorted_fetch_order(self, part):
        for i in range(10):
            part.insert(user(i))
        pks = [pk for pk, _ in part.fetch_many([(7,), (3,), (5,)])]
        assert pks == [(3,), (5,), (7,)]

    def test_unsorted_fetch_preserves_order(self, part):
        for i in range(10):
            part.insert(user(i))
        pks = [pk for pk, _ in part.fetch_many([(7,), (3,)], sort=False)]
        assert pks == [(7,), (3,)]


class TestSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(MetadataError):
            SecondaryIndexSpec("i", "hash", ("f",))

    def test_no_fields(self):
        with pytest.raises(MetadataError):
            SecondaryIndexSpec("i", "btree", ())

    def test_rtree_single_field(self):
        with pytest.raises(MetadataError):
            SecondaryIndexSpec("i", "rtree", ("a", "b"))


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["ins", "del", "flush"]),
                  st.integers(0, 15), st.text("ab", max_size=2)),
        max_size=40,
    )
)
@settings(max_examples=30, deadline=None)
def test_partition_with_secondary_matches_model(tmp_path_factory, ops):
    """Primary + btree secondary stay mutually consistent under churn."""
    root = tmp_path_factory.mktemp("dsprop")
    fm = FileManager([IODevice(0, str(root))], page_size=1024)
    cache = BufferCache(fm, num_pages=64)
    ps = PartitionStorage(fm, cache, "ds", 0, ("id",),
                          memory_budget_bytes=1 << 20)
    ps.create_secondary(SecondaryIndexSpec("byA", "btree", ("a",)))
    model = {}
    for op, k, a in ops:
        if op == "ins":
            ps.upsert({"id": k, "a": a})
            model[k] = a
        elif op == "del":
            ps.delete((k,))
            model.pop(k, None)
        else:
            ps.flush_all()
    assert {pk[0]: rec["a"] for pk, rec in ps.scan()} == model
    for k, a in model.items():
        assert (k,) in set(ps.search_btree("byA", (a,), (a,)))
    fm.close()
