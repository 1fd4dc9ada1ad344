"""Round-trip tests for the binary ADM serializer."""

import uuid

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adm import (
    MISSING,
    ACircle,
    ADate,
    ADateTime,
    ADuration,
    AInterval,
    ALine,
    APoint,
    APolygon,
    ARectangle,
    ATime,
    Multiset,
    TypeTag,
    deserialize,
    deserialize_fields,
    deserialize_tuple,
    serialize,
    serialize_tuple,
    serialized_size,
)
from repro.adm.serializer import deserialize_at, skip_at

SAMPLES = [
    None,
    True,
    False,
    0,
    -1,
    2**40,
    -(2**40),
    1.5,
    -0.0,
    "",
    "héllo wörld",
    b"",
    b"\x00\xff",
    uuid.uuid5(uuid.NAMESPACE_DNS, "asterix"),
    ADate(17000),
    ATime(12_345_678),
    ADateTime(1_483_228_800_000),
    ADuration(14, 123456),
    AInterval(10, 20, TypeTag.DATE),
    APoint(1.25, -7.5),
    ALine(APoint(0, 0), APoint(1, 1)),
    ARectangle(APoint(-1, -1), APoint(1, 1)),
    ACircle(APoint(0, 0), 2.5),
    APolygon((APoint(0, 0), APoint(1, 0), APoint(0, 1))),
    [],
    [1, "two", [3.0]],
    Multiset([1, 1, 2]),
    {"id": 667, "alias": "dfrump", "friendIds": Multiset(), "emp": [{"o": "USA"}]},
]


@pytest.mark.parametrize("value", SAMPLES, ids=[repr(s)[:40] for s in SAMPLES])
def test_roundtrip_samples(value):
    assert deserialize(serialize(value)) == value


def test_multiset_type_preserved():
    out = deserialize(serialize(Multiset([1])))
    assert isinstance(out, Multiset)


def test_array_not_multiset():
    out = deserialize(serialize([1]))
    assert not isinstance(out, Multiset)


def test_tuple_roundtrip():
    t = (1, "a", APoint(0, 0))
    assert deserialize_tuple(serialize_tuple(t)) == t


def test_serialized_size_positive():
    assert serialized_size({"a": 1}) > 2


def test_varint_compactness():
    assert len(serialize(1)) <= 3
    assert len(serialize(2**50)) <= 10


def adm_values(depth=2):
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**62), 2**62),
        st.floats(allow_nan=False),
        st.text(max_size=12),
        st.binary(max_size=12),
        st.builds(ADate, st.integers(-100000, 100000)),
        st.builds(ADateTime, st.integers(-(2**50), 2**50)),
        st.builds(
            APoint,
            st.floats(allow_nan=False, allow_infinity=False,
                      min_value=-1e9, max_value=1e9),
            st.floats(allow_nan=False, allow_infinity=False,
                      min_value=-1e9, max_value=1e9),
        ),
    )
    if depth == 0:
        return scalars
    inner = adm_values(depth - 1)
    return st.one_of(
        scalars,
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(Multiset),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    )


@given(adm_values())
@settings(max_examples=300)
def test_roundtrip_property(value):
    assert deserialize(serialize(value)) == value


@given(st.lists(adm_values(1), min_size=1, max_size=5))
@settings(max_examples=100)
def test_tuple_roundtrip_property(values):
    t = tuple(values)
    assert deserialize_tuple(serialize_tuple(t)) == t


# --- projected decoding -----------------------------------------------------

_coords = st.floats(allow_nan=False, allow_infinity=False,
                    min_value=-1e9, max_value=1e9)
_points = st.builds(APoint, _coords, _coords)


def _interval(tag):
    return st.tuples(st.integers(-(2**40), 2**40), st.integers(0, 2**40)) \
        .map(lambda se: AInterval(se[0], se[0] + se[1], tag))


def every_tag(depth=2):
    """ADM values of every serialized tag; objects may hold MISSING-valued
    fields, which the serializer drops."""
    scalars = st.one_of(
        st.none(), st.just(MISSING), st.booleans(),
        st.integers(-(2**63), 2**63 - 1),
        st.floats(allow_nan=False), st.text(max_size=12),
        st.binary(max_size=12), st.uuids(),
        st.builds(ADate, st.integers(-100000, 100000)),
        st.builds(ATime, st.integers(0, 86_399_999)),
        st.builds(ADateTime, st.integers(-(2**50), 2**50)),
        st.builds(ADuration, st.integers(-(2**31), 2**31),
                  st.integers(-(2**50), 2**50)),
        _interval(TypeTag.DATE), _interval(TypeTag.TIME),
        _interval(TypeTag.DATETIME),
        _points, st.builds(ALine, _points, _points),
        st.tuples(_points, st.floats(0, 1e6), st.floats(0, 1e6)).map(
            lambda p: ARectangle(p[0], APoint(p[0].x + p[1], p[0].y + p[2]))),
        st.builds(ACircle, _points, st.floats(0, 1e6)),
        st.lists(_points, min_size=3, max_size=5).map(
            lambda ps: APolygon(tuple(ps))),
    )
    if depth == 0:
        return scalars
    inner = every_tag(depth - 1)
    return st.one_of(
        scalars,
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(Multiset),
        st.dictionaries(st.text(max_size=6), inner, max_size=5),
    )


@given(every_tag())
@settings(max_examples=400)
def test_skip_at_steps_over_exactly_one_value(value):
    buf = serialize(value)
    assert skip_at(buf, 0) == len(buf)
    # and inside a sequence: the next value starts where skip_at says
    pair = serialize([value, 7])
    assert deserialize_at(pair, skip_at(pair, 5)) == (7, len(pair))


_NAMES = st.sampled_from(["a", "b", "c", "é", "", "long_name"])


@given(st.dictionaries(_NAMES, every_tag(1), max_size=6),
       st.frozensets(_NAMES | st.text(max_size=3), max_size=4))
@settings(max_examples=400)
def test_deserialize_fields_equals_projected_full_decode(record, names):
    full = deserialize(serialize(record))
    assert deserialize_fields(serialize(record), names) == {
        k: full[k] for k in names if k in full}


def test_deserialize_fields_non_object_decodes_whole():
    assert deserialize_fields(serialize([1, 2]), frozenset({"a"})) == [1, 2]


def test_deserialize_fields_without_names_decodes_whole():
    record = {"a": 1, "b": [{"c": "x"}]}
    assert deserialize_fields(serialize(record), None) == record


def test_skip_at_unknown_tag_is_an_error():
    with pytest.raises(ValueError):
        skip_at(bytes([250]), 0)
