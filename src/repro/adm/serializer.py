"""Tag-based binary serialization of ADM values.

The storage layer (LSM component pages, WAL records, operator spill files)
stores *bytes*, not Python objects: each serialized value is a 1-byte
:class:`~repro.adm.values.TypeTag` followed by a tag-specific payload.  This
is a simplified version of AsterixDB's physical ADM layout — the important
property preserved is that pages and log records have a real, measurable
byte size, so page-count-based experiments (E1, E2, E10) are meaningful.

Variable-length payloads use a u32 length prefix; integers are zig-zag
varints so small keys stay small.
"""

from __future__ import annotations

import functools
import struct
import uuid as _uuid

from repro.adm.values import (
    MISSING,
    ADate,
    ADateTime,
    ADuration,
    AInterval,
    ALine,
    APoint,
    APolygon,
    ARectangle,
    ACircle,
    ATime,
    Multiset,
    TypeTag,
    tag_of,
)
from repro.common.errors import StorageError


def _write_varint(out: bytearray, n: int) -> None:
    """Zig-zag varint encoding (small magnitudes -> few bytes)."""
    z = (n << 1) ^ (n >> 63) if -(1 << 63) <= n < (1 << 63) else None
    if z is None:
        raise StorageError(f"integer out of 64-bit range: {n}")
    z &= 0xFFFFFFFFFFFFFFFF
    while True:
        b = z & 0x7F
        z >>= 7
        if z:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def _read_varint(buf: bytes, pos: int) -> tuple[int, int]:
    z = 0
    shift = 0
    while True:
        b = buf[pos]
        pos += 1
        z |= (b & 0x7F) << shift
        if not b & 0x80:
            break
        shift += 7
    n = (z >> 1) ^ -(z & 1)
    return n, pos


def serialize(value) -> bytes:
    """Serialize one ADM value to bytes."""
    out = bytearray()
    _serialize_into(out, value)
    return bytes(out)


def _serialize_into(out: bytearray, value) -> None:
    tag = tag_of(value)
    out.append(tag)
    if tag in (TypeTag.MISSING, TypeTag.NULL):
        return
    if tag is TypeTag.BOOLEAN:
        out.append(1 if value else 0)
    elif tag is TypeTag.BIGINT:
        _write_varint(out, value)
    elif tag is TypeTag.DOUBLE:
        out.extend(struct.pack(">d", value))
    elif tag is TypeTag.STRING:
        data = value.encode("utf-8")
        out.extend(struct.pack(">I", len(data)))
        out.extend(data)
    elif tag is TypeTag.BINARY:
        out.extend(struct.pack(">I", len(value)))
        out.extend(value)
    elif tag is TypeTag.UUID:
        out.extend(value.bytes)
    elif tag is TypeTag.DATE:
        _write_varint(out, value.days)
    elif tag in (TypeTag.TIME, TypeTag.DATETIME):
        _write_varint(out, value.millis)
    elif tag is TypeTag.DURATION:
        _write_varint(out, value.months)
        _write_varint(out, value.millis)
    elif tag is TypeTag.INTERVAL:
        out.append(value.tag)
        _write_varint(out, value.start)
        _write_varint(out, value.end)
    elif tag is TypeTag.POINT:
        out.extend(struct.pack(">dd", value.x, value.y))
    elif tag is TypeTag.LINE:
        out.extend(struct.pack(">dddd", value.p1.x, value.p1.y,
                               value.p2.x, value.p2.y))
    elif tag is TypeTag.RECTANGLE:
        bl, tr = value.bottom_left, value.top_right
        out.extend(struct.pack(">dddd", bl.x, bl.y, tr.x, tr.y))
    elif tag is TypeTag.CIRCLE:
        out.extend(struct.pack(">ddd", value.center.x, value.center.y,
                               value.radius))
    elif tag is TypeTag.POLYGON:
        out.extend(struct.pack(">I", len(value.points)))
        for p in value.points:
            out.extend(struct.pack(">dd", p.x, p.y))
    elif tag in (TypeTag.ARRAY, TypeTag.MULTISET):
        out.extend(struct.pack(">I", len(value)))
        for item in value:
            _serialize_into(out, item)
    elif tag is TypeTag.OBJECT:
        fields = [(k, v) for k, v in value.items() if v is not MISSING]
        out.extend(struct.pack(">I", len(fields)))
        for k, v in fields:
            kdata = k.encode("utf-8")
            out.extend(struct.pack(">I", len(kdata)))
            out.extend(kdata)
            _serialize_into(out, v)
    else:
        raise StorageError(f"cannot serialize tag {tag!r}")


def deserialize(buf: bytes, pos: int = 0):
    """Deserialize one ADM value; returns the value (see
    :func:`deserialize_at` for streaming use)."""
    value, _ = deserialize_at(buf, pos)
    return value


# byte-value dispatch constants: deserialize_at runs once per stored
# value on every scan, and constructing the TypeTag enum member
# (``TypeTag(buf[pos])``) costs more than the whole payload decode for
# small scalars — so the hot tags compare the raw byte against plain
# ints and only the rare tail resolves the enum member
_B_MISSING = int(TypeTag.MISSING)
_B_NULL = int(TypeTag.NULL)
_B_BOOLEAN = int(TypeTag.BOOLEAN)
_B_BIGINT = int(TypeTag.BIGINT)
_B_DOUBLE = int(TypeTag.DOUBLE)
_B_STRING = int(TypeTag.STRING)
_B_OBJECT = int(TypeTag.OBJECT)
_TAG_BY_BYTE = {int(t): t for t in TypeTag}


def deserialize_at(buf: bytes, pos: int):
    """Deserialize one ADM value starting at ``pos``; returns
    ``(value, next_pos)``."""
    b = buf[pos]
    pos += 1
    if b == _B_BIGINT:
        return _read_varint(buf, pos)
    if b == _B_STRING:
        (n,) = struct.unpack_from(">I", buf, pos)
        pos += 4
        return buf[pos:pos + n].decode("utf-8"), pos + n
    if b == _B_OBJECT:
        (n,) = struct.unpack_from(">I", buf, pos)
        pos += 4
        obj = {}
        for _ in range(n):
            (klen,) = struct.unpack_from(">I", buf, pos)
            pos += 4
            key = buf[pos:pos + klen].decode("utf-8")
            pos += klen
            obj[key], pos = deserialize_at(buf, pos)
        return obj, pos
    if b == _B_DOUBLE:
        return struct.unpack_from(">d", buf, pos)[0], pos + 8
    if b == _B_MISSING:
        return MISSING, pos
    if b == _B_NULL:
        return None, pos
    if b == _B_BOOLEAN:
        return bool(buf[pos]), pos + 1
    tag = _TAG_BY_BYTE.get(b)
    if tag is None:
        tag = TypeTag(b)   # unknown byte: same ValueError as before
    return _deserialize_rare(tag, buf, pos)


def _deserialize_rare(tag: TypeTag, buf: bytes, pos: int):
    """The non-scalar / temporal / spatial tail of :func:`deserialize_at`."""
    if tag is TypeTag.BINARY:
        (n,) = struct.unpack_from(">I", buf, pos)
        pos += 4
        return bytes(buf[pos:pos + n]), pos + n
    if tag is TypeTag.UUID:
        return _uuid.UUID(bytes=bytes(buf[pos:pos + 16])), pos + 16
    if tag is TypeTag.DATE:
        days, pos = _read_varint(buf, pos)
        return ADate(days), pos
    if tag is TypeTag.TIME:
        millis, pos = _read_varint(buf, pos)
        return ATime(millis), pos
    if tag is TypeTag.DATETIME:
        millis, pos = _read_varint(buf, pos)
        return ADateTime(millis), pos
    if tag is TypeTag.DURATION:
        months, pos = _read_varint(buf, pos)
        millis, pos = _read_varint(buf, pos)
        return ADuration(months, millis), pos
    if tag is TypeTag.INTERVAL:
        sub = TypeTag(buf[pos])
        pos += 1
        start, pos = _read_varint(buf, pos)
        end, pos = _read_varint(buf, pos)
        return AInterval(start, end, sub), pos
    if tag is TypeTag.POINT:
        x, y = struct.unpack_from(">dd", buf, pos)
        return APoint(x, y), pos + 16
    if tag is TypeTag.LINE:
        x1, y1, x2, y2 = struct.unpack_from(">dddd", buf, pos)
        return ALine(APoint(x1, y1), APoint(x2, y2)), pos + 32
    if tag is TypeTag.RECTANGLE:
        x1, y1, x2, y2 = struct.unpack_from(">dddd", buf, pos)
        return ARectangle(APoint(x1, y1), APoint(x2, y2)), pos + 32
    if tag is TypeTag.CIRCLE:
        x, y, r = struct.unpack_from(">ddd", buf, pos)
        return ACircle(APoint(x, y), r), pos + 24
    if tag is TypeTag.POLYGON:
        (n,) = struct.unpack_from(">I", buf, pos)
        pos += 4
        pts = []
        for _ in range(n):
            x, y = struct.unpack_from(">dd", buf, pos)
            pts.append(APoint(x, y))
            pos += 16
        return APolygon(tuple(pts)), pos
    if tag in (TypeTag.ARRAY, TypeTag.MULTISET):
        (n,) = struct.unpack_from(">I", buf, pos)
        pos += 4
        items = Multiset() if tag is TypeTag.MULTISET else []
        for _ in range(n):
            item, pos = deserialize_at(buf, pos)
            items.append(item)
        return items, pos
    if tag is TypeTag.OBJECT:
        (n,) = struct.unpack_from(">I", buf, pos)
        pos += 4
        obj = {}
        for _ in range(n):
            (klen,) = struct.unpack_from(">I", buf, pos)
            pos += 4
            key = buf[pos:pos + klen].decode("utf-8")
            pos += klen
            obj[key], pos = deserialize_at(buf, pos)
        return obj, pos
    raise StorageError(f"cannot deserialize tag {tag!r}")


_u32_at = struct.Struct(">I").unpack_from
_B_ARRAY = int(TypeTag.ARRAY)
_B_MULTISET = int(TypeTag.MULTISET)
_B_BINARY = int(TypeTag.BINARY)
_B_POLYGON = int(TypeTag.POLYGON)
_B_INTERVAL = int(TypeTag.INTERVAL)
# payload byte width of the fixed-size tags, and the number of varints
# that make up the payload of the varint-encoded ones
_FIXED_WIDTH = {_B_MISSING: 0, _B_NULL: 0, _B_BOOLEAN: 1, _B_DOUBLE: 8,
                int(TypeTag.UUID): 16, int(TypeTag.POINT): 16,
                int(TypeTag.LINE): 32, int(TypeTag.RECTANGLE): 32,
                int(TypeTag.CIRCLE): 24}
_VARINTS = {_B_BIGINT: 1, int(TypeTag.DATE): 1, int(TypeTag.TIME): 1,
            int(TypeTag.DATETIME): 1, int(TypeTag.DURATION): 2}


def skip_at(buf: bytes, pos: int) -> int:
    """The position just past the value starting at ``pos``, found
    without building the value (no objects, strings or lists)."""
    b = buf[pos]
    pos += 1
    width = _FIXED_WIDTH.get(b)
    if width is not None:
        return pos + width
    varints = _VARINTS.get(b)
    if varints is None and b == _B_INTERVAL:
        pos += 1             # the interval's point-type tag
        varints = 2
    if varints is not None:
        for _ in range(varints):
            while buf[pos] & 0x80:
                pos += 1
            pos += 1
        return pos
    if b == _B_STRING or b == _B_BINARY:
        return pos + 4 + _u32_at(buf, pos)[0]
    if b == _B_OBJECT:
        (n,) = _u32_at(buf, pos)
        pos += 4
        for _ in range(n):
            pos = skip_at(buf, pos + 4 + _u32_at(buf, pos)[0])
        return pos
    if b == _B_ARRAY or b == _B_MULTISET:
        (n,) = _u32_at(buf, pos)
        pos += 4
        for _ in range(n):
            pos = skip_at(buf, pos)
        return pos
    if b == _B_POLYGON:
        return pos + 4 + 16 * _u32_at(buf, pos)[0]
    # TypeTag(b) raises ValueError for a byte that is no tag at all, as in
    # deserialize_at; the tags left are never serialized
    raise StorageError(f"cannot skip tag {TypeTag(b)!r}")


@functools.lru_cache(maxsize=256)
def _encoded(names: frozenset) -> dict:
    """UTF-8 key bytes -> name, built once per distinct field set."""
    return {name.encode("utf-8"): name for name in names}


def deserialize_fields(buf: bytes, names: frozenset | None):
    """Decode only the top-level fields ``names`` of the serialized object
    in ``buf``: the other values are stepped over with :func:`skip_at`,
    and the walk stops once every wanted field present has been read.
    A missing name is absent from the result, as ``field_access`` of it
    on the full record is MISSING.  ``names`` None, or a non-object
    value, decodes whole."""
    if names is None or buf[0] != _B_OBJECT:
        return deserialize(buf)
    wanted = _encoded(names)
    obj: dict = {}
    left = len(wanted)
    if not left:
        return obj
    (n,) = _u32_at(buf, 1)
    pos = 5
    for _ in range(n):
        (klen,) = _u32_at(buf, pos)
        pos += 4
        name = wanted.get(buf[pos:pos + klen])
        pos += klen
        if name is None:
            pos = skip_at(buf, pos)
            continue
        obj[name], pos = deserialize_at(buf, pos)
        left -= 1
        if not left:
            break
    return obj


def serialize_tuple(values) -> bytes:
    """Serialize a composite value (e.g. a key, PK pair) as a counted group."""
    out = bytearray()
    out.append(len(values))
    for v in values:
        _serialize_into(out, v)
    return bytes(out)


def deserialize_tuple(buf: bytes, pos: int = 0) -> tuple:
    n = buf[pos]
    pos += 1
    values = []
    for _ in range(n):
        v, pos = deserialize_at(buf, pos)
        values.append(v)
    return tuple(values)


def serialized_size(value) -> int:
    """Byte size of ``value`` once serialized (used for budget accounting)."""
    return len(serialize(value))
