"""Linear Hashing — built to reproduce the Graefe lesson (paper §V-C, E2).

The paper recounts Goetz Graefe's answer to "why do real database systems
stop after offering B+ trees?": it is well known how to efficiently bulk-load
a B+ tree, it is *not* known how to do the same for Linear Hashing, and with
a modest memory allocation their lookup I/O costs in practice are the same.
This module exists so `benchmarks/bench_btree_vs_linear_hash.py` can measure
exactly that trade-off against :class:`repro.storage.btree.BTree`.

Classic Litwin linear hashing over page files: ``2^level + split_pointer``
primary buckets, overflow chains, and one bucket split per threshold
crossing.  There is deliberately **no** bulk-load path — records are
inserted one at a time, which is the point of the experiment.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.adm.serializer import serialize_tuple
from repro.adm.values import hash_value
from repro.common.errors import DuplicateKeyError, StorageError
from repro.storage.buffer_cache import BufferCache
from repro.storage.file_manager import FileHandle

_NO_PAGE = 0xFFFFFFFF
_META_MAGIC = b"ALHI"


@dataclass
class _Bucket:
    """One bucket page: entries plus an overflow-page pointer."""

    entries: list = field(default_factory=list)    # (key_bytes, value_bytes)
    overflow: int = _NO_PAGE

    def encode(self, page_size: int) -> bytes:
        out = bytearray()
        out.extend(struct.pack(">HI", len(self.entries), self.overflow))
        for kb, vb in self.entries:
            out.extend(struct.pack(">HH", len(kb), len(vb)))
            out.extend(kb)
            out.extend(vb)
        if len(out) > page_size:
            raise StorageError("linear-hash bucket overflow mis-sized")
        out.extend(b"\x00" * (page_size - len(out)))
        return bytes(out)

    @classmethod
    def decode(cls, data) -> "_Bucket":
        count, overflow = struct.unpack_from(">HI", data, 0)
        pos = 6
        entries = []
        for _ in range(count):
            klen, vlen = struct.unpack_from(">HH", data, pos)
            pos += 4
            kb = bytes(data[pos:pos + klen])
            pos += klen
            vb = bytes(data[pos:pos + vlen])
            pos += vlen
            entries.append((kb, vb))
        return cls(entries, overflow)

    def size(self) -> int:
        return 6 + sum(4 + len(k) + len(v) for k, v in self.entries)


class LinearHashIndex:
    """A Litwin linear-hash index: composite ADM key -> value bytes."""

    def __init__(self, cache: BufferCache, handle: FileHandle,
                 split_load_factor: float = 0.8):
        self.cache = cache
        self.handle = handle
        self.page_size = cache.fm.page_size
        self.split_load_factor = split_load_factor
        self.level = 0
        self.split_pointer = 0
        self.initial_buckets = 4
        self.count = 0
        self.bytes_used = 0
        # bucket directory: bucket index -> page number (the directory is
        # small and kept in memory, as real implementations do via the
        # file's page mapping)
        self._bucket_pages: list[int] = []
        self._overflow_free: list[int] = []

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(cls, cache: BufferCache, handle: FileHandle,
               initial_buckets: int = 4) -> "LinearHashIndex":
        index = cls(cache, handle)
        index.initial_buckets = initial_buckets
        cache.fm.append_page(handle)  # meta page (unused placeholder)
        for _ in range(initial_buckets):
            no = cache.fm.append_page(handle)
            index._write_bucket(no, _Bucket())
            index._bucket_pages.append(no)
        return index

    @property
    def num_buckets(self) -> int:
        return len(self._bucket_pages)

    # -- hashing -----------------------------------------------------------

    def _bucket_of(self, key_bytes: bytes) -> int:
        h = hash_value(key_bytes)
        n = self.initial_buckets
        idx = h % (n << self.level)
        if idx < self.split_pointer:
            idx = h % (n << (self.level + 1))
        return idx

    # -- page I/O ----------------------------------------------------------

    def _read_bucket(self, page_no: int) -> _Bucket:
        page = self.cache.pin(self.handle, page_no)
        try:
            if page.parsed is None:
                page.parsed = _Bucket.decode(page.data)
            return page.parsed
        finally:
            self.cache.unpin(page)

    def _write_bucket(self, page_no: int, bucket: _Bucket,
                      *, new: bool = True) -> None:
        page = self.cache.pin(self.handle, page_no, new=new)
        try:
            page.data[:] = bucket.encode(self.page_size)
            page.parsed = bucket
        finally:
            self.cache.unpin(page, dirty=True)

    def _alloc(self) -> int:
        if self._overflow_free:
            return self._overflow_free.pop()
        return self.cache.fm.append_page(self.handle)

    # -- operations -----------------------------------------------------------

    def search(self, key) -> bytes | None:
        kb = serialize_tuple(key)
        page_no = self._bucket_pages[self._bucket_of(kb)]
        while page_no != _NO_PAGE:
            bucket = self._read_bucket(page_no)
            for ekb, evb in bucket.entries:
                if ekb == kb:
                    return evb
            page_no = bucket.overflow
        return None

    def insert(self, key, value: bytes, *, unique: bool = True) -> None:
        kb = serialize_tuple(key)
        if unique and self.search(key) is not None:
            raise DuplicateKeyError(f"duplicate key {key!r}")
        self._insert_raw(kb, value)
        self.count += 1
        self.bytes_used += 4 + len(kb) + len(value)
        self._maybe_split()

    def _insert_raw(self, kb: bytes, value: bytes) -> None:
        page_no = self._bucket_pages[self._bucket_of(kb)]
        entry_size = 4 + len(kb) + len(value)
        while True:
            bucket = self._read_bucket(page_no)
            if bucket.size() + entry_size <= self.page_size:
                bucket.entries.append((kb, value))
                self._write_bucket(page_no, bucket, new=False)
                return
            if bucket.overflow == _NO_PAGE:
                overflow_no = self._alloc()
                self._write_bucket(overflow_no, _Bucket([(kb, value)]))
                bucket.overflow = overflow_no
                self._write_bucket(page_no, bucket, new=False)
                return
            page_no = bucket.overflow

    def items(self):
        """Yield all (key_bytes, value_bytes) pairs (unordered)."""
        for head in self._bucket_pages:
            page_no = head
            while page_no != _NO_PAGE:
                bucket = self._read_bucket(page_no)
                yield from bucket.entries
                page_no = bucket.overflow

    # -- splitting -----------------------------------------------------------

    def _load_factor(self) -> float:
        # entries per primary bucket page's worth of capacity (approximate:
        # bytes stored / bytes available in primary buckets)
        capacity = self.num_buckets * (self.page_size - 6)
        return self.bytes_used / capacity if capacity else 1.0

    def _maybe_split(self) -> None:
        while self._load_factor() > self.split_load_factor:
            self._split_one()

    def _split_one(self) -> None:
        """Split the bucket at the split pointer (Litwin's scheme)."""
        n = self.initial_buckets
        old_idx = self.split_pointer
        new_idx = old_idx + (n << self.level)
        # collect old bucket's chain
        entries: list[tuple] = []
        page_no = self._bucket_pages[old_idx]
        chain = []
        while page_no != _NO_PAGE:
            bucket = self._read_bucket(page_no)
            entries.extend(bucket.entries)
            chain.append(page_no)
            page_no = bucket.overflow
        # free overflow pages of the old chain for reuse
        self._overflow_free.extend(chain[1:])
        new_page = self._alloc()
        self._bucket_pages.append(new_page)
        self._write_bucket(chain[0], _Bucket(), new=False)
        self._write_bucket(new_page, _Bucket())
        # advance split state before redistributing so _bucket_of uses the
        # extended address space for the split image
        self.split_pointer += 1
        if self.split_pointer == (n << self.level):
            self.split_pointer = 0
            self.level += 1
        mask = n << (self.level + (1 if self.split_pointer else 0))
        for kb, vb in entries:
            idx = hash_value(kb) % (n << self.level)
            if idx < self.split_pointer:
                idx = hash_value(kb) % (n << (self.level + 1))
            self._insert_raw_to(idx, kb, vb)
        del mask

    def _insert_raw_to(self, idx: int, kb: bytes, value: bytes) -> None:
        page_no = self._bucket_pages[idx]
        entry_size = 4 + len(kb) + len(value)
        while True:
            bucket = self._read_bucket(page_no)
            if bucket.size() + entry_size <= self.page_size:
                bucket.entries.append((kb, value))
                self._write_bucket(page_no, bucket, new=False)
                return
            if bucket.overflow == _NO_PAGE:
                overflow_no = self._alloc()
                self._write_bucket(overflow_no, _Bucket([(kb, value)]))
                bucket.overflow = overflow_no
                self._write_bucket(page_no, bucket, new=False)
                return
            page_no = bucket.overflow
