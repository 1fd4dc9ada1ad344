"""A page-based B+ tree.

This is the core ordered index of the system: LSM disk components (primary
and secondary), the linearized spatial competitors of experiment E1, and the
standalone B+ tree of the Graefe comparison (E2) are all instances.

Keys are tuples of ADM values (composite keys supported); values are opaque
byte strings.  Pages live in the buffer cache; each page caches a parsed
node object in ``CachedPage.parsed`` so keys are deserialized once per
residency, while the authoritative state is always the serialized page bytes
(what the I/O counters see).

Layout (all integers big-endian):

* page 0 is the metadata page: magic, root page, height, entry count.
* leaf: ``[0x01][count:u16][next_leaf:u32]`` then per entry
  ``[klen:u16][key][vlen:u16][value]``.
* interior: ``[0x02][count:u16]`` then ``count`` child page numbers (u32)
  followed by ``count-1`` separator keys ``[klen:u16][key]``; child ``i``
  holds keys < separator ``i`` (and the last child the rest).

Invariant: every node object carries ``nbytes``, the exact length its
``encode`` fills before padding — ``_LEAF_HEADER + sum(4 + len(key) +
len(value))`` for a leaf, ``_INTERIOR_HEADER + 4 * children + sum(2 +
len(separator))`` for an interior node, keys counted serialized.
``decode`` sets it from its final read position; an insert, an in-place
replace and ``bulk_load`` add what they add, and a split counts one half
once and derives the other.  So "does this page still fit?" costs O(1)
instead of re-serializing the page.  ``encode`` still measures the real
length and raises :class:`StorageError` on overflow, which is what
catches a wrong count.

Supported operations: point search, inclusive/exclusive range scans,
insert with node splits (including unique-key enforcement for primary
indexes), and sorted bulk load.  Physical deletion is not implemented —
deletes in this system are LSM antimatter records (see
:mod:`repro.storage.lsm`), exactly the design the paper describes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.adm.comparators import compare_tuples
from repro.adm.serializer import deserialize_tuple, serialize_tuple
from repro.common.errors import DuplicateKeyError, StorageError
from repro.storage.buffer_cache import BufferCache
from repro.storage.file_manager import FileHandle

_LEAF = 1
_INTERIOR = 2
_NO_PAGE = 0xFFFFFFFF
_META_MAGIC = b"ABTR"
_LEAF_HEADER = 7        # type byte, count:u16, next_leaf:u32
_INTERIOR_HEADER = 3    # type byte, count:u16


def _entry_bytes(key, value: bytes) -> int:
    """Encoded size of one leaf entry."""
    return 4 + len(serialize_tuple(key)) + len(value)


def _separator_bytes(key) -> int:
    """Encoded size of one interior separator (its child pointer aside)."""
    return 2 + len(serialize_tuple(key))


@dataclass
class _Leaf:
    keys: list = field(default_factory=list)        # ADM tuples
    values: list = field(default_factory=list)      # bytes
    next_leaf: int = _NO_PAGE
    nbytes: int = _LEAF_HEADER     # encoded length; see the module docstring

    def encode(self, page_size: int) -> bytes:
        out = bytearray()
        out.append(_LEAF)
        out.extend(struct.pack(">HI", len(self.keys), self.next_leaf))
        for key, value in zip(self.keys, self.values):
            kb = serialize_tuple(key)
            out.extend(struct.pack(">H", len(kb)))
            out.extend(kb)
            out.extend(struct.pack(">H", len(value)))
            out.extend(value)
        if len(out) > page_size:
            raise StorageError(
                f"leaf overflow: {len(out)} bytes > page size {page_size}"
            )
        out.extend(b"\x00" * (page_size - len(out)))
        return bytes(out)

    @classmethod
    def decode(cls, data) -> "_Leaf":
        count, next_leaf = struct.unpack_from(">HI", data, 1)
        pos = 7
        keys, values = [], []
        for _ in range(count):
            (klen,) = struct.unpack_from(">H", data, pos)
            pos += 2
            keys.append(deserialize_tuple(bytes(data[pos:pos + klen])))
            pos += klen
            (vlen,) = struct.unpack_from(">H", data, pos)
            pos += 2
            values.append(bytes(data[pos:pos + vlen]))
            pos += vlen
        return cls(keys, values, next_leaf, pos)


@dataclass
class _Interior:
    keys: list = field(default_factory=list)       # count-1 separators
    children: list = field(default_factory=list)   # count page numbers
    nbytes: int = _INTERIOR_HEADER  # encoded length; see the module docstring

    def encode(self, page_size: int) -> bytes:
        out = bytearray()
        out.append(_INTERIOR)
        out.extend(struct.pack(">H", len(self.children)))
        for child in self.children:
            out.extend(struct.pack(">I", child))
        for key in self.keys:
            kb = serialize_tuple(key)
            out.extend(struct.pack(">H", len(kb)))
            out.extend(kb)
        if len(out) > page_size:
            raise StorageError(
                f"interior overflow: {len(out)} > page size {page_size}"
            )
        out.extend(b"\x00" * (page_size - len(out)))
        return bytes(out)

    @classmethod
    def decode(cls, data) -> "_Interior":
        (count,) = struct.unpack_from(">H", data, 1)
        pos = 3
        children = []
        for _ in range(count):
            (child,) = struct.unpack_from(">I", data, pos)
            children.append(child)
            pos += 4
        keys = []
        for _ in range(count - 1):
            (klen,) = struct.unpack_from(">H", data, pos)
            pos += 2
            keys.append(deserialize_tuple(bytes(data[pos:pos + klen])))
            pos += klen
        return cls(keys, children, pos)


def _decode(data):
    if data[0] == _LEAF:
        return _Leaf.decode(data)
    if data[0] == _INTERIOR:
        return _Interior.decode(data)
    raise StorageError(f"corrupt B+ tree page (type byte {data[0]})")


def _lower_bound(keys, key) -> int:
    """First index i with keys[i] >= key."""
    lo, hi = 0, len(keys)
    while lo < hi:
        mid = (lo + hi) // 2
        if compare_tuples(keys[mid], key) < 0:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _upper_bound(keys, key) -> int:
    """First index i with keys[i] > key."""
    lo, hi = 0, len(keys)
    while lo < hi:
        mid = (lo + hi) // 2
        if compare_tuples(keys[mid], key) <= 0:
            lo = mid + 1
        else:
            hi = mid
    return lo


class BTree:
    """A B+ tree over one page file."""

    def __init__(self, cache: BufferCache, handle: FileHandle):
        self.cache = cache
        self.handle = handle
        self.page_size = cache.fm.page_size
        self.root_page = _NO_PAGE
        self.height = 0
        self.count = 0

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(cls, cache: BufferCache, handle: FileHandle) -> "BTree":
        tree = cls(cache, handle)
        cache.fm.append_page(handle)            # reserve page 0 for metadata
        root_no = cache.fm.append_page(handle)
        tree._write_node(root_no, _Leaf())
        tree.root_page = root_no
        tree.height = 1
        tree._write_meta()
        return tree

    @classmethod
    def open(cls, cache: BufferCache, handle: FileHandle) -> "BTree":
        tree = cls(cache, handle)
        page = cache.pin(handle, 0)
        try:
            magic = bytes(page.data[:4])
            if magic != _META_MAGIC:
                raise StorageError(f"not a B+ tree file: {handle.rel_path}")
            tree.root_page, tree.height, tree.count = struct.unpack_from(
                ">IIQ", page.data, 4
            )
        finally:
            cache.unpin(page)
        return tree

    def _write_meta(self) -> None:
        page = self.cache.pin(self.handle, 0, new=(self.handle.num_pages <= 1))
        try:
            page.data[:20] = _META_MAGIC + struct.pack(
                ">IIQ", self.root_page, self.height, self.count
            )
            page.parsed = None
        finally:
            self.cache.unpin(page, dirty=True)

    # -- node I/O -------------------------------------------------------------

    def _read_node(self, page_no: int, sequential: bool = False):
        page = self.cache.pin(self.handle, page_no, sequential=sequential)
        try:
            if page.parsed is None:
                page.parsed = _decode(page.data)
            return page.parsed
        finally:
            self.cache.unpin(page)

    def _write_node(self, page_no: int, node, *, new: bool = True) -> None:
        page = self.cache.pin(self.handle, page_no, new=new)
        try:
            page.data[:] = node.encode(self.page_size)
            page.parsed = node
        finally:
            self.cache.unpin(page, dirty=True)

    def _alloc(self) -> int:
        return self.cache.fm.append_page(self.handle)

    # -- search -----------------------------------------------------------------

    def _find_leaf(self, key) -> tuple[int, _Leaf]:
        page_no = self.root_page
        node = self._read_node(page_no)
        while isinstance(node, _Interior):
            idx = _upper_bound(node.keys, key)
            page_no = node.children[idx]
            node = self._read_node(page_no)
        return page_no, node

    def search(self, key) -> bytes | None:
        """Point lookup; returns the value bytes or None."""
        if self.count == 0:
            return None
        _, leaf = self._find_leaf(key)
        idx = _lower_bound(leaf.keys, key)
        if idx < len(leaf.keys) and compare_tuples(leaf.keys[idx], key) == 0:
            return leaf.values[idx]
        return None

    def range_scan(self, lo=None, hi=None, *, lo_inclusive: bool = True,
                   hi_inclusive: bool = True):
        """Yield (key, value) pairs with lo <= key <= hi (bounds optional)."""
        if self.count == 0:
            return
        if lo is None:
            page_no = self.root_page
            node = self._read_node(page_no)
            while isinstance(node, _Interior):
                page_no = node.children[0]
                node = self._read_node(page_no)
            leaf = node
            idx = 0
        else:
            page_no, leaf = self._find_leaf(lo)
            idx = (_lower_bound(leaf.keys, lo) if lo_inclusive
                   else _upper_bound(leaf.keys, lo))
        while True:
            while idx < len(leaf.keys):
                key = leaf.keys[idx]
                if hi is not None:
                    c = compare_tuples(key, hi)
                    if c > 0 or (c == 0 and not hi_inclusive):
                        return
                yield key, leaf.values[idx]
                idx += 1
            if leaf.next_leaf == _NO_PAGE:
                return
            page_no = leaf.next_leaf
            leaf = self._read_node(page_no, sequential=True)
            idx = 0

    def scan_all(self):
        return self.range_scan()

    # -- insert -----------------------------------------------------------------

    def insert(self, key, value: bytes, *, unique: bool = False,
               replace: bool = False) -> None:
        """Insert (key, value); splits propagate up to a new root as needed.

        ``unique=True`` raises :class:`DuplicateKeyError` on an existing key
        (primary-index semantics); ``replace=True`` overwrites in place
        (upsert semantics, used by LSM memory components).
        """
        split = self._insert_rec(self.root_page, self.height, key, value,
                                 unique, replace)
        if split is not None:
            sep_key, right_page = split
            new_root = _Interior([sep_key], [self.root_page, right_page],
                                 _INTERIOR_HEADER + 8
                                 + _separator_bytes(sep_key))
            root_no = self._alloc()
            self._write_node(root_no, new_root)
            self.root_page = root_no
            self.height += 1
        self._write_meta()

    def _insert_rec(self, page_no: int, level: int, key, value,
                    unique: bool, replace: bool):
        node = self._read_node(page_no)
        if isinstance(node, _Leaf):
            idx = _lower_bound(node.keys, key)
            exists = (idx < len(node.keys)
                      and compare_tuples(node.keys[idx], key) == 0)
            if exists:
                if unique and not replace:
                    raise DuplicateKeyError(f"duplicate key {key!r}")
                node.nbytes += len(value) - len(node.values[idx])
                node.values[idx] = value
                self._write_node(page_no, node, new=False)
                return None
            node.keys.insert(idx, key)
            node.values.insert(idx, value)
            node.nbytes += _entry_bytes(key, value)
            self.count += 1
            if node.nbytes <= self.page_size:
                self._write_node(page_no, node, new=False)
                return None
            return self._split_leaf(page_no, node)
        idx = _upper_bound(node.keys, key)
        split = self._insert_rec(node.children[idx], level - 1, key, value,
                                 unique, replace)
        if split is None:
            return None
        sep_key, right_page = split
        node.keys.insert(idx, sep_key)
        node.children.insert(idx + 1, right_page)
        node.nbytes += 4 + _separator_bytes(sep_key)
        if node.nbytes <= self.page_size:
            self._write_node(page_no, node, new=False)
            return None
        return self._split_interior(page_no, node)

    def _split_leaf(self, page_no: int, node: _Leaf):
        # one pass over the left half per split: amortized O(1) per insert
        mid = len(node.keys) // 2
        left_bytes = _LEAF_HEADER + sum(
            map(_entry_bytes, node.keys[:mid], node.values[:mid]))
        right = _Leaf(node.keys[mid:], node.values[mid:], node.next_leaf,
                      node.nbytes - left_bytes + _LEAF_HEADER)
        right_no = self._alloc()
        left = _Leaf(node.keys[:mid], node.values[:mid], right_no, left_bytes)
        self._write_node(right_no, right)
        self._write_node(page_no, left, new=False)
        return right.keys[0], right_no

    def _split_interior(self, page_no: int, node: _Interior):
        mid = len(node.children) // 2
        sep_key = node.keys[mid - 1]
        left_bytes = (_INTERIOR_HEADER + 4 * mid
                      + sum(map(_separator_bytes, node.keys[: mid - 1])))
        right = _Interior(node.keys[mid:], node.children[mid:],
                          node.nbytes - left_bytes - _separator_bytes(sep_key)
                          + _INTERIOR_HEADER)
        left = _Interior(node.keys[: mid - 1], node.children[:mid],
                         left_bytes)
        right_no = self._alloc()
        self._write_node(right_no, right)
        self._write_node(page_no, left, new=False)
        return sep_key, right_no

    # -- bulk load --------------------------------------------------------------

    @classmethod
    def bulk_load(cls, cache: BufferCache, handle: FileHandle, pairs,
                  fill_factor: float = 1.0) -> "BTree":
        """Build a tree from key-sorted (key, value) pairs.

        This is the well-known efficient B+ tree load the Graefe lesson (E2)
        relies on: leaves are packed left to right with sequential writes and
        interior levels built on top, one pass, no splits.
        """
        tree = cls(cache, handle)
        cache.fm.append_page(handle)  # metadata page
        limit = int(cache.fm.page_size * fill_factor)
        leaves: list[tuple] = []      # (first_key, page_no)
        current = _Leaf()
        current_no = cache.fm.append_page(handle)
        count = 0
        prev_key = None

        def seal_leaf(next_no: int):
            current.next_leaf = next_no
            tree._write_node(current_no, current)
            leaves.append((current.keys[0], current_no))

        for key, value in pairs:
            if prev_key is not None and compare_tuples(prev_key, key) > 0:
                raise StorageError("bulk load input not sorted")
            prev_key = key
            entry = _entry_bytes(key, value)
            if current.keys and current.nbytes + entry > limit:
                next_no = cache.fm.append_page(handle)
                seal_leaf(next_no)
                current = _Leaf()
                current_no = next_no
            current.keys.append(key)
            current.values.append(value)
            current.nbytes += entry
            count += 1

        if current.keys:
            seal_leaf(_NO_PAGE)
        else:
            tree._write_node(current_no, current)
            leaves.append((None, current_no))

        # Build interior levels bottom-up.  Each level entry is
        # (first_key_under_subtree, page_no); a parent stores its children's
        # first keys (except the leftmost's) as separators.
        level = leaves
        height = 1
        while len(level) > 1:
            next_level = []
            node = _Interior(children=[level[0][1]],
                             nbytes=_INTERIOR_HEADER + 4)
            node_first = level[0][0]
            for first_key, page_no in level[1:]:
                extra = 4 + _separator_bytes(first_key)
                if node.nbytes + extra > limit and len(node.children) >= 2:
                    no = cache.fm.append_page(handle)
                    tree._write_node(no, node)
                    next_level.append((node_first, no))
                    node = _Interior(children=[page_no],
                                     nbytes=_INTERIOR_HEADER + 4)
                    node_first = first_key
                else:
                    node.keys.append(first_key)
                    node.children.append(page_no)
                    node.nbytes += extra
            no = cache.fm.append_page(handle)
            tree._write_node(no, node)
            next_level.append((node_first, no))
            level = next_level
            height += 1

        tree.root_page = level[0][1]
        tree.height = height
        tree.count = count
        tree._write_meta()
        cache.flush_file(handle)
        return tree
