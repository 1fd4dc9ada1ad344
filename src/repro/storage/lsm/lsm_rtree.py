"""The LSM R-tree — AsterixDB's spatial secondary index.

Entries are (mbr, key) pairs where ``key`` is the full logical entry key —
for a secondary index on a point field, ``(x, y, pk...)`` — so an entry is
uniquely identified by its key tuple.  R-trees don't support antimatter
in-place (entries aren't totally ordered), so each component carries a
companion *deleted-key B+ tree*: a delete writes the victim's key there, and
searches suppress entries whose key appears in any newer component's
deleted-key set.  This is exactly the LSM-deletion design change the paper
says was folded back into Apache AsterixDB after the spatial-index study
(§V-B), along with the point-storage optimization implemented in
:mod:`repro.storage.rtree` (points stored as 2 doubles, not degenerate
4-double boxes).

Flushes STR-bulk-load an immutable disk R-tree; merges consolidate matter
entries and deleted-key sets with the same newest-wins rules as the LSM B+
tree.
"""

from __future__ import annotations

import os

from repro.adm.comparators import tuple_key
from repro.adm.serializer import deserialize_tuple, serialize_tuple
from repro.adm.values import ARectangle
from repro.storage.btree import BTree
from repro.storage.buffer_cache import BufferCache
from repro.storage.file_manager import FileManager
from repro.storage.lsm.component import ANTIMATTER
from repro.storage.lsm.lsm_index import LSMIndex
from repro.storage.mem import MemBTree, MemRTree
from repro.storage.rtree import RTree


class LSMRTree(LSMIndex):
    """An LSM-structured R-tree: (mbr, key tuple) entries with window search.

    Each disk component is an STR-bulk-loaded :class:`RTree` plus its
    deleted-key :class:`BTree` in a companion ``.deleted`` page file."""

    ext = "rtree"

    def __init__(self, fm: FileManager, cache: BufferCache, name: str,
                 **kwargs):
        super().__init__(fm, cache, name, **kwargs)
        self.memory = MemRTree()
        self.memory_deleted = MemBTree()

    # -- write path -----------------------------------------------------------

    def insert(self, mbr: ARectangle, key, lsn: int = 0) -> None:
        # A re-insert of a previously deleted key resurrects it: drop the
        # pending tombstone (the duplicate-suppressing search dedupe makes
        # the surviving older copy indistinguishable from the new one).
        if key in self.memory_deleted:
            self.memory_deleted.put(key, b"+")
        self.memory.insert(mbr, key, b"")
        self.memory_lsn = max(self.memory_lsn, lsn)
        if (self.memory.bytes_used + self.memory_deleted.bytes_used
                >= self.memory_budget_bytes):
            self.flush()

    def delete(self, key, lsn: int = 0) -> None:
        self.memory_deleted.put(key, b"-")
        self.memory_lsn = max(self.memory_lsn, lsn)
        if (self.memory.bytes_used + self.memory_deleted.bytes_used
                >= self.memory_budget_bytes):
            self.flush()

    # -- read path --------------------------------------------------------------

    def search(self, window: ARectangle):
        """Yield key tuples of live entries whose MBR intersects window."""
        self.stats.searches += 1
        seen: set[bytes] = set()
        # memory component first
        killed = {
            serialize_tuple(k)
            for k, v in self.memory_deleted.items() if v == b"-"
        }
        for _, key, _ in self.memory.search(window):
            kb = serialize_tuple(key)
            if kb in killed or kb in seen:
                continue
            seen.add(kb)
            yield key
        for comp in self.components:
            self.stats.components_searched += 1
            for _, payload in comp.index.search(window):
                if payload in killed or payload in seen:
                    continue
                seen.add(payload)
                yield deserialize_tuple(payload)
            for dkey, _ in comp.deleted_keys.range_scan():
                killed.add(serialize_tuple(dkey))

    def __len__(self):
        """Exact live-entry count (search()'s kill-set walk, uncounted)."""
        killed = {serialize_tuple(k) for k in self._pending_deletes()}
        live = {serialize_tuple(k) for _, k, _ in self.memory.items()} - killed
        for comp in self.components:
            live.update(p for _, p in comp.index.scan_all()
                        if p not in killed)
            killed.update(serialize_tuple(k)
                          for k, _ in comp.deleted_keys.range_scan())
        return len(live)

    # -- component-kind hooks (see LSMIndex) -----------------------------------

    def _pending_deletes(self) -> list:
        """Keys the memory component holds a live tombstone for."""
        return [k for k, v in self.memory_deleted.items() if v == b"-"]

    def _memory_empty(self) -> bool:
        return not len(self.memory) and not self._pending_deletes()

    def _clear_memory(self) -> None:
        self.memory.clear()
        self.memory_deleted.clear()

    def _flush_into(self, comp) -> None:
        # annihilate within the memory component: an entry deleted after
        # being inserted in the same component must not be flushed as
        # matter (its tombstone, living in the same component, would only
        # apply to *older* components and the entry would resurrect)
        deleted = self._pending_deletes()
        deleted_now = {serialize_tuple(k) for k in deleted}
        entries = [
            (mbr, serialize_tuple(key))
            for mbr, key, _ in self.memory.items()
            if serialize_tuple(key) not in deleted_now
        ]
        self._load(comp, entries, [(k, ANTIMATTER) for k in deleted])

    def _merge_into(self, comp, merged, includes_oldest: bool) -> None:
        # matter: newest-first walk with kill sets, as in search()
        seen: set[bytes] = set()
        killed: set[bytes] = set()
        entries = []
        deleted_union: dict[bytes, tuple] = {}
        for old in merged:
            for mbr, payload in old.index.scan_all():
                if payload in killed or payload in seen:
                    continue
                seen.add(payload)
                entries.append((mbr, payload))
            for dkey, _ in old.deleted_keys.range_scan():
                kb = serialize_tuple(dkey)
                killed.add(kb)
                deleted_union.setdefault(kb, dkey)
        if includes_oldest:
            deleted_items = []
        else:
            # tombstones must survive to kill entries in older components;
            # ones whose key re-appeared as matter here are spent
            deleted_items = sorted(
                ((dkey, ANTIMATTER) for kb, dkey in deleted_union.items()
                 if kb not in seen),
                key=lambda kv: tuple_key(kv[0]),
            )
        self._load(comp, entries, deleted_items)

    def _load(self, comp, entries, deleted_items) -> None:
        comp.index = RTree.bulk_load(self.cache, comp.handle, entries)
        comp.num_entries = len(entries)
        comp.deleted_handle = self.fm.create_file(
            os.path.splitext(comp.handle.rel_path)[0] + ".deleted",
            self.device_hint)
        comp.deleted_keys = BTree.bulk_load(self.cache, comp.deleted_handle,
                                            deleted_items)

    def _reopen_into(self, comp, entry: dict) -> None:
        comp.deleted_handle = self.fm.open_file(entry["deleted_file"],
                                                self.device_hint)
        comp.index = RTree.open(self.cache, comp.handle)
        comp.deleted_keys = BTree.open(self.cache, comp.deleted_handle)

    def _extra_files(self, comp) -> list:
        return [comp.deleted_handle]

    def _manifest_entry(self, comp) -> dict:
        entry = super()._manifest_entry(comp)
        # the on-disk key order puts the companion file right after "file"
        return {"file": entry.pop("file"),
                "deleted_file": comp.deleted_handle.rel_path, **entry}
