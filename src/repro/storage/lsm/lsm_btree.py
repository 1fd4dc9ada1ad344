"""The LSM B+ tree.

"The data objects in a given dataset are stored in partitions of LSM-based
B+ trees" (paper Section III): this structure is the primary index of every
dataset partition, and — keyed on (secondary key, primary key) — also every
B+ tree secondary index, the inverted index's postings store, and the
linearized spatial competitors of experiment E1.

Writes go to a byte-budgeted memory component; exceeding the budget flushes
it to an immutable, bulk-loaded, bloom-filtered disk component.  Deletes are
antimatter records.  Point lookups consult components newest-first (bloom
filters skip most disk components); range scans merge all components with
newest-wins semantics.  A merge policy consolidates disk components.
"""

from __future__ import annotations

import heapq

from repro.adm.comparators import order_part
from repro.common.errors import DuplicateKeyError
from repro.storage.bloom import BloomFilter
from repro.storage.btree import BTree
from repro.storage.buffer_cache import BufferCache
from repro.storage.file_manager import FileManager
from repro.storage.lsm.component import (
    ANTIMATTER,
    DiskComponent,
    LSMStats,
    decode,
    encode_matter,
)
from repro.storage.lsm.merge_policy import MergePolicy, PrefixMergePolicy
from repro.storage.lsm.synopsis import ComponentSynopsis, SynopsisBuilder
from repro.storage.mem import MemBTree


class LSMBTree:
    """An LSM-structured B+ tree: composite ADM key -> value bytes."""

    def __init__(self, fm: FileManager, cache: BufferCache, name: str, *,
                 memory_budget_bytes: int = 256 * 1024,
                 merge_policy: MergePolicy | None = None,
                 bloom_fpr: float = 0.01,
                 device_hint: int = 0):
        self.fm = fm
        self.cache = cache
        self.name = name
        self.memory_budget_bytes = memory_budget_bytes
        self.merge_policy = merge_policy or PrefixMergePolicy()
        self.bloom_fpr = bloom_fpr
        self.device_hint = device_hint
        self.memory = MemBTree()
        self.memory_lsn = 0
        self.components: list[DiskComponent] = []   # newest first
        self.stats = LSMStats()
        self._next_seq = 0
        #: optional ``(key, payload_bytes) -> {path: value} | None`` hook;
        #: when set, flush and merge build a per-component synopsis while
        #: they stream entries (see :mod:`repro.storage.lsm.synopsis`)
        self.synopsis_extractor = None

    # -- write path -----------------------------------------------------------

    def upsert(self, key, value: bytes, lsn: int = 0) -> None:
        """Insert or replace; Fig. 3(d)'s UPSERT bottoms out here."""
        self.memory.put(key, encode_matter(value))
        self.memory_lsn = max(self.memory_lsn, lsn)
        self._maybe_flush()

    def insert_unique(self, key, value: bytes, lsn: int = 0) -> None:
        """Primary-index INSERT: duplicate keys are an error."""
        if self.search(key) is not None:
            raise DuplicateKeyError(f"duplicate key {key!r} in {self.name}")
        self.upsert(key, value, lsn)

    def delete(self, key, lsn: int = 0) -> None:
        """Write an antimatter record for ``key``."""
        self.memory.put(key, ANTIMATTER)
        self.memory_lsn = max(self.memory_lsn, lsn)
        self._maybe_flush()

    def _maybe_flush(self) -> None:
        if self.memory.bytes_used >= self.memory_budget_bytes:
            self.flush()

    # -- read path --------------------------------------------------------------

    def search(self, key) -> bytes | None:
        """Point lookup; returns value bytes, or None if absent/deleted."""
        self.stats.searches += 1
        raw = self.memory.get(key)
        if raw is not None:
            self.stats.components_searched += 1
            anti, payload = decode(raw)
            return None if anti else payload
        for comp in self.components:
            if comp.bloom is not None and not comp.bloom.may_contain(key):
                self.stats.bloom_skips += 1
                continue
            self.stats.components_searched += 1
            raw = comp.index.search(key)
            if raw is not None:
                anti, payload = decode(raw)
                return None if anti else payload
        return None

    def scan(self, lo=None, hi=None, *, lo_inclusive: bool = True,
             hi_inclusive: bool = True):
        """Merged range scan: yields (key, value), newest component wins,
        antimatter suppresses older entries."""
        iterators = [
            self.memory.range_items(lo, hi, lo_inclusive=lo_inclusive,
                                    hi_inclusive=hi_inclusive)
        ]
        for comp in self.components:
            iterators.append(
                comp.index.range_scan(lo, hi, lo_inclusive=lo_inclusive,
                                      hi_inclusive=hi_inclusive)
            )
        yield from _merge_newest_wins(iterators)

    def scan_all(self):
        return self.scan()

    def __len__(self):
        """Exact live-entry count (walks the merged scan)."""
        return sum(1 for _ in self.scan())

    # -- flush ----------------------------------------------------------------------

    def flush(self) -> DiskComponent | None:
        """Seal the memory component into a new disk component."""
        if len(self.memory) == 0:
            return None
        seq = self._next_seq
        self._next_seq += 1
        handle = self.fm.create_file(f"{self.name}_c{seq}.btree",
                                     self.device_hint)
        bloom = BloomFilter(len(self.memory), self.bloom_fpr)
        builder = (SynopsisBuilder()
                   if self.synopsis_extractor is not None else None)
        items = []
        for key, raw in self.memory.items():
            bloom.add(key)
            items.append((key, raw))
            if builder is not None:
                anti, payload = decode(raw)
                if not anti:
                    builder.add(self.synopsis_extractor(key, payload))
        tree = BTree.bulk_load(self.cache, handle, items)
        comp = DiskComponent(
            component_id=(seq, seq),
            index=tree,
            handle=handle,
            num_entries=len(items),
            lsn=self.memory_lsn,
            bloom=bloom,
            synopsis=builder.build() if builder is not None else None,
        )
        self.components.insert(0, comp)
        self.memory.clear()
        self.memory_lsn = 0
        self.stats.flushes += 1
        self.stats.entries_flushed += len(items)
        self._save_bloom(handle, bloom)
        self._maybe_merge()
        self._save_manifest()
        return comp

    # -- merge ------------------------------------------------------------------------

    def _maybe_merge(self) -> None:
        selection = self.merge_policy.select(self.components)
        if selection is not None:
            self.merge(selection)

    def merge(self, selection: slice | None = None) -> DiskComponent | None:
        """Merge a newest-first slice of disk components (default: all)."""
        if selection is None:
            selection = slice(0, len(self.components))
        merged = self.components[selection]
        if len(merged) < 2:
            return None
        includes_oldest = selection.stop >= len(self.components)
        iterators = [c.index.range_scan() for c in merged]
        seq_lo = min(c.min_seq for c in merged)
        seq_hi = max(c.max_seq for c in merged)
        handle = self.fm.create_file(f"{self.name}_c{seq_lo}-{seq_hi}.btree",
                                     self.device_hint)
        expected = sum(c.num_entries for c in merged)
        bloom = BloomFilter(expected, self.bloom_fpr)

        builder = (SynopsisBuilder()
                   if self.synopsis_extractor is not None else None)

        def merged_items():
            for key, raw in _merge_newest_wins(iterators, keep_antimatter=True):
                anti, payload = decode(raw)
                if anti and includes_oldest:
                    continue  # nothing older left to annihilate
                bloom.add(key)
                if builder is not None and not anti:
                    builder.add(self.synopsis_extractor(key, payload))
                yield key, raw

        tree = BTree.bulk_load(self.cache, handle, merged_items())
        comp = DiskComponent(
            component_id=(seq_lo, seq_hi),
            index=tree,
            handle=handle,
            num_entries=tree.count,
            lsn=max(c.lsn for c in merged),
            bloom=bloom,
            synopsis=builder.build() if builder is not None else None,
        )
        self.components[selection] = [comp]
        import os

        for old in merged:
            self.cache.evict_file(old.handle)
            try:
                os.remove(self._device().path_of(old.handle.rel_path
                                                 + ".bloom"))
            except FileNotFoundError:
                pass
            self.fm.delete_file(old.handle)
        self.stats.merges += 1
        self.stats.merged_components += len(merged)
        self.stats.entries_merged += tree.count
        self._save_bloom(handle, bloom)
        self._save_manifest()
        return comp

    # -- introspection ------------------------------------------------------------------

    def synopsis(self) -> ComponentSynopsis | None:
        """Whole-index statistics: merged disk-component synopses plus an
        on-demand pass over the (byte-budgeted, hence small) memory
        component, so statistics are available without forcing a flush.
        Returns None when no extractor is installed."""
        if self.synopsis_extractor is None:
            return None
        parts = [c.synopsis for c in self.components]
        if len(self.memory):
            builder = SynopsisBuilder()
            for key, raw in self.memory.items():
                anti, payload = decode(raw)
                if not anti:
                    builder.add(self.synopsis_extractor(key, payload))
            parts.append(builder.build())
        return ComponentSynopsis.merge(parts)

    @property
    def num_disk_components(self) -> int:
        return len(self.components)

    def drop(self) -> None:
        """Delete all files backing this index, bloom sidecars included."""
        import os

        paths = [self._manifest_path()]
        for comp in self.components:
            paths.append(self._device().path_of(comp.handle.rel_path
                                                + ".bloom"))
            self.cache.evict_file(comp.handle)
            self.fm.delete_file(comp.handle)
        self.components.clear()
        self.memory.clear()
        for path in paths:
            try:
                os.remove(path)
            except FileNotFoundError:
                pass

    # -- durability (manifest + bloom sidecars) --------------------------------

    def durable_lsn(self) -> int:
        """Newest LSN guaranteed durable (max over disk components)."""
        return max((c.lsn for c in self.components), default=0)

    def _device(self):
        return self.fm.devices[self.device_hint % len(self.fm.devices)]

    def _manifest_path(self) -> str:
        return self._device().path_of(f"{self.name}.manifest")

    def _save_manifest(self) -> None:
        """Persist the component list so the index survives a crash.

        The manifest is tiny metadata (one JSON line per component) written
        outside the counted page I/O, mirroring AsterixDB's component
        metadata files."""
        import json

        entries = [
            {
                "file": comp.handle.rel_path,
                "id": list(comp.component_id),
                "entries": comp.num_entries,
                "lsn": comp.lsn,
                "synopsis": (comp.synopsis.to_dict()
                             if comp.synopsis is not None else None),
            }
            for comp in self.components
        ]
        with open(self._manifest_path(), "w") as f:
            json.dump(entries, f)

    def _save_bloom(self, handle, bloom) -> None:
        import struct as _struct

        path = self._device().path_of(handle.rel_path + ".bloom")
        with open(path, "wb") as f:
            f.write(_struct.pack(">IIQ", bloom.num_bits, bloom.num_hashes,
                                 bloom.count))
            f.write(bloom.to_bytes())

    def _load_bloom(self, rel_path: str):
        import struct as _struct

        path = self._device().path_of(rel_path + ".bloom")
        try:
            with open(path, "rb") as f:
                num_bits, num_hashes, count = _struct.unpack(
                    ">IIQ", f.read(16)
                )
                return BloomFilter.from_state(num_bits, num_hashes, count,
                                              f.read())
        except FileNotFoundError:
            return None

    @classmethod
    def recover(cls, fm: FileManager, cache: BufferCache, name: str,
                **kwargs) -> "LSMBTree":
        """Reopen an index from its manifest after a crash.

        The memory component is gone (that's what the WAL replay restores);
        disk components are reopened read-only with their persisted blooms
        and LSNs."""
        import json

        lsm = cls(fm, cache, name, **kwargs)
        try:
            with open(lsm._manifest_path()) as f:
                entries = json.load(f)
        except FileNotFoundError:
            return lsm
        max_seq = -1
        for entry in entries:
            handle = fm.open_file(entry["file"], lsm.device_hint)
            tree = BTree.open(cache, handle)
            comp = DiskComponent(
                component_id=tuple(entry["id"]),
                index=tree,
                handle=handle,
                num_entries=entry["entries"],
                lsn=entry["lsn"],
                bloom=lsm._load_bloom(entry["file"]),
                synopsis=ComponentSynopsis.from_dict(entry.get("synopsis")),
            )
            lsm.components.append(comp)
            max_seq = max(max_seq, comp.max_seq)
        lsm._next_seq = max_seq + 1
        return lsm


def _merge_newest_wins(iterators, *, keep_antimatter: bool = False):
    """Heap-merge sorted (key, raw) iterators; iterator order is newest
    first, and for equal keys only the newest component's record survives.
    Antimatter records are dropped (the key is gone) unless
    ``keep_antimatter`` (merges that don't include the oldest component must
    retain tombstones)."""
    # heap entries carry order_part pairs, not _Key wrappers: parts order
    # and compare equal exactly like tuple_key but in the C tuple
    # comparator, and this merge runs once per entry per scan
    heap = []
    for rank, it in enumerate(iterators):
        it = iter(it)
        for key, raw in it:
            heapq.heappush(
                heap, (tuple(map(order_part, key)), rank, key, raw, it))
            break
    current_key_wrapped = None
    while heap:
        wrapped, rank, key, raw, it = heapq.heappop(heap)
        for next_key, next_raw in it:
            heapq.heappush(
                heap,
                (tuple(map(order_part, next_key)), rank, next_key,
                 next_raw, it),
            )
            break
        if current_key_wrapped is not None and wrapped == current_key_wrapped:
            continue  # an older component's version of the same key
        current_key_wrapped = wrapped
        anti, _ = decode(raw)
        if anti and not keep_antimatter:
            continue
        yield key, raw if keep_antimatter else decode(raw)[1]
