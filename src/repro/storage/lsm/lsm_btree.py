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
import struct
from contextlib import suppress

from repro.adm.comparators import order_part
from repro.common.errors import DuplicateKeyError
from repro.storage.bloom import BloomFilter
from repro.storage.btree import BTree
from repro.storage.buffer_cache import BufferCache
from repro.storage.file_manager import FileManager
from repro.storage.lsm.component import ANTIMATTER, decode, encode_matter
from repro.storage.lsm.lsm_index import LSMIndex
from repro.storage.lsm.synopsis import ComponentSynopsis, SynopsisBuilder
from repro.storage.mem import MemBTree


class LSMBTree(LSMIndex):
    """An LSM-structured B+ tree: composite ADM key -> value bytes.

    Each disk component is a bulk-loaded :class:`BTree` plus a bloom
    filter persisted beside it as a ``.bloom`` sidecar file."""

    ext = "btree"

    def __init__(self, fm: FileManager, cache: BufferCache, name: str, *,
                 bloom_fpr: float = 0.01, **kwargs):
        super().__init__(fm, cache, name, **kwargs)
        self.bloom_fpr = bloom_fpr
        self.memory = MemBTree()
        #: optional ``(key, payload_bytes) -> {path: value} | None`` hook;
        #: when set, flush and merge build a per-component synopsis while
        #: they stream entries (see :mod:`repro.storage.lsm.synopsis`)
        self.synopsis_extractor = None

    # -- write path -----------------------------------------------------------

    def upsert(self, key, value: bytes, lsn: int = 0) -> None:
        """Insert or replace; Fig. 3(d)'s UPSERT bottoms out here."""
        self.memory.put(key, encode_matter(value))
        self.memory_lsn = max(self.memory_lsn, lsn)
        if self.memory.bytes_used >= self.memory_budget_bytes:
            self.flush()

    def insert_unique(self, key, value: bytes, lsn: int = 0) -> None:
        """Primary-index INSERT: duplicate keys are an error."""
        if self.search(key) is not None:
            raise DuplicateKeyError(f"duplicate key {key!r} in {self.name}")
        self.upsert(key, value, lsn)

    def delete(self, key, lsn: int = 0) -> None:
        """Write an antimatter record for ``key``."""
        self.memory.put(key, ANTIMATTER)
        self.memory_lsn = max(self.memory_lsn, lsn)
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

    def __len__(self):
        """Exact live-entry count (walks the merged scan)."""
        return sum(1 for _ in self.scan())

    # -- component-kind hooks (see LSMIndex) -----------------------------------

    def _memory_empty(self) -> bool:
        return len(self.memory) == 0

    def _clear_memory(self) -> None:
        self.memory.clear()

    def _flush_into(self, comp) -> None:
        self._load(comp, self.memory.items(), len(self.memory))

    def _merge_into(self, comp, merged, includes_oldest: bool) -> None:
        items = _merge_newest_wins([c.index.range_scan() for c in merged],
                                   keep_antimatter=True)
        if includes_oldest:   # nothing older left to annihilate
            items = ((key, raw) for key, raw in items if not decode(raw)[0])
        self._load(comp, items, sum(c.num_entries for c in merged))

    def _load(self, comp, items, expected: int) -> None:
        """Bulk-load ``comp`` from key-sorted (key, raw) items, building its
        bloom filter (and synopsis, when an extractor is installed) as
        they stream, then write the bloom sidecar."""
        bloom = BloomFilter(expected, self.bloom_fpr)
        extract = self.synopsis_extractor
        builder = SynopsisBuilder() if extract is not None else None

        def indexed():
            for key, raw in items:
                bloom.add(key)
                if builder is not None:
                    anti, payload = decode(raw)
                    if not anti:
                        builder.add(extract(key, payload))
                yield key, raw

        comp.index = BTree.bulk_load(self.cache, comp.handle, indexed())
        comp.num_entries = comp.index.count
        comp.bloom = bloom
        comp.synopsis = builder.build() if builder is not None else None
        with open(comp.handle.path + ".bloom", "wb") as f:
            f.write(struct.pack(">IIQ", bloom.num_bits, bloom.num_hashes,
                                bloom.count))
            f.write(bloom.to_bytes())

    def _reopen_into(self, comp, entry: dict) -> None:
        comp.index = BTree.open(self.cache, comp.handle)
        comp.synopsis = ComponentSynopsis.from_dict(entry.get("synopsis"))
        with suppress(FileNotFoundError), \
                open(comp.handle.path + ".bloom", "rb") as f:
            num_bits, num_hashes, count = struct.unpack(">IIQ", f.read(16))
            comp.bloom = BloomFilter.from_state(num_bits, num_hashes, count,
                                                f.read())

    def _extra_files(self, comp) -> list:
        return [comp.handle.path + ".bloom"]

    def _manifest_entry(self, comp) -> dict:
        return {**super()._manifest_entry(comp),
                "synopsis": (comp.synopsis.to_dict()
                             if comp.synopsis is not None else None)}

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
