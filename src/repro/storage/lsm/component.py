"""LSM component descriptors.

An LSM index is a stack of components: one mutable in-memory component
absorbing writes (paper Fig. 2, "ingestion buffering") and a sequence of
immutable disk components, newest first.  Deletes are *antimatter* records —
a tombstone that annihilates any matching entry in older components — so
disk components are never modified in place; they only ever get created by
flushes and merges, and destroyed after merges.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.observability.metrics import get_registry


# value encodings inside LSM B+ tree components
MATTER = b"\x01"
ANTIMATTER = b"\x00"


def encode_matter(value: bytes) -> bytes:
    return MATTER + value


def decode(value: bytes):
    """Return (is_antimatter, payload)."""
    if value[:1] == ANTIMATTER:
        return True, b""
    return False, value[1:]


@dataclass
class DiskComponent:
    """One immutable on-disk component.

    ``component_id`` is a (min_seq, max_seq) pair: a flushed component has
    min == max; a merged component spans the ids it absorbed — the standard
    LSM bookkeeping that lets recovery reason about what a component
    contains.  ``lsn`` is the newest log record reflected in the component;
    recovery replays only log records newer than it.
    """

    component_id: tuple
    index: object                 # BTree or RTree over this component's file
    handle: object                # FileHandle
    num_entries: int
    lsn: int = 0
    bloom: object = None          # BloomFilter | None
    deleted_keys: object = None   # companion deleted-key BTree (LSM R-tree)
    deleted_handle: object = None
    synopsis: object = None       # ComponentSynopsis | None (cost stats)


#: LSMStats fields mirrored into the process-wide metrics registry as
#: ``lsm.<field>`` counters, aggregated over every LSM index in the
#: process (docs/OBSERVABILITY.md documents the vocabulary).
_MIRRORED_FIELDS = (
    "flushes", "merges", "merged_components", "entries_flushed",
    "entries_merged", "searches", "bloom_skips", "components_searched",
)

_MIRROR_COUNTERS = {
    name: get_registry().counter(f"lsm.{name}") for name in _MIRRORED_FIELDS
}


@dataclass
class LSMStats:
    """Lifecycle counters for one LSM index.

    Increments are mirrored into the registry's aggregate ``lsm.*``
    counters, so every B+ tree / R-tree / inverted index lifecycle event
    is visible process-wide without threading a registry handle through
    the storage layer.
    """

    flushes: int = 0
    merges: int = 0
    merged_components: int = 0
    entries_flushed: int = 0
    entries_merged: int = 0
    searches: int = 0
    bloom_skips: int = 0
    components_searched: int = 0

    def __setattr__(self, name, value):
        if name in _MIRROR_COUNTERS:
            delta = value - getattr(self, name, 0)
            if delta > 0:
                _MIRROR_COUNTERS[name].inc(delta)
        object.__setattr__(self, name, value)
