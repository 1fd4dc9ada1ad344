"""The LSM lifecycle every index kind shares.

AsterixDB "LSM-ifies" an index ("AsterixDB: A Scalable, Open Source
BDMS"): one framework owns the component stack — a memory component plus
immutable disk components, newest first — and its flush, merge,
manifest, recovery and drop, whatever index sits inside a component.
:class:`LSMIndex` is that framework.  A component kind (``LSMBTree``,
``LSMRTree``) is an adapter supplying only what differs by kind:

* ``_memory_empty()`` / ``_clear_memory()`` — its memory component;
* ``_flush_into(comp)`` / ``_merge_into(comp, merged, includes_oldest)`` —
  bulk-load a new component, whose main file the harness created;
* ``_reopen_into(comp, entry)`` — reopen one manifest entry;
* ``_extra_files(comp)`` — files a component owns beyond its main file
  (open page-file handles, or paths of plain sidecar files);
* ``_manifest_entry(comp)`` — extended with the kind's own fields.

The manifest is the durability point: recovery reopens what it lists,
so merged-away files are deleted only once a saved manifest drops them,
and recovery deletes the index's component files no entry lists.
While an entity transaction writes an index it sets :attr:`LSMIndex.held`:
a component flushed then holds an uncommitted write, so the manifest
save waits for the commit (:meth:`save_deferred`).  An abort clears
``held`` without writing; the next save catches up.
"""

from __future__ import annotations

import json
import os
import re
from contextlib import suppress

from repro.storage.buffer_cache import BufferCache
from repro.storage.file_manager import FileManager
from repro.storage.lsm.component import DiskComponent, LSMStats
from repro.storage.lsm.merge_policy import MergePolicy, PrefixMergePolicy


class LSMIndex:
    """A stack of LSM components with one flush/merge/recover lifecycle."""

    #: extension of a component's main page file
    ext = ""
    #: set while an entity transaction writes this index: a flush or merge
    #: then defers the manifest save to :meth:`save_deferred`
    held = False

    def __init__(self, fm: FileManager, cache: BufferCache, name: str, *,
                 memory_budget_bytes: int = 256 * 1024,
                 merge_policy: MergePolicy | None = None,
                 device_hint: int = 0):
        self.fm = fm
        self.cache = cache
        self.name = name
        self.memory_budget_bytes = memory_budget_bytes
        self.merge_policy = merge_policy or PrefixMergePolicy()
        self.device_hint = device_hint
        self.memory_lsn = 0
        self.components: list[DiskComponent] = []   # newest first
        self.stats = LSMStats()
        self._next_seq = 0
        self._durable_lsn = 0
        self._unsaved = False
        self._obsolete: list[DiskComponent] = []   # merged away, not deleted

    @property
    def num_disk_components(self) -> int:
        return len(self.components)

    def durable_lsn(self) -> int:
        """Newest LSN guaranteed durable (max over the disk components
        the saved manifest lists)."""
        return self._durable_lsn

    def _new_component(self, component_id: tuple, lsn: int) -> DiskComponent:
        """A component with an empty main file ``{name}_c{lo}[-{hi}].ext``."""
        lo, hi = component_id
        stem = f"{self.name}_c{lo}" if lo == hi else f"{self.name}_c{lo}-{hi}"
        handle = self.fm.create_file(f"{stem}.{self.ext}", self.device_hint)
        return DiskComponent(component_id, None, handle, 0, lsn)

    def _delete_files(self, comp: DiskComponent) -> None:
        for file in (comp.handle, *self._extra_files(comp)):
            if isinstance(file, str):
                with suppress(FileNotFoundError):
                    os.remove(file)
            else:
                self.cache.evict_file(file)
                self.fm.delete_file(file)

    # -- flush and merge ----------------------------------------------------

    def flush(self) -> DiskComponent | None:
        """Seal the memory component into a new disk component."""
        if self._memory_empty():
            return None
        seq = self._next_seq
        self._next_seq += 1
        comp = self._new_component((seq, seq), self.memory_lsn)
        self._flush_into(comp)
        self.components.insert(0, comp)
        self._clear_memory()
        self.memory_lsn = 0
        self.stats.flushes += 1
        self.stats.entries_flushed += comp.num_entries
        selection = self.merge_policy.select(self.components)
        if selection is not None:
            self.merge(selection)
        self._save_manifest()
        return comp

    def merge(self, selection: slice | None = None) -> DiskComponent | None:
        """Merge a newest-first slice of disk components (default: all).
        A merge that leaves older components behind must keep its
        tombstones; one that includes the oldest may purge them."""
        if selection is None:
            selection = slice(0, len(self.components))
        merged = self.components[selection]
        if len(merged) < 2:
            return None
        includes_oldest = selection.stop >= len(self.components)
        ids = [c.component_id for c in merged]
        comp = self._new_component(
            (min(lo for lo, _ in ids), max(hi for _, hi in ids)),
            max(c.lsn for c in merged))
        self._merge_into(comp, merged, includes_oldest)
        self.components[selection] = [comp]
        self.stats.merges += 1
        self.stats.merged_components += len(merged)
        self.stats.entries_merged += comp.num_entries
        self._obsolete += merged
        self._save_manifest()
        return comp

    # -- manifest, recovery, drop -------------------------------------------

    def _manifest_path(self) -> str:
        device = self.fm.devices[self.device_hint % len(self.fm.devices)]
        return device.path_of(f"{self.name}.manifest")

    def _manifest_entry(self, comp: DiskComponent) -> dict:
        return {"file": comp.handle.rel_path, "id": list(comp.component_id),
                "entries": comp.num_entries, "lsn": comp.lsn}

    def _save_manifest(self) -> None:
        """Persist the component list so the index survives a crash.

        Tiny metadata (one JSON object per component) written outside the
        counted page I/O, like AsterixDB's component metadata files; it is
        written beside the manifest and renamed over it, so a save that
        dies partway leaves the previous manifest whole."""
        if self.held:
            self._unsaved = True
            return
        path = self._manifest_path()
        with open(path + ".tmp", "w") as f:
            json.dump([self._manifest_entry(c) for c in self.components], f)
        os.replace(path + ".tmp", path)
        self._unsaved = False
        self._durable_lsn = max((c.lsn for c in self.components), default=0)
        for old in self._obsolete:   # only now unreachable from recovery
            self._delete_files(old)
        self._obsolete.clear()

    def save_deferred(self) -> None:
        """Save the manifest a held flush or merge left unsaved."""
        if self._unsaved:
            self._save_manifest()

    @classmethod
    def recover(cls, fm: FileManager, cache: BufferCache, name: str,
                **kwargs) -> "LSMIndex":
        """Reopen an index from its manifest after a crash (the memory
        component is gone: that is what the WAL replay restores)."""
        lsm = cls(fm, cache, name, **kwargs)
        lsm.load_manifest()
        return lsm

    def load_manifest(self) -> None:
        """Append the disk components the manifest lists (if any), then
        delete this index's component files that no entry lists."""
        try:
            with open(self._manifest_path()) as f:
                entries = json.load(f)
        except FileNotFoundError:
            entries = []
        for entry in entries:
            comp = DiskComponent(
                tuple(entry["id"]), None,
                self.fm.open_file(entry["file"], self.device_hint),
                entry["entries"], entry["lsn"])
            self._reopen_into(comp, entry)
            self.components.append(comp)
        self._next_seq = max((c.component_id[1] for c in self.components),
                             default=-1) + 1
        self._durable_lsn = max((c.lsn for c in self.components), default=0)
        self._delete_unlisted()

    def _delete_unlisted(self) -> None:
        """Remove component files of this index that the manifest does not
        list: the output of a held flush or merge the node crashed before
        saving, or merged-away files the crash kept from being deleted.
        The name pattern is exact, so index ``a`` leaves ``a_c1``'s files
        alone."""
        directory = os.path.dirname(self._manifest_path())
        listed = {os.path.basename(f if isinstance(f, str) else f.path)
                  for c in self.components
                  for f in (c.handle, *self._extra_files(c))}
        ours = re.compile(
            re.escape(os.path.basename(self.name))
            + r"_c\d+(-\d+)?\.(btree|btree\.bloom|rtree|deleted)")
        with suppress(FileNotFoundError):
            for file in os.listdir(directory):
                if ours.fullmatch(file) and file not in listed:
                    os.remove(os.path.join(directory, file))

    def drop(self) -> None:
        """Delete every file backing this index, sidecars included."""
        for comp in self.components + self._obsolete:
            self._delete_files(comp)
        self.components.clear()
        self._obsolete.clear()
        self._clear_memory()
        for path in (self._manifest_path(), self._manifest_path() + ".tmp"):
            with suppress(FileNotFoundError):
                os.remove(path)
