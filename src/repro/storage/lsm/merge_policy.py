"""LSM merge policies.

How aggressively disk components are merged is the central LSM design
trade-off: fewer components make reads cheap but cost write amplification.
AsterixDB ships several policies; we implement the three that span the
space, and benchmark E10 ablates them:

* :class:`NoMergePolicy` — never merge (read-pessimal, write-optimal).
* :class:`ConstantMergePolicy` — keep at most ``num_components`` on disk;
  merge them all when the bound is exceeded.
* :class:`PrefixMergePolicy` — AsterixDB's default: merge a *prefix*
  (newest-first) run of small components once their combined size passes a
  threshold, leaving large, settled components alone.
"""

from __future__ import annotations

from repro.storage.lsm.component import DiskComponent


class MergePolicy:
    """Strategy interface: given the disk components (newest first), return
    the contiguous newest-first slice to merge, or None."""

    def select(self, components: list[DiskComponent]) -> slice | None:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}()"


class NoMergePolicy(MergePolicy):
    """Never merge; components accumulate until the index is dropped."""

    def select(self, components):
        return None


class ConstantMergePolicy(MergePolicy):
    """Bound the number of disk components; full merge when exceeded."""

    def __init__(self, num_components: int = 4):
        self.num_components = num_components

    def select(self, components):
        if len(components) > self.num_components:
            return slice(0, len(components))
        return None

    def __repr__(self):
        return f"ConstantMergePolicy({self.num_components})"


class PrefixMergePolicy(MergePolicy):
    """AsterixDB's default policy (simplified).

    Scanning newest-first, find the longest prefix of components each
    smaller than ``max_mergable_size`` entries; merge that prefix if it has
    more than ``max_tolerance_count`` components or its total size passes
    ``max_mergable_size``.
    """

    def __init__(self, max_mergable_size: int = 100_000,
                 max_tolerance_count: int = 5):
        self.max_mergable_size = max_mergable_size
        self.max_tolerance_count = max_tolerance_count

    def select(self, components):
        prefix_len = 0
        prefix_size = 0
        for comp in components:
            if comp.num_entries >= self.max_mergable_size:
                break
            prefix_len += 1
            prefix_size += comp.num_entries
        if prefix_len < 2:
            return None
        if (prefix_len > self.max_tolerance_count
                or prefix_size >= self.max_mergable_size):
            return slice(0, prefix_len)
        return None

    def __repr__(self):
        return (f"PrefixMergePolicy(max_mergable_size="
                f"{self.max_mergable_size}, max_tolerance_count="
                f"{self.max_tolerance_count})")
