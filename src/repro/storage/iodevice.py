"""I/O devices: where LSM components live (paper Fig. 2).

Each AsterixDB node "can have multiple I/O devices, with each storing the LSM
components associated with a dataset partition".  A device here is a real
directory holding real page files, plus the counters that feed both the
benchmark reports and the simulated-time clock (DESIGN.md, Substitutions):
random and sequential page reads/writes are counted separately because the
cost model charges them differently.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field


@dataclass
class IOStats:
    """Physical I/O counters for one device."""

    reads: int = 0
    writes: int = 0
    seq_reads: int = 0
    seq_writes: int = 0

    def snapshot(self) -> "IOStats":
        return IOStats(self.reads, self.writes, self.seq_reads,
                       self.seq_writes)

    def diff(self, before: "IOStats") -> "IOStats":
        return IOStats(
            self.reads - before.reads,
            self.writes - before.writes,
            self.seq_reads - before.seq_reads,
            self.seq_writes - before.seq_writes,
        )

    @property
    def total_reads(self) -> int:
        return self.reads + self.seq_reads

    @property
    def total_writes(self) -> int:
        return self.writes + self.seq_writes

    def __add__(self, other: "IOStats") -> "IOStats":
        return IOStats(
            self.reads + other.reads,
            self.writes + other.writes,
            self.seq_reads + other.seq_reads,
            self.seq_writes + other.seq_writes,
        )


@dataclass
class IODevice:
    """One storage device: a directory of page files with I/O accounting."""

    device_id: int
    root: str
    stats: IOStats = field(default_factory=IOStats)

    def __post_init__(self):
        os.makedirs(self.root, exist_ok=True)

    def path_of(self, rel_path: str) -> str:
        return os.path.join(self.root, rel_path)

    def reset_stats(self) -> None:
        self.stats = IOStats()
