"""Storage layer: devices, files, buffer cache, access methods, LSM."""

from repro.storage.bloom import BloomFilter
from repro.storage.btree import BTree
from repro.storage.buffer_cache import BufferCache, CacheStats, CachedPage
from repro.storage.file_manager import FileHandle, FileManager
from repro.storage.iodevice import IODevice, IOStats
from repro.storage.mem import MemBTree, MemRTree
from repro.storage.rtree import RTree

__all__ = [
    "BTree",
    "BloomFilter",
    "BufferCache",
    "CacheStats",
    "CachedPage",
    "FileHandle",
    "FileManager",
    "IODevice",
    "IOStats",
    "MemBTree",
    "MemRTree",
    "RTree",
]
