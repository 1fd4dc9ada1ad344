"""Page-file management over I/O devices.

A :class:`FileManager` owns the open page files of one node.  Files are
sequences of fixed-size pages stored in real OS files; every page read/write
goes through here so the device's :class:`~repro.storage.iodevice.IOStats`
stay accurate.  Callers normally access pages through the buffer cache, not
directly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.common.errors import StorageError
from repro.storage.iodevice import IODevice


@dataclass
class FileHandle:
    """An open page file."""

    file_id: int
    device: IODevice
    rel_path: str
    page_size: int
    num_pages: int = 0
    deleted: bool = False
    _fd: object = field(default=None, repr=False)

    @property
    def path(self) -> str:
        return self.device.path_of(self.rel_path)


class FileManager:
    """Creates, opens, grows, and deletes page files on a node's devices."""

    def __init__(self, devices: list[IODevice], page_size: int,
                 injector=None):
        if not devices:
            raise StorageError("a node needs at least one I/O device")
        self.devices = devices
        self.page_size = page_size
        #: Optional fault injector (duck-typed: ``hit(site, **ctx)``);
        #: armed schedules can fail individual page accesses at the
        #: ``disk.read_page`` / ``disk.write_page`` sites.
        self.injector = injector
        self._next_file_id = 0
        self._files: dict[int, FileHandle] = {}

    # -- lifecycle -----------------------------------------------------------

    def create_file(self, rel_path: str, device_hint: int = 0) -> FileHandle:
        """Create a new, empty page file on the hinted device."""
        device = self.devices[device_hint % len(self.devices)]
        path = device.path_of(rel_path)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        fd = open(path, "w+b")
        handle = FileHandle(
            file_id=self._next_file_id,
            device=device,
            rel_path=rel_path,
            page_size=self.page_size,
            _fd=fd,
        )
        self._next_file_id += 1
        self._files[handle.file_id] = handle
        return handle

    def open_file(self, rel_path: str, device_hint: int = 0) -> FileHandle:
        """Open an existing page file (e.g. during recovery)."""
        device = self.devices[device_hint % len(self.devices)]
        path = device.path_of(rel_path)
        if not os.path.exists(path):
            raise StorageError(f"no such file: {path}")
        fd = open(path, "r+b")
        size = os.path.getsize(path)
        handle = FileHandle(
            file_id=self._next_file_id,
            device=device,
            rel_path=rel_path,
            page_size=self.page_size,
            num_pages=size // self.page_size,
            _fd=fd,
        )
        self._next_file_id += 1
        self._files[handle.file_id] = handle
        return handle

    def delete_file(self, handle: FileHandle) -> None:
        if handle.deleted:
            return
        handle._fd.close()
        try:
            os.remove(handle.path)
        except FileNotFoundError:
            pass
        handle.deleted = True
        self._files.pop(handle.file_id, None)

    def handles_under(self, prefix: str) -> list[FileHandle]:
        """Open handles whose ``rel_path`` starts with ``prefix`` (e.g.
        ``"temp/"`` — the job retry loop purges those between attempts,
        since an aborted attempt's spill files are garbage)."""
        return [h for h in self._files.values()
                if h.rel_path.startswith(prefix)]

    def get(self, file_id: int) -> FileHandle:
        try:
            return self._files[file_id]
        except KeyError:
            raise StorageError(f"unknown file id {file_id}") from None

    def close(self) -> None:
        for handle in list(self._files.values()):
            handle._fd.close()
        self._files.clear()

    # -- page I/O -----------------------------------------------------------

    def read_page(self, handle: FileHandle, page_no: int,
                  sequential: bool = False) -> bytearray:
        if handle.deleted:
            raise StorageError(f"read from deleted file {handle.rel_path}")
        if page_no >= handle.num_pages:
            raise StorageError(
                f"page {page_no} out of range for {handle.rel_path} "
                f"({handle.num_pages} pages)"
            )
        if self.injector is not None:
            self.injector.hit("disk.read_page", path=handle.rel_path,
                              page=page_no)
        handle._fd.seek(page_no * self.page_size)
        data = handle._fd.read(self.page_size)
        if sequential:
            handle.device.stats.seq_reads += 1
        else:
            handle.device.stats.reads += 1
        buf = bytearray(self.page_size)
        buf[: len(data)] = data
        return buf

    def write_page(self, handle: FileHandle, page_no: int, data,
                   sequential: bool = False) -> None:
        if handle.deleted:
            raise StorageError(f"write to deleted file {handle.rel_path}")
        if len(data) != self.page_size:
            raise StorageError(
                f"page write of {len(data)} bytes (page size "
                f"{self.page_size})"
            )
        if self.injector is not None:
            self.injector.hit("disk.write_page", path=handle.rel_path,
                              page=page_no)
        handle._fd.seek(page_no * self.page_size)
        handle._fd.write(data)
        if sequential:
            handle.device.stats.seq_writes += 1
        else:
            handle.device.stats.writes += 1
        if page_no >= handle.num_pages:
            handle.num_pages = page_no + 1

    def append_page(self, handle: FileHandle) -> int:
        """Extend the file by one zeroed page; returns its page number."""
        page_no = handle.num_pages
        handle.num_pages += 1
        return page_no

    def sync(self, handle: FileHandle) -> None:
        handle._fd.flush()
