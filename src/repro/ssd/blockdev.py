"""Host-facing block device with a tiny extent-based file layer.

The paper stores embedding tables "as normal files" through the file
system, then ships each file's extent list (start LBA + length) to the
device so the EV Translator can resolve indices without the host
(Section IV-D, ``RM_create_table`` / ``RM_open_table``).

:class:`BlockDevice` provides exactly that much of a file system: named
files allocated as extents of logical pages, functional read/write, and
timed page reads on the simulation clock.  Real file systems fragment
files across several extents; an allocation policy knob lets tests
exercise multi-extent translation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

from repro.sim import Simulator
from repro.ssd.controller import SSDController


@dataclass(frozen=True)
class Extent:
    """A contiguous run of logical pages belonging to one file."""

    start_lba: int
    page_count: int

    @property
    def end_lba(self) -> int:
        return self.start_lba + self.page_count

    def byte_range(self, page_size: int) -> tuple:
        return self.start_lba * page_size, self.end_lba * page_size


@dataclass
class FileHandle:
    """A named file: its extents plus its logical size in bytes."""

    name: str
    size_bytes: int
    extents: List[Extent]

    def extent_for_offset(self, byte_offset: int, page_size: int) -> tuple:
        """Map a file-relative byte offset to ``(extent, device_offset)``."""
        if not 0 <= byte_offset < self.size_bytes:
            raise ValueError(f"offset {byte_offset} outside file {self.name!r}")
        remaining = byte_offset
        for extent in self.extents:
            extent_bytes = extent.page_count * page_size
            if remaining < extent_bytes:
                return extent, extent.start_lba * page_size + remaining
            remaining -= extent_bytes
        raise ValueError(f"offset {byte_offset} beyond extents of {self.name!r}")


class BlockDevice:
    """Extent-allocating block device over an :class:`SSDController`."""

    def __init__(
        self,
        controller: SSDController,
        max_extent_pages: Optional[int] = None,
    ) -> None:
        self.controller = controller
        self.page_size = controller.geometry.page_size
        #: Splitting allocations into extents of at most this many pages
        #: emulates file-system fragmentation.  ``None`` = one extent.
        self.max_extent_pages = max_extent_pages
        self._files: Dict[str, FileHandle] = {}
        self._next_lba = 0

    @property
    def sim(self) -> Simulator:
        return self.controller.sim

    # ------------------------------------------------------------------
    # File layer
    # ------------------------------------------------------------------
    def create_file(self, name: str, size_bytes: int) -> FileHandle:
        """Allocate a file of ``size_bytes`` (page-granular extents)."""
        if name in self._files:
            raise ValueError(f"file {name!r} already exists")
        if size_bytes <= 0:
            raise ValueError("file size must be positive")
        pages_needed = -(-size_bytes // self.page_size)
        if self._next_lba + pages_needed > self.controller.geometry.total_pages:
            raise RuntimeError("device is full")
        extents: List[Extent] = []
        remaining = pages_needed
        while remaining > 0:
            chunk = remaining
            if self.max_extent_pages is not None:
                chunk = min(chunk, self.max_extent_pages)
            extents.append(Extent(start_lba=self._next_lba, page_count=chunk))
            self._next_lba += chunk
            remaining -= chunk
        handle = FileHandle(name=name, size_bytes=size_bytes, extents=extents)
        self._files[name] = handle
        return handle

    def open_file(self, name: str) -> FileHandle:
        try:
            return self._files[name]
        except KeyError:
            raise FileNotFoundError(name) from None

    def write_file(self, name: str, data: bytes, offset: int = 0) -> None:
        """Functional write of ``data`` at a file-relative offset."""
        handle = self.open_file(name)
        if offset + len(data) > handle.size_bytes:
            raise ValueError("write beyond end of file")
        cursor = 0
        while cursor < len(data):
            _, device_offset = handle.extent_for_offset(offset + cursor, self.page_size)
            # Stay within the current page so extents are respected.
            col = device_offset % self.page_size
            chunk = min(self.page_size - col, len(data) - cursor)
            self.controller.write_logical(device_offset, data[cursor : cursor + chunk])
            cursor += chunk
        self.controller.stats.record_host_transfer(write_bytes=len(data))

    def read_file(self, name: str, offset: int, size: int) -> bytes:
        """Functional read (no simulated time)."""
        handle = self.open_file(name)
        if offset + size > handle.size_bytes:
            raise ValueError("read beyond end of file")
        out = bytearray()
        cursor = 0
        while cursor < size:
            _, device_offset = handle.extent_for_offset(offset + cursor, self.page_size)
            col = device_offset % self.page_size
            chunk = min(self.page_size - col, size - cursor)
            out += self.controller.peek_logical(device_offset, chunk)
            cursor += chunk
        return bytes(out)

    # ------------------------------------------------------------------
    # Timed host reads (page-granular, as a file system would issue)
    # ------------------------------------------------------------------
    def read_file_pages_proc(self, name: str, offset: int, size: int) -> Generator:
        """Process: read the pages covering ``[offset, offset+size)``.

        This is the fileIO path of the SSD-S baseline: whole pages
        cross to the host even when only a vector is needed.
        """
        handle = self.open_file(name)
        if offset + size > handle.size_bytes:
            raise ValueError("read beyond end of file")
        first_page = offset // self.page_size
        last_page = (offset + size - 1) // self.page_size
        events = []
        for file_page in range(first_page, last_page + 1):
            _, device_offset = handle.extent_for_offset(
                file_page * self.page_size, self.page_size
            )
            lba = device_offset // self.page_size
            events.append(self.sim.process(self.controller.read_block_proc(lba)))
        results = yield self.sim.all_of(events)
        data = b"".join(results)
        start = offset - first_page * self.page_size
        return data[start : start + size]

    def device_offset_of(self, name: str, offset: int) -> int:
        """Device byte address of a file-relative offset (for EV path)."""
        handle = self.open_file(name)
        _, device_offset = handle.extent_for_offset(offset, self.page_size)
        return device_offset
