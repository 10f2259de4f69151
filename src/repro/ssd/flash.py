"""The flash array: data plane plus Table II timing on the DES kernel.

Every read follows the two-phase flash protocol the paper's Section
IV-B2 describes:

1. **Flush** — the addressed die copies a whole page from the cell
   array into its page buffer (``Tflush = 0.7 * Tpage``).  Dies operate
   independently, so flushes on different dies of one channel overlap.
2. **Transfer** — the page buffer is shifted out over the channel bus,
   which is shared by all dies of the channel ("though flash arrays
   have a deep hierarchy of storage, all in/out data share one bus for
   each channel").  A *page read* transfers ``Psize`` bytes; a
   *vector read* transfers only ``EVsize`` bytes, which is where the
   vector-grained strategy wins.

Data contents are stored sparsely (only written pages consume memory),
so a "32 GB" array whose workload touches a few hundred MB stays cheap
to host in RAM.  Written pages live in a NumPy arena of fixed-size
extents, so a batched read gathers its rows straight out of the store.
"""

from __future__ import annotations

import mmap
from typing import Dict, Generator, List, Optional

import numpy as np

from repro.obs import names
from repro.sim import Resource, Server, Simulator, Timeout
from repro.sim.workspace import Workspace, gather
from repro.ssd import fastpath
from repro.ssd.geometry import PhysicalAddress, SSDGeometry
from repro.ssd.stats import IOStatistics
from repro.ssd.timing import SSDTimingModel


class _Channel:
    """Per-channel shared bus plus one mutex per die."""

    def __init__(self, sim: Simulator, geometry: SSDGeometry, index: int) -> None:
        self.index = index
        self.name = names.channel_name(index)
        self.bus = Server(
            sim,
            name=names.channel_bus_name(index),
            kind=names.KIND_CHANNEL_BUS,
        )
        self.dies: List[Resource] = [
            Resource(
                sim,
                capacity=1,
                name=names.channel_die_name(index, die),
                kind=names.KIND_DIE,
            )
            for die in range(geometry.dies_per_channel)
        ]


#: Pages per arena extent (a power of two).  The arena grows by
#: appending one extent, so growth never copies (and never holds two
#: copies of) the store.
_EXTENT_BITS = 11
_EXTENT_PAGES = 1 << _EXTENT_BITS
#: Pages per leaf of the page -> slot index (a power of two); a leaf
#: is allocated when the first page of its range is written.
_LEAF_BITS = 12
_LEAF_PAGES = 1 << _LEAF_BITS


class FlashArray:
    """Sparse-backed flash array with simulated read timing."""

    def __init__(
        self,
        sim: Simulator,
        geometry: Optional[SSDGeometry] = None,
        timing: Optional[SSDTimingModel] = None,
        stats: Optional[IOStatistics] = None,
    ) -> None:
        self.sim = sim
        self.geometry = geometry or SSDGeometry()
        self.timing = timing or SSDTimingModel(page_size=self.geometry.page_size)
        if self.timing.page_size != self.geometry.page_size:
            raise ValueError("timing model and geometry disagree on page size")
        self.stats = stats if stats is not None else IOStatistics()
        # Page arena: zero-filled extents of ``_EXTENT_PAGES`` page rows.
        # A written page owns one slot (extent, row); erasing zeroes
        # and recycles it.  Slot 0 is never handed out, so it reads as
        # an unwritten page.  The scalar path goes through per-page
        # memoryviews of the rows, the batched path through a two-level
        # page -> slot table kept current by every allocation and
        # erase: ``_leaf_of[page >> _LEAF_BITS]`` names a row of
        # ``_leaves`` (row 0 stays all zeros: nothing written there),
        # which holds the slot of each page of that range; the rows
        # past ``_leaf_count`` are spare.
        self._extents: List[np.ndarray] = []
        self._extent_bytes: List[memoryview] = []
        self._pages: Dict[int, memoryview] = {}
        self._free_slots: List[int] = []
        self._next_slot = 1
        self._leaf_of = np.zeros(
            (self.geometry.total_pages >> _LEAF_BITS) + 1, dtype=np.intp
        )
        self._leaves = np.zeros((1, _LEAF_PAGES), dtype=np.intp)
        self._leaf_count = 1
        self._append_extent()
        self.channels = [
            _Channel(sim, self.geometry, i) for i in range(self.geometry.channels)
        ]
        #: Sanitizer-mode invariant checks (``None`` when disabled).
        self.sanitizer = getattr(sim, "sanitizer", None)
        # Per-read latencies, read once: the timing model is frozen.
        self._overhead_ns = self.timing.request_overhead_ns
        self._flush_ns = self.timing.flush_ns
        self._page_transfer_ns = self.timing.transfer_ns
        # EV size -> bus time, filled by the first read of each size.
        self._vector_transfer_ns: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # Functional data plane (no simulated time)
    # ------------------------------------------------------------------
    def write_page(self, page_index: int, data: bytes, offset: int = 0) -> None:
        """Store ``data`` into a physical page at ``offset`` (functional)."""
        page_size = self.geometry.page_size
        if not 0 <= page_index < self.geometry.total_pages:
            raise ValueError(f"page index {page_index} out of range")
        if offset < 0 or offset + len(data) > page_size:
            raise ValueError("write crosses the page boundary")
        page = self._pages.get(page_index)
        if page is None:
            page = self._allocate_page(page_index)
        page[offset : offset + len(data)] = data

    def _append_extent(self) -> None:
        # Anonymous mapping: zero-filled, and a row costs memory only
        # once it is written (page-granular, like the pages themselves).
        buffer = mmap.mmap(-1, _EXTENT_PAGES * self.geometry.page_size)
        self._extent_bytes.append(memoryview(buffer))
        self._extents.append(
            np.frombuffer(buffer, dtype=np.uint8).reshape(_EXTENT_PAGES, -1)
        )

    def _allocate_page(self, page_index: int) -> memoryview:
        """Give ``page_index`` a (zero-filled) arena slot; returns its row."""
        page_size = self.geometry.page_size
        if self._free_slots:
            slot = self._free_slots.pop()
        else:
            slot = self._next_slot
            self._next_slot += 1
        extent, row = divmod(slot, _EXTENT_PAGES)
        if extent == len(self._extents):
            self._append_extent()
        page = self._extent_bytes[extent][row * page_size : (row + 1) * page_size]
        self._pages[page_index] = page
        branch = page_index >> _LEAF_BITS
        leaf = self._leaf_of[branch]
        if leaf == 0:
            leaf = self._leaf_of[branch] = self._leaf_count
            self._leaf_count += 1
            if leaf == len(self._leaves):
                # Doubling keeps the copies linear in the leaves used.
                self._leaves = np.concatenate(
                    [self._leaves, np.zeros_like(self._leaves)]
                )
        self._leaves[leaf, page_index & (_LEAF_PAGES - 1)] = slot
        return page

    def peek(self, page_index: int, col: int = 0, size: Optional[int] = None) -> bytes:
        """Read page contents without consuming simulated time."""
        page_size = self.geometry.page_size
        if not 0 <= page_index < self.geometry.total_pages:
            raise ValueError(f"page index {page_index} out of range")
        if size is None:
            size = page_size - col
        if col < 0 or col + size > page_size:
            raise ValueError("read crosses the page boundary")
        page = self._pages.get(page_index)
        if page is None:
            return bytes(size)
        return bytes(page[col : col + size])

    def peek_vectors(self, page_indices, cols, size: int, ws: Workspace) -> np.ndarray:
        """Batched functional read of fixed-size fp32 vectors.

        Equivalent to ``np.frombuffer(peek(page, col, size), float32)``
        per request (unwritten pages read as zeros), as one gather of
        the requested rows out of the page arena.  ``size`` must be a
        multiple of 4.
        """
        page_size = self.geometry.page_size
        if size % 4 != 0:
            raise ValueError(f"vector size {size} is not a whole number of fp32")
        page_indices = np.asarray(page_indices, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if cols.size and bool(((cols < 0) | (cols + size > page_size)).any()):
            raise ValueError("read crosses the page boundary")
        outside = (page_indices < 0) | (page_indices >= self.geometry.total_pages)
        if bool(outside.any()):
            bad = int(page_indices[outside][0])
            raise ValueError(f"page index {bad} out of range")
        n = len(page_indices)
        slots = self._leaves[
            self._leaf_of[page_indices >> _LEAF_BITS],
            page_indices & (_LEAF_PAGES - 1),
        ]
        gathered = ws("gathered", n * (size // 4), np.float32).reshape(n, size // 4)
        extent_ids = slots >> _EXTENT_BITS
        rows = slots & (_EXTENT_PAGES - 1)
        # Vector-aligned columns (the layout always aligns) index whole
        # vectors of an extent; anything else is gathered byte by byte.
        per_page = page_size // size
        vector_ids, offsets = np.divmod(cols, size)
        aligned = per_page * size == page_size and not offsets.any()
        if aligned:
            rows = rows * per_page + vector_ids
        else:
            byte_ids = cols[:, None] + np.arange(size, dtype=np.int64)
        counts = np.bincount(extent_ids)
        present = sorted(np.flatnonzero(counts).tolist(), key=lambda e: -counts[e])
        # An extent that holds most of the rows (all of a small batch's)
        # gathers every row straight into the output, stand-ins for the
        # other extents' rows included; each other extent then writes its
        # own rows over their stand-ins, through a scratch block.
        direct = present[:1] if present and 2 * counts[present[0]] > n else []
        for extent_id in present:
            single = extent_id in direct
            members = (
                slice(None) if single else np.flatnonzero(extent_ids == extent_id)
            )
            pages = self._extents[extent_id]
            if not aligned:
                gathered.view(np.uint8)[members] = pages[
                    rows[members, None], byte_ids[members]
                ]
                continue
            vectors = pages.view(np.float32).reshape(-1, size // 4)
            if single:
                gather(vectors, rows, gathered)
            else:
                block = ws("members", len(members) * (size // 4), np.float32)
                gathered[members] = gather(vectors, rows[members], block.reshape(-1, size // 4))
        return gathered

    @property
    def written_pages(self) -> int:
        return len(self._pages)

    def erase_block(self, page_index: int) -> None:
        """Erase the whole block containing ``page_index`` (functional).

        Real flash erases at block granularity; the sanitizer's
        erase-before-write tracking keys off this call, so a rewrite of
        a timed-programmed page must erase its block first.
        """
        address = self.geometry.page_index_to_address(page_index)
        for page in range(self.geometry.pages_per_block):
            erased = PhysicalAddress(
                channel=address.channel,
                die=address.die,
                plane=address.plane,
                block=address.block,
                page=page,
            )
            flat = self.geometry.address_to_page_index(erased)
            row = self._pages.pop(flat, None)
            if row is not None:
                row[:] = bytes(len(row))
                leaf = self._leaf_of[flat >> _LEAF_BITS]
                offset = flat & (_LEAF_PAGES - 1)
                self._free_slots.append(int(self._leaves[leaf, offset]))
                self._leaves[leaf, offset] = 0
            if self.sanitizer is not None:
                self.sanitizer.on_erase(flat)

    # ------------------------------------------------------------------
    # Timed read operations (DES processes)
    # ------------------------------------------------------------------
    def read_page_proc(self, page_index: int, to_host: bool = True) -> Generator:
        """Timed full-page read; returns the page bytes.

        ``to_host`` controls traffic accounting only: a page consumed
        inside the device (EMB-PageSum) does not cross the host link.
        """
        return self._read_proc(page_index, 0, self.geometry.page_size, False, to_host)

    def read_vector_proc(self, page_index: int, col: int, size: int) -> Generator:
        """Timed vector-grained read of ``size`` bytes at ``col``."""
        return self._read_proc(page_index, col, size, True, False)

    def write_page_proc(self, page_index: int, data: bytes, offset: int = 0) -> Generator:
        """Timed page program: bus-in transfer, then cell programming.

        Writes only matter for the ``RM_create_table`` setup phase; the
        inference path is read-only.  The die is held through the
        program (no cache-program pipelining).
        """
        channel_id, die_id = self.geometry.channel_and_die(page_index)
        channel = self.channels[channel_id]
        die = channel.dies[die_id]
        sanitizer = self.sanitizer
        if sanitizer is not None:
            sanitizer.on_program(page_index, component=channel.name)
            sanitizer.channel_enqueue(channel.name)
            sanitizer.check_latency(
                channel.name, "page_program_ns", self.timing.page_program_ns
            )
        yield Timeout(self.sim, self._overhead_ns)
        yield die.acquire()
        try:
            yield channel.bus.serve(self._page_transfer_ns)
            yield Timeout(self.sim, self.timing.page_program_ns)
        finally:
            die.release()
        self.write_page(page_index, data, offset)
        self.stats.record_host_transfer(write_bytes=len(data))
        if sanitizer is not None:
            sanitizer.channel_complete(channel.name)
        return page_index

    def _read_proc(
        self, page_index: int, col: int, size: int, is_vector: bool, to_host: bool
    ) -> Generator:
        """The one statement of a timed read, page or vector: overhead,
        flush on the die, transfer on the channel bus.  Records the
        read in the statistics and returns its bytes."""
        channel_id, die_id = self.geometry.channel_and_die(page_index, col)
        channel = self.channels[channel_id]
        die = channel.dies[die_id]
        sim = self.sim
        sanitizer = self.sanitizer
        if sanitizer is not None:
            sanitizer.channel_enqueue(channel.name)
            sanitizer.check_latency(
                channel.name, "request_overhead_ns", self._overhead_ns
            )
            sanitizer.check_latency(channel.name, "flush_ns", self._flush_ns)
        # Request decode / FTL / path-buffer handling.
        yield Timeout(sim, self._overhead_ns)
        # Phase 1: flush the page into the die's page buffer.
        yield die.acquire()
        try:
            yield Timeout(sim, self._flush_ns)
            # Phase 2: shift the requested bytes over the shared bus.
            if is_vector:
                transfer_ns = self._vector_transfer_ns.get(size)
                if transfer_ns is None:
                    transfer_ns = self.timing.vector_transfer_ns(size)
                    self._vector_transfer_ns[size] = transfer_ns
            else:
                transfer_ns = self._page_transfer_ns
            if sanitizer is not None:
                sanitizer.check_latency(channel.name, "transfer_ns", transfer_ns)
            yield channel.bus.serve(transfer_ns)
        finally:
            die.release()
        if sanitizer is not None:
            sanitizer.channel_complete(channel.name)
        data = self.peek(page_index, col, size)
        if is_vector:
            self.stats.record_vector_read(size)
        else:
            self.stats.record_page_read(size, to_host=to_host)
        return data

    # ------------------------------------------------------------------
    # Convenience: run a batch of reads to completion, return elapsed ns
    # ------------------------------------------------------------------
    def run_reads(self, requests, vector: bool, fast: Optional[bool] = None) -> float:
        """Issue ``requests`` concurrently and run the sim to completion.

        ``requests`` is an iterable of ``(page_index, col, size)``
        triples for vector reads or plain page indices for page reads.
        Returns elapsed simulated nanoseconds.

        ``fast=None`` defers to the ``RMSSD_FASTPATH`` flag: when the
        event queue is idle, the batch is replayed by
        :mod:`repro.ssd.fastpath` (same elapsed time, no per-request
        processes).  Any in-flight work — e.g. concurrent block I/O —
        forces the DES path, which is always the reference.
        """
        requests = list(requests)
        if fast is None:
            fast = fastpath.enabled()
        if fast and requests and self.sim.peek() is None:
            return self._run_reads_fast(requests, vector)
        start = self.sim.now
        events = []
        for request in requests:
            if vector:
                page_index, col, size = request
                events.append(self.sim.process(self.read_vector_proc(page_index, col, size)))
            else:
                events.append(self.sim.process(self.read_page_proc(request)))
        self.sim.run()
        del events
        return self.sim.now - start

    def _run_reads_fast(self, requests, vector: bool) -> float:
        """Vectorized replay of :meth:`run_reads` (bitwise-equal time)."""
        start = self.sim.now
        count = len(requests)
        page_size = self.geometry.page_size
        if vector:
            pages = np.fromiter((r[0] for r in requests), np.int64, count)
            cols = np.fromiter((r[1] for r in requests), np.int64, count)
            sizes = np.fromiter((r[2] for r in requests), np.int64, count)
            transfer_ns = self.timing.vector_transfer_ns_array(sizes)
        else:
            pages = np.fromiter(requests, np.int64, count)
            cols = np.zeros(count, dtype=np.int64)
            sizes = np.full(count, page_size, dtype=np.int64)
            transfer_ns = np.full(count, self.timing.transfer_ns)
        ws = Workspace()
        channel_ids, die_ids = self.geometry.split_page_indices(pages, ws)
        if bool(((cols < 0) | (cols >= page_size)).any()):
            bad = int(cols[(cols < 0) | (cols >= page_size)][0])
            raise ValueError(f"column {bad} out of range [0, {page_size})")
        if bool(((cols + sizes) > page_size).any()):
            raise ValueError("read crosses the page boundary")
        # Every read enters the flash stage at ``start``: all their
        # request-overhead timeouts are scheduled in the same round.
        enter_ns = np.full(count, start)
        end = fastpath.replay_reads(self, enter_ns, channel_ids, die_ids, transfer_ns, ws)
        if vector:
            self.stats.record_vector_reads(count, int(sizes.sum()))
        else:
            self.stats.record_page_reads(count, page_size, to_host=True)
        self.sim.run(until=end)
        return self.sim.now - start
