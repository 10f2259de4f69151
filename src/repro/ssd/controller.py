"""SSD controller front end.

Combines the NVMe-facing block I/O path and the embedding-vector path
over one FTL and one flash array, mirroring Fig. 5:

* block I/O requests go FTL -> FMC -> (whole pages) -> host;
* EV requests go EV Translator -> FTL -> MUX -> EV-FMC -> (vectors) ->
  DEMUX -> EV Sum.

The MUX's round-robin arbitration between the two paths is modelled by
the shared FTL service point; the Path Buffer is the ``tag`` carried by
every :class:`repro.ssd.fmc.ReadRequest`.  Each timed read is two
generator frames: the controller's process (FTL pass, translation,
Path Buffer bookkeeping) and the flash array's read.
"""

from __future__ import annotations

from typing import Generator, Optional, Tuple

import numpy as np

from repro.obs import names
from repro.sim import Server, Simulator, maxplus
from repro.ssd.flash import FlashArray
from repro.ssd.fmc import EVFlashMemoryController
from repro.ssd.ftl import FlashTranslationLayer
from repro.ssd.geometry import SSDGeometry
from repro.ssd.stats import IOStatistics
from repro.ssd.timing import SSDTimingModel
from repro.ssd.vcache import VectorCache


class SSDController:
    """Device-side controller: FTL + FMC/EV-FMC over one flash array."""

    def __init__(
        self,
        sim: Simulator,
        geometry: Optional[SSDGeometry] = None,
        timing: Optional[SSDTimingModel] = None,
        ftl: Optional[FlashTranslationLayer] = None,
        stats: Optional[IOStatistics] = None,
        tracer=None,
        vcache: Optional[VectorCache] = None,
    ) -> None:
        self.sim = sim
        self.geometry = geometry or SSDGeometry()
        self.stats = stats if stats is not None else IOStatistics()
        #: Optional controller-DRAM hot-vector cache consulted by the
        #: Embedding Lookup Engine before EV translation; ``None`` (the
        #: default) reproduces the paper's cache-free critical path.
        self.vcache = vcache
        #: Optional span tracer (``None`` = not tracing).
        self.tracer = tracer
        self.timing = timing or SSDTimingModel(page_size=self.geometry.page_size)
        self.flash = FlashArray(sim, self.geometry, self.timing, self.stats)
        self.ftl = ftl or FlashTranslationLayer(self.geometry)
        if getattr(sim, "sanitizer", None) is not None:
            self.ftl.attach_sanitizer(sim.sanitizer)
        self.fmc = EVFlashMemoryController(sim, self.flash)
        # The MUX: block I/O and EV requests share one translation
        # pipeline; FIFO service approximates the round-robin arbiter.
        self._ftl_server = Server(sim, names.SERVER_FTL_MUX, kind=names.FTL)
        # One MUX pass in ns, read once (the timing model is frozen).
        self._ftl_ns = self.timing.cycles_to_ns(self.ftl.lookup_cycles)

    def _ftl_lookup(self):
        """Event: one arbitrated pass through the shared FTL stage."""
        return self._ftl_server.serve(self._ftl_ns)

    def serve_ftl_batch(self, count: int) -> np.ndarray:
        """``count`` FTL MUX passes issued now, as one busy run
        (:func:`repro.sim.maxplus.serve_burst`): their resume times, the
        server and profiler left as ``count`` :meth:`_ftl_lookup` would."""
        server, now, profiler = self._ftl_server, self.sim.now, self.sim.profiler
        durations = np.full(count, self._ftl_ns)
        starts, finishes, resumes = maxplus.serve_burst(now, server.free_at, durations)
        if count:
            server._free_at = finishes.item(-1)
            server.busy_time = maxplus.busy_sum(server.busy_time, durations)
            server.jobs_served += count
        if profiler is not None:
            profiler.record_services(
                server.name, np.full(count, now), starts, finishes, server.kind
            )
        return resumes

    # ------------------------------------------------------------------
    # Observability: FTL / channel spans for one batch
    # ------------------------------------------------------------------
    def batch_mark(self) -> Tuple[int, Tuple[int, ...]]:
        """Bookkeeping mark taken before a batch, for span emission.

        Captures job counts only; the corresponding *times* are read
        from the servers' ``free_at`` after the batch, which the fast
        path writes back bitwise-identically to the DES (PR 2's
        equivalence contract) — so the spans derived from a mark are
        identical on both paths by construction.
        """
        return (
            self._ftl_server.jobs_served,
            tuple(channel.bus.jobs_served for channel in self.flash.channels),
        )

    def emit_batch_spans(self, start_ns: float, mark) -> None:
        """Emit ``ftl`` and per-channel spans for work since ``mark``.

        The FTL span covers the shared MUX stage from batch issue to
        its last job's departure; each channel span covers that
        channel's bus from issue to its final transfer, with the job
        count and accumulated bus busy time as arguments.  Channels
        are concurrent, so each lives on its own track.
        """
        tracer = self.tracer
        if tracer is None:
            return
        ftl_jobs_before, channel_jobs_before = mark
        ftl_jobs = self._ftl_server.jobs_served - ftl_jobs_before
        if ftl_jobs > 0:
            tracer.add_span(
                names.FTL,
                start_ns,
                self._ftl_server.free_at,
                cat="ssd",
                track="ssd.ftl",
                args={"jobs": ftl_jobs},
            )
        for channel, jobs_before in zip(
            self.flash.channels, channel_jobs_before
        ):
            jobs = channel.bus.jobs_served - jobs_before
            if jobs > 0:
                tracer.add_span(
                    channel.name,
                    start_ns,
                    channel.bus.free_at,
                    cat="ssd",
                    track=f"ssd.{channel.name}",
                    args={"jobs": jobs},
                )

    def translate_vector_offsets(self, byte_offsets, size: int) -> Tuple[np.ndarray, np.ndarray]:
        """Batched address resolution of :meth:`read_vector_proc`.

        Maps device byte offsets to ``(physical_pages, cols)`` arrays
        with the same straddle validation, without simulated time (the
        FTL stage's timing is replayed by :meth:`serve_ftl_batch`).
        """
        byte_offsets = np.asarray(byte_offsets, dtype=np.int64)
        if byte_offsets.size and int(byte_offsets.min()) < 0:
            raise ValueError("negative byte offset")
        page_size = self.geometry.page_size
        lbas = byte_offsets // page_size
        cols = byte_offsets % page_size
        straddlers = cols + size > page_size
        if byte_offsets.size and bool(straddlers.any()):
            offset = int(byte_offsets[straddlers][0])
            raise ValueError(
                f"vector read at offset {offset} size {size} straddles a page"
            )
        return self.ftl.translate_array(lbas), cols

    # ------------------------------------------------------------------
    # Functional writes (used to lay out embedding tables / files)
    # ------------------------------------------------------------------
    def write_logical(self, byte_offset: int, data: bytes) -> None:
        """Write ``data`` at a logical byte offset (crosses pages)."""
        page_size = self.geometry.page_size
        cursor = 0
        while cursor < len(data):
            lba, col = self.geometry.byte_to_page(byte_offset + cursor)
            chunk = min(page_size - col, len(data) - cursor)
            physical = self.ftl.map_write(lba)
            self.flash.write_page(physical, data[cursor : cursor + chunk], offset=col)
            cursor += chunk

    def write_block_proc(self, lba: int, data: bytes) -> Generator:
        """Process: timed page write through the block path."""
        if len(data) > self.geometry.page_size:
            raise ValueError("write exceeds one page")
        yield self._ftl_lookup()
        physical = self.ftl.map_write(lba)
        yield from self.flash.write_page_proc(physical, data)
        return lba

    def peek_logical(self, byte_offset: int, size: int) -> bytes:
        """Functional read (no simulated time), for verification."""
        out = bytearray()
        page_size = self.geometry.page_size
        cursor = 0
        while cursor < size:
            lba, col = self.geometry.byte_to_page(byte_offset + cursor)
            chunk = min(page_size - col, size - cursor)
            physical = self.ftl.translate(lba)
            out += self.flash.peek(physical, col, chunk)
            cursor += chunk
        return bytes(out)

    # ------------------------------------------------------------------
    # Block I/O path (page granularity, crosses the host link)
    # ------------------------------------------------------------------
    def read_block_proc(self, lba: int, tag: object = None) -> Generator:
        """Process: conventional page read returned to the host."""
        yield self._ftl_lookup()
        physical = self.ftl.translate(lba)
        request = self.fmc.issue_page(physical, tag)
        data = yield from self.flash.read_page_proc(physical, to_host=True)
        return self.fmc.complete(request, data)

    def read_bytes_block_proc(self, byte_offset: int, size: int) -> Generator:
        """Process: host read of an arbitrary byte range via page I/O.

        Every touched page is read and transferred whole — this is the
        page-alignment read amplification of Section III-B2(a).
        """
        page_size = self.geometry.page_size
        first = byte_offset // page_size
        last = (byte_offset + size - 1) // page_size
        events = []
        for lba in range(first, last + 1):
            events.append(self.sim.process(self.read_block_proc(lba)))
        results = yield self.sim.all_of(events)
        data = bytearray()
        for request in results:
            data += request.data
        start = byte_offset - first * page_size
        return bytes(data[start : start + size])

    # ------------------------------------------------------------------
    # Embedding-vector path (vector granularity, stays in the device)
    # ------------------------------------------------------------------
    def read_vector_proc(self, byte_offset: int, size: int, tag: object = None) -> Generator:
        """Process: vector-grained read of ``size`` bytes.

        The caller guarantees the vector does not straddle a page
        boundary (the layout module aligns vectors; see
        :mod:`repro.embedding.layout`).
        """
        yield self._ftl_lookup()
        lba, col = self.geometry.byte_to_page(byte_offset)
        if col + size > self.geometry.page_size:
            raise ValueError(
                f"vector read at offset {byte_offset} size {size} straddles a page"
            )
        physical = self.ftl.translate(lba)
        request = self.fmc.issue_vector(physical, col, size, tag)
        data = yield from self.flash.read_vector_proc(physical, col, size)
        return self.fmc.complete(request, data)

    def read_page_internal_proc(self, lba: int, tag: object = None) -> Generator:
        """Process: page read consumed inside the device (EMB-PageSum)."""
        yield self._ftl_lookup()
        physical = self.ftl.translate(lba)
        request = self.fmc.issue_page(physical, tag)
        data = yield from self.flash.read_page_proc(physical, to_host=False)
        return self.fmc.complete(request, data)
