"""Flash memory controllers.

A conventional **FMC** manages one flash channel and serves page-sized
reads.  The paper's **EV-FMC** extends it with vector-grained reads:
"instead of a whole page, only one vector data from the offset will be
transferred, and the size is configured to ``EVsize``" (Section
IV-B2).

Both are thin orchestration layers over :class:`repro.ssd.flash.
FlashArray`, which owns the die/bus contention model; the FMC's job
here is request bookkeeping (the Path Buffer marking used by the
DEMUX to route returned data) and providing an issue API that the
controller and the Embedding Lookup Engine share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.sim import Simulator
from repro.ssd.flash import FlashArray


@dataclass
class ReadRequest:
    """One outstanding flash read tracked in the Path Buffer.

    ``kind`` distinguishes the two return paths the DEMUX must route
    (Section IV-B3): ``"block"`` responses go to the NVMe controller,
    ``"vector"`` responses go to the EV Sum unit.
    """

    kind: str
    physical_page: int
    col: int = 0
    size: int = 0
    tag: Optional[object] = None
    issued_at: float = 0.0
    completed_at: float = 0.0
    data: bytes = b""

    @property
    def latency_ns(self) -> float:
        return self.completed_at - self.issued_at


class FlashMemoryController:
    """Per-device FMC pool: issues requests to the flash array.

    The flash array already routes each physical page to its channel
    and die, so one controller object can front all channels; per-
    channel queueing emerges from the die/bus resources.
    """

    def __init__(self, sim: Simulator, flash: FlashArray) -> None:
        self.sim = sim
        self.flash = flash

    def _finish(self, request: ReadRequest, data: bytes) -> ReadRequest:
        request.completed_at = self.sim.now
        request.data = data
        return request

    def read_page(self, physical_page: int, tag: object = None, to_host: bool = True) -> Generator:
        """Process: full-page read; returns the completed request."""
        request = ReadRequest(
            kind="block",
            physical_page=physical_page,
            size=self.flash.geometry.page_size,
            tag=tag,
            issued_at=self.sim.now,
        )
        data = yield from self.flash.read_page_proc(physical_page, to_host=to_host)
        return self._finish(request, data)


class EVFlashMemoryController(FlashMemoryController):
    """EV-FMC: adds vector-grained reads on the same channels."""

    def read_vector(
        self, physical_page: int, col: int, size: int, tag: object = None
    ) -> Generator:
        """Process: read ``size`` bytes at ``col`` of a physical page."""
        request = ReadRequest(
            kind="vector",
            physical_page=physical_page,
            col=col,
            size=size,
            tag=tag,
            issued_at=self.sim.now,
        )
        data = yield from self.flash.read_vector_proc(physical_page, col, size)
        return self._finish(request, data)
