"""Flash memory controllers.

A conventional **FMC** manages one flash channel and serves page-sized
reads.  The paper's **EV-FMC** extends it with vector-grained reads:
"instead of a whole page, only one vector data from the offset will be
transferred, and the size is configured to ``EVsize``" (Section
IV-B2).

Both are thin bookkeeping layers over :class:`repro.ssd.flash.
FlashArray`, which owns the die/bus contention model and the timed
read itself.  The FMC's job here is the Path Buffer marking the DEMUX
uses to route returned data: a :class:`ReadRequest` opened when a read
is issued and closed with its data when the read completes.  Both are
plain calls around the flash array's read process, so a read runs in
the caller's generator frame plus the flash array's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim import Simulator
from repro.ssd.flash import FlashArray


@dataclass(slots=True)
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
    """Per-device FMC pool: Path Buffer bookkeeping for flash reads.

    The flash array already routes each physical page to its channel
    and die, so one controller object can front all channels; per-
    channel queueing emerges from the die/bus resources.
    """

    def __init__(self, sim: Simulator, flash: FlashArray) -> None:
        self.sim = sim
        self.flash = flash

    def issue_page(self, physical_page: int, tag: object = None) -> ReadRequest:
        """Open the request of a full-page read issued now."""
        return ReadRequest(
            kind="block",
            physical_page=physical_page,
            size=self.flash.geometry.page_size,
            tag=tag,
            issued_at=self.sim.now,
        )

    def complete(self, request: ReadRequest, data: bytes) -> ReadRequest:
        """Close ``request`` now with the bytes its read returned."""
        request.completed_at = self.sim.now
        request.data = data
        return request


class EVFlashMemoryController(FlashMemoryController):
    """EV-FMC: adds vector-grained reads on the same channels."""

    def issue_vector(
        self, physical_page: int, col: int, size: int, tag: object = None
    ) -> ReadRequest:
        """Open the request of a ``size``-byte read at ``col``, issued now."""
        return ReadRequest(
            kind="vector",
            physical_page=physical_page,
            col=col,
            size=size,
            tag=tag,
            issued_at=self.sim.now,
        )
