"""Table II timing model of the emulated SSD.

All constants come straight from the paper (Section V and Table II):

* The FPGA controller runs at 200 MHz, so one cycle is 5 ns.
* A full page read takes ``Tpage = 20 us`` (``Cpage = 4000`` cycles).
* ``Tpage`` splits into the flash-cell-to-page-buffer *flush* and the
  page-buffer-to-controller *transfer* at a 7:3 ratio (the ratio the
  authors attribute to an industry partner), i.e. ``Tflush = 0.7 Tpage``
  and ``Ttrans = 0.3 Tpage``.
* A vector-grained read transfers only ``EVsize`` of the page:
  ``Tev = (EVsize / Psize) * Ttrans + Tflush``.  In cycles at 4 KB
  pages this is the paper's ``CEV = 0.293 * EVsize + 2800`` (because
  ``0.3 * 4000 / 4096 = 0.29297``).

Timing is expressed in **nanoseconds** throughout the simulator.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import inf

import numpy as np


@dataclass(frozen=True)
class SSDTimingModel:
    """Latency formulas for the emulated flash array."""

    clock_hz: float = 200e6
    page_read_us: float = 20.0
    flush_fraction: float = 0.7
    page_size: int = 4096
    #: Fixed per-request controller/FTL handling cost (command decode,
    #: FTL lookup, path-buffer bookkeeping).  Small relative to flash
    #: latency; calibrated so 4K random read lands near Table II's
    #: 45K IOPS at queue depth ~1 per channel.
    request_overhead_cycles: int = 300
    #: Page program time.  Table II only specifies the read path; 200 us
    #: is typical for the MLC-class flash the emulation mimics.  Writes
    #: only matter for the RM_create_table setup phase.
    page_program_us: float = 200.0

    def __post_init__(self) -> None:
        # The simulator reads these constants once, when a flash array
        # or controller is built, so this is the one place they are
        # checked; chained comparisons also refuse NaN.
        if not 0.0 < self.flush_fraction < 1.0:
            raise ValueError(
                f"flush_fraction must be in (0, 1), got {self.flush_fraction!r}"
            )
        if not 1 <= self.page_size < inf:
            raise ValueError(f"page_size must be >= 1, got {self.page_size!r}")
        for name in ("clock_hz", "page_read_us", "page_program_us"):
            value = getattr(self, name)
            if not 0 < value < inf:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if not 0 <= self.request_overhead_cycles < inf:
            raise ValueError(
                "request_overhead_cycles must be finite and >= 0, "
                f"got {self.request_overhead_cycles!r}"
            )
        # Finite parameters can still overflow once converted to ns.
        for name in ("page_read_ns", "request_overhead_ns", "page_program_ns"):
            if not getattr(self, name) < inf:
                raise ValueError(f"{name} overflows: {self!r}")

    # ------------------------------------------------------------------
    # Cycle/time conversions
    # ------------------------------------------------------------------
    @property
    def cycle_ns(self) -> float:
        """Duration of one controller cycle in ns (5 ns at 200 MHz)."""
        return 1e9 / self.clock_hz

    def cycles_to_ns(self, cycles: float) -> float:
        return cycles * self.cycle_ns

    def ns_to_cycles(self, ns: float) -> float:
        return ns / self.cycle_ns

    # ------------------------------------------------------------------
    # Core latencies (cycles)
    # ------------------------------------------------------------------
    @property
    def page_read_cycles(self) -> float:
        """``Cpage``: 4000 cycles for the default 20 us page read."""
        return self.page_read_us * 1e3 / self.cycle_ns

    @property
    def flush_cycles(self) -> float:
        """Cell-array-to-page-buffer flush (``0.7 * Cpage`` = 2800)."""
        return self.flush_fraction * self.page_read_cycles

    @property
    def transfer_cycles(self) -> float:
        """Full-page buffer-to-controller transfer (``0.3 * Cpage``)."""
        return (1.0 - self.flush_fraction) * self.page_read_cycles

    def vector_read_cycles(self, ev_size: int) -> float:
        """``CEV = (EVsize/Psize) * Ttrans + Tflush`` in cycles.

        For 4 KB pages this evaluates to ``0.293 * EVsize + 2800``,
        matching Table II.
        """
        if not 0 < ev_size <= self.page_size:
            raise ValueError(
                f"vector size {ev_size} must be in (0, page_size={self.page_size}]"
            )
        return (ev_size / self.page_size) * self.transfer_cycles + self.flush_cycles

    def vector_transfer_cycles(self, ev_size: int) -> float:
        """Bus-occupancy portion of a vector read (transfer only)."""
        if not 0 < ev_size <= self.page_size:
            raise ValueError("vector size out of range")
        return (ev_size / self.page_size) * self.transfer_cycles

    # ------------------------------------------------------------------
    # Core latencies (ns)
    # ------------------------------------------------------------------
    @property
    def page_read_ns(self) -> float:
        return self.cycles_to_ns(self.page_read_cycles)

    @property
    def flush_ns(self) -> float:
        return self.cycles_to_ns(self.flush_cycles)

    @property
    def transfer_ns(self) -> float:
        return self.cycles_to_ns(self.transfer_cycles)

    def vector_read_ns(self, ev_size: int) -> float:
        return self.cycles_to_ns(self.vector_read_cycles(ev_size))

    def vector_transfer_ns(self, ev_size: int) -> float:
        return self.cycles_to_ns(self.vector_transfer_cycles(ev_size))

    def vector_transfer_ns_array(self, ev_sizes) -> np.ndarray:
        """Batched :meth:`vector_transfer_ns`.

        Applies the scalar formula's float operations in the same
        association order, so each element is bitwise identical to the
        scalar result for that size.
        """
        ev_sizes = np.asarray(ev_sizes, dtype=np.float64)
        if ev_sizes.size and not bool(
            ((ev_sizes > 0) & (ev_sizes <= self.page_size)).all()
        ):
            raise ValueError("vector size out of range")
        return ((ev_sizes / self.page_size) * self.transfer_cycles) * self.cycle_ns

    @property
    def request_overhead_ns(self) -> float:
        return self.cycles_to_ns(self.request_overhead_cycles)

    @property
    def page_program_ns(self) -> float:
        """Page program (write) time in ns."""
        return self.page_program_us * 1e3

    @property
    def program_ns(self) -> float:
        """Deprecated alias for :attr:`page_program_ns`.

        The bare name does not say *what* is being programmed nor pair
        with a ``*_us`` source field, so the unit-suffix lint steers
        code to the explicit accessor.
        """
        warnings.warn(
            "SSDTimingModel.program_ns is deprecated; "
            "use page_program_ns instead",
            DeprecationWarning,
            stacklevel=2,
        )
        return self.page_program_ns

    # ------------------------------------------------------------------
    # Derived headline numbers
    # ------------------------------------------------------------------
    def random_read_iops_bound(self, channels: int, queue_depth_per_channel: int = 1) -> float:
        """Upper bound on 4K random read IOPS.

        At queue depth 1 per channel each read costs a full page read
        plus the request overhead, serialized on its channel.
        """
        per_read_ns = self.page_read_ns + self.request_overhead_ns
        per_channel = queue_depth_per_channel / (per_read_ns / 1e9)
        return channels * per_channel
