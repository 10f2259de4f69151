"""Flash array geometry and physical addressing.

The paper's Fig. 7 shows the PBA organized along the multi-level flash
hierarchy ``Channel / Bank / LUN / Block / Page / Col`` where *Col* is
the byte offset of a read within a page.  We model the hierarchy as
``channel -> die -> plane -> block -> page`` (bank and LUN collapse
into *die* for timing purposes: a die is the unit that can buffer one
page flush independently) plus the column offset.

The emulated SSD of Table II has 32 GB over 4 channels with 4 KB pages.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class PhysicalAddress:
    """A fully-resolved flash location (the paper's PBA + Col)."""

    channel: int
    die: int
    plane: int
    block: int
    page: int
    col: int = 0

    def __post_init__(self) -> None:
        for name in ("channel", "die", "plane", "block", "page", "col"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def page_key(self) -> tuple:
        """Identity of the physical page, ignoring the column offset."""
        return (self.channel, self.die, self.plane, self.block, self.page)


@dataclass(frozen=True)
class SSDGeometry:
    """Shape of the flash array.

    Defaults follow Table II: 32 GB over 4 channels with 4 KB pages.
    ``dies_per_channel = 2`` matches the throughput the paper's DDR4
    emulation exhibits (each emulated channel sustains roughly two
    outstanding page flushes): it lands EMB-VectorSum's standalone SLS
    time (Fig. 10a) and RMC3's batch-4 embedding/MLP crossover
    (Fig. 12c) where the paper reports them.
    """

    channels: int = 4
    dies_per_channel: int = 2
    planes_per_die: int = 2
    blocks_per_plane: int = 2048
    pages_per_block: int = 256
    page_size: int = 4096

    def __post_init__(self) -> None:
        for name in (
            "channels",
            "dies_per_channel",
            "planes_per_die",
            "blocks_per_plane",
            "pages_per_block",
            "page_size",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")

    # Cached: the geometry is frozen, and every timed read checks its
    # page against ``total_pages``.
    @cached_property
    def pages_per_die(self) -> int:
        return self.planes_per_die * self.blocks_per_plane * self.pages_per_block

    @cached_property
    def pages_per_channel(self) -> int:
        return self.dies_per_channel * self.pages_per_die

    @cached_property
    def total_pages(self) -> int:
        return self.channels * self.pages_per_channel

    @property
    def capacity_bytes(self) -> int:
        return self.total_pages * self.page_size

    def page_index_to_address(self, page_index: int, col: int = 0) -> PhysicalAddress:
        """Decode a flat physical page number into the flash hierarchy.

        Pages are numbered so that *consecutive pages land on
        consecutive channels* (channel-major striping), then rotate
        across dies — this is the layout that lets the EV-FMC path
        stripe embedding reads "over all flash channels and dies"
        (Section IV-B2).
        """
        channel, die = self.channel_and_die(page_index, col)
        rest = page_index // (self.channels * self.dies_per_channel)
        plane = rest % self.planes_per_die
        rest //= self.planes_per_die
        page = rest % self.pages_per_block
        block = rest // self.pages_per_block
        return PhysicalAddress(
            channel=channel, die=die, plane=plane, block=block, page=page, col=col
        )

    def channel_and_die(self, page_index: int, col: int = 0) -> tuple:
        """``(channel, die)`` of a flat physical page number.

        The two coordinates read timing depends on, decoded without
        building a :class:`PhysicalAddress`; the range checks are
        :meth:`page_index_to_address`'s.
        """
        if not 0 <= page_index < self.total_pages:
            raise ValueError(
                f"page index {page_index} out of range [0, {self.total_pages})"
            )
        if not 0 <= col < self.page_size:
            raise ValueError(f"column {col} out of range [0, {self.page_size})")
        return page_index % self.channels, (
            page_index // self.channels % self.dies_per_channel
        )

    def address_to_page_index(self, address: PhysicalAddress) -> int:
        """Inverse of :meth:`page_index_to_address` (ignores ``col``)."""
        rest = address.block * self.pages_per_block + address.page
        rest = rest * self.planes_per_die + address.plane
        rest = rest * self.dies_per_channel + address.die
        return rest * self.channels + address.channel

    def split_page_indices(self, page_indices) -> tuple:
        """Batched channel/die decode of flat physical page numbers.

        The vectorized counterpart of :meth:`page_index_to_address`
        restricted to the two timing-relevant coordinates; returns
        ``(channel_ids, die_ids)`` int64 arrays.
        """
        page_indices = np.asarray(page_indices, dtype=np.int64)
        if page_indices.size:
            bounds = (page_indices < 0) | (page_indices >= self.total_pages)
            if bounds.any():
                bad = int(page_indices[bounds][0])
                raise ValueError(
                    f"page index {bad} out of range [0, {self.total_pages})"
                )
        channel_ids = page_indices % self.channels
        die_ids = (page_indices // self.channels) % self.dies_per_channel
        return channel_ids, die_ids

    def byte_to_page(self, byte_offset: int) -> tuple:
        """Split a flat byte offset into ``(logical_page, col)``."""
        if byte_offset < 0:
            raise ValueError("negative byte offset")
        return byte_offset // self.page_size, byte_offset % self.page_size
