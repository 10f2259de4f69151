"""Tests for the block device / extent file layer."""

import pytest

from repro.sim import Simulator
from repro.ssd.blockdev import BlockDevice, Extent
from repro.ssd.controller import SSDController
from repro.ssd.geometry import SSDGeometry


def make_device(max_extent_pages=None):
    sim = Simulator()
    geo = SSDGeometry(
        channels=4,
        dies_per_channel=2,
        planes_per_die=2,
        blocks_per_plane=16,
        pages_per_block=16,
    )
    return BlockDevice(SSDController(sim, geo), max_extent_pages=max_extent_pages)


class TestFiles:
    def test_create_and_open(self):
        dev = make_device()
        handle = dev.create_file("table0", 10000)
        assert dev.open_file("table0") is handle
        assert handle.size_bytes == 10000
        # 10000 B -> 3 pages.
        assert sum(e.page_count for e in handle.extents) == 3

    def test_duplicate_create_rejected(self):
        dev = make_device()
        dev.create_file("t", 100)
        with pytest.raises(ValueError):
            dev.create_file("t", 100)

    def test_open_missing_raises(self):
        dev = make_device()
        with pytest.raises(FileNotFoundError):
            dev.open_file("nope")

    def test_fragmented_allocation(self):
        dev = make_device(max_extent_pages=2)
        handle = dev.create_file("frag", 5 * 4096)
        assert [e.page_count for e in handle.extents] == [2, 2, 1]
        # Extents are disjoint and ordered.
        for a, b in zip(handle.extents, handle.extents[1:]):
            assert a.end_lba <= b.start_lba

    def test_device_full(self):
        dev = make_device()
        capacity = dev.controller.geometry.capacity_bytes
        dev.create_file("big", capacity)
        with pytest.raises(RuntimeError):
            dev.create_file("more", 4096)

    def test_extent_byte_range(self):
        extent = Extent(start_lba=3, page_count=2)
        assert extent.byte_range(4096) == (3 * 4096, 5 * 4096)


class TestReadWrite:
    def test_roundtrip_within_extent(self):
        dev = make_device()
        dev.create_file("t", 4096 * 4)
        payload = bytes(range(256)) * 16  # 4096 B
        dev.write_file("t", payload, offset=1000)
        assert dev.read_file("t", 1000, len(payload)) == payload

    def test_roundtrip_across_fragmented_extents(self):
        dev = make_device(max_extent_pages=1)
        dev.create_file("a", 4096)  # interleave allocations
        dev.create_file("t", 4096 * 3)
        payload = b"Z" * (4096 * 2)
        dev.write_file("t", payload, offset=2048)
        assert dev.read_file("t", 2048, len(payload)) == payload

    def test_write_beyond_eof_rejected(self):
        dev = make_device()
        dev.create_file("t", 100)
        with pytest.raises(ValueError):
            dev.write_file("t", b"x" * 200)

    def test_read_beyond_eof_rejected(self):
        dev = make_device()
        dev.create_file("t", 100)
        with pytest.raises(ValueError):
            dev.read_file("t", 50, 100)

    def test_write_counts_host_traffic(self):
        dev = make_device()
        dev.create_file("t", 4096)
        dev.write_file("t", b"x" * 1000)
        assert dev.controller.stats.host_write_bytes == 1000


class TestTimedReads:
    def test_paged_read_returns_data(self):
        dev = make_device()
        dev.create_file("t", 4096 * 4)
        dev.write_file("t", b"hello world", offset=5000)
        proc = dev.sim.process(dev.read_file_pages_proc("t", 5000, 11))
        dev.sim.run()
        assert proc.value == b"hello world"

    def test_paged_read_amplification(self):
        # Every touched page crosses the host link whole: 128 B inside
        # one page cost one page, 200 B across a boundary cost two.
        for offset, size, pages in [(256, 128, 1), (4000, 200, 2)]:
            dev = make_device()
            dev.create_file("t", 4096 * 4)
            payload = b"A" * size
            dev.write_file("t", payload, offset=offset)
            stats = dev.controller.stats
            stats.reset()
            proc = dev.sim.process(dev.read_file_pages_proc("t", offset, size))
            dev.sim.run()
            assert proc.value == payload
            assert stats.host_read_bytes == pages * 4096
            assert stats.flash_page_reads == pages
            stats.record_useful(size)
            assert stats.read_amplification == pytest.approx(pages * 4096 / size)

    def test_device_offset_of_maps_through_extents(self):
        dev = make_device(max_extent_pages=1)
        dev.create_file("pad", 4096)
        handle = dev.create_file("t", 4096 * 2)
        off0 = dev.device_offset_of("t", 0)
        off1 = dev.device_offset_of("t", 4096)
        assert off0 == handle.extents[0].start_lba * 4096
        assert off1 == handle.extents[1].start_lba * 4096
