"""Tests for the flash array data plane and timing behaviour."""

import numpy as np
import pytest

from repro.sim import Simulator
from repro.ssd import flash as flash_module
from repro.ssd.flash import FlashArray
from repro.ssd.geometry import SSDGeometry
from repro.ssd.timing import SSDTimingModel


def small_geometry(channels=4, dies=4):
    return SSDGeometry(
        channels=channels,
        dies_per_channel=dies,
        planes_per_die=2,
        blocks_per_plane=8,
        pages_per_block=16,
        page_size=4096,
    )


@pytest.fixture
def flash():
    sim = Simulator()
    return FlashArray(sim, small_geometry())


class TestDataPlane:
    def test_write_then_peek(self, flash):
        flash.write_page(3, b"hello")
        assert flash.peek(3, 0, 5) == b"hello"

    def test_unwritten_page_reads_zeros(self, flash):
        assert flash.peek(7, 0, 8) == bytes(8)

    def test_write_at_offset(self, flash):
        flash.write_page(0, b"abc", offset=100)
        assert flash.peek(0, 100, 3) == b"abc"
        assert flash.peek(0, 99, 1) == b"\x00"

    def test_write_across_boundary_rejected(self, flash):
        with pytest.raises(ValueError):
            flash.write_page(0, b"x" * 10, offset=4090)

    def test_peek_across_boundary_rejected(self, flash):
        with pytest.raises(ValueError):
            flash.peek(0, 4090, 10)

    def test_sparse_backing(self, flash):
        flash.write_page(0, b"a")
        flash.write_page(5, b"b")
        assert flash.written_pages == 2

    def test_mismatched_page_size_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            FlashArray(
                sim, small_geometry(), SSDTimingModel(page_size=8192)
            )


def small_page_flash():
    """64-byte pages, 8192 of them: cheap to fill past one extent."""
    geo = SSDGeometry(
        channels=4, dies_per_channel=4, planes_per_die=2,
        blocks_per_plane=16, pages_per_block=16, page_size=64,
    )
    return FlashArray(Simulator(), geo, SSDTimingModel(page_size=64))


def assert_gather_matches_peek(flash, pages, cols, size):
    """``peek_vectors`` must equal one ``peek`` per request, bytewise
    (random page bytes include NaN patterns, so compare the bytes)."""
    rows = flash.peek_vectors(pages, cols, size)
    assert rows.dtype == np.float32
    assert rows.shape == (len(pages), size // 4)
    expected = b"".join(
        flash.peek(int(page), int(col), size) for page, col in zip(pages, cols)
    )
    assert rows.tobytes() == expected


class TestPeekVectors:
    def test_written_and_unwritten_pages(self, flash):
        rng = np.random.default_rng(0)
        for page in (0, 3, 500, 4095):
            flash.write_page(page, rng.bytes(4096))
        pages = np.array([3, 7, 0, 4095, 1, 500, 3, 4094])
        cols = np.array([0, 128, 3968, 256, 0, 1024, 128, 3968])
        assert_gather_matches_peek(flash, pages, cols, 128)
        unwritten = flash.peek_vectors(np.array([7, 1]), np.array([0, 64]), 64)
        assert not unwritten.any()

    def test_nothing_written(self, flash):
        rows = flash.peek_vectors(np.array([0, 9]), np.array([0, 64]), 64)
        assert rows.shape == (2, 16) and not rows.any()

    def test_empty_input(self, flash):
        flash.write_page(0, b"x" * 64)
        rows = flash.peek_vectors(np.array([], dtype=np.int64), [], 64)
        assert rows.shape == (0, 16) and rows.dtype == np.float32

    def test_word_aligned_but_not_vector_aligned_columns(self, flash):
        rng = np.random.default_rng(1)
        for page in range(4):
            flash.write_page(page, rng.bytes(4096))
        pages = np.array([0, 1, 2, 3, 9, 0])
        cols = np.array([4, 100, 4032, 60, 8, 0])
        assert_gather_matches_peek(flash, pages, cols, 64)

    def test_byte_aligned_columns(self, flash):
        rng = np.random.default_rng(2)
        for page in range(4):
            flash.write_page(page, rng.bytes(4096))
        pages = np.array([0, 1, 2, 3, 9])
        cols = np.array([1, 99, 4031, 7, 3])
        assert_gather_matches_peek(flash, pages, cols, 64)

    def test_vector_size_that_does_not_divide_the_page(self, flash):
        # 96-byte vectors: 42 per page and 64 bytes of padding.
        rng = np.random.default_rng(3)
        for page in range(3):
            flash.write_page(page, rng.bytes(4096))
        pages = np.array([0, 1, 2, 2, 5])
        cols = np.array([0, 41 * 96, 96, 20 * 96, 96])
        assert_gather_matches_peek(flash, pages, cols, 96)

    def test_store_spanning_several_extents(self):
        flash = small_page_flash()
        rng = np.random.default_rng(4)
        written = 2 * flash_module._EXTENT_PAGES + 100
        for page in range(written):
            flash.write_page(page, rng.bytes(64))
        assert flash.written_pages == written
        assert len(flash._extents) == 3
        pages = rng.integers(0, 8192, size=500)
        cols = rng.integers(0, 4, size=500) * 16
        assert_gather_matches_peek(flash, pages, cols, 16)
        assert_gather_matches_peek(flash, pages, cols + 4, 8)

    def test_erased_block_reads_zeros_and_recycles_its_slots(self):
        flash = small_page_flash()
        rng = np.random.default_rng(5)
        block = [
            page for page in range(flash.geometry.total_pages)
            if flash.geometry.page_index_to_address(page).block == 0
            and page % 32 == 0  # channel 0, die 0, plane 0
        ]
        assert len(block) == flash.geometry.pages_per_block
        for page in block + [1, 2]:
            flash.write_page(page, rng.bytes(64))
        slots_before = flash._next_slot
        flash.erase_block(block[3])
        assert flash.written_pages == 2
        probe = np.array(block + [1, 2])
        cols = np.zeros(len(probe), dtype=np.int64)
        assert not flash.peek_vectors(probe[:-2], cols[:-2], 64).any()
        assert flash.peek(block[0], 0, 64) == bytes(64)
        assert_gather_matches_peek(flash, probe, cols, 64)
        # Rewrite part of the block and some fresh pages: recycled
        # slots start zeroed (a partial write shows zeros around it)
        # and no new slot is taken while erased ones are free.
        flash.write_page(block[0], b"abcd", offset=8)
        for page in (100, 101, 102):
            flash.write_page(page, rng.bytes(64))
        assert flash._next_slot == slots_before
        assert flash.peek(block[0], 0, 16) == bytes(8) + b"abcd" + bytes(4)
        probe = np.array(block + [1, 2, 100, 101, 102])
        cols = np.zeros(len(probe), dtype=np.int64)
        assert_gather_matches_peek(flash, probe, cols, 64)

    def test_index_follows_slot_recycling_across_extents(self):
        """Three extents, an erase in the middle one, rewrites into the
        recycled slots: the page -> slot table is maintained by every
        allocation and erase, so the gather must keep matching
        ``peek`` on every page, written, erased or never written."""
        flash = small_page_flash()
        rng = np.random.default_rng(6)
        written = 2 * flash_module._EXTENT_PAGES + 100
        for page in range(written):
            flash.write_page(page, rng.bytes(64))
        assert len(flash._extents) == 3
        middle = flash_module._EXTENT_PAGES + 500  # its slot is in extent 1
        home = flash.geometry.page_index_to_address(middle)
        block = [
            page for page in range(flash.geometry.total_pages)
            if (
                (other := flash.geometry.page_index_to_address(page)).channel,
                other.die, other.plane, other.block,
            ) == (home.channel, home.die, home.plane, home.block)
        ]
        assert middle in block and len(block) == flash.geometry.pages_per_block
        everything = np.arange(flash.geometry.total_pages)
        cols = rng.integers(0, 4, size=len(everything)) * 16
        slots_before = flash._next_slot
        flash.erase_block(middle)
        assert not flash.peek_vectors(
            np.array(block), np.zeros(len(block), dtype=np.int64), 64
        ).any()
        assert_gather_matches_peek(flash, everything, cols, 16)
        # Rewrites and never-written pages take the recycled slots.
        fresh = [written + 7, flash.geometry.total_pages - 1]
        for page in block[::2] + fresh:
            flash.write_page(page, rng.bytes(64))
        assert flash._next_slot == slots_before
        assert_gather_matches_peek(flash, everything, cols, 16)
        assert_gather_matches_peek(flash, everything[::-1], cols, 16)

    def test_out_of_range_pages_rejected(self, flash):
        """A page index outside the device must raise like
        ``write_page`` does, naming the first offender, not read as
        zeros (or wrap around to some other page's slot)."""
        total = flash.geometry.total_pages
        flash.write_page(total - 1, b"x" * 64)
        cols = np.zeros(3, dtype=np.int64)
        for pages, bad in (([0, -1, total], -1), ([total, 0, -5], total)):
            with pytest.raises(ValueError, match=f"page index {bad} out of range"):
                flash.peek_vectors(np.array(pages), cols, 64)
        for bad in (-1, total):
            with pytest.raises(ValueError, match=f"page index {bad} out of range"):
                flash.peek(bad, 0, 64)

    def test_bad_requests_rejected(self, flash):
        with pytest.raises(ValueError):
            flash.peek_vectors(np.array([0]), np.array([0]), 6)
        with pytest.raises(ValueError):
            flash.peek_vectors(np.array([0]), np.array([4090]), 64)
        with pytest.raises(ValueError):
            flash.peek_vectors(np.array([0]), np.array([-4]), 64)


class TestReadTiming:
    def test_single_page_read_latency(self, flash):
        sim = flash.sim
        proc = sim.process(flash.read_page_proc(0))
        sim.run()
        expected = (
            flash.timing.request_overhead_ns
            + flash.timing.flush_ns
            + flash.timing.transfer_ns
        )
        assert sim.now == pytest.approx(expected)
        assert proc.value == flash.peek(0)

    def test_single_vector_read_latency(self, flash):
        sim = flash.sim
        sim.process(flash.read_vector_proc(0, col=128, size=128))
        sim.run()
        expected = flash.timing.request_overhead_ns + flash.timing.vector_read_ns(128)
        assert sim.now == pytest.approx(expected)

    def test_vector_read_returns_correct_slice(self, flash):
        flash.write_page(2, bytes(range(200)))
        sim = flash.sim
        proc = sim.process(flash.read_vector_proc(2, col=50, size=20))
        sim.run()
        assert proc.value == bytes(range(50, 70))

    def test_reads_on_different_channels_overlap(self):
        sim = Simulator()
        flash = FlashArray(sim, small_geometry(channels=4))
        # Pages 0..3 land on channels 0..3.
        elapsed = flash.run_reads([0, 1, 2, 3], vector=False)
        single = (
            flash.timing.request_overhead_ns
            + flash.timing.flush_ns
            + flash.timing.transfer_ns
        )
        assert elapsed == pytest.approx(single)

    def test_reads_on_same_die_serialize(self):
        sim = Simulator()
        geo = small_geometry(channels=1, dies=1)
        flash = FlashArray(sim, geo)
        elapsed = flash.run_reads([0, 1], vector=False)
        single = flash.timing.flush_ns + flash.timing.transfer_ns
        # Two reads on the only die: flush+transfer twice, overheads overlap.
        assert elapsed >= 2 * single

    def test_flushes_overlap_across_dies_sharing_bus(self):
        sim = Simulator()
        geo = small_geometry(channels=1, dies=4)
        flash = FlashArray(sim, geo)
        # Pages 0..3 on channel 0 land on dies 0..3 (channel-major layout).
        elapsed = flash.run_reads([0, 1, 2, 3], vector=False)
        serial = 4 * (flash.timing.flush_ns + flash.timing.transfer_ns)
        # Overlapped flushes should beat full serialization clearly.
        assert elapsed < 0.6 * serial

    def test_vector_reads_much_faster_in_bulk_than_page_reads(self):
        geo = small_geometry(channels=4, dies=4)
        requests = list(range(64))

        sim_page = Simulator()
        flash_page = FlashArray(sim_page, geo)
        t_page = flash_page.run_reads(requests, vector=False)

        sim_vec = Simulator()
        flash_vec = FlashArray(sim_vec, geo)
        t_vec = flash_vec.run_reads([(p, 0, 128) for p in requests], vector=True)

        # Section IV-B2: vector-grained reads increase bulk throughput.
        assert t_vec < t_page

    def test_stats_accounting(self, flash):
        sim = flash.sim
        sim.process(flash.read_page_proc(0))
        sim.process(flash.read_vector_proc(1, 0, 128))
        sim.run()
        assert flash.stats.flash_page_reads == 1
        assert flash.stats.flash_vector_reads == 1
        assert flash.stats.flash_bus_bytes == 4096 + 128
        assert flash.stats.host_read_bytes == 4096  # vector read stays inside

    def test_internal_page_read_does_not_cross_host(self, flash):
        sim = flash.sim
        sim.process(flash.read_page_proc(0, to_host=False))
        sim.run()
        assert flash.stats.host_read_bytes == 0
        assert flash.stats.flash_page_reads == 1
