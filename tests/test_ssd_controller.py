"""Tests for the SSD controller front end: block, vector and internal reads."""

import pytest

from repro.sim import Simulator
from repro.ssd.controller import SSDController
from repro.ssd.geometry import SSDGeometry


def make_controller():
    sim = Simulator()
    geo = SSDGeometry(
        channels=4,
        dies_per_channel=4,
        planes_per_die=2,
        blocks_per_plane=8,
        pages_per_block=16,
    )
    return SSDController(sim, geo)


class TestFunctionalPath:
    def test_write_read_roundtrip(self):
        ctrl = make_controller()
        payload = bytes(range(256)) * 40  # 10240 B, crosses pages
        ctrl.write_logical(1000, payload)
        assert ctrl.peek_logical(1000, len(payload)) == payload

    def test_write_unaligned_offsets(self):
        ctrl = make_controller()
        ctrl.write_logical(4090, b"0123456789")  # straddles page 0/1 boundary
        assert ctrl.peek_logical(4090, 10) == b"0123456789"

    def test_timing_and_geometry_consistent(self):
        ctrl = make_controller()
        assert ctrl.timing.page_size == ctrl.geometry.page_size


class TestBlockPath:
    def test_block_read_returns_data_and_counts_host_traffic(self):
        ctrl = make_controller()
        ctrl.write_logical(0, b"blockdata")
        proc = ctrl.sim.process(ctrl.read_block_proc(0))
        ctrl.sim.run()
        assert proc.value[:9] == b"blockdata"
        assert ctrl.stats.host_read_bytes == 4096
        assert ctrl.stats.flash_page_reads == 1


class TestVectorPath:
    def test_vector_read_returns_exact_bytes(self):
        ctrl = make_controller()
        ctrl.write_logical(8192 + 256, b"V" * 128)
        proc = ctrl.sim.process(ctrl.read_vector_proc(8192 + 256, 128))
        ctrl.sim.run()
        assert proc.value == b"V" * 128
        assert ctrl.stats.flash_vector_reads == 1
        # Vector reads never cross the host link by themselves.
        assert ctrl.stats.host_read_bytes == 0

    def test_vector_straddling_page_rejected(self):
        ctrl = make_controller()

        def run():
            yield from ctrl.read_vector_proc(4096 - 10, 128)

        ctrl.sim.process(run())
        with pytest.raises(ValueError):
            ctrl.sim.run()

    def test_vector_read_faster_than_block_read(self):
        ctrl_vec = make_controller()
        ctrl_vec.sim.process(ctrl_vec.read_vector_proc(0, 128))
        ctrl_vec.sim.run()
        t_vec = ctrl_vec.sim.now

        ctrl_blk = make_controller()
        ctrl_blk.sim.process(ctrl_blk.read_block_proc(0))
        ctrl_blk.sim.run()
        t_blk = ctrl_blk.sim.now
        assert 0 < t_vec < t_blk

    def test_internal_page_read_stays_in_device(self):
        ctrl = make_controller()
        ctrl.sim.process(ctrl.read_page_internal_proc(0))
        ctrl.sim.run()
        assert ctrl.stats.host_read_bytes == 0
        assert ctrl.stats.flash_page_reads == 1


class TestStriping:
    def test_bulk_vector_reads_use_all_channels(self):
        ctrl = make_controller()
        # 64 vectors on consecutive pages -> striped across channels.
        events = [
            ctrl.sim.process(ctrl.read_vector_proc(page * 4096, 128))
            for page in range(64)
        ]
        ctrl.sim.run()
        del events
        busy = [ch.bus.jobs_served for ch in ctrl.flash.channels]
        assert all(count > 0 for count in busy)
        assert sum(busy) == 64


class TestFTLArbitration:
    """Block and EV requests share one translation pipeline (the MUX)."""

    def test_ftl_serializes_translations(self):
        ctrl = make_controller()
        # Many concurrent vector reads: the shared FTL stage serves
        # them one at a time, so its busy time is requests x lookup.
        events = [
            ctrl.sim.process(ctrl.read_vector_proc(page * 4096, 128))
            for page in range(32)
        ]
        ctrl.sim.run()
        del events
        lookup_ns = ctrl.timing.cycles_to_ns(ctrl.ftl.lookup_cycles)
        assert ctrl._ftl_server.busy_time == pytest.approx(32 * lookup_ns)
        assert ctrl._ftl_server.jobs_served == 32

    def test_block_and_vector_share_the_mux(self):
        ctrl = make_controller()
        ctrl.sim.process(ctrl.read_block_proc(0))
        ctrl.sim.process(ctrl.read_vector_proc(4096, 128))
        ctrl.sim.run()
        assert ctrl._ftl_server.jobs_served == 2
