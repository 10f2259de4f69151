"""Tests for the timed write (program) path."""

import pytest

from repro.sim import Simulator
from repro.ssd.controller import SSDController
from repro.ssd.flash import FlashArray
from repro.ssd.geometry import SSDGeometry
from repro.ssd.timing import SSDTimingModel


def small_geometry():
    return SSDGeometry(
        channels=4,
        dies_per_channel=2,
        planes_per_die=2,
        blocks_per_plane=8,
        pages_per_block=16,
    )


class TestFlashWrites:
    def test_single_write_latency(self):
        sim = Simulator()
        flash = FlashArray(sim, small_geometry())
        sim.process(flash.write_page_proc(0, b"data"))
        sim.run()
        expected = (
            flash.timing.request_overhead_ns
            + flash.timing.transfer_ns
            + flash.timing.page_program_ns
        )
        assert sim.now == pytest.approx(expected)
        assert flash.peek(0, 0, 4) == b"data"

    def test_program_dominates_write(self):
        timing = SSDTimingModel()
        assert timing.page_program_ns > 5 * timing.page_read_ns

    def test_writes_on_different_channels_overlap(self):
        sim = Simulator()
        flash = FlashArray(sim, small_geometry())
        for page in range(4):  # pages 0-3 on channels 0-3
            sim.process(flash.write_page_proc(page, b"x"))
        sim.run()
        single = (
            flash.timing.request_overhead_ns
            + flash.timing.transfer_ns
            + flash.timing.page_program_ns
        )
        assert sim.now == pytest.approx(single)

    def test_writes_on_same_die_serialize(self):
        sim = Simulator()
        geo = SSDGeometry(
            channels=1, dies_per_channel=1, planes_per_die=1,
            blocks_per_plane=4, pages_per_block=8,
        )
        flash = FlashArray(sim, geo)
        sim.process(flash.write_page_proc(0, b"a"))
        sim.process(flash.write_page_proc(1, b"b"))
        sim.run()
        single = flash.timing.transfer_ns + flash.timing.page_program_ns
        assert sim.now >= 2 * single

    def test_write_traffic_accounted(self):
        sim = Simulator()
        flash = FlashArray(sim, small_geometry())
        sim.process(flash.write_page_proc(0, b"1234"))
        sim.run()
        assert flash.stats.host_write_bytes == 4


class TestControllerWrites:
    def test_write_then_read_roundtrip(self):
        sim = Simulator()
        ctrl = SSDController(sim, small_geometry())
        sim.process(ctrl.write_block_proc(3, b"persisted"))
        sim.run()
        assert ctrl.peek_logical(3 * 4096, 9) == b"persisted"

    def test_oversized_write_rejected(self):
        sim = Simulator()
        ctrl = SSDController(sim, small_geometry())

        def run():
            yield from ctrl.write_block_proc(0, b"x" * 5000)

        sim.process(run())
        with pytest.raises(ValueError):
            sim.run()

    def test_writes_contend_with_reads(self):
        # A write holds its die through the long program; a read to the
        # same die queues behind it.
        sim = Simulator()
        ctrl = SSDController(sim, small_geometry())
        sim.process(ctrl.write_block_proc(0, b"w"))
        read = sim.process(ctrl.read_block_proc(0))
        sim.run()
        assert sim.now > ctrl.timing.page_program_ns
        assert read.value[:1] == b"w"
