"""Sanitizer mode: injected invariant violations must be caught.

Each test injects one violation of a documented simulator invariant
and checks that sanitizer mode turns it into a structured
:class:`~repro.sim.sanitizer.SanitizerError` naming the invariant, the
component, and the simulated timestamp.
"""
# lint: ok-file[R3] — violation injection requires driving Event.succeed
# and kernel internals directly.

import pytest

from repro.sim import SanitizerError, Simulator, sanitize_from_env
from repro.sim.engine import SimulationError
from repro.sim.sanitizer import Sanitizer
from repro.ssd.controller import SSDController
from repro.ssd.flash import FlashArray
from repro.ssd.ftl import FlashTranslationLayer
from repro.ssd.geometry import SSDGeometry
from repro.ssd.timing import SSDTimingModel


def small_geometry():
    return SSDGeometry(
        channels=2,
        dies_per_channel=2,
        planes_per_die=1,
        blocks_per_plane=4,
        pages_per_block=8,
    )


class TestFlagPlumbing:
    def test_explicit_flag_attaches_sanitizer(self):
        assert Simulator(sanitize=True).sanitizer is not None
        assert Simulator(sanitize=False).sanitizer is None

    def test_env_flag_controls_default(self, monkeypatch):
        monkeypatch.setenv("RMSSD_SANITIZE", "0")
        assert not sanitize_from_env()
        assert Simulator().sanitizer is None
        monkeypatch.setenv("RMSSD_SANITIZE", "1")
        assert sanitize_from_env()
        assert Simulator().sanitizer is not None

    def test_substrate_inherits_sanitizer(self):
        sim = Simulator(sanitize=True)
        ctrl = SSDController(sim, small_geometry())
        assert ctrl.flash.sanitizer is sim.sanitizer
        assert ctrl.ftl.sanitizer is sim.sanitizer

    def test_error_carries_context(self):
        sim = Simulator(sanitize=True)
        sim.now = 123.0
        with pytest.raises(SanitizerError) as exc:
            sim.sanitizer.error("single-trigger", "Event", "boom")
        assert exc.value.invariant == "single-trigger"
        assert exc.value.component == "Event"
        assert exc.value.time_ns == 123
        assert "t=123ns" in str(exc.value)

    def test_sanitizer_error_is_a_simulation_error(self):
        # Existing `except SimulationError` handlers keep working.
        assert issubclass(SanitizerError, SimulationError)


class TestKernelInvariants:
    def test_double_succeed_is_flagged(self):
        sim = Simulator(sanitize=True)
        event = sim.event()
        event.succeed(1)
        with pytest.raises(SanitizerError) as exc:
            event.succeed(2)
        assert exc.value.invariant == "single-trigger"

    def test_double_fire_is_flagged(self):
        sim = Simulator(sanitize=True)
        event = sim.event()
        event.succeed("once")
        sim.run()
        with pytest.raises(SanitizerError):
            event._fire()

    def test_double_fire_is_silent_without_sanitizer(self):
        sim = Simulator(sanitize=False)
        event = sim.event()
        event.succeed("once")
        sim.run()
        event._fire()  # silently ignored (pre-sanitizer behaviour)

    def test_schedule_into_the_past_is_flagged(self):
        sim = Simulator(sanitize=True)
        with pytest.raises(SanitizerError) as exc:
            sim._schedule(sim.event(), delay=-5.0)
        assert exc.value.invariant == "monotonic-clock"

    def test_resume_after_termination_is_flagged(self):
        sim = Simulator(sanitize=True)

        def worker():
            yield sim.timeout(1)
            return "done"

        proc = sim.process(worker())
        sim.run()
        assert proc.value == "done"
        dead = sim.event()
        dead.value = None
        with pytest.raises(SanitizerError) as exc:
            proc._resume(dead)
        assert exc.value.invariant == "no-dead-resume"

    def test_resume_after_termination_silent_without_sanitizer(self):
        sim = Simulator(sanitize=False)

        def worker():
            yield sim.timeout(1)

        proc = sim.process(worker())
        sim.run()
        proc._resume(sim.event())  # silently ignored


class TestFlashInvariants:
    def test_program_without_erase_is_flagged(self):
        sim = Simulator(sanitize=True)
        flash = FlashArray(sim, small_geometry())
        sim.process(flash.write_page_proc(0, b"first"))
        sim.run()
        sim.process(flash.write_page_proc(0, b"again"))
        with pytest.raises(SanitizerError) as exc:
            sim.run()
        assert exc.value.invariant == "erase-before-write"

    def test_erase_block_allows_reprogram(self):
        sim = Simulator(sanitize=True)
        flash = FlashArray(sim, small_geometry())
        sim.process(flash.write_page_proc(0, b"first"))
        sim.run()
        flash.erase_block(0)
        assert flash.peek(0, 0, 5) == bytes(5)  # erased data is gone
        sim.process(flash.write_page_proc(0, b"again"))
        sim.run()
        assert flash.peek(0, 0, 5) == b"again"

    def test_erase_is_block_granular(self):
        sim = Simulator(sanitize=True)
        geo = small_geometry()
        flash = FlashArray(sim, geo)
        # Page 0 and the next page of the same block (one channel-major
        # stride of channels*dies*planes pages away) share a block.
        stride = geo.channels * geo.dies_per_channel * geo.planes_per_die
        sim.process(flash.write_page_proc(0, b"a"))
        sim.process(flash.write_page_proc(stride, b"b"))
        sim.run()
        flash.erase_block(0)
        assert flash.peek(stride, 0, 1) == b"\x00"

    def test_negative_latency_is_flagged(self, monkeypatch):
        # SSDTimingModel refuses hostile parameters, and the flash
        # array reads its latencies once, when it is built: a latency
        # that is negative by then is what this check still guards.
        monkeypatch.setattr(
            SSDTimingModel, "request_overhead_ns", property(lambda _: -20000.0)
        )
        sim = Simulator(sanitize=True)
        flash = FlashArray(sim, small_geometry(), SSDTimingModel())
        sim.process(flash.read_page_proc(0))
        with pytest.raises(SanitizerError) as exc:
            sim.run()
        assert exc.value.invariant == "non-negative-latency"

    def test_reads_leave_channels_quiescent(self):
        sim = Simulator(sanitize=True)
        flash = FlashArray(sim, small_geometry())
        flash.run_reads(range(8), vector=False)
        for channel in flash.channels:
            assert sim.sanitizer.channel_in_flight(channel.name) == 0


class TestQueueConservation:
    def test_completion_without_enqueue_is_flagged(self):
        sim = Simulator(sanitize=True)
        sanitizer = sim.sanitizer
        sanitizer.channel_enqueue("channel0")
        sanitizer.channel_complete("channel0")
        with pytest.raises(SanitizerError) as exc:
            sanitizer.channel_complete("channel0")
        assert exc.value.invariant == "queue-conservation"

    def test_drain_with_in_flight_request_is_flagged(self):
        sim = Simulator(sanitize=True)
        sim.sanitizer.channel_enqueue("channel0")
        with pytest.raises(SanitizerError) as exc:
            sim.run()
        assert exc.value.invariant == "queue-conservation"


class TestL2PInvariants:
    def test_aliasing_mapping_is_flagged(self):
        class AliasingMapping:
            def translate(self, lba):
                return 0  # every LBA lands on physical page 0

            def map_write(self, lba):
                return 0

        sim = Simulator(sanitize=True)
        geo = small_geometry()
        ftl = FlashTranslationLayer(geo, mapping=AliasingMapping())
        ctrl = SSDController(sim, geo, ftl=ftl)
        assert ctrl.ftl.translate(0) == 0
        with pytest.raises(SanitizerError) as exc:
            ctrl.ftl.translate(1)
        assert exc.value.invariant == "l2p-injective"

    def test_out_of_bounds_mapping_is_flagged(self):
        class WildMapping:
            def translate(self, lba):
                return 10**9

        sim = Simulator(sanitize=True)
        geo = small_geometry()
        ftl = FlashTranslationLayer(geo, mapping=WildMapping())
        ftl.attach_sanitizer(sim.sanitizer)
        with pytest.raises(SanitizerError) as exc:
            ftl.translate(0)
        assert exc.value.invariant == "l2p-in-bounds"

    def test_linear_mapping_is_clean(self):
        sim = Simulator(sanitize=True)
        ctrl = SSDController(sim, small_geometry())
        for lba in range(16):
            assert ctrl.ftl.translate(lba) == lba

    def test_remap_releases_old_physical_page(self):
        sanitizer = Sanitizer(Simulator(sanitize=False))
        sanitizer.on_translate(0, 5, 100)
        sanitizer.on_translate(0, 6, 100)  # LBA 0 remapped (trim)
        sanitizer.on_translate(1, 5, 100)  # page 5 is free again

    def test_batch_checks_each_distinct_pair_once_in_pair_order(self):
        """``on_translate_array`` must hand ``on_translate`` exactly the
        distinct ``(lba, physical)`` pairs, sorted by pair — an LBA
        mapped to two physical pages inside one batch included."""
        lbas = [4, 3, 3, 9, 3, 4, 3]
        physicals = [8, 7, 9, 2, 7, 8, 9]
        batched = Sanitizer(Simulator(sanitize=False))
        batched.on_translate_array(lbas, physicals, 100)
        scalar = Sanitizer(Simulator(sanitize=False))
        for lba, physical in sorted(set(zip(lbas, physicals))):
            scalar.on_translate(lba, physical, 100)
        assert batched.checks == scalar.checks == 4
        assert batched._l2p == scalar._l2p == {3: 9, 4: 8, 9: 2}
        assert batched._p2l == scalar._p2l

    def test_batch_flags_two_lbas_on_one_physical_page(self):
        sanitizer = Sanitizer(Simulator(sanitize=False))
        with pytest.raises(SanitizerError) as exc:
            sanitizer.on_translate_array([1, 2, 1], [5, 5, 5], 100)
        assert exc.value.invariant == "l2p-injective"
