"""Tests for the discrete-event simulation kernel."""
# lint: ok-file[R3] — the kernel's own tests exercise Event.succeed directly.

import pytest

from repro.sim import Simulator
from repro.sim.engine import SimulationError


class TestTimeout:
    def test_single_timeout_advances_clock(self):
        sim = Simulator()
        sim.timeout(10)
        sim.run()
        assert sim.now == 10

    def test_timeouts_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.timeout(5).add_callback(lambda e: order.append("b"))
        sim.timeout(1).add_callback(lambda e: order.append("a"))
        sim.timeout(9).add_callback(lambda e: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_equal_times_fire_in_creation_order(self):
        sim = Simulator()
        order = []
        for tag in range(5):
            sim.timeout(3, value=tag).add_callback(lambda e: order.append(e.value))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(-1)

    def test_run_until_stops_early(self):
        sim = Simulator()
        fired = []
        sim.timeout(100).add_callback(lambda e: fired.append(1))
        sim.run(until=50)
        assert not fired
        assert sim.now == 50
        sim.run()
        assert fired

    def test_run_until_beyond_queue_advances_clock(self):
        sim = Simulator()
        sim.timeout(10)
        sim.run(until=500)
        assert sim.now == 500


class TestHostileBoundaries:
    """Refused before the clock or the queue changes, with or without
    the sanitizer."""

    @pytest.mark.parametrize("sanitize", [False, True])
    @pytest.mark.parametrize("delay", [float("nan"), float("inf"), -1])
    def test_hostile_timeout_delay(self, sanitize, delay):
        # Unsanitized, NaN used to put the clock at NaN (and then back
        # to the next finite event); inf put it at inf.
        sim = Simulator(sanitize=sanitize)
        sim.timeout(1.0)
        with pytest.raises(SimulationError, match="timeout delay"):
            sim.timeout(delay)
        sim.run()
        assert (sim.now, sim.peek()) == (1.0, None)

    def test_hostile_run_until_behind_the_clock(self):
        sim = Simulator(sanitize=False)
        sim.timeout(10)
        sim.run()
        sim.timeout(5)
        sim.run(until=12)
        # Used to set the clock back to 3 with an event queued at 15.
        with pytest.raises(SimulationError, match="until"):
            sim.run(until=3)
        assert (sim.now, sim.peek()) == (12, 15)
        sim.run(until=12)  # the clock itself is a valid horizon
        assert (sim.now, sim.peek()) == (12, 15)

    @pytest.mark.parametrize("until", [float("nan"), float("inf")])
    def test_hostile_run_until_non_finite(self, until):
        # NaN used to drain the whole queue; inf left the clock at inf.
        sim = Simulator(sanitize=False)
        sim.timeout(5)
        with pytest.raises(SimulationError, match="until"):
            sim.run(until=until)
        assert (sim.now, sim.peek()) == (0.0, 5)


class TestProcess:
    def test_process_returns_value(self):
        sim = Simulator()

        def worker():
            yield sim.timeout(7)
            return 42

        proc = sim.process(worker())
        sim.run()
        assert proc.value == 42
        assert sim.now == 7

    def test_process_waits_on_process(self):
        sim = Simulator()

        def child():
            yield sim.timeout(5)
            return "payload"

        def parent():
            result = yield sim.process(child())
            return (sim.now, result)

        proc = sim.process(parent())
        sim.run()
        assert proc.value == (5, "payload")

    def test_sequential_timeouts_accumulate(self):
        sim = Simulator()

        def worker():
            for _ in range(4):
                yield sim.timeout(2.5)
            return sim.now

        proc = sim.process(worker())
        sim.run()
        assert proc.value == 10.0

    def test_yielding_non_event_raises(self):
        sim = Simulator()

        def bad():
            yield 5

        sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_many_concurrent_processes(self):
        sim = Simulator()
        results = []

        def worker(delay):
            yield sim.timeout(delay)
            results.append(delay)

        for delay in [30, 10, 20]:
            sim.process(worker(delay))
        sim.run()
        assert results == [10, 20, 30]
        assert sim.now == 30


class TestEvent:
    def test_manual_event_delivers_value(self):
        sim = Simulator()
        event = sim.event()
        got = []

        def waiter():
            value = yield event
            got.append(value)

        sim.process(waiter())

        def trigger():
            yield sim.timeout(3)
            event.succeed("done")

        sim.process(trigger())
        sim.run()
        assert got == ["done"]

    def test_double_trigger_raises(self):
        sim = Simulator()
        event = sim.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_callback_after_trigger_runs_immediately(self):
        sim = Simulator()
        event = sim.event()
        event.succeed("x")
        sim.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == ["x"]


class TestAllOf:
    def test_all_of_collects_values_in_order(self):
        sim = Simulator()

        def waiter():
            values = yield sim.all_of(
                [sim.timeout(9, "slow"), sim.timeout(1, "fast")]
            )
            return (sim.now, values)

        proc = sim.process(waiter())
        sim.run()
        assert proc.value == (9, ["slow", "fast"])

    def test_all_of_empty_fires_immediately(self):
        sim = Simulator()

        def waiter():
            values = yield sim.all_of([])
            return values

        proc = sim.process(waiter())
        sim.run()
        assert proc.value == []
        assert sim.now == 0

    def test_peek_reports_next_event_time(self):
        sim = Simulator()
        assert sim.peek() is None
        sim.timeout(4)
        assert sim.peek() == 4
