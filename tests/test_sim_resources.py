"""Tests for simulation resources (Resource, Server, Store)."""

import pytest

from repro.sim import Resource, Server, Simulator, Store


class TestResource:
    def test_acquire_within_capacity_is_immediate(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        times = []

        def worker():
            yield res.acquire()
            times.append(sim.now)
            yield sim.timeout(10)
            res.release()

        sim.process(worker())
        sim.process(worker())
        sim.run()
        assert times == [0, 0]

    def test_acquire_beyond_capacity_queues_fifo(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        starts = {}

        def worker(name, hold):
            yield res.acquire()
            starts[name] = sim.now
            yield sim.timeout(hold)
            res.release()

        sim.process(worker("a", 5))
        sim.process(worker("b", 5))
        sim.process(worker("c", 5))
        sim.run()
        assert starts == {"a": 0, "b": 5, "c": 10}

    def test_release_without_acquire_raises(self):
        sim = Simulator()
        res = Resource(sim)
        with pytest.raises(RuntimeError):
            res.release()

    def test_queue_length_tracks_waiters(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)

        def holder():
            yield res.acquire()
            yield sim.timeout(100)
            res.release()

        def waiter():
            yield res.acquire()
            res.release()

        sim.process(holder())
        sim.process(waiter())
        sim.run(until=1)
        assert res.queue_length == 1
        assert res.in_use == 1

    def test_zero_capacity_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)


class TestServer:
    def test_jobs_serialize_back_to_back(self):
        sim = Simulator()
        server = Server(sim)
        finishes = []

        def submit(duration):
            yield server.serve(duration)
            finishes.append(sim.now)

        sim.process(submit(10))
        sim.process(submit(5))
        sim.run()
        assert finishes == [10, 15]

    def test_idle_gap_not_counted_busy(self):
        sim = Simulator()
        server = Server(sim)

        def late_job():
            yield sim.timeout(100)
            yield server.serve(10)

        sim.process(late_job())
        sim.run()
        assert sim.now == 110
        assert server.busy_time == 10
        assert server.utilization(110) == pytest.approx(10 / 110)

    def test_negative_duration_rejected(self):
        sim = Simulator()
        server = Server(sim)
        with pytest.raises(ValueError):
            server.serve(-1)

    @pytest.mark.parametrize("duration", [float("nan"), float("inf"), -1.0])
    def test_hostile_duration_rejected_before_state_changes(self, duration):
        # NaN passed the old `< 0` test and left free_at NaN.
        sim = Simulator(sanitize=False)
        server = Server(sim)
        server.serve(4.0)
        before = (server.free_at, server.busy_time, server.jobs_served, sim.peek())
        with pytest.raises(ValueError, match="service duration"):
            server.serve(duration)
        assert (server.free_at, server.busy_time, server.jobs_served, sim.peek()) == before

    def test_jobs_served_counter(self):
        sim = Simulator()
        server = Server(sim)
        for _ in range(7):
            server.serve(1)
        sim.run()
        assert server.jobs_served == 7
        assert sim.now == 7


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)
        store.put("item")
        got = []

        def consumer():
            value = yield store.get()
            got.append(value)

        sim.process(consumer())
        sim.run()
        assert got == ["item"]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def consumer():
            value = yield store.get()
            got.append((sim.now, value))

        def producer():
            yield sim.timeout(8)
            store.put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [(8, "late")]

    def test_fifo_ordering_of_items_and_getters(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def consumer(tag):
            value = yield store.get()
            got.append((tag, value))

        sim.process(consumer("first"))
        sim.process(consumer("second"))

        def producer():
            yield sim.timeout(1)
            store.put("x")
            store.put("y")

        sim.process(producer())
        sim.run()
        assert got == [("first", "x"), ("second", "y")]

    def test_len_counts_queued_items(self):
        sim = Simulator()
        store = Store(sim)
        store.put(1)
        store.put(2)
        assert len(store) == 2
