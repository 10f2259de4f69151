"""Shared resources for simulation processes.

Three primitives cover everything the SSD substrate needs:

* :class:`Resource` — counting semaphore with a FIFO wait queue (flash
  dies, DMA engines).
* :class:`Server` — a single FIFO server that processes *jobs* of a
  given service time and tracks busy-time utilization (a flash channel
  bus is a ``Server``).
* :class:`Store` — an unbounded producer/consumer queue of items
  (request queues between controller stages).
"""

from __future__ import annotations

from collections import deque
from math import inf
from typing import Any, Deque, Generator, List, Optional

from repro.sim.engine import Event, Simulator, Timeout, bad_duration


class Resource:
    """Counting semaphore with FIFO granting order.

    Named resources report occupancy to an attached utilization
    profiler (``sim.profiler``): a busy interval opens when the first
    unit is taken and closes when the last is returned, and the wait
    queue is sampled whenever an acquire has to queue (lint rule R8
    requires new acquisition sites to construct named resources so
    these reports happen).
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: int = 1,
        name: Optional[str] = None,
        kind: str = "resource",
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.kind = kind
        self._in_use = 0
        self._busy_since = 0.0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        """Event that fires when a unit of the resource is granted."""
        event = Event(self.sim)
        if self._in_use < self.capacity:
            if self._in_use == 0:
                self._busy_since = self.sim.now
            self._in_use += 1
            event.succeed()
        else:
            profiler = self.sim.profiler
            if profiler is not None and self.name is not None:
                # Depth seen by this arrival: waiters already queued.
                profiler.record_queue_depth(
                    self.name, self.sim.now, len(self._waiters)
                )
            self._waiters.append(event)
        return event

    def release(self) -> None:
        if self._in_use <= 0:
            raise RuntimeError("release without matching acquire")
        if self._waiters:
            # Hand the unit directly to the next waiter.
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1
            if self._in_use == 0:
                profiler = self.sim.profiler
                if profiler is not None and self.name is not None:
                    profiler.record_busy(
                        self.name, self._busy_since, self.sim.now, self.kind
                    )


class Server:
    """Single FIFO server with busy-time accounting.

    ``serve(duration)`` returns an event that fires when the caller's
    job completes; jobs run back-to-back in arrival order.
    """

    def __init__(
        self, sim: Simulator, name: str = "server", kind: str = "server"
    ) -> None:
        self.sim = sim
        self.name = name
        self.kind = kind
        self._free_at = 0.0
        self.busy_time = 0.0
        self.jobs_served = 0

    @property
    def free_at(self) -> float:
        """When the server finishes its last accepted job (read-only).

        A job offered now starts at ``max(now, free_at)`` — the
        observability layer uses this to separate queueing from
        service time without re-deriving server state.
        """
        return self._free_at

    def serve(self, duration: float) -> Event:
        """Enqueue a job of ``duration``; event fires at completion."""
        # One chained comparison refuses negative, NaN and inf jobs.
        if not 0 <= duration < inf:
            raise ValueError(bad_duration("service duration", duration))
        sim = self.sim
        now = sim.now
        start = max(now, self._free_at)
        finish = start + duration
        self._free_at = finish
        self.busy_time += duration
        self.jobs_served += 1
        profiler = sim.profiler
        if profiler is not None:
            profiler.record_service(self.name, now, start, finish, self.kind)
        return Timeout(sim, finish - now)

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` time this server spent busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)


class Store:
    """Unbounded FIFO queue of items with blocking ``get``."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event that fires with the next item (immediately if queued)."""
        event = self.sim.event()
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event


def drain(sim: Simulator, store: Store, count: int) -> Generator:
    """Process helper: collect ``count`` items from ``store`` into a list."""
    items: List[Any] = []
    for _ in range(count):
        item = yield store.get()
        items.append(item)
    return items
