"""Core event loop and process machinery.

The simulator keeps a heap of ``(time, sequence, event)`` entries.  An
:class:`Event` may have *callbacks*; when the event fires, callbacks run
in registration order.  A :class:`Process` wraps a generator: each value
the generator yields must be an :class:`Event`, and the process is
resumed (with the event's ``value``) when that event succeeds.

Time is unitless from the kernel's perspective.  The SSD substrate uses
nanoseconds throughout (see :mod:`repro.ssd.timing`).

The kernel's promises (single-trigger events, a monotonically
non-decreasing clock, no resuming a terminated process) can be machine
checked by constructing the simulator with ``sanitize=True`` (or
setting ``RMSSD_SANITIZE=1``); see :mod:`repro.sim.sanitizer`.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


class Event:
    """A one-shot occurrence in simulated time.

    Events start *pending*; :meth:`succeed` (or the simulator firing a
    scheduled event) transitions them to *triggered* exactly once and
    delivers ``value`` to every callback.
    """

    __slots__ = ("sim", "callbacks", "value", "_triggered", "_scheduled")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self.value: Any = None
        self._triggered = False
        self._scheduled = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event *now*, delivering ``value`` to callbacks."""
        if self._triggered or self._scheduled:
            sanitizer = self.sim.sanitizer
            if sanitizer is not None:
                sanitizer.on_double_trigger(self)
            raise SimulationError("event already triggered")
        self._scheduled = True
        self.value = value
        self.sim._schedule(self, delay=0)
        return self

    def _fire(self) -> None:
        if self._triggered:
            sanitizer = self.sim.sanitizer
            if sanitizer is not None:
                sanitizer.on_double_trigger(self)
            return
        self._triggered = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event fires (immediately if fired)."""
        if self._triggered:
            callback(self)
        else:
            self.callbacks.append(callback)


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = delay
        self.value = value
        sim._schedule(self, delay=delay)

    def _fire(self) -> None:
        self._triggered = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)


class Process(Event):
    """A running generator; also an event that fires when it returns.

    The event ``value`` is the generator's return value (the value of
    its ``StopIteration``), which lets processes wait for each other::

        result = yield sim.process(child())
    """

    __slots__ = ("_generator", "_done")

    def __init__(self, sim: "Simulator", generator: Generator) -> None:
        super().__init__(sim)
        self._generator = generator
        self._done = False
        # Kick off on the next scheduling round at the current time.
        bootstrap = Timeout(sim, 0)
        bootstrap.add_callback(self._resume)

    def _resume(self, event: Event) -> None:
        if self._done:
            sanitizer = self.sim.sanitizer
            if sanitizer is not None:
                sanitizer.on_dead_resume(self)
            return
        try:
            target = self._generator.send(event.value)
        except StopIteration as stop:
            self._done = True
            if not self._triggered:
                self.value = stop.value
                self.sim._schedule(self, delay=0)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process yielded {target!r}; processes must yield Event instances"
            )
        target.add_callback(self._resume)


class AllOf(Event):
    """Fires once every event in ``events`` has fired.

    ``value`` is the list of the constituent events' values, in the
    order the events were given.
    """

    __slots__ = ("_pending", "_values", "_events")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._events = list(events)
        self._pending = len(self._events)
        self._values: List[Any] = [None] * len(self._events)
        if self._pending == 0:
            self.succeed([])
            return
        for i, event in enumerate(self._events):
            event.add_callback(self._make_callback(i))

    def _make_callback(self, index: int) -> Callable[[Event], None]:
        def callback(event: Event) -> None:
            self._values[index] = event.value
            self._pending -= 1
            if self._pending == 0 and not self._triggered:
                self.succeed(self._values)

        return callback


class Simulator:
    """The event loop.

    >>> sim = Simulator()
    >>> def hello():
    ...     yield sim.timeout(5)
    ...     return sim.now
    >>> proc = sim.process(hello())
    >>> sim.run()
    >>> proc.value
    5
    """

    def __init__(self, sanitize: Optional[bool] = None) -> None:
        self.now: float = 0.0
        self._queue: List = []
        self._sequence = 0
        # ``None`` defers to the RMSSD_SANITIZE environment flag; the
        # import is deferred to break the engine <-> sanitizer cycle.
        from repro.sim.sanitizer import Sanitizer, sanitize_from_env

        if sanitize is None:
            sanitize = sanitize_from_env()
        self.sanitizer = Sanitizer(self) if sanitize else None
        # Optional utilization profiler (repro.obs.profiler).  ``None``
        # by default so the hot path pays a single attribute load;
        # owners (e.g. repro.core.device.RMSSD) attach a
        # profiler and resources report busy intervals to it.
        self.profiler = None

    def _schedule(self, event: Event, delay: float) -> None:
        if self.sanitizer is not None:
            self.sanitizer.check_schedule(delay)
        self._sequence += 1
        heapq.heappush(self._queue, (self.now + delay, self._sequence, event))

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` units from now."""
        return Timeout(self, delay, value)

    def event(self) -> Event:
        """A bare, manually-triggered event."""
        return Event(self)

    def process(self, generator: Generator) -> Process:
        """Start ``generator`` as a process; returns its completion event."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """An event firing when all of ``events`` have fired."""
        return AllOf(self, events)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains, or simulated time reaches ``until``."""
        while self._queue:
            time, _seq, event = self._queue[0]
            if until is not None and time > until:
                self.now = until
                return
            heapq.heappop(self._queue)
            if self.sanitizer is not None:
                self.sanitizer.check_clock(time)
            self.now = time
            event._fire()
        if self.sanitizer is not None:
            self.sanitizer.check_quiescent()
        if until is not None:
            self.now = max(self.now, until)

    def peek(self) -> Optional[float]:
        """Time of the next scheduled event, or ``None`` when idle."""
        return self._queue[0][0] if self._queue else None
