"""Core event loop and process machinery.

The simulator keeps a heap of ``(time, sequence, event)`` entries.  An
:class:`Event` may have *callbacks*; when the event fires, callbacks run
in registration order.  A :class:`Process` wraps a generator: each value
the generator yields must be an :class:`Event`, and the process is
resumed (with the event's ``value``) when that event succeeds.

Time is unitless from the kernel's perspective.  The SSD substrate uses
nanoseconds throughout (see :mod:`repro.ssd.timing`).  Delays, service
durations and ``run(until=...)`` horizons must be finite, and no
horizon may lie behind the clock; each is refused before the clock or
the queue changes.

The kernel's promises (single-trigger events, a monotonically
non-decreasing clock, no resuming a terminated process) can be machine
checked by constructing the simulator with ``sanitize=True`` (or
setting ``RMSSD_SANITIZE=1``); see :mod:`repro.sim.sanitizer`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Generator, Iterable, List, Optional


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


def bad_duration(name: str, value: Any) -> str:
    """Message for a ``value`` that failed a ``0 <= value < inf`` check."""
    return f"{'negative' if value < 0 else 'non-finite'} {name}: {value!r}"


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
        # One chained comparison refuses negative, NaN and inf delays.
        if not 0 <= delay < inf:
            raise SimulationError(bad_duration("timeout delay", delay))
        # Event.__init__ and Simulator._schedule, inlined: every
        # simulated wait builds one of these.
        self.sim = sim
        self.callbacks = []
        self.value = value
        self._triggered = False
        self._scheduled = False
        self.delay = delay
        if sim.sanitizer is not None:
            sim.sanitizer.check_schedule(delay)
        sim._sequence += 1
        heappush(sim._queue, (sim.now + delay, sim._sequence, self))

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

    The process's first step is its own heap entry, pushed at creation
    with delay 0: the ``(time, sequence)`` slot a bootstrap timeout
    would take, without the timeout or its callback.  Nothing the
    process schedules later can precede it, so the first time the
    heap hands the process out is always its start; the second is its
    completion.
    """

    __slots__ = ("_generator", "_done", "_started")

    def __init__(self, sim: "Simulator", generator: Generator) -> None:
        super().__init__(sim)
        self._generator = generator
        self._done = False
        self._started = False
        sim._schedule(self, 0)

    def _fire(self) -> None:
        if self._started:
            Event._fire(self)
        else:
            self._started = True
            self._resume(_START)

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
        # Event.add_callback, inlined.
        if target._triggered:
            self._resume(target)
        else:
            target.callbacks.append(self._resume)


class AllOf(Event):
    """Fires once every event in ``events`` has fired.

    ``value`` is the list of the constituent events' values, in the
    order the events were given.  Events are single-trigger, so the
    values are read once, when the last constituent fires.
    """

    __slots__ = ("_pending", "_events")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._events = list(events)
        self._pending = len(self._events)
        if self._pending == 0:
            self.succeed([])
            return
        count_down = self._count_down
        for event in self._events:
            event.add_callback(count_down)

    def _count_down(self, _event: Event) -> None:
        self._pending -= 1
        if self._pending == 0 and not self._triggered:
            self.succeed([event.value for event in self._events])


#: What a process's first step resumes on: an event whose value is
#: ``None`` (a just-started generator accepts nothing else).
_START = Event(None)


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
        heappush(self._queue, (self.now + delay, self._sequence, event))

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
        """Run until the queue drains, or simulated time reaches ``until``.

        ``until`` must be finite and not behind the clock.
        """
        if until is None:
            horizon = inf
        elif self.now <= until < inf:
            horizon = until
        elif until < self.now:
            raise SimulationError(f"until={until!r} is behind now={self.now!r}")
        else:
            raise SimulationError(f"non-finite until: {until!r}")
        queue = self._queue
        sanitizer = self.sanitizer
        while queue:
            if queue[0][0] > horizon:
                self.now = until
                return
            time, _seq, event = heappop(queue)
            if sanitizer is not None:
                sanitizer.check_clock(time)
            self.now = time
            event._fire()
        if sanitizer is not None:
            sanitizer.check_quiescent()
        if until is not None:
            self.now = max(self.now, until)

    def peek(self) -> Optional[float]:
        """Time of the next scheduled event, or ``None`` when idle."""
        return self._queue[0][0] if self._queue else None
