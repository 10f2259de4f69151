"""Runtime invariant checker for the simulation stack ("sanitizer mode").

The simulator promises a handful of physical and temporal invariants
that, until now, lived only in docstrings: the event kernel keeps a
monotonically non-decreasing clock and fires every event at most once
(:mod:`repro.sim.engine`), flash pages are erased before they are
re-programmed and the L2P map stays injective and in-bounds
(:mod:`repro.ssd.flash`, :mod:`repro.ssd.ftl`), per-channel request
accounting conserves requests (enqueued == completed + in-flight), and
:class:`repro.ssd.timing.SSDTimingModel` never hands back a negative
latency.  Violating any of these silently corrupts benchmark numbers
without failing tests — exactly the failure mode RecSSD and MicroRec
warn about for per-stage timing accounts.

Sanitizer mode turns those promises into cheap machine-checked
assertions.  Enable it with ``Simulator(sanitize=True)`` or by setting
``RMSSD_SANITIZE=1`` in the environment (the test suite's conftest does
the latter by default).  The sanitizer is **observation-only**: it
never changes scheduling, timing, statistics, or data — a property
pinned down by a hypothesis test that compares sanitized and
unsanitized runs byte for byte (``tests/test_sanitizer_property.py``).

Violations raise :class:`SanitizerError`, which carries the simulated
timestamp and the offending component so the failure points at the
buggy layer rather than at whatever consumed the corrupted number
later.

See ``docs/correctness.md`` for the full list of invariants.
"""

from __future__ import annotations

import math
import os
from typing import TYPE_CHECKING, Dict, Optional, Set

import numpy as np

from repro.sim.engine import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.engine import Event, Process, Simulator

#: Environment variable that turns sanitizer mode on for every
#: :class:`~repro.sim.engine.Simulator` constructed without an explicit
#: ``sanitize=`` argument.
ENV_FLAG = "RMSSD_SANITIZE"

_FALSEY = ("", "0", "false", "off", "no")


def sanitize_from_env() -> bool:
    """Whether ``RMSSD_SANITIZE`` asks for sanitizer mode."""
    return os.environ.get(ENV_FLAG, "").strip().lower() not in _FALSEY


class SanitizerError(SimulationError):
    """A machine-checked simulation invariant was violated.

    Subclasses :class:`~repro.sim.engine.SimulationError` so existing
    ``except SimulationError`` handlers (and tests) keep working when
    sanitizer mode sharpens a silent misbehaviour into an error.
    """

    def __init__(
        self,
        invariant: str,
        component: str,
        message: str,
        time_ns: Optional[float] = None,
    ) -> None:
        self.invariant = invariant
        self.component = component
        self.time_ns = time_ns
        stamp = "t=?" if time_ns is None else f"t={time_ns:g}ns"
        super().__init__(f"[{invariant}] {component} @ {stamp}: {message}")


class Sanitizer:
    """Invariant checks shared by the kernel and the SSD substrate.

    One instance is owned by a :class:`~repro.sim.engine.Simulator`
    (``sim.sanitizer``); components reached from that simulator attach
    themselves when they are constructed.  All state kept here is
    bookkeeping *about* the simulation, never consulted by it.
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: Number of individual checks performed (test observability).
        self.checks = 0
        # Flash pages programmed since their last erase.
        self._programmed: Set[int] = set()
        # L2P forward/reverse maps as observed at the FTL boundary.
        self._l2p: Dict[int, int] = {}
        self._p2l: Dict[int, int] = {}
        # Per-channel request accounting: name -> [enqueued, completed].
        self._channels: Dict[str, list] = {}

    # ------------------------------------------------------------------
    # Error plumbing
    # ------------------------------------------------------------------
    def error(self, invariant: str, component: str, message: str) -> None:
        raise SanitizerError(invariant, component, message, time_ns=self.sim.now)

    # ------------------------------------------------------------------
    # Event-kernel invariants
    # ------------------------------------------------------------------
    def check_schedule(self, delay: float) -> None:
        """Scheduling must never target the simulated past."""
        self.checks += 1
        if not (delay >= 0) or math.isnan(delay):
            self.error(
                "monotonic-clock",
                "Simulator",
                f"schedule into the past: delay={delay!r} at now={self.sim.now!r}",
            )

    def check_clock(self, next_time: float) -> None:
        """The head of the event queue must never precede ``now``."""
        self.checks += 1
        if next_time < self.sim.now:
            self.error(
                "monotonic-clock",
                "Simulator",
                f"event queue yielded t={next_time!r} behind now={self.sim.now!r}",
            )

    def on_double_trigger(self, event: "Event") -> None:
        """Events are single-trigger; a second fire is always a bug."""
        self.error(
            "single-trigger",
            type(event).__name__,
            "event triggered more than once",
        )

    def on_dead_resume(self, process: "Process") -> None:
        """A terminated process must never be resumed again."""
        self.error(
            "no-dead-resume",
            type(process).__name__,
            "process resumed after its generator terminated",
        )

    # ------------------------------------------------------------------
    # Timing invariants
    # ------------------------------------------------------------------
    def check_latency(self, component: str, name: str, value_ns: float) -> None:
        """Latencies handed to the kernel must be finite and >= 0."""
        self.checks += 1
        if not (value_ns >= 0) or math.isinf(value_ns) or math.isnan(value_ns):
            self.error(
                "non-negative-latency",
                component,
                f"{name} = {value_ns!r} ns",
            )

    # ------------------------------------------------------------------
    # Flash invariants
    # ------------------------------------------------------------------
    def on_program(self, page_index: int, component: str = "FlashArray") -> None:
        """Erase-before-write: a page may be programmed once per erase."""
        self.checks += 1
        if page_index in self._programmed:
            self.error(
                "erase-before-write",
                component,
                f"page {page_index} programmed twice without an erase",
            )
        self._programmed.add(page_index)

    def on_erase(self, page_index: int) -> None:
        self._programmed.discard(page_index)

    # ------------------------------------------------------------------
    # FTL invariants
    # ------------------------------------------------------------------
    def on_translate(
        self,
        lba: int,
        physical: int,
        total_pages: int,
        component: str = "FlashTranslationLayer",
    ) -> None:
        """The L2P map must stay injective and in device bounds."""
        self.checks += 1
        if not 0 <= physical < total_pages:
            self.error(
                "l2p-in-bounds",
                component,
                f"LBA {lba} mapped to physical page {physical} "
                f"outside [0, {total_pages})",
            )
        mapped_lba = self._p2l.get(physical)
        if mapped_lba is not None and mapped_lba != lba:
            self.error(
                "l2p-injective",
                component,
                f"physical page {physical} mapped by both "
                f"LBA {mapped_lba} and LBA {lba}",
            )
        previous = self._l2p.get(lba)
        if previous is not None and previous != physical:
            # A remap releases the old physical page (trim); forget it
            # so a future LBA may legally claim it.
            self._p2l.pop(previous, None)
        self._l2p[lba] = physical
        self._p2l[physical] = lba

    def on_translate_array(
        self,
        lbas,
        physicals,
        total_pages: int,
        component: str = "FlashTranslationLayer",
    ) -> None:
        """Batched :meth:`on_translate` for the vectorized fast path.

        Checks the same bounds/injectivity invariants; duplicate
        ``(lba, physical)`` pairs within the batch are checked once.
        """
        lbas = np.asarray(lbas, dtype=np.int64)
        physicals = np.asarray(physicals, dtype=np.int64)
        # Sort by (lba, physical) on 1-D keys and keep each pair's
        # first occurrence: the order np.unique(axis=1) would give,
        # without its row-wise sort.
        order = np.lexsort((physicals, lbas))
        lbas, physicals = lbas[order], physicals[order]
        fresh = np.ones(len(order), dtype=bool)
        fresh[1:] = (lbas[1:] != lbas[:-1]) | (physicals[1:] != physicals[:-1])
        for lba, physical in zip(lbas[fresh].tolist(), physicals[fresh].tolist()):
            self.on_translate(lba, physical, total_pages, component=component)

    # ------------------------------------------------------------------
    # Vector-cache invariants
    # ------------------------------------------------------------------
    def vcache_batch(
        self, hits: int, lookups: int, component: str = "VectorCache"
    ) -> None:
        """A batch can never hit the vector cache more than it probes.

        The lookup engine probes the controller-DRAM cache once per
        embedding lookup; ``hits > lookups`` (or a negative count)
        means the cache double-counted a probe, which would silently
        understate flash load in the Fig. 14 comparison.
        """
        self.checks += 1
        if hits < 0 or lookups < 0 or hits > lookups:
            self.error(
                "vcache-hit-bound",
                component,
                f"batch reported {hits} cache hit(s) over {lookups} lookup(s)",
            )

    def vcache_hit_bytes(
        self,
        hit_rows: np.ndarray,
        flash_rows: np.ndarray,
        component: str = "VectorCache",
    ) -> None:
        """A hit is a bit-exact substitute for the flash read it absorbs.

        ``hit_rows`` are the vectors the cache supplied for one batch's
        hits, ``flash_rows`` a functional flash gather of the same
        keys.  A difference means a stale or clobbered arena slot fed
        the EV Sum wrong data with no timing symptom at all.
        """
        self.checks += 1
        wrong = np.flatnonzero(
            (hit_rows.view(np.uint32) != flash_rows.view(np.uint32)).any(axis=1)
        )
        if wrong.size:
            self.error(
                "vcache-hit-bytes",
                component,
                f"{wrong.size} of {len(hit_rows)} cache hit(s) differ from "
                f"flash (first: hit #{int(wrong[0])} of the batch)",
            )

    # ------------------------------------------------------------------
    # Per-channel queue conservation
    # ------------------------------------------------------------------
    def channel_enqueue(self, channel: str) -> None:
        counters = self._channels.setdefault(channel, [0, 0])
        counters[0] += 1

    def channel_complete(self, channel: str) -> None:
        self.checks += 1
        counters = self._channels.setdefault(channel, [0, 0])
        counters[1] += 1
        if counters[1] > counters[0]:
            self.error(
                "queue-conservation",
                channel,
                f"completed {counters[1]} requests but only "
                f"{counters[0]} were enqueued",
            )

    def channel_batch(self, channel: str, count: int) -> None:
        """Account an atomically-replayed fast-path batch.

        The vectorized fast path completes a whole batch in one step,
        so its requests are enqueued and completed together; queue
        conservation still holds at every observable instant.
        """
        self.checks += 1
        counters = self._channels.setdefault(channel, [0, 0])
        counters[0] += count
        counters[1] += count

    def channel_in_flight(self, channel: str) -> int:
        enqueued, completed = self._channels.get(channel, (0, 0))
        return enqueued - completed

    def check_quiescent(self) -> None:
        """At queue drain, every enqueued request must have completed."""
        self.checks += 1
        for channel, (enqueued, completed) in sorted(self._channels.items()):
            if enqueued != completed:
                self.error(
                    "queue-conservation",
                    channel,
                    f"event queue drained with {enqueued - completed} "
                    f"request(s) still in flight "
                    f"(enqueued={enqueued}, completed={completed})",
                )
