"""Span tracer keyed to the *simulated* clock.

The engines record where simulated time goes inside a request as
nested spans — ``request -> {io_send, emb{translate, flash_read,
ev_sum}, ssd{ftl, channelK}, mlp{per-FC-layer}, io_recv}`` — and this
module turns them into a Chrome-trace / Perfetto JSON file
(``trace.json``) so a whole serving run can be inspected visually in
`https://ui.perfetto.dev <https://ui.perfetto.dev>`_.

Design constraints, in order:

* **Zero overhead when absent.**  Not tracing is ``tracer=None``,
  the same convention as every other observer; each instrumentation
  site tests ``tracer is not None`` before computing span arguments.
* **Simulated time only.**  Timestamps are simulated nanoseconds
  supplied by the caller (or read from a clock callable); the tracer
  never consults the wall clock (lint rule R7 bans wall clocks in the
  simulated-time packages outright).
* **Deterministic.**  Identical runs produce byte-identical traces;
  the fast path and the DES emit *identical span trees* (names,
  tracks, simulated durations) for the same batch — the PR 2
  equivalence contract extended to observability
  (``tests/test_obs_span_equivalence.py``).

Spans are grouped into *tracks* (Chrome-trace threads).  Within one
track spans must nest properly; concurrent flows use the
:meth:`Tracer.lane_index` allocator, which parcels overlapping spans
out over ``group[0] / group[1] / ...`` sibling tracks.

Pass a :class:`Tracer` as ``tracer=`` to
:class:`repro.core.device.RMSSD` /
:class:`repro.ssd.controller.SSDController` /
:class:`repro.core.pipeline_sim.PipelineSimulator` (the CLI's
``--trace-out`` does) and export with :meth:`Tracer.export_chrome`.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional, Tuple


def _json_safe(value: Any) -> Any:
    """Coerce span-arg values into JSON-serializable scalars."""
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return value
    # numpy scalars and anything else with an item()/__float__.
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


class Span:
    """One completed span: simulated start/end plus identity."""

    __slots__ = ("name", "cat", "track", "start_ns", "end_ns", "args")

    def __init__(
        self,
        name: str,
        start_ns: float,
        end_ns: float,
        cat: str,
        track: str,
        args: Optional[dict],
    ) -> None:
        self.name = name
        self.cat = cat
        self.track = track
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.args = args

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns

    def key(self) -> tuple:
        """Identity tuple used by the differential span-tree tests."""
        return (self.track, self.name, self.start_ns, self.end_ns)

    def __repr__(self) -> str:
        return (
            f"Span({self.track}:{self.name} "
            f"[{self.start_ns:.0f}, {self.end_ns:.0f}]ns)"
        )


class _Measured:
    """Context manager for :meth:`Tracer.measure` (clock-read spans)."""

    __slots__ = ("_tracer", "_clock", "_name", "_cat", "_track", "_args", "_t0")

    def __init__(self, tracer, clock, name, cat, track, args) -> None:
        self._tracer = tracer
        self._clock = clock
        self._name = name
        self._cat = cat
        self._track = track
        self._args = args
        self._t0 = 0.0

    def __enter__(self) -> "_Measured":
        self._t0 = self._clock()
        return self

    def __exit__(self, *exc) -> None:
        self._tracer.add_span(
            self._name,
            self._t0,
            self._clock(),
            cat=self._cat,
            track=self._track,
            args=self._args,
        )


class Tracer:
    """Collects spans on the simulated clock; exports Chrome-trace JSON."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        # group -> list of per-lane last end times (see lane_index).
        self._lanes: Dict[str, List[float]] = {}

    def __len__(self) -> int:
        return len(self.spans)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def add_span(
        self,
        name: str,
        start_ns: float,
        end_ns: float,
        cat: str = "",
        track: str = "main",
        args: Optional[dict] = None,
    ) -> Span:
        """Record a completed span with explicit simulated times."""
        if end_ns < start_ns:
            raise ValueError(
                f"span {name!r} ends before it starts "
                f"({end_ns} < {start_ns})"
            )
        span = Span(name, float(start_ns), float(end_ns), cat, track, args)
        self.spans.append(span)
        return span

    def measure(
        self,
        clock: Callable[[], float],
        name: str,
        cat: str = "",
        track: str = "main",
        args: Optional[dict] = None,
    ) -> _Measured:
        """Context manager reading ``clock()`` at enter/exit."""
        return _Measured(self, clock, name, cat, track, args)

    def lane_index(self, group: str, start_ns: float, end_ns: float) -> int:
        """Allocate a track lane for a ``[start, end]`` interval.

        Overlapping intervals of one group land on distinct lanes
        (tracks ``group[0]``, ``group[1]``, ...), so concurrent
        requests render side by side instead of producing malformed
        nesting on one track.  Intervals must be offered in
        non-decreasing ``start_ns`` order per group.
        """
        lanes = self._lanes.setdefault(group, [])
        for index, busy_until in enumerate(lanes):
            if start_ns >= busy_until:
                lanes[index] = end_ns
                return index
        lanes.append(end_ns)
        return len(lanes) - 1

    def lane_track(self, group: str, start_ns: float, end_ns: float) -> str:
        """Track name for :meth:`lane_index` (``group`` for lane 0)."""
        index = self.lane_index(group, start_ns, end_ns)
        return group if index == 0 else f"{group}[{index}]"

    # ------------------------------------------------------------------
    # Introspection (tests, reports)
    # ------------------------------------------------------------------
    def as_tuples(self) -> List[tuple]:
        """Span identities ``(track, name, start_ns, end_ns)``, in
        recording order — the exact-equality currency of the
        differential tests."""
        return [span.key() for span in self.spans]

    def spans_named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    # ------------------------------------------------------------------
    # Chrome-trace export
    # ------------------------------------------------------------------
    def chrome_events(self) -> List[dict]:
        """The ``traceEvents`` list: balanced B/E pairs, ts-sorted.

        Timestamps are microseconds (the Chrome-trace unit) derived
        from the simulated nanosecond clock.  Within a track, spans
        must nest properly — a partial overlap raises, pointing at the
        offending instrumentation (use :meth:`lane_index` for
        concurrent flows).
        """
        tracks: List[str] = []
        seen: Dict[str, int] = {}
        for span in self.spans:
            if span.track not in seen:
                seen[span.track] = len(tracks)
                tracks.append(span.track)

        events: List[Tuple[float, int, dict]] = []
        sequence = 0
        for track in tracks:
            tid = seen[track] + 1
            members = [s for s in self.spans if s.track == track]
            members.sort(key=lambda s: (s.start_ns, -s.end_ns))
            stack: List[Span] = []
            for span in members:
                while stack and stack[-1].end_ns <= span.start_ns:
                    closed = stack.pop()
                    events.append(
                        (closed.end_ns, sequence, self._end_event(closed, tid))
                    )
                    sequence += 1
                if stack and span.end_ns > stack[-1].end_ns:
                    raise ValueError(
                        f"span {span!r} partially overlaps {stack[-1]!r} on "
                        f"track {track!r}; allocate lanes for concurrency"
                    )
                events.append(
                    (span.start_ns, sequence, self._begin_event(span, tid))
                )
                sequence += 1
                stack.append(span)
            while stack:
                closed = stack.pop()
                events.append(
                    (closed.end_ns, sequence, self._end_event(closed, tid))
                )
                sequence += 1

        events.sort(key=lambda item: (item[0], item[1]))
        out = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "args": {"name": "rm-ssd simulated device"},
            }
        ]
        for track in tracks:
            out.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": seen[track] + 1,
                    "args": {"name": track},
                }
            )
        out.extend(event for _ts, _seq, event in events)
        return out

    @staticmethod
    def _begin_event(span: Span, tid: int) -> dict:
        event = {
            "name": span.name,
            "cat": span.cat or "sim",
            "ph": "B",
            "ts": span.start_ns / 1000.0,
            "pid": 1,
            "tid": tid,
        }
        if span.args:
            event["args"] = {k: _json_safe(v) for k, v in span.args.items()}
        return event

    @staticmethod
    def _end_event(span: Span, tid: int) -> dict:
        return {
            "name": span.name,
            "cat": span.cat or "sim",
            "ph": "E",
            "ts": span.end_ns / 1000.0,
            "pid": 1,
            "tid": tid,
        }

    def export_chrome(self, path: str) -> str:
        """Write the trace as Chrome-trace JSON; returns the path."""
        payload = {
            "displayTimeUnit": "ns",
            "traceEvents": self.chrome_events(),
        }
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")
        return path
