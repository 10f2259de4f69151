"""Host-time spans recorded from outside the program.

Lint R7 bans wall clocks inside ``repro/{core,ssd,sim,obs}``, so the
harness times layers from here: :meth:`SpanRecorder.wrap` replaces a
layer's public entry point (a module function or a method on a class)
with a wrapper that records one span per call, and :meth:`remove` puts
the original object back.  Spans nest through a stack, so a span knows
the span that caused it, and all spans of one op share its op id.

A layer's *self time* is its span minus the part its child spans
cover; the ledger is the table of self times, which sums to the op's
duration exactly because every traced op runs inside a root span.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Root span of every traced op; its self time is the harness glue and
#: whatever the program does outside the wrapped entry points.
OP_SPAN = "harness.op"

#: Op id of spans recorded outside the timed ops (one-off probes).
EXTRA_OP = -1

#: (name, start, end, parent index or -1, op id)
Span = Tuple[str, float, float, int, int]


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Optional[Span]] = []
        self.op = EXTRA_OP
        self._stack: List[int] = []
        #: (owner, attribute, the object found there, its wrapper)
        self._wrapped: List[Tuple[object, str, object, Callable]] = []
        self._installed = False

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the ``with`` body."""
        spans = self.spans
        index = len(spans)
        parent = self._stack[-1] if self._stack else -1
        spans.append(None)
        self._stack.append(index)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            spans[index] = (name, start, end, parent, self.op)

    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str,
        on_result: Optional[Callable[[object], None]] = None,
    ) -> None:
        """Register ``owner.attribute`` to be traced as ``name``.

        ``on_result`` sees each return value (for counts the layer
        already carries, such as ``LookupResult.path``).  Nothing is
        replaced until :meth:`install`.
        """
        original = vars(owner)[attribute]
        target = getattr(owner, attribute)
        recorder = self

        def traced(*args, **kwargs):
            with recorder.span(name):
                result = target(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        self._wrapped.append((owner, attribute, original, traced))

    def install(self) -> None:
        if self._installed:
            return
        for owner, attribute, _, traced in self._wrapped:
            setattr(owner, attribute, traced)
        self._installed = True

    def remove(self) -> None:
        if not self._installed:
            return
        for owner, attribute, original, _ in self._wrapped:
            setattr(owner, attribute, original)
        self._installed = False

    def restored(self) -> bool:
        """Whether every wrapped attribute holds its original again."""
        return all(
            vars(owner)[attribute] is original
            for owner, attribute, original, _ in self._wrapped
        )

    @contextmanager
    def traced_op(self, op: int) -> Iterator[None]:
        """Wrappers installed, a root span open, for one op."""
        self.op = op
        self.install()
        try:
            with self.span(OP_SPAN):
                yield
        finally:
            self.remove()
            self.op = EXTRA_OP

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per span: duration minus the durations of its children."""
        own = [span[2] - span[1] for span in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def ledger(self, extra: bool = False) -> Dict[str, Dict[str, float]]:
        """name -> calls / busy_s (inclusive) / self_s.

        Over the spans of timed ops by default; ``extra=True`` reads
        the one-off probes recorded outside them instead.
        """
        rows: Dict[str, Dict[str, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            name, start, end, _, op = span
            if (op == EXTRA_OP) != extra:
                continue
            row = rows.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += own
        return rows

    def as_document(self) -> dict:
        """The spans in the shape ``trace_<workload>.json`` stores."""
        return {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": [list(span) for span in self.spans],
        }


def render_ledger(
    rows: Dict[str, Dict[str, float]], ops: int, title: str
) -> str:
    """The ledger as a fixed-width table, largest self time first."""
    total = sum(row["self_s"] for row in rows.values()) or 1.0
    lines = [
        title,
        f"{'layer':<46}{'calls/op':>10}{'busy ms/op':>12}{'self ms/op':>12}{'share':>8}",
    ]
    for name, row in sorted(rows.items(), key=lambda item: -item[1]["self_s"]):
        lines.append(
            f"{name:<46}{row['calls'] / ops:>10.1f}"
            f"{row['busy_s'] / ops * 1e3:>12.3f}"
            f"{row['self_s'] / ops * 1e3:>12.3f}"
            f"{row['self_s'] / total:>8.1%}"
        )
    lines.append(f"{'sum of self':<46}{'':>10}{'':>12}{total / ops * 1e3:>12.3f}{1:>8.1%}")
    return "\n".join(lines)
