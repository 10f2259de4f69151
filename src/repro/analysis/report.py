"""Plain-text table rendering for the benchmark harness.

Each ``bench_*`` module prints the rows/series of its paper figure or
table through these helpers, so the harness output can be compared to
the paper side by side (EXPERIMENTS.md records that comparison).
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.timeseries import export_document


def format_si(value: float, digits: int = 3) -> str:
    """1234567 -> '1.23M'."""
    for threshold, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "K")):
        if abs(value) >= threshold:
            return f"{value / threshold:.{digits - 1}f}{suffix}"
    if value == int(value):
        return str(int(value))
    return f"{value:.{digits}g}"


def format_seconds(ns: float) -> str:
    """Nanoseconds -> human-readable duration.

    Sign-preserving, and sub-nanosecond values keep their significant
    digits instead of rounding to ``0ns`` (per-cycle quantities at
    multi-GHz clocks are fractions of a nanosecond).
    """
    if ns < 0:
        return "-" + format_seconds(-ns)
    if ns >= 1e9:
        return f"{ns / 1e9:.2f}s"
    if ns >= 1e6:
        return f"{ns / 1e6:.2f}ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.2f}us"
    if ns >= 1 or ns == 0:
        return f"{ns:.0f}ns"
    return f"{ns:.3g}ns"


class Table:
    """A fixed-column text table."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, *cells: Any) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(cells)}"
            )
        self.rows.append([str(c) for c in cells])

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title, "-" * len(self.title)]
        header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(self.columns))
        lines.append(header)
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def print(self) -> None:
        emit(self.render())


def stage_breakdown_table(
    title: str,
    breakdown: Dict[str, float],
    per_inference: Optional[int] = None,
) -> Table:
    """Fig. 11-style stage-time breakdown as a :class:`Table`.

    ``breakdown`` maps stage name to accumulated simulated
    nanoseconds; rows are sorted largest-first with each stage's share
    of the stage-time sum (stages overlap under pipelining, so the sum
    exceeds wall time — the shares say where the work went, not where
    the wall clock went).  ``per_inference`` additionally amortizes
    each stage over that many inferences.
    """
    columns = ["stage", "time", "share"]
    if per_inference:
        columns.append("per-inference")
    table = Table(title, columns)
    total = sum(breakdown.values())
    for stage, value in sorted(breakdown.items(), key=lambda kv: (-kv[1], kv[0])):
        row = [
            stage,
            format_seconds(value),
            f"{value / total:.1%}" if total else "-",
        ]
        if per_inference:
            row.append(format_seconds(value / per_inference))
        table.add_row(*row)
    row = ["(sum)", format_seconds(total), "100.0%" if total else "-"]
    if per_inference:
        row.append(format_seconds(total / per_inference))
    table.add_row(*row)
    return table


def emit(*blocks: Any) -> None:
    """Shared stdout sink for the benchmark harness.

    Every ``bench_*`` module routes its output (tables, ASCII charts)
    through here instead of bare ``print`` — the lint pass (rule R6)
    enforces it — so harness output stays uniform and there is exactly
    one place to redirect when the reports grow a file/JSON sink.
    """
    for block in blocks:
        print()
        print(block)
    print()


def emit_json(name: str, payload: dict, directory: str = ".") -> str:
    """Write a machine-readable result file ``BENCH_<name>.json``.

    Companion to :func:`emit` for benchmarks whose numbers feed
    automated gates (e.g. the fast-path speedup check).  Returns the
    written path and emits a pointer line so the text output records
    where the JSON went.
    """
    path = export_document(payload, os.path.join(directory, f"BENCH_{name}.json"))
    emit(f"wrote {path}")
    return path
