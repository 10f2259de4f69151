"""Small metric helpers shared by benchmarks and tests."""

from __future__ import annotations

from math import exp, log
from typing import Sequence


def throughput_qps(inferences: int, elapsed_ns: float) -> float:
    """Queries (samples) per second."""
    if elapsed_ns <= 0:
        raise ValueError("elapsed time must be positive")
    return inferences / (elapsed_ns / 1e9)


def speedup(baseline_ns: float, improved_ns: float) -> float:
    """How many times faster ``improved`` is than ``baseline``."""
    if improved_ns <= 0:
        raise ValueError("improved time must be positive")
    return baseline_ns / improved_ns


def latency_reduction(baseline_ns: float, improved_ns: float) -> float:
    """Fractional latency cut (the paper's "97% latency reduction")."""
    if baseline_ns <= 0:
        raise ValueError("baseline time must be positive")
    return 1.0 - improved_ns / baseline_ns


def percentile(values: Sequence[float], q: float, presorted: bool = False) -> float:
    """The q-th percentile (0-100) by linear interpolation.

    Used for tail-latency reporting (p95/p99) of per-request latencies
    collected from the discrete-event simulator.  ``presorted=True``
    skips the sort for callers that take several percentiles of the
    same sample (the caller guarantees ascending order) and indexes
    the sequence — a list, a tuple or a 1-D ndarray — in place: only
    the two order statistics the quantile falls between are read.
    """
    if not presorted:
        values = sorted(values)
    if len(values) == 0:
        raise ValueError("empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile must be in [0, 100]")
    if len(values) == 1:
        return float(values[0])
    position = (len(values) - 1) * q / 100.0
    lower = int(position)
    upper = min(lower + 1, len(values) - 1)
    fraction = position - lower
    return float(values[lower]) * (1 - fraction) + float(values[upper]) * fraction


def geometric_mean(values: Sequence[float]) -> float:
    values = list(values)
    if not values:
        raise ValueError("empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return exp(sum(log(v) for v in values) / len(values))
