"""Open-loop arrival traces: the cluster's offered traffic.

The paper's SLA argument presumes production traffic — millions of
users issuing queries on their own schedule, not a closed loop that
politely waits for the device.  This module generates that traffic as
explicit *arrival traces* (sorted per-query instants on the simulated
clock), in three shapes:

* :func:`poisson_trace` — homogeneous Poisson, the memoryless baseline
  every queueing result is stated against;
* :func:`diurnal_trace` — sinusoid-modulated inhomogeneous Poisson
  (day/night load swing), generated by Lewis-Shedler thinning;
* :func:`flash_crowd_trace` — a steady Poisson baseline with a
  rate-multiplied burst window superimposed, the breaking-news spike
  that autoscaling exists for.

Traces compose: :func:`merge_traces` superimposes independent streams
(the superposition of Poisson processes is Poisson at the summed
rate), and :func:`batch_arrivals` folds per-query instants into
per-batch instants for a device that serves ``nbatch`` queries at a
time — a batch "arrives" when its last query does, exactly the
Erlang-thinning semantics of :meth:`ServingSimulator.offered_load`.

Everything is seeded and deterministic: the same ``(generator, seed)``
pair always produces the same trace, so DES/fast serving comparisons
and benchmark baselines stay bitwise-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

#: The most arrivals the rate x duration generators (and the CLI's
#: Poisson sizing) draw.  A trace expected to exceed it is refused
#: before the first draw: a huge but finite rate would otherwise draw
#: until memory runs out.  At the bound, the trace's tuple of floats
#: alone takes about 320 MB (a 24-byte float plus an 8-byte slot each).
MAX_ARRIVALS = 10_000_000

#: Trace-kind labels carried on :class:`ArrivalTrace` for reports.
KIND_POISSON = "poisson"
KIND_DIURNAL = "diurnal"
KIND_FLASH_CROWD = "flash-crowd"
KIND_MERGED = "merged"


@dataclass(frozen=True)
class ArrivalTrace:
    """A sorted sequence of per-query arrival instants (ns)."""

    kind: str
    times_ns: Tuple[float, ...]

    def __post_init__(self) -> None:
        validated_instants(self.times_ns)

    @property
    def count(self) -> int:
        return len(self.times_ns)

    @property
    def duration_ns(self) -> float:
        """Span from t=0 to the last arrival (0.0 for empty traces)."""
        return self.times_ns[-1] if self.times_ns else 0.0

    @property
    def mean_qps(self) -> float:
        """Average offered rate over the trace's span."""
        if not self.times_ns or self.duration_ns <= 0:
            return 0.0
        return self.count / (self.duration_ns / 1e9)

    def batched(self, nbatch: int) -> np.ndarray:
        """Per-batch arrival instants; see :func:`batch_arrivals`."""
        return batch_arrivals(self.times_ns, nbatch)


def validated_instants(times_ns) -> np.ndarray:
    """``times_ns`` as a float64 array, refused with ``ValueError``
    unless every instant is finite, non-negative and in sorted order.

    The one boundary check for arrival instants: NaN slips through a
    ``diff < 0`` sortedness test and ``inf`` never reaches an epoch
    boundary, so finiteness comes first.
    """
    times = np.asarray(times_ns, dtype=np.float64)
    if not bool(np.isfinite(times).all()):
        raise ValueError("arrival times must be finite")
    if times.size and times[0] < 0:
        raise ValueError("arrival times must be non-negative")
    if bool(np.any(times[1:] < times[:-1])):
        raise ValueError("arrival times must be sorted")
    return times


def require_finite(**params: float) -> None:
    """Refuse a non-finite generator parameter before any RNG draw: NaN
    never satisfies a ``t >= end`` test and an infinite rate draws zero
    gaps, so either would spin a sampling loop forever."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def require_bounded(expected: float, **params: float) -> None:
    """Refuse, naming ``params``, a trace whose expected arrival count
    (rate x duration) exceeds :data:`MAX_ARRIVALS`."""
    if not expected <= MAX_ARRIVALS:
        named = ", ".join(f"{name}={value!r}" for name, value in params.items())
        raise ValueError(
            f"{named} expect {expected:.3g} arrivals, more than the "
            f"{MAX_ARRIVALS:,} a trace may hold"
        )


def poisson_trace(
    qps: float, queries: int, seed: int = 0, start_ns: float = 0.0
) -> ArrivalTrace:
    """Homogeneous Poisson arrivals: ``queries`` queries at ``qps``."""
    require_finite(qps=qps, start_ns=start_ns)
    if qps <= 0:
        raise ValueError("offered load must be positive")
    if queries < 1:
        raise ValueError("need at least one query")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(scale=1e9 / qps, size=queries)
    times = start_ns + np.cumsum(gaps)
    return ArrivalTrace(kind=KIND_POISSON, times_ns=tuple(times.tolist()))


def diurnal_trace(
    base_qps: float,
    duration_ns: float,
    period_ns: float,
    amplitude: float = 0.5,
    seed: int = 0,
) -> ArrivalTrace:
    """Sinusoid-modulated Poisson: rate(t) = base * (1 + A sin(2πt/T)).

    Generated by Lewis-Shedler thinning of a homogeneous process at
    the peak rate, so the output is an exact inhomogeneous Poisson
    process — deterministic for a given seed.  ``amplitude`` must stay
    in [0, 1) so the trough rate remains positive.
    """
    require_finite(base_qps=base_qps, duration_ns=duration_ns, period_ns=period_ns)
    if base_qps <= 0:
        raise ValueError("offered load must be positive")
    if duration_ns <= 0:
        raise ValueError("trace duration must be positive")
    if period_ns <= 0:
        raise ValueError("diurnal period must be positive")
    if not 0.0 <= amplitude < 1.0:
        raise ValueError("amplitude must be in [0, 1)")
    peak_qps = base_qps * (1.0 + amplitude)
    # Thinning draws candidates at the peak rate.
    require_bounded(
        peak_qps * (duration_ns / 1e9), base_qps=base_qps, duration_ns=duration_ns
    )
    rng = np.random.default_rng(seed)
    times = []
    t_ns = 0.0
    while True:
        t_ns += rng.exponential(scale=1e9 / peak_qps)
        if t_ns >= duration_ns:
            break
        rate_qps = base_qps * (
            1.0 + amplitude * math.sin(2.0 * math.pi * t_ns / period_ns)
        )
        if rng.uniform() * peak_qps <= rate_qps:
            times.append(t_ns)
    return ArrivalTrace(kind=KIND_DIURNAL, times_ns=tuple(times))


def flash_crowd_trace(
    base_qps: float,
    duration_ns: float,
    burst_start_ns: float,
    burst_duration_ns: float,
    burst_factor: float = 5.0,
    seed: int = 0,
) -> ArrivalTrace:
    """Steady Poisson load with a flash-crowd burst superimposed.

    Outside the burst window the rate is ``base_qps``; inside
    ``[burst_start_ns, burst_start_ns + burst_duration_ns)`` it is
    ``base_qps * burst_factor``.  Built as the superposition of the
    steady stream and an independent burst-window stream at the excess
    rate — an exact piecewise-constant inhomogeneous Poisson process.
    """
    require_finite(
        base_qps=base_qps, duration_ns=duration_ns, burst_factor=burst_factor,
        burst_start_ns=burst_start_ns, burst_duration_ns=burst_duration_ns,
    )
    if base_qps <= 0:
        raise ValueError("offered load must be positive")
    if duration_ns <= 0:
        raise ValueError("trace duration must be positive")
    if burst_factor < 1.0:
        raise ValueError("burst factor must be >= 1")
    if burst_start_ns < 0 or burst_duration_ns < 0:
        raise ValueError("burst window must be non-negative")
    burst_end_ns = min(burst_start_ns + burst_duration_ns, duration_ns)
    excess_qps = base_qps * (burst_factor - 1.0)
    bursting = excess_qps > 0 and burst_end_ns > burst_start_ns
    expected = base_qps * duration_ns
    if bursting:
        expected += excess_qps * (burst_end_ns - burst_start_ns)
    require_bounded(
        expected / 1e9,
        base_qps=base_qps, duration_ns=duration_ns, burst_factor=burst_factor,
    )
    rng = np.random.default_rng(seed)
    steady = _poisson_until(rng, base_qps, 0.0, duration_ns)
    burst = (
        _poisson_until(rng, excess_qps, burst_start_ns, burst_end_ns) if bursting else []
    )
    return _superpose(KIND_FLASH_CROWD, steady, burst)


def _poisson_until(rng, qps: float, start_ns: float, end_ns: float) -> list:
    """Homogeneous Poisson instants in ``[start_ns, end_ns)``: what a
    loop drawing one gap at a time makes, stopping at the first draw
    that lands at or past ``end_ns``.

    Gaps are drawn in blocks (a block of draws is the same stream as
    one draw at a time) and summed left to right; the generator is then
    rewound and moved on by exactly the draws the loop would have made,
    so a stream drawn after this one is unchanged too.
    """
    scale = 1e9 / qps
    state = rng.bit_generator.state
    # The expected count and six standard deviations; rarely short.
    expected = max(0.0, (end_ns - start_ns) / scale)
    block = int(expected + 6.0 * math.sqrt(expected)) + 16
    instants = np.empty(0)
    t_ns = start_ns
    while t_ns < end_ns:
        gaps = rng.exponential(scale=scale, size=block)
        instants = np.concatenate((instants, np.add.accumulate(np.append(t_ns, gaps))[1:]))
        t_ns = instants[-1]
    inside = int(np.searchsorted(instants, end_ns))
    rng.bit_generator.state = state
    rng.exponential(scale=scale, size=inside + 1)
    return instants[:inside].tolist()


def merge_traces(*traces: ArrivalTrace) -> ArrivalTrace:
    """Superimpose independent arrival streams into one sorted trace."""
    if not traces:
        raise ValueError("need at least one trace")
    return _superpose(KIND_MERGED, *(t.times_ns for t in traces))


def _superpose(kind: str, *streams) -> ArrivalTrace:
    """One sorted trace of the instants of every stream, ties in stream order."""
    streams = [np.asarray(s, dtype=np.float64) for s in streams]
    merged = np.sort(np.concatenate(streams), kind="stable")
    return ArrivalTrace(kind=kind, times_ns=tuple(merged.tolist()))


def batch_arrivals(times_ns, nbatch: int) -> np.ndarray:
    """Fold per-query instants into per-batch instants.

    The device serves ``nbatch`` queries per batch (the paper's
    small-batch partitioning); a batch is dispatchable when its last
    query has arrived, so batch ``k`` arrives at the instant of query
    ``(k+1) * nbatch - 1`` — with one short remainder batch at the
    final arrival.  Matches the Erlang-gap semantics of
    :meth:`ServingSimulator.offered_load` exactly.
    """
    if nbatch < 1:
        raise ValueError("nbatch must be positive")
    t = np.asarray(times_ns, dtype=np.float64)
    if t.size == 0:
        return t
    last = t[nbatch - 1 :: nbatch]
    if t.size % nbatch:
        last = np.concatenate([last, t[-1:]])
    return last
