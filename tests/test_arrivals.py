"""Tests for the open-loop arrival-trace generators."""

import math

import numpy as np
import pytest

from repro.workloads import arrivals
from repro.workloads.arrivals import (
    ArrivalTrace,
    batch_arrivals,
    diurnal_trace,
    flash_crowd_trace,
    merge_traces,
    poisson_trace,
)
from tests.timer import returns_within


def is_sorted(times):
    return all(a <= b for a, b in zip(times, times[1:]))


class TestPoisson:
    def test_deterministic_for_seed(self):
        a = poisson_trace(1000.0, 500, seed=7)
        b = poisson_trace(1000.0, 500, seed=7)
        assert a.times_ns == b.times_ns  # lint: ok[R2]

    def test_different_seeds_differ(self):
        a = poisson_trace(1000.0, 500, seed=7)
        b = poisson_trace(1000.0, 500, seed=8)
        assert a.times_ns != b.times_ns  # lint: ok[R2]

    def test_sorted_and_counted(self):
        trace = poisson_trace(2000.0, 300, seed=1)
        assert trace.count == 300
        assert is_sorted(trace.times_ns)

    def test_mean_rate_near_requested(self):
        trace = poisson_trace(5000.0, 4000, seed=2)
        assert trace.mean_qps == pytest.approx(5000.0, rel=0.1)

    def test_start_offset(self):
        trace = poisson_trace(1000.0, 10, seed=3, start_ns=5e6)
        assert trace.times_ns[0] > 5e6

    def test_first_gap_kept(self):
        """The first arrival is one exponential gap after t=0, never
        clamped to the origin."""
        trace = poisson_trace(1000.0, 10, seed=4)
        assert trace.times_ns[0] > 0.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            poisson_trace(0.0, 10)
        with pytest.raises(ValueError):
            poisson_trace(100.0, 0)


class TestDiurnal:
    def test_deterministic_for_seed(self):
        kwargs = dict(
            base_qps=2000.0, duration_ns=1e9, period_ns=2e8, seed=11
        )
        # Bitwise determinism for a fixed seed.
        assert (  # lint: ok[R2]
            diurnal_trace(**kwargs).times_ns
            == diurnal_trace(**kwargs).times_ns
        )

    def test_sorted_within_duration(self):
        trace = diurnal_trace(2000.0, 1e9, 2e8, seed=1)
        assert is_sorted(trace.times_ns)
        assert trace.times_ns[-1] < 1e9

    def test_mean_rate_near_base(self):
        # The sinusoid averages out over whole periods.
        trace = diurnal_trace(5000.0, 2e9, 2e8, amplitude=0.5, seed=2)
        assert trace.count / 2.0 == pytest.approx(5000.0, rel=0.1)

    def test_peak_half_busier_than_trough_half(self):
        # One full period: rate peaks in the first half-period
        # (sin > 0) and dips in the second.
        period_ns = 1e9
        trace = diurnal_trace(
            5000.0, period_ns, period_ns, amplitude=0.9, seed=3
        )
        t = np.asarray(trace.times_ns)
        first = int(np.sum(t < period_ns / 2))
        second = trace.count - first
        assert first > 1.5 * second

    def test_zero_amplitude_is_flat(self):
        trace = diurnal_trace(3000.0, 1e9, 1e8, amplitude=0.0, seed=4)
        assert trace.count / 1.0 == pytest.approx(3000.0, rel=0.15)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            diurnal_trace(0.0, 1e9, 1e8)
        with pytest.raises(ValueError):
            diurnal_trace(100.0, 0.0, 1e8)
        with pytest.raises(ValueError):
            diurnal_trace(100.0, 1e9, 0.0)
        with pytest.raises(ValueError):
            diurnal_trace(100.0, 1e9, 1e8, amplitude=1.0)


class TestFlashCrowd:
    def test_deterministic_for_seed(self):
        kwargs = dict(
            base_qps=1000.0,
            duration_ns=1e9,
            burst_start_ns=4e8,
            burst_duration_ns=2e8,
            burst_factor=5.0,
            seed=21,
        )
        assert (  # lint: ok[R2]
            flash_crowd_trace(**kwargs).times_ns
            == flash_crowd_trace(**kwargs).times_ns
        )

    def test_burst_window_denser(self):
        trace = flash_crowd_trace(
            2000.0, 1e9, 4e8, 2e8, burst_factor=5.0, seed=1
        )
        t = np.asarray(trace.times_ns)
        in_burst = int(np.sum((t >= 4e8) & (t < 6e8)))
        before = int(np.sum(t < 4e8))
        # Burst window is 0.2 s at 10 kqps (~2000 arrivals); the 0.4 s
        # before it runs at 2 kqps (~800).
        assert in_burst > 2 * before
        assert is_sorted(trace.times_ns)

    def test_factor_one_is_plain_poisson_rate(self):
        trace = flash_crowd_trace(2000.0, 1e9, 4e8, 2e8, burst_factor=1.0, seed=2)
        assert trace.mean_qps == pytest.approx(2000.0, rel=0.15)

    def test_burst_clipped_to_duration(self):
        trace = flash_crowd_trace(
            1000.0, 1e9, 9e8, 5e8, burst_factor=10.0, seed=3
        )
        assert trace.times_ns[-1] < 1e9

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            flash_crowd_trace(0.0, 1e9, 0.0, 1e8)
        with pytest.raises(ValueError):
            flash_crowd_trace(100.0, 0.0, 0.0, 1e8)
        with pytest.raises(ValueError):
            flash_crowd_trace(100.0, 1e9, 0.0, 1e8, burst_factor=0.5)
        with pytest.raises(ValueError):
            flash_crowd_trace(100.0, 1e9, -1.0, 1e8)


class TestCompose:
    def test_merge_sorts_superposition(self):
        a = poisson_trace(1000.0, 50, seed=1)
        b = poisson_trace(1000.0, 50, seed=2)
        merged = merge_traces(a, b)
        assert merged.count == 100
        assert is_sorted(merged.times_ns)
        assert sorted(a.times_ns + b.times_ns) == list(merged.times_ns)

    def test_merge_requires_a_trace(self):
        with pytest.raises(ValueError):
            merge_traces()

    def test_unsorted_trace_rejected(self):
        with pytest.raises(ValueError):
            ArrivalTrace(kind="poisson", times_ns=(2.0, 1.0))

    @pytest.mark.parametrize(
        "times, message",
        [
            ((0.0, float("nan"), 3.0), "finite"),
            ((0.0, float("inf")), "finite"),
            ((float("-inf"), 0.0), "finite"),
            ((-1.0, 2.0), "non-negative"),
            ((0.0, 5.0, 4.0), "sorted"),
        ],
    )
    def test_hostile_instants_rejected(self, times, message):
        # NaN passes a `diff < 0` sortedness test; inf would keep an
        # autoscaled fleet evaluating epochs forever.
        with pytest.raises(ValueError, match=f"arrival times must be {message}"):
            ArrivalTrace(kind="poisson", times_ns=times)

    def test_boundary_instants_accepted(self):
        trace = ArrivalTrace(kind="poisson", times_ns=(0.0, 0.0, 7.5))
        assert trace.count == 3

    def test_batch_arrivals_groups_by_last_query(self):
        times = (10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0)
        batched = batch_arrivals(times, 3)
        # Batches of 3+3+1: each arrives with its last query.
        np.testing.assert_allclose(batched, [30.0, 60.0, 70.0])

    def test_batch_arrivals_exact_multiple(self):
        times = (1.0, 2.0, 3.0, 4.0)
        np.testing.assert_allclose(batch_arrivals(times, 2), [2.0, 4.0])

    def test_batch_arrivals_nbatch_one_is_identity(self):
        times = (1.0, 2.0, 3.0)
        np.testing.assert_allclose(batch_arrivals(times, 1), list(times))

    def test_batch_arrivals_empty_and_invalid(self):
        assert batch_arrivals((), 4).size == 0
        with pytest.raises(ValueError):
            batch_arrivals((1.0,), 0)

    def test_trace_batched_method(self):
        trace = poisson_trace(1000.0, 10, seed=5)
        np.testing.assert_allclose(
            trace.batched(4), batch_arrivals(trace.times_ns, 4)
        )

    def test_empty_trace_properties(self):
        trace = ArrivalTrace(kind="merged", times_ns=())
        assert trace.count == 0
        assert trace.duration_ns == 0
        assert trace.mean_qps == 0.0


#: Valid keyword arguments per generator; each float one is made
#: non-finite in turn.
VALID_KWARGS = {
    poisson_trace: dict(qps=100.0, start_ns=0.0, queries=10),
    diurnal_trace: dict(base_qps=100.0, duration_ns=1e9, period_ns=1e8),
    flash_crowd_trace: dict(
        base_qps=100.0,
        duration_ns=1e9,
        burst_start_ns=0.0,
        burst_duration_ns=1e8,
        burst_factor=5.0,
    ),
}

HOSTILE = [
    pytest.param(generator, param, value, id=f"{generator.__name__}-{param}={value}")
    for generator, kwargs in VALID_KWARGS.items()
    for param in kwargs
    if param != "queries"
    for value in (math.nan, math.inf, -math.inf)
]


@pytest.mark.parametrize("generator, param, value", HOSTILE)
def test_hostile_non_finite_parameter_is_named(generator, param, value):
    """Before the check, NaN / inf rates and durations spun the
    thinning and ``_poisson_until`` loops forever, ``inf`` qps gave ten
    arrivals at 0.0 and a NaN period an empty trace."""
    kwargs = {**VALID_KWARGS[generator], param: value}
    with returns_within(2.0, f"{generator.__name__}({param}={value})"):
        with pytest.raises(ValueError, match=f"^{param} must be finite"):
            generator(**kwargs)


HUGE = [
    pytest.param(
        diurnal_trace, dict(base_qps=1e300, duration_ns=1e9, period_ns=1e8),
        id="diurnal-base_qps",
    ),
    pytest.param(
        flash_crowd_trace,
        dict(base_qps=1e300, duration_ns=1e9, burst_start_ns=0.0, burst_duration_ns=1e8),
        id="flash-crowd-base_qps",
    ),
    pytest.param(
        flash_crowd_trace,
        dict(base_qps=100.0, duration_ns=1e9, burst_start_ns=0.0,
             burst_duration_ns=1e8, burst_factor=1e300),
        id="flash-crowd-burst_factor",
    ),
]


@pytest.mark.parametrize("generator, kwargs", HUGE)
def test_hostile_huge_finite_rate_refused_before_any_draw(generator, kwargs, monkeypatch):
    """Before the bound, a huge but finite rate x duration (reachable as
    ``sla --cluster --qps 1e300``) drew one arrival at a time until
    memory ran out."""

    def no_draw(seed):
        raise AssertionError("drew from the generator before refusing")

    monkeypatch.setattr(arrivals.np.random, "default_rng", no_draw)
    with returns_within(2.0, generator.__name__):
        with pytest.raises(ValueError, match="a trace may hold"):
            generator(**kwargs)


def reference_poisson_until(rng, qps, start_ns, end_ns):
    """One gap at a time, stopping at the first draw at or past the end."""
    times, t_ns = [], start_ns
    while True:
        t_ns += rng.exponential(scale=1e9 / qps)
        if t_ns >= end_ns:
            return times
        times.append(t_ns)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("qps, start_ns, end_ns", [
    (600.0, 0.0, 2e8), (1e4, 3e7, 9e7), (5.0, 0.0, 1e8), (1e6, 0.0, 1e3),
    (700.0, 5e7, 5e7 + 1.0), (700.0, 5e7, 5e7),
])
def test_block_drawn_poisson_stream_is_the_loops(seed, qps, start_ns, end_ns):
    """Same instants, and the generator left in the same state, so the
    flash crowd's burst stream, drawn next, is unchanged as well."""
    blocks, loop = np.random.default_rng(seed), np.random.default_rng(seed)
    got = arrivals._poisson_until(blocks, qps, start_ns, end_ns)
    assert got == reference_poisson_until(loop, qps, start_ns, end_ns)
    assert blocks.bit_generator.state == loop.bit_generator.state
