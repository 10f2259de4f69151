"""Metrics registry tests: histogram boundary math, registry, absorb."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    DEFAULT_BOUNDS_NS,
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
)


class TestCounterGauge:
    def test_counter_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="only go up"):
            Counter("c").inc(-1)

    def test_gauge_last_write_wins(self):
        gauge = Gauge("g")
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.value == 1.5


class TestHistogramConstruction:
    def test_default_bounds_are_1_2_5_series(self):
        assert DEFAULT_BOUNDS_NS[0] == 100.0
        assert DEFAULT_BOUNDS_NS[-1] == 5e10
        assert list(DEFAULT_BOUNDS_NS) == sorted(DEFAULT_BOUNDS_NS)

    def test_empty_bounds_raise(self):
        with pytest.raises(ValueError, match="at least one"):
            LatencyHistogram("h", bounds=[])

    def test_non_increasing_bounds_raise(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            LatencyHistogram("h", bounds=[10, 10, 20])
        with pytest.raises(ValueError, match="strictly increasing"):
            LatencyHistogram("h", bounds=[20, 10])

    def test_non_positive_bounds_raise(self):
        with pytest.raises(ValueError, match="positive"):
            LatencyHistogram("h", bounds=[0, 10])


class TestHistogramObservation:
    def test_negative_observation_raises(self):
        with pytest.raises(ValueError, match="negative latency"):
            LatencyHistogram("h", bounds=[10]).observe(-1)

    def test_upper_inclusive_bucketing(self):
        # A value exactly on a bound lands in that bound's bucket
        # (Prometheus "le" semantics).
        hist = LatencyHistogram("h", bounds=[10, 20])
        for value in (10, 20, 21):
            hist.observe(value)
        assert hist.counts == [1, 1, 1]

    def test_extremes_and_mean(self):
        hist = LatencyHistogram("h", bounds=[100])
        for value in (5, 15, 40):
            hist.observe(value)
        assert hist.min_ns == 5
        assert hist.max_ns == 40
        assert hist.mean_ns == pytest.approx(20.0)


class TestHistogramPercentiles:
    def test_empty_is_zero(self):
        hist = LatencyHistogram("h", bounds=[10])
        assert hist.percentile(50.0) == 0.0
        assert hist.mean_ns == 0

    def test_p0_is_min(self):
        hist = LatencyHistogram("h", bounds=[10, 20])
        hist.observe(7)
        hist.observe(12)
        assert hist.percentile(0.0) == 7

    def test_out_of_range_raises(self):
        hist = LatencyHistogram("h", bounds=[10])
        for bad in (-1.0, 100.5):
            with pytest.raises(ValueError, match=r"\[0, 100\]"):
                hist.percentile(bad)

    def test_interpolation_pin(self):
        # bounds [10,20,40], observations [10,20,20,40] -> counts
        # [1,2,1].  p50 targets rank 2, which falls in bucket (10,20]
        # holding ranks 2..3; interpolation gives 10 + 0.5*(20-10).
        hist = LatencyHistogram("h", bounds=[10, 20, 40])
        for value in (10, 20, 20, 40):
            hist.observe(value)
        assert hist.percentile(50.0) == 15.0

    def test_single_bucket_data_is_exact(self):
        # Edge tightening to min/max: all mass in one bucket means
        # lower==upper==value, so every quantile is exact.
        hist = LatencyHistogram("h", bounds=[100, 200])
        for _ in range(10):
            hist.observe(150)
        for q in (1.0, 50.0, 99.0, 100.0):
            assert hist.percentile(q) == 150.0

    def test_overflow_bucket_uses_observed_max(self):
        # Values above the last bound have no upper bound; the
        # observed max caps the interpolation instead.
        hist = LatencyHistogram("h", bounds=[10])
        hist.observe(1000)
        hist.observe(3000)
        assert hist.percentile(100.0) == 3000
        assert hist.percentile(50.0) <= 3000

    def test_summary_fields(self):
        hist = LatencyHistogram("h", bounds=[10, 20, 40])
        for value in (10, 20, 20, 40):
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 4
        assert summary["p50_ns"] == 15.0
        assert summary["min_ns"] == 10
        assert summary["max_ns"] == 40
        assert set(summary) == {
            "count", "mean_ns", "p50_ns", "p95_ns", "p99_ns",
            "min_ns", "max_ns",
        }

    def test_as_dict_sparse_buckets_and_overflow(self):
        hist = LatencyHistogram("h", bounds=[10, 20, 40])
        hist.observe(5)
        hist.observe(100)
        buckets = hist.as_dict()["buckets"]
        assert buckets == [
            {"le_ns": 10, "count": 1},
            {"le_ns": None, "count": 1},
        ]


def three_scan_percentile(hist, q):
    """`LatencyHistogram.percentile` as it stood before the one-pass
    cursor: two generator scans for the edge buckets, then the
    cumulative loop.  Kept as the reference the cursor must match bit
    for bit."""
    if hist.count == 0:
        return 0.0
    target = q / 100.0 * hist.count
    if target <= 0:
        return hist.min_ns
    first_nonempty = next(i for i, c in enumerate(hist.counts) if c)
    last_nonempty = max(i for i, c in enumerate(hist.counts) if c)
    cumulative = 0
    for index, bucket_count in enumerate(hist.counts):
        if bucket_count == 0:
            continue
        if cumulative + bucket_count >= target:
            if index < len(hist.bounds):
                lower = hist.bounds[index - 1] if index > 0 else 0.0
                upper = hist.bounds[index]
            else:
                lower = hist.overflow_min_ns
                upper = hist.max_ns
            if index == first_nonempty:
                lower = max(lower, hist.min_ns)
            if index == last_nonempty:
                upper = min(upper, hist.max_ns)
            fraction = (target - cumulative) / bucket_count
            return lower + fraction * (upper - lower)
        cumulative += bucket_count
    raise AssertionError("target rank beyond the last bucket")


class TestOnePassQuantiles:
    VALUES = st.one_of(
        st.floats(min_value=0.0, max_value=2e11, allow_nan=False),
        st.sampled_from((0.0, 100.0, 200.0, 500.0, 5e10, 5e10 + 1.0)),
    )
    QUANTILES = st.one_of(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.sampled_from((0.0, 50.0, 95.0, 99.0, 99.9, 100.0)),
    )

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(VALUES, max_size=40),
        q=QUANTILES,
        bounds=st.sampled_from((None, (10.0,), (100.0, 1000.0, 1e6))),
    )
    def test_percentile_and_summary_match_the_three_scan_reference(
        self, values, q, bounds
    ):
        hist = LatencyHistogram("h", bounds=bounds)
        for value in values:
            hist.observe(value)
        # Bit for bit: exported documents are compared byte by byte.
        assert repr(hist.percentile(q)) == repr(three_scan_percentile(hist, q))
        summary = hist.summary()
        for key, quantile in (("p50_ns", 50.0), ("p95_ns", 95.0), ("p99_ns", 99.0)):
            assert repr(summary[key]) == repr(three_scan_percentile(hist, quantile))


class TestRegistry:
    def test_get_or_create_identity(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_as_dict_sections(self):
        registry = MetricsRegistry()
        registry.counter("n").inc(2)
        registry.gauge("q").set(7.5)
        registry.histogram("lat", bounds=[10]).observe(4)
        registry.absorb("extra", {"k": 1})
        data = registry.as_dict()
        assert data["counters"] == {"n": 2}
        assert data["gauges"] == {"q": 7.5}
        assert data["histograms"]["lat"]["count"] == 1
        assert data["snapshots"]["extra"] == {"k": 1}

    def test_absorb_io_statistics(self):
        from repro.ssd.stats import IOStatistics

        stats = IOStatistics()
        stats.record_host_transfer(read_bytes=512)
        registry = MetricsRegistry()
        registry.absorb_io(stats)
        snapshot = registry.as_dict()["snapshots"]["io"]
        assert snapshot["host_read_bytes"] == 512
        assert "read_amplification" in snapshot

    def test_export_json_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("runs").inc()
        registry.histogram("lat", bounds=[10, 20]).observe(15)
        path = registry.export_json(str(tmp_path / "metrics.json"))
        with open(path) as handle:
            document = json.load(handle)
        assert document == registry.as_dict()
