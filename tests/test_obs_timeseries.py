"""Windowed series semantics, conservation, and the exporters.

Pins the contract the timeseries subsystem states for itself
(`repro/obs/timeseries.py` module docstring): window ``i`` covers
``[i*w, (i+1)*w)``, only timestamped mutations enter the series,
window deltas/counts sum to the run totals, the profiler resample
conserves busy time exactly, and both exporters (JSON document,
Prometheus text) are deterministic.
"""

import json
import math
from bisect import bisect_left
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    Counter,
    MetricsRegistry,
    Profiler,
    render_prometheus,
)
from repro.obs.timeseries import (
    TIMESERIES_SCHEMA,
    WindowedGauge,
    WindowTable,
    build_document,
    utilization_series,
    window_index,
)
from tests.test_obs_metrics import three_scan_percentile


# ----------------------------------------------------------------------
# Window arithmetic
# ----------------------------------------------------------------------
def test_window_index_boundaries():
    assert window_index(0.0, 100.0) == 0
    assert window_index(99.999, 100.0) == 0
    assert window_index(100.0, 100.0) == 1  # left-closed, right-open
    assert window_index(250.0, 100.0) == 2


def test_window_index_validation():
    with pytest.raises(ValueError):
        window_index(1.0, 0.0)
    with pytest.raises(ValueError):
        window_index(-1.0, 100.0)


@pytest.mark.parametrize("window_ns", [math.nan, math.inf])
def test_hostile_window_width_refused(window_ns):
    """Before the check, ``window_index(5.0, nan)`` raised a raw error,
    ``window_index(5.0, inf)`` returned 0 and ``build_document`` exported
    ``start_ns: nan``."""
    with pytest.raises(ValueError, match="^window_ns must be positive and finite"):
        window_index(5.0, window_ns)
    profiler = Profiler()
    profiler.record_busy("die", 0.0, 10.0)
    with pytest.raises(ValueError, match="^window_ns must be positive and finite"):
        build_document(profiler=profiler, window_ns=window_ns)


# ----------------------------------------------------------------------
# Primitive series
# ----------------------------------------------------------------------
def test_counter_conservation():
    series = Counter("c", 100.0)
    for t in (0.0, 10.0, 150.0, 150.0, 950.0):
        series.inc(2, t_ns=t)
    data = series.windows_dict()
    assert data["kind"] == "counter"
    assert [w["index"] for w in data["windows"]] == [0, 1, 9]
    assert sum(w["delta"] for w in data["windows"]) == data["total"] == 10
    for window in data["windows"]:
        assert window["start_ns"] == window["index"] * 100.0
        assert window["rate_per_s"] == window["delta"] / (100.0 / 1e9)


def test_gauge_last_min_max():
    series = WindowedGauge("g", 100.0)
    series.record(10.0, 5.0)
    series.record(20.0, 1.0)
    series.record(30.0, 3.0)
    (window,) = series.windows_dict()["windows"]
    assert (window["last"], window["min"], window["max"]) == (3.0, 1.0, 5.0)


def test_registry_windows_only_timestamped():
    """Untimestamped mutations update run aggregates only."""
    metrics = MetricsRegistry(window_ns=100.0)
    counter = metrics.counter("c")
    counter.inc(5)            # aggregate only
    counter.inc(3, t_ns=42.0)  # aggregate + window 0
    assert counter.value == 8
    assert counter.series.total == 3
    histogram = metrics.histogram("h")
    histogram.observe(50.0)
    histogram.observe(60.0, t_ns=120.0)
    assert histogram.slot(0)[0] == 2
    assert histogram.series.total == 1
    assert histogram.series.window_indices() == [1]


def test_unwindowed_registry_has_no_series():
    metrics = MetricsRegistry()
    metrics.counter("c").inc(1, t_ns=5.0)
    metrics.histogram("h").observe(10.0, t_ns=5.0)
    assert metrics.series("c") is None
    assert metrics.series_dict() == {}


def test_latency_windows_match_aggregate_semantics():
    metrics = MetricsRegistry(window_ns=1000.0)
    histogram = metrics.histogram("h")
    for value, t in ((150.0, 10.0), (250.0, 20.0), (400.0, 1500.0)):
        histogram.observe(value, t_ns=t)
    series = histogram.series
    assert series.window_indices() == [0, 1]
    assert series.window_count(0) == 2
    assert series.window_count(1) == 1
    assert series.total == histogram.slot(0)[0] == 3
    # A single-value window reports that value exactly at any quantile.
    assert series.window_percentile(1, 99.0) == 400.0
    data = series.windows_dict()
    assert all(
        w["min_ns"] <= w["p50_ns"] <= w["p95_ns"] <= w["p99_ns"] <= w["max_ns"]
        for w in data["windows"]
    )


# ----------------------------------------------------------------------
# Satellite 1: overflow-bucket clipping fix
# ----------------------------------------------------------------------
def test_overflow_quantiles_not_clipped():
    """Values above the top bound interpolate over the observed range,
    not the last bucket boundary."""
    metrics = MetricsRegistry()
    histogram = metrics.histogram("h", bounds=[100.0, 200.0])
    histogram.observe(150.0)
    for _ in range(999):
        histogram.observe(90000.0)
    assert histogram.percentile(50.0) == 90000.0
    assert histogram.percentile(99.9) == 90000.0
    assert histogram.slot(0)[4] == pytest.approx(90000.0)


def test_overflow_range_interpolation():
    metrics = MetricsRegistry()
    histogram = metrics.histogram("h", bounds=[100.0])
    histogram.observe(1000.0)
    histogram.observe(3000.0)
    # Both in overflow: quantiles stay within the observed extremes.
    assert 1000.0 <= histogram.percentile(50.0) <= 3000.0
    assert histogram.percentile(100.0) == 3000.0


# ----------------------------------------------------------------------
# Profiler resample
# ----------------------------------------------------------------------
def test_utilization_series_conserves_busy_time():
    profiler = Profiler()
    # One interval spanning three windows, one fully inside window 4.
    profiler.record_busy("chan", 50.0, 250.0)
    profiler.record_busy("chan", 410.0, 450.0)
    series = utilization_series(profiler, 100.0)
    entry = series["chan"]
    windows = {w["index"]: w for w in entry["windows"]}
    assert set(windows) == {0, 1, 2, 4}
    assert windows[0]["busy_ns"] == 50.0
    assert windows[1]["busy_ns"] == 100.0
    assert windows[1]["utilization"] == 1.0
    assert windows[2]["busy_ns"] == 50.0
    assert windows[4]["busy_ns"] == 40.0
    assert sum(w["busy_ns"] for w in entry["windows"]) == entry["busy_ns"]
    assert all(0.0 <= w["utilization"] <= 1.0 for w in entry["windows"])


# ----------------------------------------------------------------------
# Document assembly and export
# ----------------------------------------------------------------------
def test_build_document_shape(tmp_path):
    metrics = MetricsRegistry(window_ns=100.0)
    metrics.counter("c").inc(1, t_ns=10.0)
    document = build_document(metrics=metrics)
    assert document["schema"] == TIMESERIES_SCHEMA
    assert document["window_ns"] == 100.0
    assert set(document["series"]) == {"c"}
    path = tmp_path / "ts.json"
    metrics.export_timeseries(str(path))
    loaded = json.loads(path.read_text())
    assert loaded == json.loads(json.dumps(document))


def test_build_document_requires_window():
    with pytest.raises(ValueError):
        build_document(metrics=MetricsRegistry())


def test_registry_window_validation():
    for hostile in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="window_ns"):
            MetricsRegistry(window_ns=hostile)
    with pytest.raises(ValueError):
        MetricsRegistry(sketch_k=1)


# ----------------------------------------------------------------------
# Prometheus snapshot
# ----------------------------------------------------------------------
def test_render_prometheus_shape():
    metrics = MetricsRegistry()
    metrics.counter("serving.batches").inc(7)
    metrics.gauge("vcache.occupancy").set(0.5)
    histogram = metrics.histogram("serving.latency_ns", bounds=[100.0, 200.0])
    histogram.observe(50.0)
    histogram.observe(150.0)
    histogram.observe(500.0)
    text = render_prometheus(metrics)
    assert "rmssd_serving_batches_total 7" in text
    assert "rmssd_vcache_occupancy 0.5" in text
    # Cumulative le buckets plus the +Inf catch-all.
    assert 'rmssd_serving_latency_ns_bucket{le="100"} 1' in text
    assert 'rmssd_serving_latency_ns_bucket{le="200"} 2' in text
    assert 'rmssd_serving_latency_ns_bucket{le="+Inf"} 3' in text
    assert "rmssd_serving_latency_ns_count 3" in text
    assert "rmssd_serving_latency_ns_sum 700" in text
    # Deterministic: same registry renders the same bytes.
    assert text == render_prometheus(metrics)


def test_export_prometheus(tmp_path):
    metrics = MetricsRegistry()
    metrics.counter("c").inc(1)
    path = tmp_path / "prom.txt"
    metrics.export_prometheus(str(path))
    assert path.read_text() == render_prometheus(metrics)


# ----------------------------------------------------------------------
# tools/check_trace.py --timeseries validator
# ----------------------------------------------------------------------
class TestTimeseriesValidator:
    def _document(self):
        metrics = MetricsRegistry(window_ns=100.0)
        counter = metrics.counter("c")
        for t in (10.0, 150.0, 420.0):
            counter.inc(2, t_ns=t)
        histogram = metrics.histogram("h")
        for value, t in ((50.0, 10.0), (80.0, 15.0), (120.0, 250.0)):
            histogram.observe(value, t_ns=t)
        return metrics.timeseries_dict()

    def _check(self, document, tmp_path, metrics_doc=None):
        from tools.check_trace import check_timeseries

        path = tmp_path / "ts.json"
        path.write_text(json.dumps(document))
        metrics_path = None
        if metrics_doc is not None:
            metrics_path = tmp_path / "metrics.json"
            metrics_path.write_text(json.dumps(metrics_doc))
            metrics_path = str(metrics_path)
        return check_timeseries(str(path), metrics_path)

    def test_valid_document_passes(self, tmp_path):
        assert self._check(self._document(), tmp_path) == []

    def test_wrong_schema_flagged(self, tmp_path):
        document = self._document()
        document["schema"] = "rmssd-timeseries/v0"
        assert self._check(document, tmp_path)

    def test_unsorted_windows_flagged(self, tmp_path):
        document = self._document()
        document["series"]["c"]["windows"].reverse()
        problems = self._check(document, tmp_path)
        assert any("strictly increasing" in p for p in problems)

    def test_broken_conservation_flagged(self, tmp_path):
        document = self._document()
        document["series"]["c"]["windows"].pop()
        problems = self._check(document, tmp_path)
        assert any("total" in p for p in problems)

    def test_dropped_latency_window_flagged(self, tmp_path):
        document = self._document()
        document["series"]["h"]["windows"].pop(0)
        problems = self._check(document, tmp_path)
        assert any("counts sum" in p for p in problems)

    def test_metrics_cross_check(self, tmp_path):
        metrics = MetricsRegistry(window_ns=100.0)
        metrics.counter("c").inc(2, t_ns=10.0)
        document = metrics.timeseries_dict()
        registry = metrics.as_dict()
        assert self._check(document, tmp_path, registry) == []
        registry["counters"]["c"] = 99
        problems = self._check(document, tmp_path, registry)
        assert any("cross-check" in p for p in problems)


# ----------------------------------------------------------------------
# The column table against observation-at-a-time references
# ----------------------------------------------------------------------
def reference_summary(values, bounds):
    """The export payload of one window, observation by observation,
    as the per-window histograms made it before the column table."""
    counts = [0] * (len(bounds) + 1)
    total, low, high, overflow_low = 0.0, math.inf, 0.0, math.inf
    for value in values:
        index = bisect_left(bounds, value)
        counts[index] += 1
        total += value
        low = value if value < low else low
        high = value if value > high else high
        if index == len(bounds) and value < overflow_low:
            overflow_low = value
    histogram = SimpleNamespace(
        count=len(values), counts=counts, bounds=bounds, min_ns=low,
        max_ns=high, overflow_min_ns=overflow_low,
    )
    summary = {"count": len(values), "mean_ns": total / len(values)}
    for q in (50.0, 95.0, 99.0):
        summary[f"p{q:g}_ns"] = three_scan_percentile(histogram, q)
    summary.update(min_ns=low, max_ns=high)
    return summary


BOUNDS = (100.0, 1000.0, 1e6)
VALUES = st.one_of(
    st.floats(min_value=0.0, max_value=2e6, allow_nan=False),
    st.sampled_from((0.0, 100.0, 1000.0, 1e6, 1e6 + 1.0, 0.1, 0.2, 0.3)),
)
ROWS = st.lists(
    st.tuples(VALUES, st.one_of(st.none(), st.floats(0.0, 12.0))), max_size=60
)


@settings(max_examples=200, deadline=None)
@given(
    rows=ROWS,
    cuts=st.lists(st.integers(0, 60), max_size=6),
    window_ns=st.sampled_from((1.0, 2.5, 1.1000000000000002)),
)
def test_window_table_matches_observation_at_a_time(rows, cuts, window_ns):
    """Rows recorded in columns of any split (stamped, unstamped, one
    at a time), then read back in bulk, per window and as the run
    aggregate: every number equals the one-at-a-time reference, sums
    in recording order and quantiles bit for bit."""
    histogram = MetricsRegistry(window_ns=window_ns).histogram("h", bounds=BOUNDS)
    edges = sorted({0, len(rows), *(cut for cut in cuts if cut <= len(rows))})
    recorded = []
    for lo, hi in zip(edges, edges[1:]):
        chunk = rows[lo:hi]
        if lo % 2:
            for value, t in chunk:
                histogram.observe(value, t_ns=t)
            recorded += chunk
        else:
            stamped = [(value, t) for value, t in chunk if t is not None]
            unstamped = [(value, t) for value, t in chunk if t is None]
            histogram.observe_many([value for value, _ in stamped],
                                   t_ns=[t for _, t in stamped])
            histogram.observe_many([value for value, _ in unstamped])
            recorded += stamped + unstamped
        if histogram.series is not None:
            histogram.series.window_count(0)  # a read between columns
    windows = {}
    for value, t in recorded:
        if t is not None:
            windows.setdefault(window_index(t, window_ns), []).append(value)
    if recorded:
        summary = histogram.summary()
        assert json.dumps(summary) == json.dumps(
            reference_summary([value for value, _ in recorded], list(BOUNDS))
        )
    series = histogram.series
    if not windows:
        assert series is None
        return
    exported = series.windows_dict()["windows"]
    assert [w["index"] for w in exported] == sorted(windows)
    for window in exported:
        values = windows[window["index"]]
        reference = reference_summary(values, list(BOUNDS))
        assert json.dumps({k: window[k] for k in reference}) == json.dumps(reference)
        assert series.window_count(window["index"]) == len(values)
        for q, key in ((50.0, "p50_ns"), (95.0, "p95_ns"), (99.0, "p99_ns")):
            assert repr(series.window_percentile(window["index"], q)) == repr(window[key])


def test_one_row_callers_hold_a_bounded_backlog():
    """A device run observes one row at a time and reads only at export;
    its pending rows are binned every ``PENDING_LIMIT`` columns, which
    changes no exported number."""
    values = [(index % 997) * 1.37 for index in range(3 * WindowTable.PENDING_LIMIT)]
    stamps = [float(index) for index in range(len(values))]
    one_at_a_time = MetricsRegistry(window_ns=50.0)
    for value, t in zip(values, stamps):
        one_at_a_time.histogram("h").observe(value, t_ns=t)
        one_at_a_time.counter("c").inc(1, t_ns=t)
        assert len(one_at_a_time.histogram("h")._pending) < WindowTable.PENDING_LIMIT
    in_columns = MetricsRegistry(window_ns=50.0)
    in_columns.histogram("h").observe_many(values, t_ns=stamps)
    in_columns.counter("c").observe_many([1] * len(values), t_ns=stamps)
    exported = [
        json.dumps([registry.as_dict(), registry.series_dict()], sort_keys=True)
        for registry in (one_at_a_time, in_columns)
    ]
    assert exported[0] == exported[1]


@settings(max_examples=300, deadline=None)
@given(values=st.lists(VALUES, min_size=1, max_size=60), q=st.floats(0.0, 100.0))
def test_quantile_rounds_at_most_one_ulp_past_the_largest_observation(values, q):
    """Why a burn-rate fold may leave unread a window whose observations
    all lie below its threshold (`BurnRateFold.due`): it complies."""
    histogram = MetricsRegistry().histogram("h", bounds=BOUNDS)
    histogram.observe_many(values)
    assert histogram.percentile(q) <= math.nextafter(max(values), math.inf)


def reference_overlaps(start, end, window_ns):
    """``(window index, overlap ns)`` of one busy interval, one window
    at a time — the generator the resampler replaced."""
    index = int(start // window_ns)
    while True:
        window_start = index * window_ns
        window_end = window_start + window_ns
        overlap = min(end, window_end) - max(start, window_start)
        if overlap > 0:
            yield index, overlap
        if end <= window_end:
            return
        index += 1


@settings(max_examples=200, deadline=None)
@given(
    intervals=st.lists(
        st.tuples(st.floats(0.0, 1e4), st.floats(0.0, 3e3)), min_size=1, max_size=30
    ),
    window_ns=st.sampled_from((100.0, 7.3, 250.0, 1100.0000000000002, 1e5)),
)
def test_utilization_matches_interval_at_a_time(intervals, window_ns):
    profiler = Profiler()
    for start, length in intervals:
        profiler.record_busy("die", start, start + length)
    _, starts, ends = profiler.busy_timelines()["die"]
    windows = {}
    for start, end in zip(starts.tolist(), ends.tolist()):
        for index, overlap in reference_overlaps(start, end, window_ns):
            windows[index] = windows.get(index, 0.0) + overlap
    expected = [
        {"index": index, "start_ns": index * window_ns, "busy_ns": busy,
         "utilization": busy / window_ns}
        for index, busy in sorted(windows.items())
    ]
    entry = utilization_series(profiler, window_ns)["die"]
    assert json.dumps(entry["windows"]) == json.dumps(expected)
    assert entry["busy_ns"] == sum(end - start for start, end in zip(starts, ends))
