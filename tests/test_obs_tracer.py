"""Span tracer unit tests: recording, lanes, export, and the
not-attached (``tracer=None``) device."""

import json

import pytest

from repro.obs.tracer import Tracer


class TestRecording:
    def test_add_span_records_identity(self):
        tracer = Tracer()
        span = tracer.add_span("read", 10.0, 25.0, cat="ssd", track="t")
        assert span.key() == ("t", "read", 10.0, 25.0)
        assert span.duration_ns == 15
        assert len(tracer) == 1
        assert tracer.as_tuples() == [("t", "read", 10.0, 25.0)]

    def test_backwards_span_raises(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="ends before it starts"):
            tracer.add_span("bad", 10.0, 5.0)

    def test_zero_width_span_is_allowed(self):
        tracer = Tracer()
        tracer.add_span("instant", 7.0, 7.0)
        assert tracer.spans[0].duration_ns == 0

    def test_spans_named_filters(self):
        tracer = Tracer()
        tracer.add_span("a", 0, 1)
        tracer.add_span("b", 1, 2)
        tracer.add_span("a", 2, 3)
        assert [s.start_ns for s in tracer.spans_named("a")] == [0.0, 2.0]

    def test_measure_reads_clock_at_enter_and_exit(self):
        tracer = Tracer()
        clock = iter([100.0, 140.0])
        with tracer.measure(lambda: next(clock), "op", track="m"):
            pass
        assert tracer.as_tuples() == [("m", "op", 100.0, 140.0)]


class TestLanes:
    def test_sequential_spans_share_lane_zero(self):
        tracer = Tracer()
        assert tracer.lane_track("g", 0.0, 10.0) == "g"
        assert tracer.lane_track("g", 10.0, 20.0) == "g"

    def test_overlapping_spans_get_distinct_lanes(self):
        tracer = Tracer()
        assert tracer.lane_track("g", 0.0, 10.0) == "g"
        assert tracer.lane_track("g", 5.0, 15.0) == "g[1]"
        assert tracer.lane_track("g", 7.0, 9.0) == "g[2]"
        # Lane 0 frees at 10; the next span fits there again.
        assert tracer.lane_track("g", 12.0, 20.0) == "g"

    def test_groups_are_independent(self):
        tracer = Tracer()
        assert tracer.lane_track("a", 0.0, 10.0) == "a"
        assert tracer.lane_track("b", 0.0, 10.0) == "b"


class TestChromeExport:
    def test_balanced_nested_events(self):
        tracer = Tracer()
        tracer.add_span("parent", 0.0, 100.0, track="t")
        tracer.add_span("child", 10.0, 40.0, track="t")
        events = [e for e in tracer.chrome_events() if e["ph"] in "BE"]
        assert [(e["ph"], e["name"]) for e in events] == [
            ("B", "parent"), ("B", "child"), ("E", "child"), ("E", "parent"),
        ]
        # Chrome-trace ts is microseconds.
        assert events[0]["ts"] == 0.0
        assert events[1]["ts"] == pytest.approx(0.01)

    def test_metadata_events_name_process_and_tracks(self):
        tracer = Tracer()
        tracer.add_span("x", 0, 1, track="alpha")
        tracer.add_span("y", 0, 1, track="beta")
        meta = [e for e in tracer.chrome_events() if e["ph"] == "M"]
        names = [e["args"]["name"] for e in meta if e["name"] == "thread_name"]
        assert names == ["alpha", "beta"]

    def test_partial_overlap_on_one_track_raises(self):
        tracer = Tracer()
        tracer.add_span("a", 0.0, 10.0, track="t")
        tracer.add_span("b", 5.0, 15.0, track="t")
        with pytest.raises(ValueError, match="partially overlaps"):
            tracer.chrome_events()

    def test_overlap_on_distinct_tracks_is_fine(self):
        tracer = Tracer()
        tracer.add_span("a", 0.0, 10.0, track="t1")
        tracer.add_span("b", 5.0, 15.0, track="t2")
        assert len([e for e in tracer.chrome_events() if e["ph"] in "BE"]) == 4

    def test_timestamps_non_decreasing_per_track(self):
        tracer = Tracer()
        tracer.add_span("p", 0.0, 50.0, track="t")
        tracer.add_span("c1", 5.0, 10.0, track="t")
        tracer.add_span("c2", 10.0, 30.0, track="t")
        last = {}
        for event in tracer.chrome_events():
            if event["ph"] not in "BE":
                continue
            assert event["ts"] >= last.get(event["tid"], float("-inf"))
            last[event["tid"]] = event["ts"]

    def test_export_round_trip(self, tmp_path):
        tracer = Tracer()
        tracer.add_span("op", 0.0, 1000.0, args={"n": 3})
        path = tracer.export_chrome(str(tmp_path / "trace.json"))
        document = json.loads(open(path).read())
        assert document["displayTimeUnit"] == "ns"
        begins = [e for e in document["traceEvents"] if e["ph"] == "B"]
        assert begins[0]["args"] == {"n": 3}


class TestDisabledInstrumentation:
    def test_lookup_engine_records_nothing_when_disabled(self):
        from tests.test_fastpath_equivalence import build_engine

        engine = build_engine("single")
        assert engine.controller.tracer is None
        batch = [[[0, 1], [2], [3]]]
        engine.lookup_batch(batch, fast=False)
        engine.lookup_batch(batch, fast=True)
