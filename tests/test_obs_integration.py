"""End-to-end observability: CLI round-trip, pipeline/serving spans,
host-pipeline trace, and I/O snapshot windows."""

import json

import pytest

from repro.core.pipeline_sim import PipelineSimulator
from repro.fpga.compose import StageTimes
from repro.host.runtime import HostPipeline
from repro.host.serving import ServingSimulator
from repro.obs import MetricsRegistry, Tracer
from repro.ssd.stats import IOSnapshot, IOStatistics
from tools.check_trace import (
    check_metrics,
    check_profile,
    check_trace,
    cross_check,
)


class TestCLIRoundTrip:
    def test_run_writes_valid_trace_and_metrics(self, tmp_path):
        from repro.cli import main

        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        exit_code = main([
            "run", "rmc1", "--backend", "rm-ssd",
            "--requests", "2", "--rows", "64", "--no-compute",
            "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_path),
        ])
        assert exit_code == 0
        required = [
            "request", "translate", "flash_read", "ev_sum",
            "bottom_mlp", "top_mlp",
        ]
        assert check_trace(str(trace_path), require=required) == []
        assert check_metrics(str(metrics_path)) == []
        metrics = json.loads(metrics_path.read_text())
        latency = metrics["histograms"]["request_latency_ns"]
        assert latency["count"] == 2
        assert latency["p99_ns"] >= latency["p50_ns"] > 0
        assert metrics["snapshots"]["io"]["flash_vector_reads"] > 0
        assert metrics["counters"]["run.inferences"] > 0

    def test_check_trace_flags_problems(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "traceEvents": [
                {"name": "a", "ph": "B", "ts": 0.0, "pid": 1, "tid": 1},
                {"name": "mismatch", "ph": "E", "ts": 1.0, "pid": 1, "tid": 1},
            ]
        }))
        problems = check_trace(str(bad), require=["missing_span"])
        assert problems
        assert any("missing_span" in p for p in problems)


class TestPipelineSpans:
    def test_queue_span_and_queue_ns(self):
        tracer = Tracer()
        simulator = PipelineSimulator(
            emb_ns=100.0, bot_ns=50.0, top_ns=30.0, tracer=tracer
        )
        # Back-to-back arrivals: batch 1 arrives at t=10 but the emb
        # server is busy until t=100, so it queues for 90 ns.
        result = simulator.run(batches=2, arrival_times_ns=[0.0, 10.0])
        assert result.queue_waits_ns[1] == pytest.approx(90.0)
        queue_spans = tracer.spans_named("queue")
        assert len(queue_spans) == 1
        assert queue_spans[0].duration_ns == pytest.approx(90.0)
        # Overlapping batches land on distinct serve.req lanes.
        batch_tracks = {s.track for s in tracer.spans_named("batch")}
        assert batch_tracks == {"serve.req", "serve.req[1]"}
        # bottom overlaps embedding, on its own lane group.
        assert {s.track for s in tracer.spans_named("bot")} <= {
            "serve.bot", "serve.bot[1]"
        }

    def test_saturated_pipeline_exports_cleanly(self, tmp_path):
        tracer = Tracer()
        simulator = PipelineSimulator(
            emb_ns=100.0, bot_ns=80.0, top_ns=60.0, tracer=tracer
        )
        simulator.run(batches=5)
        path = tracer.export_chrome(str(tmp_path / "pipe.json"))
        assert check_trace(path, require=["batch", "emb", "top", "bot"]) == []

    def test_disabled_tracer_records_nothing(self):
        simulator = PipelineSimulator(emb_ns=10.0, bot_ns=5.0, top_ns=5.0)
        result = simulator.run(batches=3)
        assert result.batches == 3
        assert simulator.tracer is None


class TestServingMetrics:
    def test_offered_load_fills_registry_and_queue_stat(self):
        metrics = MetricsRegistry()
        times = StageTimes(temb=100, tbot=60, ttop=40, nbatch=1, flash_cycles=50)
        serving = ServingSimulator(times, cycle_ns=5.0, metrics=metrics)
        point = serving.offered_load(
            qps=0.8 * serving.saturation_qps, queries=50
        )
        assert point.mean_queue_ns >= 0.0
        data = metrics.as_dict()
        assert data["histograms"]["serving.latency_ns"]["count"] == 50
        assert data["histograms"]["serving.queue_ns"]["count"] == 50
        assert data["counters"]["serving.batches"] == 50
        assert data["histograms"]["serving.latency_ns"]["p50_ns"] > 0


class TestHostPipelineTrace:
    def test_pipelined_spans_match_total(self):
        pipeline = HostPipeline(pipelined=True)
        pipeline.extend([(10.0, 50.0, 5.0)] * 3)
        tracer = Tracer()
        end = pipeline.emit_trace(tracer)
        assert end == pytest.approx(pipeline.total_ns())
        assert {s.track for s in tracer.spans} == {
            "host.send", "host.device", "host.recv"
        }
        # Pre-send: request 1's send starts as soon as send frees (t=10),
        # while the device is still busy with request 0.
        sends = tracer.spans_named("send")
        assert sends[1].start_ns == pytest.approx(10.0)

    def test_serial_spans_match_total(self):
        pipeline = HostPipeline(pipelined=False)
        pipeline.extend([(10.0, 50.0, 5.0)] * 3)
        tracer = Tracer()
        end = pipeline.emit_trace(tracer)
        assert end == pytest.approx(pipeline.total_ns())
        # Serial: request 1's send waits for request 0's receive.
        sends = tracer.spans_named("send")
        assert sends[1].start_ns == pytest.approx(65.0)

    def test_base_offset_shifts_everything(self):
        pipeline = HostPipeline()
        pipeline.add(1.0, 2.0, 3.0)
        tracer = Tracer()
        end = pipeline.emit_trace(tracer, base_ns=100.0)
        assert tracer.spans[0].start_ns == pytest.approx(100.0)
        assert end == pytest.approx(106.0)


def make_profile(**overrides):
    """Minimal valid rmssd-profile/v1 document for mutation tests."""
    profile = {
        "schema": "rmssd-profile/v1",
        "meta": {},
        "elapsed_ns": 100.0,
        "resources": {
            "ftl-mux": {
                "kind": "ftl",
                "busy_ns": 30.0,
                "utilization": 0.3,
                "jobs": 2,
                "busy_intervals": [[0.0, 10.0], [20.0, 40.0]],
                "intervals_omitted": 0,
            },
        },
        "channels": {},
        "bottleneck": {
            "bottleneck_stage": "emb",
            "slack_ns": {"emb": 0.0, "bot": 1.0, "top": 1.0, "io": 1.0},
            "invariant": {
                "name": "embedding-stage-bottleneck",
                "holds": True,
            },
            "warnings": [],
        },
    }
    profile.update(overrides)
    return profile


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestProfileValidation:
    def test_cli_profile_writes_valid_profile_and_trace(self, tmp_path):
        from repro.cli import main

        profile_path = tmp_path / "profile.json"
        trace_path = tmp_path / "trace.json"
        exit_code = main([
            "profile", "rmc1", "--backend", "rm-ssd",
            "--requests", "2", "--batch", "1", "--rows", "64",
            "--profile-out", str(profile_path),
            "--trace-out", str(trace_path),
        ])
        assert exit_code == 0
        assert check_profile(str(profile_path)) == []
        assert cross_check(str(trace_path), str(profile_path)) == []
        profile = json.loads(profile_path.read_text())
        assert profile["bottleneck"]["bottleneck_stage"] == "emb"
        assert profile["meta"]["model"] == "rmc1"

    def test_valid_synthetic_profile_passes(self, tmp_path):
        path = write_json(tmp_path, "p.json", make_profile())
        assert check_profile(path) == []

    def test_wrong_schema_rejected(self, tmp_path):
        path = write_json(
            tmp_path, "p.json", make_profile(schema="rmssd-trace/v1")
        )
        assert any("schema" in p for p in check_profile(path))

    def test_utilization_above_one_flagged(self, tmp_path):
        profile = make_profile()
        profile["resources"]["ftl-mux"]["utilization"] = 1.5
        path = write_json(tmp_path, "p.json", profile)
        assert any("outside [0, 1]" in p for p in check_profile(path))

    def test_unsorted_timeline_flagged(self, tmp_path):
        profile = make_profile()
        profile["resources"]["ftl-mux"]["busy_intervals"] = [
            [20.0, 40.0], [0.0, 10.0],
        ]
        path = write_json(tmp_path, "p.json", profile)
        assert any("sorted" in p for p in check_profile(path))

    def test_timeline_busy_mismatch_flagged(self, tmp_path):
        profile = make_profile()
        profile["resources"]["ftl-mux"]["busy_ns"] = 99.0
        profile["resources"]["ftl-mux"]["utilization"] = 0.99
        path = write_json(tmp_path, "p.json", profile)
        assert any("timeline covers" in p for p in check_profile(path))

    def test_violated_invariant_needs_warning(self, tmp_path):
        profile = make_profile()
        profile["bottleneck"]["bottleneck_stage"] = "top"
        profile["bottleneck"]["invariant"]["holds"] = False
        path = write_json(tmp_path, "p.json", profile)
        assert any("no structured warning" in p for p in check_profile(path))
        profile["bottleneck"]["warnings"] = [
            {"type": "mlp-dominates-embedding", "stage": "top"}
        ]
        path = write_json(tmp_path, "p2.json", profile)
        assert check_profile(path) == []

    @staticmethod
    def trace_with_ftl_span(tmp_path, begin_us, end_us):
        return write_json(tmp_path, "t.json", {"traceEvents": [
            {"name": "ftl", "ph": "B", "ts": begin_us, "pid": 1, "tid": 1},
            {"name": "ftl", "ph": "E", "ts": end_us, "pid": 1, "tid": 1},
        ]})

    def test_cross_check_contained_intervals_pass(self, tmp_path):
        # One ftl span covering [0, 50000] ns contains both profile
        # busy intervals of ftl-mux.
        trace = self.trace_with_ftl_span(tmp_path, 0.0, 50.0)
        profile = write_json(tmp_path, "p.json", make_profile())
        assert cross_check(trace, profile) == []

    def test_cross_check_flags_uncovered_busy_time(self, tmp_path):
        trace = self.trace_with_ftl_span(tmp_path, 0.0, 0.015)
        profile = write_json(tmp_path, "p.json", make_profile())
        problems = cross_check(trace, profile)
        assert any("outside the 'ftl' spans" in p for p in problems)

    def test_cross_check_flags_missing_span(self, tmp_path):
        trace = write_json(tmp_path, "t.json", {"traceEvents": []})
        profile = write_json(tmp_path, "p.json", make_profile())
        problems = cross_check(trace, profile)
        assert any("never emitted" in p for p in problems)

    def test_cross_check_needs_overlap(self, tmp_path):
        trace = self.trace_with_ftl_span(tmp_path, 0.0, 50.0)
        profile = make_profile()
        # Only unmapped resources: nothing to cross-check is itself
        # a problem (the check would silently pass forever).
        profile["resources"] = {
            "gemm16x16": {
                "kind": "mlp", "busy_ns": 1.0, "utilization": 0.01,
                "jobs": 1, "busy_intervals": [[0.0, 1.0]],
                "intervals_omitted": 0,
            }
        }
        path = write_json(tmp_path, "p.json", profile)
        assert any("no overlapping" in p for p in cross_check(trace, path))


class TestIOSnapshots:
    def test_snapshot_is_frozen_copy(self):
        stats = IOStatistics()
        stats.record_page_read(4096)
        snap = stats.snapshot()
        assert isinstance(snap, IOSnapshot)
        assert snap.flash_page_reads == 1
        stats.record_page_read(4096)
        assert snap.flash_page_reads == 1  # unaffected by later traffic
        with pytest.raises(AttributeError):
            snap.flash_page_reads = 5

    def test_diff_measures_a_window(self):
        stats = IOStatistics()
        stats.record_host_transfer(read_bytes=100)
        before = stats.snapshot()
        stats.record_host_transfer(read_bytes=300)
        stats.record_useful(60)
        window = stats.diff(before)
        assert window.host_read_bytes == 300
        assert window.useful_bytes == 60
        assert window.read_amplification == pytest.approx(5.0)

    def test_window_supports_reduction_factor(self):
        a, b = IOStatistics(), IOStatistics()
        a.record_host_transfer(read_bytes=1000)
        b.record_host_transfer(read_bytes=10)
        assert b.snapshot().reduction_factor_vs(a.snapshot()) == 100.0
