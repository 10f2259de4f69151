"""Unit tests for the utilization profiler (repro.obs.profiler).

Record validation, interval merging, FIFO queue-depth derivation, the
bottleneck report with the paper's embedding-stage invariant and the
deterministic export.  End-to-end DES-vs-fastpath byte equivalence lives in
``tests/test_profiler_equivalence.py``.
"""

import json

import pytest
from pytest import approx

from repro.obs.profiler import (
    PROFILE_SCHEMA,
    TIMELINE_LIMIT,
    Profiler,
    merge_intervals,
)


class TestMergeIntervals:
    def test_empty(self):
        assert merge_intervals([]) == []

    def test_disjoint_sorted_output(self):
        merged = merge_intervals([(5.0, 6.0), (1.0, 2.0)])
        assert merged == [(1.0, 2.0), (5.0, 6.0)]

    def test_overlap_coalesces(self):
        assert merge_intervals([(0.0, 3.0), (2.0, 5.0)]) == [(0.0, 5.0)]

    def test_touching_coalesces(self):
        # A die handed straight to the next waiter stays busy.
        assert merge_intervals([(0.0, 2.0), (2.0, 4.0)]) == [(0.0, 4.0)]

    def test_containment(self):
        assert merge_intervals([(0.0, 10.0), (2.0, 3.0)]) == [(0.0, 10.0)]


class TestRecordValidation:
    def test_service_start_before_arrival_rejected(self):
        with pytest.raises(ValueError, match="out of order"):
            Profiler().record_service("bus", 10.0, 5.0, 20.0)

    def test_service_end_before_start_rejected(self):
        with pytest.raises(ValueError, match="out of order"):
            Profiler().record_service("bus", 0.0, 5.0, 4.0)

    def test_busy_end_before_start_rejected(self):
        with pytest.raises(ValueError, match="ends before"):
            Profiler().record_busy("die", 5.0, 4.0)

    @pytest.mark.parametrize("position", range(3))
    def test_nan_service_instant_rejected(self, position):
        instants = [0.0, 5.0, 9.0]
        instants[position] = float("nan")
        argument = ("arrival_ns", "start_ns", "end_ns")[position]
        with pytest.raises(ValueError, match=f"{argument}=nan"):
            Profiler().record_service("bus", *instants)

    @pytest.mark.parametrize("position", range(2))
    def test_nan_busy_instant_rejected(self, position):
        instants = [0.0, 5.0]
        instants[position] = float("nan")
        argument = ("start_ns", "end_ns")[position]
        with pytest.raises(ValueError, match=f"{argument}=nan"):
            Profiler().record_busy("die", *instants)

    def test_negative_queue_depth_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Profiler().record_queue_depth("die", 0.0, -1)

    def test_zero_length_records_allowed(self):
        profiler = Profiler()
        profiler.record_service("bus", 1.0, 1.0, 1.0)
        profiler.record_busy("die", 2.0, 2.0)
        assert len(profiler) == 2


class TestDerivedViews:
    def test_utilization_unions_overlap(self):
        profiler = Profiler()
        profiler.record_busy("die", 0.0, 60.0)
        profiler.record_busy("die", 40.0, 100.0)
        assert profiler.elapsed_ns() == 100
        assert profiler.utilizations() == {"die": approx(1.0)}

    def test_service_and_busy_streams_merge_per_resource(self):
        profiler = Profiler()
        profiler.record_busy("x", 0.0, 10.0)
        profiler.record_service("x", 5.0, 5.0, 15.0)
        report = profiler.resource_report(elapsed=20.0)
        assert report["x"]["busy_intervals"] == [[0.0, 15.0]]
        assert report["x"]["utilization"] == approx(0.75)

    def test_elapsed_covers_analytic_stage_tail(self):
        # MLP/host add-ons extend past the DES clock; the horizon must
        # cover them or their utilization would exceed 1.
        profiler = Profiler()
        profiler.record_busy("die", 0.0, 50.0)
        profiler.record_stage(
            start_ns=0.0, nbatch=1, emb_ns=50.0, bot_ns=10.0, top_ns=10.0,
            io_ns=5.0, latency_ns=75.0, serialized=False,
        )
        assert profiler.elapsed_ns() == 75

    def test_fifo_queue_depths_from_service_triples(self):
        # Three jobs arrive at t=0,1,2; service is sequential 10 ns
        # each, so job i sees i earlier jobs still in the system.
        triples = [(0.0, 0.0, 10.0), (1.0, 10.0, 20.0), (2.0, 20.0, 30.0)]
        assert Profiler._service_queue_depths(triples) == [0, 1, 2]

    def test_queue_depth_drops_after_departures(self):
        triples = [(0.0, 0.0, 1.0), (5.0, 5.0, 6.0)]
        assert Profiler._service_queue_depths(triples) == [0, 0]

    def test_queue_summary_merges_samples_and_derived(self):
        profiler = Profiler()
        profiler.record_service("bus", 0.0, 0.0, 10.0)
        profiler.record_service("bus", 1.0, 10.0, 20.0)
        profiler.record_queue_depth("bus", 3.0, 4)
        queue = profiler.resource_report(elapsed=20.0)["bus"]["queue"]
        assert queue["samples"] == 3
        assert queue["max_depth"] == 4
        assert queue["mean_depth"] == approx(5 / 3)

    def test_timeline_truncation_is_announced(self):
        profiler = Profiler()
        for index in range(TIMELINE_LIMIT + 7):
            start = 2.0 * index
            profiler.record_busy("die", start, start + 1.0)
        entry = profiler.resource_report()["die"]
        assert len(entry["busy_intervals"]) == TIMELINE_LIMIT
        assert entry["intervals_omitted"] == 7
        # Truncated timeline, untruncated totals.
        assert entry["busy_ns"] == approx(TIMELINE_LIMIT + 7)

    def test_channel_report_groups_dies_and_bus(self):
        profiler = Profiler()
        profiler.record_busy("channel0-die0", 0.0, 10.0, kind="die")
        profiler.record_busy("channel0-die1", 5.0, 20.0, kind="die")
        profiler.record_service(
            "channel0-bus", 0.0, 18.0, 25.0, kind="channel-bus"
        )
        profiler.record_busy("ev_sum", 0.0, 100.0, kind="ev-sum")
        channels = profiler.channel_report(elapsed=100.0)
        assert list(channels) == ["channel0"]
        assert channels["channel0"]["resources"] == [
            "channel0-bus", "channel0-die0", "channel0-die1",
        ]
        # Union of [0,10], [5,20], [18,25] = [0,25].
        assert channels["channel0"]["busy_ns"] == approx(25.0)
        assert channels["channel0"]["utilization"] == approx(0.25)


class TestBottleneckReport:
    @staticmethod
    def stage(profiler, emb, bot, top, io, serialized=False):
        profiler.record_stage(
            start_ns=0.0, nbatch=2, emb_ns=emb, bot_ns=bot, top_ns=top,
            io_ns=io, latency_ns=emb + bot + top + io, serialized=serialized,
        )

    def test_embedding_bottleneck_invariant_holds(self):
        profiler = Profiler()
        self.stage(profiler, emb=100.0, bot=20.0, top=30.0, io=10.0)
        report = profiler.bottleneck_report()
        assert report["bottleneck_stage"] == "emb"
        assert report["invariant"]["holds"] is True
        assert report["warnings"] == []
        assert report["slack_ns"]["emb"] == approx(0.0)
        assert report["slack_ns"]["top"] == approx(70.0)
        assert report["inferences"] == 2

    def test_exact_tie_resolves_to_embedding(self):
        # The kernel search sizes FC layers *up to* the flash bound;
        # equality still satisfies Rule 4.
        profiler = Profiler()
        self.stage(profiler, emb=50.0, bot=50.0, top=10.0, io=0.0)
        report = profiler.bottleneck_report()
        assert report["bottleneck_stage"] == "emb"
        assert report["invariant"]["holds"] is True

    def test_mlp_domination_warns(self):
        profiler = Profiler()
        self.stage(profiler, emb=40.0, bot=10.0, top=80.0, io=5.0,
                   serialized=True)
        report = profiler.bottleneck_report()
        assert report["bottleneck_stage"] == "top"
        assert report["invariant"]["holds"] is False
        assert report["serialized_batches"] == 1
        (warning,) = report["warnings"]
        assert warning["type"] == "mlp-dominates-embedding"
        assert warning["ratio"] == approx(2.0)

    def test_io_domination_warns(self):
        profiler = Profiler()
        self.stage(profiler, emb=40.0, bot=10.0, top=20.0, io=90.0)
        (warning,) = profiler.bottleneck_report()["warnings"]
        assert warning["type"] == "io-dominates-embedding"

    def test_totals_aggregate_across_batches(self):
        profiler = Profiler()
        self.stage(profiler, emb=10.0, bot=1.0, top=1.0, io=1.0)
        self.stage(profiler, emb=30.0, bot=2.0, top=2.0, io=2.0)
        report = profiler.bottleneck_report()
        assert report["batches"] == 2
        assert report["stage_totals_ns"]["emb"] == approx(40.0)
        assert report["stage_means_ns"]["emb"] == approx(20.0)

    def test_empty_profile_reports_zero_stages(self):
        report = Profiler().bottleneck_report()
        assert report["batches"] == 0
        assert report["stage_totals_ns"] == {
            "emb": 0.0, "bot": 0.0, "top": 0.0, "io": 0.0,
        }


class TestExport:
    def test_schema_and_meta(self, tmp_path):
        profiler = Profiler()
        profiler.record_busy("die", 0.0, 10.0)
        profiler.set_meta(model="rmc1", backend="rm-ssd")
        payload = profiler.as_dict()
        assert payload["schema"] == PROFILE_SCHEMA
        assert payload["meta"] == {"backend": "rm-ssd", "model": "rmc1"}

    def test_export_is_recording_order_independent(self, tmp_path):
        forward, backward = Profiler(), Profiler()
        forward.record_busy("die", 0.0, 10.0)
        forward.record_busy("die", 20.0, 30.0)
        backward.record_busy("die", 20.0, 30.0)
        backward.record_busy("die", 0.0, 10.0)
        a = forward.export_json(str(tmp_path / "a.json"))
        b = backward.export_json(str(tmp_path / "b.json"))
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_export_round_trips_as_json(self, tmp_path):
        profiler = Profiler()
        profiler.record_service("bus", 0.0, 0.0, 5.0)
        path = profiler.export_json(str(tmp_path / "p.json"))
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["resources"]["bus"]["jobs"] == 1
