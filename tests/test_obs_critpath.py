"""Unit tests for per-request critical-path attribution
(:mod:`repro.obs.critpath`).

The exactness contract is the headline: every breakdown's
``latency_ns`` *is* the fixed-order component sum (an equality, not a
tolerance), tail exemplars break latency ties deterministically, and
empty runs export an empty document rather than raising.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline_sim import PipelineSimulator
from repro.obs import export_document
from repro.obs.critpath import (
    COMPONENTS,
    EXPLAIN_SCHEMA,
    STAMP_FIELDS,
    CritPathCollector,
    breakdowns,
    build_explain_document,
    canonical_order,
    component_sum,
    tail_exemplars,
)


def row(arrival=0.0, emb=(10.0, 30.0), bot=(10.0, 25.0), top=(30.0, 42.0)):
    """One batch's (arrival, stamps) in STAMP_FIELDS order."""
    return arrival, [*emb, *bot, *top]


def record(collector, rows):
    """Feed ``rows`` to the collector as one run's columns."""
    collector.record_run(
        np.array([arrival for arrival, _ in rows]),
        np.array([stamps for _, stamps in rows]),
    )


def requests_of(rows, replica=0):
    """The request dicts a collector records for one run's rows
    (``batch`` is the row's position in the run)."""
    collector = CritPathCollector()
    collector.set_replica(replica)
    record(collector, rows)
    return collector.requests


def breakdown(replica=0, **stamps):
    (request,) = requests_of([row(**stamps)], replica)
    return request


class TestRequestBreakdown:
    def test_emb_critical_branch(self):
        b = breakdown()
        assert b["critical_stage"] == "emb"
        assert b["emb_ns"] == 20.0
        assert b["bot_ns"] == 0.0  # hidden behind the embedding branch
        assert b["queue_ns"] == 10.0  # 10 pre-branch + 0 pre-top
        assert b["top_ns"] == 12.0
        assert b["latency_ns"] == 42.0

    def test_bot_critical_branch(self):
        b = breakdown(emb=(10.0, 20.0), bot=(10.0, 35.0), top=(35.0, 50.0))
        assert b["critical_stage"] == "bot"
        assert b["bot_ns"] == 25.0
        assert b["emb_ns"] == 0.0

    def test_tie_blames_embedding(self):
        b = breakdown(emb=(10.0, 30.0), bot=(10.0, 30.0))
        assert b["critical_stage"] == "emb"

    def test_conservation_is_exact_equality(self):
        b = breakdown(arrival=7.5, emb=(9.25, 30.125), bot=(9.25, 12.0),
                      top=(31.0, 44.875))
        assert b["latency_ns"] == component_sum(b)

    def test_latency_is_the_sum_not_the_raw_difference(self):
        # Float addition is not associative: at these timestamps the
        # fixed-order component sum and the telescoped top_done -
        # arrival differ by an ulp.  The breakdown must define latency
        # as the sum, so validators can demand exact equality.
        b = breakdown(
            arrival=240.69652516689467,
            emb=(422.6654473531057, 5491.2433158643835),
            bot=(422.6654473531057, 2967.2594321868987),
            top=(5556.864159137114, 14155.69838035173),
        )
        raw = 14155.69838035173 - 240.69652516689467
        assert b["latency_ns"] == component_sum(b)
        assert b["latency_ns"] != raw  # differs by an ulp, by design

    def test_replica_stamp(self):
        assert breakdown(replica=3)["replica"] == 3


def scalar_breakdown(arrival, stamps):
    """The module docstring's definition, one batch at a time."""
    emb_start, emb_done, bot_start, bot_done, top_start, top_done = stamps
    on_emb = emb_done >= bot_done  # ties -> emb
    branch_start, branch_done = (
        (emb_start, emb_done) if on_emb else (bot_start, bot_done)
    )
    out = {
        "dispatch_wait_ns": 0.0,
        "queue_ns": (branch_start - arrival) + (top_start - branch_done),
        "emb_ns": emb_done - emb_start if on_emb else 0.0,
        "bot_ns": 0.0 if on_emb else bot_done - bot_start,
        "top_ns": top_done - top_start,
    }
    out["latency_ns"] = component_sum(out)
    return out, on_emb


def bits(value):
    return struct.pack("<d", value)


#: Non-negative stage gaps; the small pool makes exact ties, zero-length
#: stages and signed zeros common rather than measure-zero.
_GAP = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.1, 40.0, 1e-3, 3e9]),
    st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
)


@st.composite
def stamp_tables(draw):
    """Random monotone timelines: within a batch every stage starts at
    or after the arrival and ends at or after its start; the top stage
    starts at or after both branches are done."""
    arrivals, table = [], []
    clock = draw(st.sampled_from([0.0, -0.0]))
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        clock = clock + draw(_GAP)
        emb_start = clock + draw(_GAP)
        emb_done = emb_start + draw(_GAP)
        bot_start = clock + draw(_GAP)
        bot_done = draw(st.sampled_from([emb_done, bot_start + draw(_GAP)]))
        bot_done = max(bot_done, bot_start)
        top_start = max(emb_done, bot_done) + draw(_GAP)
        top_done = top_start + draw(_GAP)
        arrivals.append(clock)
        table.append([emb_start, emb_done, bot_start, bot_done, top_start, top_done])
    return arrivals, table


class TestBreakdownsAgainstScalarReference:
    @settings(max_examples=150, deadline=None)
    @given(stamp_tables())
    def test_columns_equal_the_scalar_definition_bit_for_bit(self, timeline):
        arrivals, table = timeline
        columns, emb_critical = breakdowns(np.array(arrivals), np.array(table))
        assert list(columns) == [*COMPONENTS, "latency_ns"]
        for batch, (arrival, stamps) in enumerate(zip(arrivals, table)):
            expected, on_emb = scalar_breakdown(arrival, stamps)
            assert bool(emb_critical[batch]) is on_emb
            for key, value in expected.items():
                assert bits(columns[key][batch]) == bits(value), (batch, key)
        # ... and the collector's dicts carry exactly those floats.
        for batch, request in enumerate(requests_of(list(zip(arrivals, table)), 4)):
            expected, on_emb = scalar_breakdown(arrivals[batch], table[batch])
            assert request["critical_stage"] == ("emb" if on_emb else "bot")
            assert (request["batch"], request["replica"]) == (batch, 4)
            assert bits(request["arrival_ns"]) == bits(arrivals[batch])
            for key, value in expected.items():
                assert bits(request[key]) == bits(value), (batch, key)

    @settings(max_examples=50, deadline=None)
    @given(stamp_tables(), st.data())
    def test_mis_stamped_row_raises_naming_the_first_offender(self, timeline, data):
        arrivals, table = timeline
        # The components telescope to top_done - arrival algebraically,
        # so only a stamp absurd enough to swallow the others in
        # rounding breaks conservation: from some batch on, an
        # embedding branch stamped at 1e30 ns absorbs the (now
        # non-zero) wait before the top stage.
        first = data.draw(st.integers(min_value=0, max_value=len(table) - 1))
        for stamps in table[first:]:
            stamps[STAMP_FIELDS.index("emb_start_ns")] = 1e30
            stamps[STAMP_FIELDS.index("emb_done_ns")] = 1e30
            stamps[STAMP_FIELDS.index("top_start_ns")] += 1e3
            stamps[STAMP_FIELDS.index("top_done_ns")] += 1e3
        with pytest.raises(ValueError, match=rf"^batch {first}: components sum to"):
            breakdowns(np.array(arrivals), np.array(table))
        collector = CritPathCollector()
        with pytest.raises(ValueError, match=f"batch {first}"):
            collector.record_run(np.array(arrivals), np.array(table))
        assert len(collector) == 0


class TestCollector:
    def test_records_stream_and_replica_context(self):
        collector = CritPathCollector()
        record(collector, [row()])
        collector.set_replica(2)
        record(collector, [row()])
        assert len(collector) == 2
        assert [r["replica"] for r in collector.requests] == [0, 2]

    def test_reset_keeps_replica_context(self):
        collector = CritPathCollector()
        collector.set_replica(5)
        record(collector, [row()])
        collector.reset()
        assert len(collector) == 0
        record(collector, [row()])
        assert collector.requests[0]["replica"] == 5

    def test_pipeline_feeds_collector_on_both_paths(self):
        fed = {}
        for fast in (False, True):
            collector = CritPathCollector()
            simulator = PipelineSimulator(
                emb_ns=9_000.0, bot_ns=4_000.0, top_ns=6_000.0,
                critpath=collector,
            )
            simulator.run(5, fast=fast)
            assert len(collector) == 5
            fed[fast] = collector.requests
        assert fed[False] == fed[True]


class TestTailExemplars:
    def test_empty_requests(self):
        assert tail_exemplars([], threshold_ns=0.0, top_k=3) == []

    def test_single_request(self):
        b = breakdown()
        assert tail_exemplars([b], b["latency_ns"], top_k=3) == [b]
        assert tail_exemplars([b], b["latency_ns"] + 1.0, top_k=3) == []

    def test_identical_latencies_tie_break_is_deterministic(self):
        # Same latency everywhere: order must fall back to (arrival,
        # replica, batch), so the exemplar list is stable.
        requests = requests_of([
            row(arrival=float(10 - i),
                emb=(10.0 - i + 1, 30.0 - i + 1),
                bot=(10.0 - i + 1, 25.0 - i + 1),
                top=(30.0 - i + 1, 42.0 - i + 1))
            for i in range(4)
        ])
        assert len({r["latency_ns"] for r in requests}) == 1
        exemplars = tail_exemplars(requests, requests[0]["latency_ns"], 2)
        assert [e["batch"] for e in exemplars] == [3, 2]

    def test_top_k_zero_and_negative(self):
        b = breakdown()
        assert tail_exemplars([b], 0.0, top_k=0) == []
        assert tail_exemplars([b], 0.0, top_k=-1) == []


class TestExplainDocument:
    def test_empty_document(self):
        document = build_explain_document([])
        assert document["schema"] == EXPLAIN_SCHEMA
        assert document["quantiles"] == []
        assert document["totals"] == {
            "count": 0, "mean_latency_ns": 0.0, "blame": {},
        }
        assert document["requests"] == {"count": 0, "records": []}

    def test_single_request_document(self):
        b = breakdown()
        document = build_explain_document([b], quantiles=(99.0,))
        (entry,) = document["quantiles"]
        assert entry["latency_ns"] == b["latency_ns"]
        assert entry["tail"]["count"] == 1
        assert entry["exemplars"] == [b]
        # Blame shares partition the tail's latency.
        assert sum(entry["tail"]["blame"].values()) == pytest.approx(1.0)

    def test_exemplar_breakdowns_sum_exactly(self):
        collector = CritPathCollector()
        simulator = PipelineSimulator(
            emb_ns=9_000.0, bot_ns=4_000.0, top_ns=6_000.0,
            critpath=collector,
        )
        simulator.run(20, arrival_interval_ns=5_000.0)
        document = build_explain_document(collector.requests)
        assert document["quantiles"]
        for entry in document["quantiles"]:
            for exemplar in entry["exemplars"]:
                assert exemplar["latency_ns"] == component_sum(exemplar)
                assert exemplar["latency_ns"] >= entry["latency_ns"]

    def test_canonical_order_and_meta(self, tmp_path):
        requests = requests_of([
            row(arrival=0.0),
            row(arrival=5.0, emb=(15.0, 35.0), bot=(15.0, 30.0), top=(35.0, 47.0)),
        ])[::-1]
        document = build_explain_document(requests, meta={"model": "rmc1"})
        arrivals = [r["arrival_ns"] for r in document["requests"]["records"]]
        assert arrivals == sorted(arrivals)
        assert document["meta"] == {"model": "rmc1"}
        path = export_document(document, str(tmp_path / "e.json"))
        loaded = json.load(open(path))
        assert loaded == document

    def test_include_requests_false_drops_records(self):
        document = build_explain_document(
            [breakdown()], include_requests=False
        )
        assert document["requests"] == {"count": 1}

    def test_components_are_canonical(self):
        assert build_explain_document([])["components"] == list(COMPONENTS)

    def test_canonical_order_unique_key(self):
        a = breakdown(replica=1)
        b = breakdown(replica=0)
        assert canonical_order([a, b]) == [b, a]
