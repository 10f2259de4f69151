"""Differential suite: DES and fast paths emit byte-identical
``rmssd-explain/v1`` exports.

The bitwise-equal-timestamps contract extends to the critical-path
attribution layer: identical stage-stamp tables decomposed by
identical float arithmetic must serialize to identical bytes — for
the bare pipeline, the Poisson serving front end on both reference
models, and a load-balanced cluster under a flash crowd.  A
hypothesis sweep additionally pins the exact-conservation property on
both paths: every breakdown's ``latency_ns`` equals its fixed-order
component sum.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.core.pipeline_sim import PipelineSimulator
from repro.fpga.compose import StageTimes
from repro.host.cluster_serving import ClusterServingSimulator
from repro.models import build_model, get_config
from repro.obs import CritPathCollector, build_explain_document
from repro.obs import export_document
from repro.obs.critpath import component_sum
from repro.workloads.arrivals import flash_crowd_trace
from tools.check_trace import check_explain

TIMES = StageTimes(temb=2000, tbot=800, ttop=1200, nbatch=4, flash_cycles=1500)


def serving_times(config_key):
    from repro.core.device import operating_point

    config = get_config(config_key)
    model = build_model(config, rows_per_table=64)
    return operating_point(model, config.lookups_per_table)


def pipeline_export(arrivals, fast, tmp_path, tag):
    collector = CritPathCollector()
    simulator = PipelineSimulator(
        emb_ns=9_000.0, bot_ns=4_000.0, top_ns=6_000.0, critpath=collector
    )
    simulator.run(len(arrivals), arrival_times_ns=arrivals, fast=fast)
    document = build_explain_document(collector.requests)
    path = tmp_path / f"{tag}-{'fast' if fast else 'des'}.json"
    export_document(document, str(path))
    return path


class TestPipelineExplain:
    def test_poisson_byte_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        arrivals = np.cumsum(rng.exponential(12_000.0, size=64)).tolist()
        fast = pipeline_export(arrivals, True, tmp_path, "poisson")
        des = pipeline_export(arrivals, False, tmp_path, "poisson")
        assert fast.read_bytes() == des.read_bytes()
        assert check_explain(str(fast)) == []

    def test_saturated_byte_identical(self, tmp_path):
        arrivals = [0.0] * 32  # host pre-send: everything queues
        fast = pipeline_export(arrivals, True, tmp_path, "saturated")
        des = pipeline_export(arrivals, False, tmp_path, "saturated")
        assert fast.read_bytes() == des.read_bytes()
        assert check_explain(str(fast)) == []


class TestServingExplain:
    @pytest.mark.parametrize("config_key", ["rmc1", "rmc2"])
    def test_serving_byte_identical(self, config_key, tmp_path):
        from repro.host.serving import ServingSimulator

        result = serving_times(config_key)
        paths = {}
        for fast in (True, False):
            collector = CritPathCollector()
            serving = ServingSimulator(
                result.times, nbatch=result.nbatch, seed=11,
                critpath=collector,
            )
            serving.offered_load(
                serving.saturation_qps * 0.8, queries=80, fast=fast
            )
            document = build_explain_document(
                collector.requests, meta={"model": config_key}
            )
            path = tmp_path / f"{config_key}-{fast}.json"
            export_document(document, str(path))
            paths[fast] = path
        assert paths[True].read_bytes() == paths[False].read_bytes()
        assert check_explain(str(paths[True])) == []


class TestClusterExplain:
    def test_flash_crowd_byte_identical(self, tmp_path):
        result = serving_times("rmc1")
        replica_qps = result.times.throughput_qps(1e9 / 5.0)
        trace = flash_crowd_trace(
            0.8 * replica_qps * 2, 1e8,
            burst_start_ns=3e7, burst_duration_ns=4e7, burst_factor=3.0,
            seed=5,
        )
        paths = {}
        for fast in (True, False):
            collector = CritPathCollector()
            cluster = ClusterServingSimulator(
                result.times, nbatch=result.nbatch, replicas=2,
                balancer="jsq", critpath=collector,
            )
            cluster.serve_trace(trace, fast=fast)
            document = build_explain_document(collector.requests)
            path = tmp_path / f"cluster-{fast}.json"
            export_document(document, str(path))
            paths[fast] = path
        assert paths[True].read_bytes() == paths[False].read_bytes()
        assert check_explain(str(paths[True])) == []
        # The cluster context must actually spread requests: both
        # replicas appear in the canonical records.
        import json

        records = json.load(open(paths[True]))["requests"]["records"]
        assert {r["replica"] for r in records} == {0, 1}


class TestConservationProperty:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        batches=st.integers(min_value=1, max_value=24),
        rate_ns=st.floats(min_value=2_000.0, max_value=40_000.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_components_sum_exactly_on_both_paths(self, seed, batches, rate_ns):
        rng = np.random.default_rng(seed)
        arrivals = np.cumsum(rng.exponential(rate_ns, size=batches)).tolist()
        breakdowns = {}
        for fast in (True, False):
            collector = CritPathCollector()
            simulator = PipelineSimulator(
                emb_ns=9_000.0, bot_ns=4_000.0, top_ns=6_000.0,
                critpath=collector,
            )
            simulator.run(batches, arrival_times_ns=arrivals, fast=fast)
            for breakdown in collector.requests:
                assert breakdown["latency_ns"] == component_sum(breakdown)
            breakdowns[fast] = collector.requests
        assert breakdowns[True] == breakdowns[False]
