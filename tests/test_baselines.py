"""Tests for the comparator backends (Section VI systems).

These encode the paper's qualitative results as assertions: the
performance ladder of Fig. 10/11, RM-SSD's wins in Fig. 12/13, the
traffic results of Fig. 3 / Table IV, and Fig. 14's locality split.
"""

import numpy as np
import pytest

from repro.baselines import (
    DRAMBackend,
    EMBMMIOBackend,
    EMBPageSumBackend,
    EMBVectorSumBackend,
    NaiveSSDBackend,
    RMSSDBackend,
    RecSSDBackend,
)
from repro.baselines.base import EMB_FS, EMB_SSD
from repro.models import build_model, get_config
from repro.workloads.inputs import InferenceRequest, RequestGenerator

ROWS = 8192


@pytest.fixture(scope="module")
def rmc1():
    config = get_config("rmc1")
    model = build_model(config, rows_per_table=ROWS, seed=0)
    gen = RequestGenerator(config, ROWS, seed=1)
    return config, model, gen.requests(6, batch_size=1)


def run(backend, requests, compute=False):
    return backend.run(requests, compute=compute)


class TestNumericAgreement:
    def test_all_backends_produce_identical_outputs(self, rmc1):
        config, model, requests = rmc1
        requests = requests[:2]
        reference = run(DRAMBackend(model), requests, compute=True).outputs
        for backend in (
            NaiveSSDBackend(model, 0.25),
            EMBMMIOBackend(model),
            EMBPageSumBackend(model),
            EMBVectorSumBackend(model),
            RecSSDBackend(model),
        ):
            outputs = run(backend, requests, compute=True).outputs
            np.testing.assert_array_equal(outputs, reference)

    def test_rmssd_outputs_match_reference(self, rmc1):
        config, model, requests = rmc1
        requests = requests[:1]
        reference = run(DRAMBackend(model), requests, compute=True).outputs
        backend = RMSSDBackend(model, config.lookups_per_table)
        outputs = run(backend, requests, compute=True).outputs
        np.testing.assert_allclose(outputs, reference, rtol=1e-5, atol=1e-6)


class TestFig10Ladder:
    """Fig. 10/11: SSD-S > EMB-MMIO > EMB-PageSum > EMB-VectorSum."""

    def test_embedding_stage_ordering(self, rmc1):
        config, model, requests = rmc1
        times = {}
        for backend in (
            NaiveSSDBackend(model, 0.25),
            EMBMMIOBackend(model),
            EMBPageSumBackend(model),
            EMBVectorSumBackend(model),
        ):
            times[backend.name] = run(backend, requests).embedding_ns
        assert times["SSD-S"] > times["EMB-MMIO"]
        assert times["EMB-MMIO"] > times["EMB-PageSum"]
        assert times["EMB-PageSum"] > times["EMB-VectorSum"]

    def test_vectorsum_order_of_magnitude_speedup_over_ssds(self, rmc1):
        # Fig. 10(a): ~16x on the standalone SLS operator.
        config, model, requests = rmc1
        ssd_s = run(NaiveSSDBackend(model, 0.25), requests).embedding_ns
        vector = run(EMBVectorSumBackend(model), requests).embedding_ns
        assert 5 < ssd_s / vector < 50

    def test_sls_time_linear_in_lookups(self):
        # Fig. 10(b): execution time grows linearly with lookups.
        config = get_config("rmc1")
        model = build_model(config, rows_per_table=ROWS, seed=0)
        backend = EMBVectorSumBackend(model)
        gen = RequestGenerator(config, ROWS, seed=3)
        times = []
        for lookups in (20, 40, 80):
            request = gen.request(1)
            request.sparse[0] = [
                lookups_list[:lookups]
                if len(lookups_list) >= lookups
                else lookups_list * (lookups // len(lookups_list))
                for lookups_list in request.sparse[0]
            ]
            times.append(backend.request_cost_ns(request)["emb-ssd"])
        assert times[1] == pytest.approx(2 * times[0], rel=0.1)
        assert times[2] == pytest.approx(4 * times[0], rel=0.1)

    def test_ssd_s_slower_than_ssd_m(self, rmc1):
        config, model, requests = rmc1
        s = run(NaiveSSDBackend(model, 0.25), requests).total_ns
        m = run(NaiveSSDBackend(model, 0.5), requests).total_ns
        assert s > m

    def test_dram_beats_vectorsum_on_embedding_dominated(self, rmc1):
        # Fig. 11(a): DRAM-only is still fastest end-to-end for RMC1.
        config, model, requests = rmc1
        dram = run(DRAMBackend(model), requests).total_ns
        vector = run(EMBVectorSumBackend(model), requests).total_ns
        assert dram < vector

    def test_vectorsum_beats_dram_on_mlp_dominated(self):
        # Fig. 11(c): EMB-VectorSum outruns DRAM-only on RMC3.
        config = get_config("rmc3")
        model = build_model(config, rows_per_table=512, seed=0)
        requests = RequestGenerator(config, 512, seed=2).requests(4, 1)
        dram = run(DRAMBackend(model), requests).total_ns
        vector = run(EMBVectorSumBackend(model), requests).total_ns
        assert vector < dram


class TestFig3Amplification:
    def test_ssd_s_amplification_tens_of_x(self, rmc1):
        config, model, requests = rmc1
        result = run(NaiveSSDBackend(model, 0.25), requests)
        assert 10 < result.stats.read_amplification < 35

    def test_isc_paths_eliminate_amplification(self, rmc1):
        config, model, requests = rmc1
        for backend_cls in (EMBPageSumBackend, EMBVectorSumBackend):
            result = run(backend_cls(model), requests)
            assert result.stats.read_amplification < 0.2

    def test_mmio_amplification_is_page_over_vector(self, rmc1):
        # No cache at all: every lookup moves a whole page.
        config, model, requests = rmc1
        result = run(EMBMMIOBackend(model), requests)
        assert result.stats.read_amplification == pytest.approx(
            4096 / model.tables.ev_size
        )


class TestTableIVTraffic:
    def test_traffic_reduction_ordering(self, rmc1):
        config, model, requests = rmc1
        ssd_s = run(NaiveSSDBackend(model, 0.25), requests).stats
        recssd = run(RecSSDBackend(model), requests).stats
        vector = run(EMBVectorSumBackend(model), requests).stats
        rmssd_backend = RMSSDBackend(model, config.lookups_per_table, use_des=False)
        rmssd = run(rmssd_backend, requests[:2]).stats
        # RecSSD and EMB-VectorSum return pooled vectors (equal traffic);
        # RM-SSD returns only final results (far less).
        assert recssd.reduction_factor_vs(ssd_s) > 10
        assert vector.host_read_bytes == recssd.host_read_bytes
        per_req_rmssd = rmssd.host_read_bytes / 2
        per_req_vector = vector.host_read_bytes / len(requests)
        assert per_req_rmssd < per_req_vector


class TestRMSSDWins:
    def test_rmssd_20x_or_more_over_ssd_s(self, rmc1):
        # Abstract: 20-100x throughput over the baseline SSD.
        config, model, requests = rmc1
        ssd_s = run(NaiveSSDBackend(model, 0.25), requests)
        rmssd = run(
            RMSSDBackend(model, config.lookups_per_table, use_des=False), requests
        )
        assert rmssd.qps / ssd_s.qps > 10

    def test_rmssd_faster_than_recssd(self, rmc1):
        # Abstract: 1.5-15x over RecSSD.
        config, model, requests = rmc1
        recssd = run(RecSSDBackend(model), requests)
        rmssd = run(
            RMSSDBackend(model, config.lookups_per_table, use_des=False), requests
        )
        assert 1.2 < rmssd.qps / recssd.qps < 20

    def test_rmssd_beats_dram_on_mlp_dominated_models(self):
        # Fig. 15: NCF/WnD run faster in-storage than in DRAM.
        for key in ("ncf", "wnd"):
            config = get_config(key)
            model = build_model(config, rows_per_table=256, seed=0)
            gen = RequestGenerator(config, 256, seed=1)
            requests = gen.requests(4, batch_size=8)
            dram = run(DRAMBackend(model), requests)
            rmssd = run(
                RMSSDBackend(model, config.lookups_per_table, use_des=False), requests
            )
            assert rmssd.qps > dram.qps, key


class TestFig14Locality:
    def test_recssd_degrades_with_locality_rmssd_does_not(self):
        config = get_config("rmc1")
        model = build_model(config, rows_per_table=ROWS, seed=0)
        recssd_qps = {}
        rmssd_qps = {}
        for hit in (0.80, 0.30):
            gen = RequestGenerator(config, ROWS, hot_access_fraction=hit, seed=4)
            requests = gen.requests(6, batch_size=1)
            recssd_qps[hit] = run(RecSSDBackend(model), requests).qps
            rmssd_qps[hit] = run(
                RMSSDBackend(model, config.lookups_per_table, use_des=False), requests
            ).qps
        assert recssd_qps[0.80] > 1.15 * recssd_qps[0.30]
        assert rmssd_qps[0.80] == pytest.approx(rmssd_qps[0.30], rel=0.05)


class TestRecSSDCostModel:
    """Regressions for the RecSSD host cost accounting.

    The userspace layer probes its cache for *every* lookup — host
    hits, SSD-cache hits, and flash misses alike — and the default
    cache sizing covers 1% of the actual index space even when tables
    have different row counts.
    """

    def make_request(self, model, per_table_lookups):
        num_tables = len(model.tables)
        sparse = [[
            list(per_table_lookups) if table_id == 0 else []
            for table_id in range(num_tables)
        ]]
        return InferenceRequest(dense=None, sparse=sparse)

    def test_probe_term_counts_all_three_outcomes(self, rmc1):
        config, model, _ = rmc1
        from repro.baselines.recssd import (
            HOST_MERGE_PER_VECTOR_NS,
            HOST_PROBE_PER_LOOKUP_NS,
        )

        backend = RecSSDBackend(model, cache_vectors=1, ssd_cache_vectors=2)
        # Host cache holds 1 entry, SSD cache holds 2: alternating keys
        # give host misses that the SSD cache absorbs.
        #   7 -> miss, 8 -> miss, 7 -> ssd hit, 8 -> ssd hit, 8 -> hit
        request = self.make_request(model, [7, 8, 7, 8, 8])
        breakdown = backend.request_cost_ns(request)
        hits, ssd_hits, misses = 1, 2, 2
        assert backend.stats.cache_hits == hits
        assert backend.stats.cache_misses == misses + ssd_hits
        expected_op = (
            (hits + ssd_hits + misses) * HOST_PROBE_PER_LOOKUP_NS
            + hits * HOST_MERGE_PER_VECTOR_NS
            + len(model.tables) * backend.costs.framework_op_ns
        )
        assert breakdown["emb-op"] == pytest.approx(expected_op, rel=0, abs=0)

    def test_every_lookup_pays_the_probe(self, rmc1):
        """Same lookup count => same probe cost, whatever the hit mix."""
        config, model, _ = rmc1
        from repro.baselines.recssd import HOST_PROBE_PER_LOOKUP_NS

        hot = RecSSDBackend(model, cache_vectors=64, ssd_cache_vectors=64)
        cold = RecSSDBackend(model, cache_vectors=1, ssd_cache_vectors=1)
        lookups = [1, 2, 3, 1, 2, 3, 1, 2, 3]
        op_cost = {}
        for name, backend in (("hot", hot), ("cold", cold)):
            backend.request_cost_ns(self.make_request(model, lookups))
            breakdown = backend.request_cost_ns(
                self.make_request(model, lookups)
            )
            merge = breakdown["emb-op"] - len(lookups) * HOST_PROBE_PER_LOOKUP_NS
            op_cost[name] = (breakdown["emb-op"], merge)
        # The probe floor is identical; only the merge term differs.
        assert op_cost["hot"][1] >= op_cost["cold"][1]
        assert op_cost["hot"][0] - op_cost["hot"][1] == pytest.approx(
            op_cost["cold"][0] - op_cost["cold"][1]
        )

    def test_default_sizing_uses_actual_total_rows(self):
        from types import SimpleNamespace

        from repro.embedding.table import EmbeddingTable, EmbeddingTableSet

        tables = EmbeddingTableSet(
            [
                EmbeddingTable("tiny", 10, 16, seed=1),
                EmbeddingTable("large", 9990, 16, seed=2),
            ]
        )
        backend = RecSSDBackend(SimpleNamespace(tables=tables))
        # 1% of the actual 10_000 rows — not of 2 * 10 (extrapolating
        # table 0 would size the cache at a single vector).
        assert backend.host_cache.capacity_vectors == 100


class TestHostileCacheSizes:
    """A cache size or DRAM fraction that is not one is refused by name,
    before the backend holds any state."""

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"cache_vectors": float("nan")}, "cache_vectors"),
            ({"cache_vectors": 1.5}, "cache_vectors"),
            ({"cache_vectors": True}, "cache_vectors"),
            ({"cache_vectors": -1}, "cache_vectors"),
            ({"ssd_cache_vectors": -3}, "ssd_cache_vectors"),
            ({"ssd_cache_vectors": float("nan")}, "ssd_cache_vectors"),
            ({"ssd_cache_vectors": 2.5}, "ssd_cache_vectors"),
        ],
    )
    def test_hostile_recssd_cache_size_is_named(self, rmc1, kwargs, name):
        config, model, _ = rmc1
        with pytest.raises(ValueError, match=f"^{name} "):
            RecSSDBackend(model, **kwargs)

    @pytest.mark.parametrize(
        "fraction", [float("nan"), float("inf"), -float("inf"), 0.0, -0.25]
    )
    def test_hostile_dram_fraction_is_named(self, rmc1, fraction):
        config, model, _ = rmc1
        with pytest.raises(ValueError, match="dram_fraction"):
            NaiveSSDBackend(model, fraction)

    def test_caches_past_the_tables_behave_as_the_whole_tables(self, rmc1):
        """A cache larger than every key it could hold is capped, not
        allocated: it runs exactly as one that holds them all."""
        config, model, requests = rmc1
        rows = sum(table.rows for table in model.tables)
        for huge, whole in (
            (NaiveSSDBackend(model, 1e12), NaiveSSDBackend(model, 2.0)),
            (RecSSDBackend(model, 10**15, 10**15), RecSSDBackend(model, rows, rows)),
        ):
            assert run(huge, requests).breakdown == run(whole, requests).breakdown

    def test_zero_sized_caches_never_hit(self, rmc1):
        config, model, requests = rmc1
        backend = RecSSDBackend(model, cache_vectors=0)
        backend.run(requests, compute=False)
        assert backend.stats.cache_hits == 0
        assert backend.host_cache.misses == backend.ssd_cache.misses > 0


class TestFileIOOracle:
    """SSD-S / SSD-M against the host cost model's scalar statement of
    one fileIO lookup, which shares no code with the backend's array
    program: each request's file-system plus device time is the sum of
    ``fileio_lookup_ns`` over its page-cache hits and misses."""

    @pytest.mark.parametrize("fraction", [0.25, 0.5])
    def test_each_request_costs_its_fileio_lookups(self, fraction):
        config = get_config("rmc2")
        model = build_model(config, rows_per_table=ROWS, seed=0)
        requests = RequestGenerator(config, ROWS, seed=2).requests(4, batch_size=2)
        backend = NaiveSSDBackend(model, fraction)
        costs, stats = backend.costs, backend.stats
        for request in requests:
            hits, misses = stats.cache_hits, stats.cache_misses
            breakdown = backend.run([request], compute=False).breakdown
            hits, misses = stats.cache_hits - hits, stats.cache_misses - misses
            lookups = [costs.fileio_lookup_ns(False, fraction)] * hits
            lookups += [costs.fileio_lookup_ns(True, fraction)] * misses
            assert breakdown[EMB_FS] + breakdown[EMB_SSD] == sum(lookups)
        assert stats.cache_hits > 0 and stats.cache_misses > 0


class TestRunResult:
    def test_breakdown_fractions_sum_to_one(self, rmc1):
        config, model, requests = rmc1
        result = run(NaiveSSDBackend(model, 0.25), requests)
        assert sum(result.breakdown_fractions().values()) == pytest.approx(1.0)

    def test_qps_and_latency_consistent(self, rmc1):
        config, model, requests = rmc1
        result = run(DRAMBackend(model), requests)
        assert result.qps == pytest.approx(
            result.inferences / (result.total_ns / 1e9)
        )
        assert result.latency_per_request_ns == pytest.approx(
            result.total_ns / result.requests
        )


class TestPageSumDESMode:
    def test_des_mode_tracks_analytic(self, rmc1):
        config, model, requests = rmc1
        analytic = EMBPageSumBackend(model).run(requests[:3], compute=False)
        des = EMBPageSumBackend(model, use_des=True).run(requests[:3], compute=False)
        # Same order of magnitude; DES pays real queueing over the
        # trace's channel distribution.
        ratio = des.embedding_ns / analytic.embedding_ns
        assert 0.5 < ratio < 3.0

    def test_des_mode_same_outputs(self, rmc1):
        config, model, requests = rmc1
        a = EMBPageSumBackend(model).run(requests[:1], compute=True)
        b = EMBPageSumBackend(model, use_des=True).run(requests[:1], compute=True)
        np.testing.assert_array_equal(a.outputs, b.outputs)
