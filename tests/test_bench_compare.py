"""Tests for the benchmark-regression gate (tools/bench_compare).

Synthetic payloads exercise every tolerance documented in the tool's
docstring; the committed ``BENCH_*.json`` baselines must pass both an
identity diff and their own self-check (``tools/check.sh`` runs the
same gate plus an injected-regression canary).
"""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.bench_compare import (  # noqa: E402
    Regression,
    compare,
    detect_kind,
    main,
    self_check,
)


def fastpath_payload(**overrides):
    payload = {
        "model": "RMC2",
        "samples": 256,
        "vectors_read": 983040,
        "simulated_ns": 123456789.0,
        "min_speedup": 10.0,
        "speedup": 15.9,
        "bitwise_equal": True,
        "des_wall_s": 12.5,
        "fast_wall_s": 0.8,
    }
    payload.update(overrides)
    return payload


def sweep_payload(**overrides):
    payload = {
        "model": "rmc2",
        "queries": 200,
        "fractions": [0.2, 0.4, 0.6, 0.8, 0.9, 0.95],
        "sweep_points": 6,
        "repeats": 3,
        "min_speedup": 10.0,
        "speedup": 13.4,
        "bitwise_equal": True,
        "des_wall_s": 0.035,
        "fast_wall_s": 0.0026,
        "wall_s": 10.7,
        "max_wall_s": 90.0,
    }
    payload.update(overrides)
    return payload


def vcache_payload(**overrides):
    payload = {
        "ks": [0.0, 1.0, 2.0],
        "policy": "lru",
        "capacity_rule": "sqrt",
        "rows_per_table": 512,
        "hit_ratios": {"rmc1": [0.90, 0.60, 0.40]},
        "qps": {
            "rmc1/RM-SSD": [100.0, 100.0, 100.0],
            "rmc1/RM-SSD+cache": [400.0, 220.0, 150.0],
            "rmc1/RecSSD": [80.0, 80.0, 80.0],
        },
    }
    payload.update(overrides)
    return payload


def autoscale_payload(**overrides):
    payload = {
        "model": "rmc1",
        "arrivals": "flash-crowd",
        "queries": 398,
        "balancer": "jsq",
        "sla_ms": 40.0,
        "quantile": 99.0,
        "alert_threshold_ms": 10.0,
        "window_ms": 2.0,
        "burst_factor": 4.0,
        "initial_replicas": 1,
        "max_replicas": 6,
        "scale_up_step": 2,
        "fixed": {"p99_ms": 208.25, "meets_sla": False, "final_replicas": 1},
        "autoscaled": {
            "p99_ms": 33.37,
            "meets_sla": True,
            "scale_ups": 1,
            "scale_downs": 2,
            "final_replicas": 1,
        },
        "bitwise_equal": True,
        "wall_s": 0.2,
        "max_wall_s": 2.0,
    }
    payload.update(overrides)
    return payload


def embedded_explain(p99_ns=7e8, queue_ns=6.5e8):
    mean = {
        "dispatch_wait_ns": 0.0,
        "queue_ns": queue_ns,
        "emb_ns": 8e6,
        "bot_ns": 0.0,
        "top_ns": 2e6,
    }
    mean["latency_ns"] = sum(mean.values())
    return {
        "schema": "rmssd-explain/v1",
        "quantiles": [
            {
                "q": 99.0,
                "latency_ns": p99_ns,
                "tail": {
                    "count": 3,
                    "mean_ns": mean,
                    "blame": {},
                    "queue_share_by_replica": {"0": 0.3, "1": 0.7},
                },
                "exemplars": [],
            }
        ],
        "requests": {"count": 500},
    }


def attribution_payload(**overrides):
    payload = {
        "model": "rmc2",
        "arrivals": "flash-crowd",
        "replicas": 2,
        "balancer": "jsq",
        "burst_factor": 3.0,
        "quantile": 99.0,
        "loads": [0.05, 0.5, 0.85],
        "queries": [26, 319, 532],
        "p99_ms": [6.9, 271.5, 708.7],
        "queue_share_p99": [0.0, 0.97, 0.99],
        "service_share_p99": [1.0, 0.03, 0.01],
        "bitwise_equal": True,
        "explain": embedded_explain(),
        "wall_s": 0.8,
    }
    payload.update(overrides)
    return payload


class TestDetectKind:
    def test_detects_all_kinds(self):
        assert detect_kind(fastpath_payload()) == "fastpath"
        # sweep carries speedup + bitwise_equal too: sweep_points must
        # win the detection race over fastpath.
        assert detect_kind(sweep_payload()) == "sweep"
        assert detect_kind(vcache_payload()) == "vcache"
        # autoscale carries bitwise_equal too: autoscaled must win.
        assert detect_kind(autoscale_payload()) == "autoscale"
        # attribution carries bitwise_equal too: queue_share_p99 wins.
        assert detect_kind(attribution_payload()) == "attribution"

    def test_unknown_payload_raises(self):
        with pytest.raises(Regression, match="unrecognized"):
            detect_kind({"something": 1})

    def test_kind_mismatch_is_a_failure(self):
        failures = compare(fastpath_payload(), vcache_payload())
        assert failures == [
            "payload kinds differ: baseline fastpath, fresh vcache"
        ]


class TestCompareFastpath:
    def test_identity_passes(self):
        assert compare(fastpath_payload(), fastpath_payload()) == []

    def test_wall_clock_drift_is_ignored(self):
        fresh = fastpath_payload(des_wall_s=99.0, fast_wall_s=9.0, speedup=11.0)
        assert compare(fastpath_payload(), fresh) == []

    def test_configuration_drift_is_exact(self):
        failures = compare(fastpath_payload(), fastpath_payload(samples=255))
        assert any("samples" in failure for failure in failures)

    def test_simulated_time_drift_is_exact(self):
        fresh = fastpath_payload(simulated_ns=123456790.0)
        failures = compare(fastpath_payload(), fresh)
        assert any("simulated_ns" in failure for failure in failures)

    def test_bitwise_divergence_flagged(self):
        failures = compare(
            fastpath_payload(), fastpath_payload(bitwise_equal=False)
        )
        assert any("bitwise" in failure for failure in failures)

    def test_speedup_below_floor_flagged(self):
        failures = compare(fastpath_payload(), fastpath_payload(speedup=9.9))
        assert any("floor" in failure for failure in failures)

    def test_missing_metric_flagged(self):
        fresh = fastpath_payload()
        del fresh["vectors_read"]
        with pytest.raises(Regression, match="missing"):
            compare(fastpath_payload(), fresh)


class TestCompareSweep:
    def test_identity_passes(self):
        assert compare(sweep_payload(), sweep_payload()) == []

    def test_wall_clock_drift_within_budget_is_ignored(self):
        fresh = sweep_payload(
            des_wall_s=0.5, fast_wall_s=0.04, speedup=12.5, wall_s=40.0
        )
        assert compare(sweep_payload(), fresh) == []

    def test_configuration_drift_is_exact(self):
        failures = compare(sweep_payload(), sweep_payload(queries=100))
        assert any("queries" in failure for failure in failures)
        failures = compare(
            sweep_payload(), sweep_payload(fractions=[0.2, 0.4])
        )
        assert any("fractions" in failure for failure in failures)

    def test_bitwise_divergence_flagged(self):
        failures = compare(sweep_payload(), sweep_payload(bitwise_equal=False))
        assert any("bitwise" in failure for failure in failures)

    def test_speedup_below_floor_flagged(self):
        failures = compare(sweep_payload(), sweep_payload(speedup=9.9))
        assert any("floor" in failure for failure in failures)

    def test_blown_wall_budget_flagged(self):
        failures = compare(sweep_payload(), sweep_payload(wall_s=180.0))
        assert any("budget" in failure for failure in failures)

    def test_missing_wall_metric_flagged(self):
        fresh = sweep_payload()
        del fresh["wall_s"]
        with pytest.raises(Regression, match="missing"):
            compare(sweep_payload(), fresh)


class TestCompareVcache:
    def test_identity_passes(self):
        assert compare(vcache_payload(), vcache_payload()) == []

    def test_qps_within_tolerance_passes(self):
        fresh = vcache_payload()
        fresh["qps"]["rmc1/RM-SSD+cache"] = [395.0, 218.0, 149.0]  # < 2% down
        assert compare(vcache_payload(), fresh) == []

    def test_qps_regression_flagged_with_index(self):
        fresh = vcache_payload()
        fresh["qps"]["rmc1/RM-SSD+cache"] = [200.0, 220.0, 150.0]
        failures = compare(vcache_payload(), fresh)
        assert len(failures) == 1
        assert "qps.rmc1/RM-SSD+cache[0]" in failures[0]

    def test_hit_ratio_within_tolerance_passes(self):
        fresh = vcache_payload()
        fresh["hit_ratios"]["rmc1"] = [0.895, 0.595, 0.395]
        assert compare(vcache_payload(), fresh) == []

    def test_hit_ratio_regression_flagged(self):
        fresh = vcache_payload()
        fresh["hit_ratios"]["rmc1"] = [0.90, 0.40, 0.40]
        failures = compare(vcache_payload(), fresh)
        assert len(failures) == 1
        assert "hit_ratios.rmc1[1]" in failures[0]

    def test_missing_series_flagged(self):
        fresh = vcache_payload()
        del fresh["qps"]["rmc1/RecSSD"]
        failures = compare(vcache_payload(), fresh)
        assert any("rmc1/RecSSD: series is missing" in f for f in failures)

    def test_point_count_mismatch_flagged(self):
        fresh = vcache_payload()
        fresh["qps"]["rmc1/RM-SSD"] = [100.0, 100.0]
        failures = compare(vcache_payload(), fresh)
        assert any("2 points vs 3" in failure for failure in failures)

    def test_configuration_drift_is_exact(self):
        failures = compare(vcache_payload(), vcache_payload(policy="lfu"))
        assert any("policy" in failure for failure in failures)


class TestCompareAutoscale:
    def test_identity_passes(self):
        assert compare(autoscale_payload(), autoscale_payload()) == []

    def test_wall_clock_drift_is_ignored(self):
        # ... within the committed budget.
        assert compare(autoscale_payload(), autoscale_payload(wall_s=1.9)) == []

    def test_blown_wall_budget_flagged(self):
        failures = compare(autoscale_payload(), autoscale_payload(wall_s=10.0))
        assert any("budget" in failure for failure in failures)
        assert any(
            "budget" in failure for failure in self_check(autoscale_payload(wall_s=10.0))
        )

    def test_budget_drift_is_exact(self):
        failures = compare(autoscale_payload(), autoscale_payload(max_wall_s=60.0))
        assert any("max_wall_s" in failure for failure in failures)

    def test_configuration_drift_is_exact(self):
        failures = compare(autoscale_payload(), autoscale_payload(sla_ms=50.0))
        assert any("sla_ms" in failure for failure in failures)
        failures = compare(
            autoscale_payload(), autoscale_payload(max_replicas=8)
        )
        assert any("max_replicas" in failure for failure in failures)

    def test_outcome_drift_is_exact(self):
        fresh = autoscale_payload()
        fresh["autoscaled"] = dict(fresh["autoscaled"], p99_ms=34.0)
        failures = compare(autoscale_payload(), fresh)
        assert any("autoscaled" in failure for failure in failures)

    def test_bitwise_divergence_flagged(self):
        failures = compare(
            autoscale_payload(), autoscale_payload(bitwise_equal=False)
        )
        assert any("bitwise" in failure for failure in failures)

    def test_missing_metric_flagged(self):
        fresh = autoscale_payload()
        del fresh["fixed"]
        with pytest.raises(Regression, match="missing"):
            compare(autoscale_payload(), fresh)


class TestCompareAttribution:
    def test_identity_passes(self):
        assert compare(attribution_payload(), attribution_payload()) == []

    def test_wall_clock_drift_is_ignored(self):
        fresh = attribution_payload(wall_s=9.0)
        assert compare(attribution_payload(), fresh) == []

    def test_configuration_drift_is_exact(self):
        fresh = attribution_payload(loads=[0.05, 0.5, 0.9])
        failures = compare(attribution_payload(), fresh)
        assert any("loads" in failure for failure in failures)

    def test_blame_share_drift_is_exact(self):
        fresh = attribution_payload(queue_share_p99=[0.0, 0.97, 0.995])
        failures = compare(attribution_payload(), fresh)
        assert any("queue_share_p99" in failure for failure in failures)

    def test_bitwise_divergence_flagged(self):
        failures = compare(
            attribution_payload(), attribution_payload(bitwise_equal=False)
        )
        assert any("bitwise" in failure for failure in failures)

    def test_missing_metric_flagged(self):
        fresh = attribution_payload()
        del fresh["p99_ms"]
        with pytest.raises(Regression, match="missing"):
            compare(attribution_payload(), fresh)


class TestSelfCheck:
    def test_good_payloads_pass(self):
        assert self_check(fastpath_payload()) == []
        assert self_check(sweep_payload()) == []
        assert self_check(vcache_payload()) == []
        assert self_check(autoscale_payload()) == []
        assert self_check(attribution_payload()) == []

    def test_autoscale_lost_sla_flagged(self):
        bad = autoscale_payload()
        bad["autoscaled"] = dict(
            bad["autoscaled"], p99_ms=45.0, meets_sla=False
        )
        failures = self_check(bad)
        assert any("lost the SLA" in failure for failure in failures)
        assert any("exceeds the SLA" in failure for failure in failures)

    def test_autoscale_baseline_within_sla_flagged(self):
        bad = autoscale_payload()
        bad["fixed"] = dict(bad["fixed"], p99_ms=30.0, meets_sla=True)
        failures = self_check(bad)
        assert any("no longer violates" in failure for failure in failures)
        # 33.37 >= 30.0: the controller must also beat the baseline.
        assert any("no better" in failure for failure in failures)

    def test_autoscale_no_scaling_flagged(self):
        bad = autoscale_payload()
        bad["autoscaled"] = dict(
            bad["autoscaled"], scale_ups=0, scale_downs=0
        )
        failures = self_check(bad)
        assert any("scale-out" in failure for failure in failures)
        assert any("drained" in failure for failure in failures)

    def test_autoscale_loose_alerting_and_divergence_flagged(self):
        bad = autoscale_payload(
            alert_threshold_ms=50.0, bitwise_equal=False
        )
        failures = self_check(bad)
        assert any("looser" in failure for failure in failures)
        assert any("bitwise" in failure for failure in failures)

    def test_sweep_invariants_flagged(self):
        failures = self_check(
            sweep_payload(bitwise_equal=False, speedup=2.0, wall_s=200.0)
        )
        assert any("bitwise" in failure for failure in failures)
        assert any("floor" in failure for failure in failures)
        assert any("budget" in failure for failure in failures)

    def test_sweep_point_count_mismatch_flagged(self):
        failures = self_check(sweep_payload(sweep_points=4))
        assert any("sweep_points" in failure for failure in failures)

    def test_fastpath_divergence_and_empty_run_flagged(self):
        failures = self_check(
            fastpath_payload(bitwise_equal=False, vectors_read=0)
        )
        assert len(failures) == 2

    def test_rising_hit_ratio_flagged(self):
        # Colder traces cannot hit more often.
        bad = vcache_payload(hit_ratios={"rmc1": [0.40, 0.60, 0.90]})
        failures = self_check(bad)
        assert any("rises" in failure for failure in failures)

    def test_non_flat_stock_qps_flagged(self):
        bad = vcache_payload()
        bad["qps"]["rmc1/RM-SSD"] = [100.0, 150.0, 100.0]
        failures = self_check(bad)
        assert any("not flat" in failure for failure in failures)

    def test_cache_slower_than_stock_flagged(self):
        bad = vcache_payload()
        bad["qps"]["rmc1/RM-SSD+cache"] = [400.0, 220.0, 90.0]
        failures = self_check(bad)
        assert any("slower than stock" in failure for failure in failures)

    def test_non_monotone_cached_qps_flagged(self):
        bad = vcache_payload()
        bad["qps"]["rmc1/RM-SSD+cache"] = [150.0, 220.0, 400.0]
        failures = self_check(bad)
        assert any("monotone" in failure for failure in failures)

    def test_attribution_blame_never_shifting_flagged(self):
        bad = attribution_payload(
            queue_share_p99=[0.9, 0.5, 0.2],
            service_share_p99=[0.1, 0.5, 0.8],
        )
        failures = self_check(bad)
        assert any("never shifted" in failure for failure in failures)

    def test_attribution_share_partition_violations_flagged(self):
        bad = attribution_payload(
            queue_share_p99=[0.0, 0.97, 1.2],
            service_share_p99=[1.0, 0.3, 0.01],
        )
        failures = self_check(bad)
        assert any("outside [0, 1]" in failure for failure in failures)
        assert any("partition" in failure for failure in failures)

    def test_attribution_unsorted_loads_flagged(self):
        failures = self_check(attribution_payload(loads=[0.5, 0.05, 0.85]))
        assert any("increasing" in failure for failure in failures)

    def test_attribution_point_count_mismatch_flagged(self):
        failures = self_check(attribution_payload(p99_ms=[6.9, 271.5]))
        assert any("expected 3 points" in failure for failure in failures)

    def test_attribution_wrong_embedded_schema_flagged(self):
        failures = self_check(
            attribution_payload(explain={"schema": "rmssd-profile/v1"})
        )
        assert any("rmssd-explain/v1" in failure for failure in failures)


class TestMainAndCommittedBaselines:
    @staticmethod
    def dump(tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_identity_diff_exits_zero(self, tmp_path, capsys):
        base = self.dump(tmp_path, "base.json", vcache_payload())
        assert main(["--baseline", base, "--fresh", base]) == 0
        assert capsys.readouterr().out.startswith("ok")

    def test_injected_regression_exits_nonzero(self, tmp_path, capsys):
        base = self.dump(tmp_path, "base.json", vcache_payload())
        regressed = vcache_payload()
        regressed["qps"]["rmc1/RM-SSD+cache"][0] *= 0.5
        fresh = self.dump(tmp_path, "fresh.json", regressed)
        assert main(["--baseline", base, "--fresh", fresh]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_self_check_mode_exit_codes(self, tmp_path, capsys):
        good = self.dump(tmp_path, "good.json", fastpath_payload())
        bad = self.dump(
            tmp_path, "bad.json", fastpath_payload(bitwise_equal=False)
        )
        assert main(["--self-check", good]) == 0
        assert main(["--self-check", good, bad]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_regression_with_embedded_explain_is_attributed(
        self, tmp_path, capsys
    ):
        base = self.dump(tmp_path, "base.json", attribution_payload())
        regressed = attribution_payload(
            p99_ms=[6.9, 271.5, 1063.0],
            explain=embedded_explain(p99_ns=1063e6, queue_ns=1004e6),
        )
        fresh = self.dump(tmp_path, "fresh.json", regressed)
        assert main(["--baseline", base, "--fresh", fresh]) == 1
        out = capsys.readouterr().out
        assert "p99_ms" in out
        # The gate prints the regression explainer's attribution: the
        # stage (queue) and the replica carrying the queueing.
        assert "explain: p99 +363.00 ms" in out
        assert "100% queue" in out
        assert "replica 1" in out

    def test_committed_baselines_self_consistent(self):
        for name in (
            "BENCH_fastpath.json", "BENCH_sweep.json", "BENCH_vcache.json",
            "BENCH_autoscale.json", "BENCH_attribution.json",
        ):
            with open(REPO_ROOT / name) as handle:
                payload = json.load(handle)
            assert self_check(payload) == [], name
            assert compare(payload, payload) == [], name
