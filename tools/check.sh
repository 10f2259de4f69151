#!/bin/sh
# Full correctness gate: domain lint (ratchet), bytecode
# compile, differential and CLI smokes (DES-vs-fast `cmp` on every
# exported document), the bench-regression gate, sanitized tests.
# `make check` runs this script; it is the only statement of the gate.
set -e
cd "$(dirname "$0")/.."
export PYTHONPATH=src

echo "== lint (whole tree, cross-file rules, baseline ratchet) =="
PYTHONPATH=src:. python -m tools.lint src tests benchmarks tools \
    --baseline tools/lint/baseline.json

echo "== compile =="
python -m compileall -q src tools tests benchmarks

echo "== fast-path differential smoke (RMSSD_SANITIZE=1) =="
# The DES's own step order is pinned first (tests/test_des_event_order.py):
# it is the reference every fast-path differential compares against.
RMSSD_SANITIZE=1 python -m pytest -x -q tests/test_des_event_order.py \
    tests/test_fastpath_equivalence.py -k smoke

echo "== vector-cache differential smoke (RMSSD_SANITIZE=1) =="
# DES == fast with the cache on (incl. one batch overflowing a 2-4
# vector cache), the probe against its scalar model, and the
# vcache-hit-bytes mutation (a corrupted arena slot must be caught).
RMSSD_SANITIZE=1 python -m pytest -x -q tests/test_vcache_equivalence.py \
    tests/test_vcache_probe.py tests/test_vcache.py \
    -k "inert or bitwise or probe or Sanitizer"

echo "== serving-replay differential smoke (RMSSD_SANITIZE=1) =="
# Closed-form pipeline replay vs the DES: saturated/zero-stage chains,
# byte-identical profiles, one load-sweep point on both paths, and the
# max-plus chain kernel (sim/maxplus.py) at scan size against real
# Server.serve calls.
RMSSD_SANITIZE=1 python -m pytest -x -q \
    tests/test_pipeline_fast_equivalence.py tests/test_maxplus.py -k smoke

echo "== trace smoke (--trace-out) =="
python -m repro run rmc1 --backend rm-ssd \
    --requests 2 --rows 64 --no-compute \
    --trace-out /tmp/rmssd_trace_smoke.json \
    --metrics-out /tmp/rmssd_metrics_smoke.json
PYTHONPATH=src:. python -m tools.check_trace /tmp/rmssd_trace_smoke.json \
    --require request translate flash_read ev_sum bottom_mlp top_mlp \
    --metrics /tmp/rmssd_metrics_smoke.json

echo "== profile smoke (DES vs fast byte-identical; schema checks) =="
RMSSD_SANITIZE=1 python -m repro profile rmc1 --backend rm-ssd \
    --requests 2 --batch 1 --rows 64 \
    --profile-out /tmp/rmssd_profile_smoke.json \
    --trace-out /tmp/rmssd_profile_trace_smoke.json > /dev/null
RMSSD_SANITIZE=1 python -m repro profile rmc1 --backend rm-ssd \
    --requests 2 --batch 1 --rows 64 --no-fastpath \
    --profile-out /tmp/rmssd_profile_smoke_des.json > /dev/null
cmp /tmp/rmssd_profile_smoke.json /tmp/rmssd_profile_smoke_des.json
PYTHONPATH=src:. python -m tools.check_trace \
    /tmp/rmssd_profile_trace_smoke.json \
    --profile /tmp/rmssd_profile_smoke.json

echo "== report smoke (timeseries DES vs fast byte-identical) =="
RMSSD_SANITIZE=1 python -m repro report rmc1 \
    --queries 120 --rows 64 --window-ms 2.0 \
    --timeseries-out /tmp/rmssd_timeseries_smoke.json \
    --metrics-out /tmp/rmssd_report_metrics_smoke.json > /dev/null
RMSSD_SANITIZE=1 python -m repro report rmc1 \
    --queries 120 --rows 64 --window-ms 2.0 --no-fastpath \
    --timeseries-out /tmp/rmssd_timeseries_smoke_des.json > /dev/null
cmp /tmp/rmssd_timeseries_smoke.json /tmp/rmssd_timeseries_smoke_des.json
PYTHONPATH=src:. python -m tools.check_trace \
    --timeseries /tmp/rmssd_timeseries_smoke.json \
    --metrics /tmp/rmssd_report_metrics_smoke.json

echo "== explain smoke (critical-path DES vs fast byte-identical) =="
# Per-request critical-path attribution: the DES and closed-form
# replay must export byte-identical rmssd-explain/v1 documents, on a
# single device and across a load-balanced cluster; the device
# document is validated and cross-checked against the Chrome trace of
# the same run.
RMSSD_SANITIZE=1 python -m repro explain rmc1 \
    --queries 120 --rows 64 \
    --explain-out /tmp/rmssd_explain_smoke.json \
    --trace-out /tmp/rmssd_explain_trace_smoke.json > /dev/null
RMSSD_SANITIZE=1 python -m repro explain rmc1 \
    --queries 120 --rows 64 --no-fastpath \
    --explain-out /tmp/rmssd_explain_smoke_des.json > /dev/null
cmp /tmp/rmssd_explain_smoke.json /tmp/rmssd_explain_smoke_des.json
PYTHONPATH=src:. python -m tools.check_trace \
    /tmp/rmssd_explain_trace_smoke.json \
    --explain /tmp/rmssd_explain_smoke.json
RMSSD_SANITIZE=1 python -m repro explain rmc2 --cluster \
    --replicas 2 --balancer jsq --rows 64 --duration-ms 100 \
    --explain-out /tmp/rmssd_explain_cluster_smoke.json > /dev/null
RMSSD_SANITIZE=1 python -m repro explain rmc2 --cluster \
    --replicas 2 --balancer jsq --rows 64 --duration-ms 100 --no-fastpath \
    --explain-out /tmp/rmssd_explain_cluster_smoke_des.json > /dev/null
cmp /tmp/rmssd_explain_cluster_smoke.json \
    /tmp/rmssd_explain_cluster_smoke_des.json
PYTHONPATH=src:. python -m tools.check_trace \
    --explain /tmp/rmssd_explain_cluster_smoke.json

echo "== cluster autoscale smoke (DES vs fast byte-identical; scale-up) =="
# Flash-crowd trace against a one-replica fleet with the burn-rate
# autoscaler: the controller must scale out at least once, and the
# DES and closed-form replay must export byte-identical timeseries
# documents, scaling-event log included.
RMSSD_SANITIZE=1 python -m repro sla rmc1 --cluster --autoscale \
    --replicas 1 --balancer jsq --rows 64 --duration-ms 100 \
    --window-ms 2.0 --sla-ms 0.5 \
    --timeseries-out /tmp/rmssd_autoscale_smoke.json > /dev/null
RMSSD_SANITIZE=1 python -m repro sla rmc1 --cluster --autoscale \
    --replicas 1 --balancer jsq --rows 64 --duration-ms 100 \
    --window-ms 2.0 --sla-ms 0.5 --no-fastpath \
    --timeseries-out /tmp/rmssd_autoscale_smoke_des.json > /dev/null
cmp /tmp/rmssd_autoscale_smoke.json /tmp/rmssd_autoscale_smoke_des.json
python -c "import json; \
events = json.load(open('/tmp/rmssd_autoscale_smoke.json'))['cluster']['scaling_events']; \
ups = sum(1 for e in events if e['action'] == 'scale-up'); \
assert ups >= 1, 'autoscaler never scaled up'; \
print('ok   %d scale-up(s), timeseries byte-identical' % ups)"
# The autoscaler's alert stream is an incremental fold over closed
# windows: it must equal the full rescan (tests/slo_oracle.py) at every
# epoch, trip its causality check on a stale observation, and never
# see a hostile arrival instant (NaN / inf / negative / unsorted are
# refused at the boundary, before any controller state changes).
RMSSD_SANITIZE=1 python -m pytest -x -q tests/test_slo_fold.py \
    tests/test_cluster_serving.py tests/test_arrivals.py \
    -k "smoke or stale or hostile"

echo "== bench-regression gate (tools/bench_compare.py) =="
# Committed baselines must satisfy their own invariants and pass an
# identity diff; an injected synthetic regression must be flagged.
PYTHONPATH=src:. python -m tools.bench_compare \
    --self-check BENCH_fastpath.json BENCH_sweep.json BENCH_vcache.json \
    BENCH_autoscale.json BENCH_attribution.json
PYTHONPATH=src:. python -m tools.bench_compare \
    --baseline BENCH_fastpath.json --fresh BENCH_fastpath.json
PYTHONPATH=src:. python -m tools.bench_compare \
    --baseline BENCH_sweep.json --fresh BENCH_sweep.json
PYTHONPATH=src:. python -m tools.bench_compare \
    --baseline BENCH_vcache.json --fresh BENCH_vcache.json
PYTHONPATH=src:. python -m tools.bench_compare \
    --baseline BENCH_autoscale.json --fresh BENCH_autoscale.json
PYTHONPATH=src:. python -m tools.bench_compare \
    --baseline BENCH_attribution.json --fresh BENCH_attribution.json
python -c "import json; p = json.load(open('BENCH_vcache.json')); \
p['qps']['rmc1/RM-SSD+cache'][0] *= 0.5; \
json.dump(p, open('/tmp/rmssd_bench_regressed.json', 'w'))"
if PYTHONPATH=src:. python -m tools.bench_compare \
    --baseline BENCH_vcache.json \
    --fresh /tmp/rmssd_bench_regressed.json > /dev/null; then
    echo "bench_compare missed an injected regression" >&2
    exit 1
else
    echo "ok   injected regression flagged"
fi
# A controller that loses the SLA it is benchmarked on must be
# flagged, even if every config key still matches.
python -c "import json; p = json.load(open('BENCH_autoscale.json')); \
p['autoscaled']['meets_sla'] = False; \
p['autoscaled']['p99_ms'] = p['sla_ms'] * 2; \
json.dump(p, open('/tmp/rmssd_bench_autoscale_bad.json', 'w'))"
if PYTHONPATH=src:. python -m tools.bench_compare \
    --baseline BENCH_autoscale.json \
    --fresh /tmp/rmssd_bench_autoscale_bad.json > /dev/null; then
    echo "bench_compare missed an injected SLA loss" >&2
    exit 1
else
    echo "ok   injected autoscaler SLA loss flagged"
fi
# A tail-blame regression must be flagged *and* diagnosed: on top of
# the exact-metric failure, the gate prints the cross-run regression
# explainer's attribution lines from the payloads' embedded
# rmssd-explain/v1 documents (which stage, which replica moved p99).
python -c "import json; p = json.load(open('BENCH_attribution.json')); \
p['p99_ms'][-1] *= 1.5; \
q = [e for e in p['explain']['quantiles'] if e['q'] == p['quantile']][0]; \
q['latency_ns'] *= 1.5; \
extra = q['tail']['mean_ns']['queue_ns'] * 0.8; \
q['tail']['mean_ns']['queue_ns'] += extra; \
q['tail']['mean_ns']['latency_ns'] += extra; \
json.dump(p, open('/tmp/rmssd_bench_attr_bad.json', 'w'))"
if PYTHONPATH=src:. python -m tools.bench_compare \
    --baseline BENCH_attribution.json \
    --fresh /tmp/rmssd_bench_attr_bad.json > /tmp/rmssd_bench_attr_out.txt; then
    echo "bench_compare missed an injected tail-blame regression" >&2
    exit 1
fi
if ! grep -q "explain: p99 .*queue" /tmp/rmssd_bench_attr_out.txt; then
    echo "bench_compare failed without the explain diagnostic" >&2
    exit 1
fi
echo "ok   injected tail-blame regression flagged and attributed"
# The wall-clock budgets must also have teeth: a run that doubles a
# committed budget (the sweep bench's figure regeneration, the
# autoscale bench's fleet runs) fails the gate.
for bench in BENCH_sweep.json BENCH_autoscale.json; do
    python -c "import json, sys; p = json.load(open(sys.argv[1])); \
p['wall_s'] = p['max_wall_s'] * 2; \
json.dump(p, open('/tmp/rmssd_bench_slow.json', 'w'))" "$bench"
    if PYTHONPATH=src:. python -m tools.bench_compare \
        --baseline "$bench" \
        --fresh /tmp/rmssd_bench_slow.json > /dev/null; then
        echo "bench_compare missed an injected wall-clock blowout ($bench)" >&2
        exit 1
    else
        echo "ok   injected wall-clock blowout flagged ($bench)"
    fi
done

echo "== tests (RMSSD_SANITIZE=1) =="
RMSSD_SANITIZE=1 python -m pytest -x -q
