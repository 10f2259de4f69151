PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint lint-strict compile test bench bench-fast bench-sweep \
	bench-vcache bench-autoscale bench-attribution trace-smoke \
	profile-smoke report-smoke explain-smoke bench-check

check: lint compile test trace-smoke profile-smoke report-smoke explain-smoke

lint:
	$(PYTHON) -m tools.lint src tests benchmarks

# Whole-tree lint under the ratchet (tools included) plus the R9
# injected-drift canary (lookup) proving the parity analysis is live.
lint-strict:
	$(PYTHON) -m tools.lint src tests benchmarks tools \
		--baseline tools/lint/baseline.json
	$(PYTHON) -m tools.lint.canary

compile:
	$(PYTHON) -m compileall -q src tools tests benchmarks

test:
	RMSSD_SANITIZE=1 $(PYTHON) -m pytest -x -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

bench-fast:
	$(PYTHON) -m pytest benchmarks/bench_fastpath_speedup.py -q -s

# Serving-sweep replay speedup + Fig. 12/13 regeneration through the
# parallel runner, against the committed wall-clock budget.
bench-sweep:
	$(PYTHON) -m pytest benchmarks/bench_sweep_speedup.py -q -s

bench-vcache:
	$(PYTHON) -m pytest benchmarks/bench_vcache_locality.py -q -s

# Flash-crowd autoscaling: the burn-rate controller must meet the p99
# SLA a fixed one-replica fleet violates, on both pipeline paths.
bench-autoscale:
	$(PYTHON) -m pytest benchmarks/bench_ext_autoscale.py -q -s

# Tail-blame attribution across saturation: the p99 tail's blame must
# shift from service to queueing as the flash crowd saturates the
# fleet, with byte-identical explain documents on both paths.
bench-attribution:
	$(PYTHON) -m pytest benchmarks/bench_ext_tail_attribution.py -q -s

# Tiny traced RMC1 run; validates the exported trace/metrics JSON
# (balanced B/E, monotonic timestamps, required spans, schema).
trace-smoke:
	$(PYTHON) -m repro run rmc1 --backend rm-ssd \
		--requests 2 --rows 64 --no-compute \
		--trace-out /tmp/rmssd_trace_smoke.json \
		--metrics-out /tmp/rmssd_metrics_smoke.json
	PYTHONPATH=src:. $(PYTHON) -m tools.check_trace /tmp/rmssd_trace_smoke.json \
		--require request translate flash_read ev_sum bottom_mlp top_mlp \
		--metrics /tmp/rmssd_metrics_smoke.json

# Tiny profiled RMC1 run; validates the utilization/bottleneck profile
# (schema, utilization in [0,1], busy <= elapsed, trace overlap).
profile-smoke:
	RMSSD_SANITIZE=1 $(PYTHON) -m repro profile rmc1 --backend rm-ssd \
		--requests 2 --batch 1 --rows 64 \
		--profile-out /tmp/rmssd_profile_smoke.json \
		--trace-out /tmp/rmssd_profile_trace_smoke.json
	PYTHONPATH=src:. $(PYTHON) -m tools.check_trace \
		/tmp/rmssd_profile_trace_smoke.json \
		--profile /tmp/rmssd_profile_smoke.json

# Tiny attributed RMC1 run on both pipeline paths; the DES and
# closed-form replay must export byte-identical rmssd-explain/v1
# documents (cmp), validated and cross-checked against the Chrome
# trace of the same run.
explain-smoke:
	RMSSD_SANITIZE=1 $(PYTHON) -m repro explain rmc1 \
		--queries 120 --rows 64 \
		--explain-out /tmp/rmssd_explain_smoke_fast.json \
		--trace-out /tmp/rmssd_explain_trace_smoke.json > /dev/null
	RMSSD_SANITIZE=1 $(PYTHON) -m repro explain rmc1 \
		--queries 120 --rows 64 --no-fastpath \
		--explain-out /tmp/rmssd_explain_smoke_des.json > /dev/null
	cmp /tmp/rmssd_explain_smoke_fast.json /tmp/rmssd_explain_smoke_des.json
	PYTHONPATH=src:. $(PYTHON) -m tools.check_trace \
		/tmp/rmssd_explain_trace_smoke.json \
		--explain /tmp/rmssd_explain_smoke_fast.json

# Tiny serving-report run; validates the windowed timeseries export
# (schema, monotone windows, conservation, SLO section) and
# cross-checks it against the metrics export of the same run.
report-smoke:
	RMSSD_SANITIZE=1 $(PYTHON) -m repro report rmc1 \
		--queries 120 --rows 64 --window-ms 2.0 \
		--timeseries-out /tmp/rmssd_timeseries_smoke.json \
		--metrics-out /tmp/rmssd_report_metrics_smoke.json > /dev/null
	PYTHONPATH=src:. $(PYTHON) -m tools.check_trace \
		--timeseries /tmp/rmssd_timeseries_smoke.json \
		--metrics /tmp/rmssd_report_metrics_smoke.json

# Regenerate the benchmarks and diff them against the committed
# BENCH_*.json baselines with per-metric tolerances (see
# tools/bench_compare.py).  Slow: re-runs the full DES speedup bench.
# To refresh baselines instead, run bench-fast/bench-vcache and commit
# the rewritten BENCH_*.json (see docs/performance.md).
bench-check: bench-fast bench-sweep bench-vcache bench-autoscale \
		bench-attribution
	git show HEAD:BENCH_fastpath.json > /tmp/rmssd_bench_fastpath_base.json
	git show HEAD:BENCH_sweep.json > /tmp/rmssd_bench_sweep_base.json
	git show HEAD:BENCH_vcache.json > /tmp/rmssd_bench_vcache_base.json
	git show HEAD:BENCH_autoscale.json > /tmp/rmssd_bench_autoscale_base.json
	git show HEAD:BENCH_attribution.json > /tmp/rmssd_bench_attribution_base.json
	PYTHONPATH=src:. $(PYTHON) -m tools.bench_compare \
		--baseline /tmp/rmssd_bench_fastpath_base.json \
		--fresh BENCH_fastpath.json
	PYTHONPATH=src:. $(PYTHON) -m tools.bench_compare \
		--baseline /tmp/rmssd_bench_sweep_base.json \
		--fresh BENCH_sweep.json
	PYTHONPATH=src:. $(PYTHON) -m tools.bench_compare \
		--baseline /tmp/rmssd_bench_vcache_base.json \
		--fresh BENCH_vcache.json
	PYTHONPATH=src:. $(PYTHON) -m tools.bench_compare \
		--baseline /tmp/rmssd_bench_autoscale_base.json \
		--fresh BENCH_autoscale.json
	PYTHONPATH=src:. $(PYTHON) -m tools.bench_compare \
		--baseline /tmp/rmssd_bench_attribution_base.json \
		--fresh BENCH_attribution.json
