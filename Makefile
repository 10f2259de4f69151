PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint lint-strict compile test bench bench-fast bench-sweep \
	bench-vcache bench-autoscale bench-attribution bench-check

# The full correctness gate; tools/check.sh is its one statement
# (lint ratchet, compile, differential and CLI smokes with
# their DES-vs-fast cmp gates, the bench-regression gate, tier-1).
check:
	sh tools/check.sh

lint:
	$(PYTHON) -m tools.lint src tests benchmarks

# Whole-tree lint under the ratchet (tools included).
lint-strict:
	$(PYTHON) -m tools.lint src tests benchmarks tools \
		--baseline tools/lint/baseline.json

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
