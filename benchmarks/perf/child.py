"""One workload in one fresh interpreter: set up, warm up, time, check.

``run.py`` starts this file as a child process with a scrubbed
environment and reads the JSON object it prints last.  Against the
program the child is a closed loop with one client: the next op is
issued when the previous one has returned and been checked.

Only the call into the program (``workload.run_op``) is timed; input
generation, the correctness oracle and the digest run between ops,
outside the clock.  ``--seconds`` budgets the *timed* host seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from typing import Dict, List

from benchmarks.perf import spec, trace

#: A run that fails this many ops stops early instead of looping on a
#: broken program for the whole budget.
MAX_FAILED_OPS = 10


def calibrate() -> float:
    """Host seconds of a fixed NumPy + pure-Python loop.

    Printed with every traced result, so drift of the box between two
    sets of runs is visible next to the numbers it would distort.
    """
    import numpy as np

    start = time.perf_counter()
    values = np.arange(200_000, dtype=np.float64)
    for _ in range(20):
        values = np.sqrt(values * 1.0001 + 1.0)
    total = 0
    for number in range(200_000):
        total += number * number % 7
    return time.perf_counter() - start


def traced_slots() -> List[bool]:
    """Which ops of a traced run are traced: half of them.

    Traced and untraced ops share one device, so tracing overhead is a
    within-run ratio free of drift and untraced ops keep following
    traced ones.  Each block of four holds two of each kind in an
    order drawn from a fixed generator: strict alternation would alias
    with a cost that recurs every second, third or fourth op (every
    fourth 32-sample RMC2 op pays the page faults of ``peek_vectors``'
    scratch arrays), putting all the slow ops on one side.  The
    pattern of 256 repeats.
    """
    order = random.Random(20220402)
    slots: List[bool] = []
    for _ in range(64):
        block = [True, True, False, False]
        order.shuffle(block)
        slots.extend(block)
    return slots


def layer_metrics(workload, recorder, lookups, totals, host_s, calib_s) -> Dict[str, float]:
    """Every per-layer metric of the traced run, zero where the
    workload never reaches the layer."""
    traced, untraced = host_s[True], host_s[False]
    ops = max(1, len(traced))
    rows = recorder.ledger()
    extra = recorder.ledger(extra=True)
    work = totals[True]
    metrics = {metric.name: 0.0 for metric in spec.PER_LAYER}

    def row(name: str, source=rows) -> Dict[str, float]:
        return source.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})

    def per(value: float, count: float, scale: float) -> float:
        return value / count * scale if count else 0.0

    for layer in spec.LAYERS + ("harness.op",):
        metrics[f"{layer}.self_ms"] = row(layer)["self_s"] / ops * 1e3
    for layer in spec.FLASH_LAYERS:
        metrics[f"{layer}.ns_per_vector"] = per(
            row(layer)["self_s"], work["flash_reads"], 1e9
        )
    pool = "embedding.pooling.segment_pool"
    if row(pool)["calls"]:
        metrics[f"{pool}.ns_per_vector"] = per(row(pool)["self_s"], work["vectors"], 1e9)
    lookup = "core.lookup_engine.lookup_batch"
    paths = [path for path, _ in lookups]
    metrics[f"{lookup}.path_fast"] = paths.count("fast")
    metrics[f"{lookup}.path_des"] = paths.count("des")
    if lookups:
        metrics[f"{lookup}.sim_err_vs_eq1_pct"] = workload.eq1_error_pct(lookups[0][1])
        if "fast" not in paths:
            metrics["sim.engine.host_us_per_read"] = per(
                row(lookup)["busy_s"], work["flash_reads"], 1e6
            )
    metrics["core.mlp_engine.forward_batch.ns_per_inference"] = per(
        row("core.mlp_engine.forward_batch")["self_s"], work["inferences"], 1e9
    )
    metrics["core.pipeline_fast.replay_serving.ns_per_batch"] = per(
        row("core.pipeline_fast.replay_serving")["self_s"], work["batches"], 1e9
    )
    metrics["host.serving.sla_search.busy_ms"] = (
        row("host.serving.sla_search", extra)["busy_s"] * 1e3
    )
    serve = "host.cluster_serving.serve_trace"
    if row(serve)["calls"]:
        metrics[f"{serve}.us_per_query"] = per(
            row(serve)["busy_s"], work["inferences"], 1e6
        )
        metrics[f"{serve}.us_per_query_4x"] = per(
            row(serve, extra)["busy_s"], workload.probe_queries, 1e6
        )
    for entry in ("host.autoscale.evaluate", "host.autoscale.causal_alerts"):
        metrics[f"{entry}.calls"] = row(entry)["calls"] / ops
    if untraced:
        metrics["host_vectors_per_s"] = (
            totals[False]["vectors"] / len(untraced) / statistics.median(untraced)
        )
    if len(traced) > 1 and len(untraced) > 1:
        # Lower quartiles: with few ops and a cost that recurs every
        # few ops, the medians of the two halves sit on either mode.
        metrics["harness.trace_overhead_pct"] = (
            statistics.quantiles(traced, n=4)[0]
            / statistics.quantiles(untraced, n=4)[0]
            - 1.0
        ) * 100.0
    metrics["harness.calib_ms"] = calib_s * 1e3
    metrics["harness.spans"] = (
        sum(1 for span in recorder.spans if span[4] >= 0) / ops
    )
    metrics.update(workload.counts)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() of the parent just before the spawn")
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    # numpy + repro: the import cost every command of the repo pays.
    from benchmarks.perf import workloads

    phases: Dict[str, float] = {name: 0.0 for name in spec.SETUP_PHASES}
    phases["setup.import_s"] = time.time() - args.spawned_at
    calib_s = calibrate()

    workload = workloads.make_workload(args.workload, tiny=args.tiny)
    workload.build(args.seed, phases)
    begin = time.perf_counter()
    for index in range(-workload.warmup_ops, 0):
        workload.run_op(workload.make_op(index))
    phases["setup.warmup_s"] = time.perf_counter() - begin
    setup_s = time.time() - args.spawned_at

    tracing = bool(args.trace)
    recorder = trace.SpanRecorder()
    #: (path, LookupResult of the first only) per traced lookup.
    lookups: list = []

    def saw_lookup(result) -> None:
        lookups.append((result.path, result if not lookups else None))

    hooks = {"core.lookup_engine.lookup_batch": saw_lookup}
    for owner, attribute, name in workloads.layer_targets():
        recorder.wrap(owner, attribute, name, hooks.get(name))

    slots = traced_slots()
    hasher = hashlib.sha256()
    #: Host seconds per op, and the work done, split by traced or not.
    host_s: Dict[bool, List[float]] = {False: [], True: []}
    totals = {
        flag: dict.fromkeys(workloads.Work._fields, 0) for flag in (False, True)
    }
    attempted = failed = 0
    timed_s = 0.0
    while failed < MAX_FAILED_OPS and (
        timed_s < args.seconds
        or attempted < workload.min_ops
        or (tracing and not host_s[True])
    ):
        index = attempted
        attempted += 1
        traced = tracing and slots[index % len(slots)]
        op = workload.make_op(index)
        root_index = len(recorder.spans)
        start = time.perf_counter()
        try:
            if traced:
                with recorder.traced_op(index):
                    result = workload.run_op(op)
            else:
                result = workload.run_op(op)
        except Exception:
            timed_s += time.perf_counter() - start
            failed += 1
            traceback.print_exc()
            continue
        elapsed_s = time.perf_counter() - start
        timed_s += elapsed_s
        if traced:
            # The root span excludes installing and removing wrappers.
            _, began, ended, _, _ = recorder.spans[root_index]
            elapsed_s = ended - began
        try:
            if index < workload.min_ops:
                workload.digest_op(hasher, op, result)
            passed = workload.check_op(index, op, result)
        except Exception:
            passed = False
            traceback.print_exc()
        if not passed:
            failed += 1
            continue
        for field, value in workload.work(op, result)._asdict().items():
            totals[traced][field] += value
        host_s[traced].append(elapsed_s)

    checks: Dict[str, bool] = {}
    try:
        checks.update(workload.once_checks())
        if tracing:
            recorder.install()
        try:
            workload.extras(tracing)
        finally:
            recorder.remove()
    except Exception:
        checks["once_checks_ran"] = False
        traceback.print_exc()
    checks["wrappers_restored"] = recorder.restored()
    attempted += len(checks)
    failed += sum(1 for ok in checks.values() if not ok)

    document = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "setup_s": setup_s,
        "phases": phases,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "sim": {name: float(workload.sim.get(name, 0.0)) for name in spec.SIM_METRICS},
        "sim_digest": hasher.hexdigest(),
        "ops": {"untraced": len(host_s[False]), "traced": len(host_s[True])},
        "threads": {key: os.environ.get(key) for key in spec.THREAD_VARIABLES},
    }
    if tracing and host_s[True]:
        metrics = layer_metrics(workload, recorder, lookups, totals, host_s, calib_s)
        metrics.update(phases)
        metrics.update(document["sim"])
        document["metrics"] = metrics
        document["ledger"] = recorder.ledger()
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, f"trace_{args.workload}.json"), "w") as handle:
            json.dump(recorder.as_document(), handle)
    elif not tracing:
        # The parent pools these over the processes of the run.
        document["host_op_s"] = host_s[False]
        document["inferences"] = totals[False]["inferences"]
        document["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
