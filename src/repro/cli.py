"""Command-line interface.

Entry point ``rmssd-repro`` (or ``python -m repro``) exposes the main
experiment flows without writing code:

* ``models`` — list the evaluated model configurations (Table III).
* ``search MODEL`` — run the kernel search and print the Table V-style
  assignment, stage times, and resource bill.
* ``run MODEL`` — serve a request stream on one backend and report
  throughput/latency/traffic.
* ``sweep MODEL`` — batch-size sweep across backends (Fig. 12-style).
* ``trace-stats`` — generate a trace and print its Fig. 4 statistics.
* ``explain MODEL`` — per-request critical-path attribution with tail
  exemplars; ``explain --diff A B`` attributes a cross-run regression.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.report import Table, format_si, stage_breakdown_table
from repro.models import MODEL_CONFIGS, build_model, get_config
from repro.workloads.inputs import RequestGenerator

BACKEND_CHOICES = (
    "ssd-s",
    "ssd-m",
    "emb-mmio",
    "emb-pagesum",
    "emb-vectorsum",
    "recssd",
    "rm-ssd",
    "rm-ssd-naive",
    "dram",
)


def _build_backend(name: str, model, config, tracer=None, metrics=None,
                   vcache=None):
    from repro.baselines import (
        DRAMBackend,
        EMBMMIOBackend,
        EMBPageSumBackend,
        EMBVectorSumBackend,
        NaiveSSDBackend,
        RMSSDBackend,
        RecSSDBackend,
    )

    if name == "ssd-s":
        return NaiveSSDBackend(model, 0.25)
    if name == "ssd-m":
        return NaiveSSDBackend(model, 0.5)
    if name == "emb-mmio":
        return EMBMMIOBackend(model)
    if name == "emb-pagesum":
        return EMBPageSumBackend(model)
    if name == "emb-vectorsum":
        return EMBVectorSumBackend(model)
    if name == "recssd":
        return RecSSDBackend(model)
    if name == "rm-ssd":
        return RMSSDBackend(
            model, config.lookups_per_table, use_des=False,
            tracer=tracer, metrics=metrics, vcache=vcache,
        )
    if name == "rm-ssd-naive":
        return RMSSDBackend(
            model, config.lookups_per_table, mlp_design="naive", use_des=False,
            tracer=tracer, metrics=metrics, vcache=vcache,
        )
    if name == "dram":
        return DRAMBackend(model)
    raise ValueError(f"unknown backend {name!r}")


def cmd_models(_args) -> int:
    table = Table(
        "Evaluated models (Table III)",
        ["key", "name", "bottom MLP", "top MLP", "dim", "tables", "lookups"],
    )
    for key, config in MODEL_CONFIGS.items():
        table.add_row(
            key,
            config.name,
            "-".join(map(str, config.bottom_widths)) or "(none)",
            "-".join(map(str, config.top_widths)),
            config.dim,
            config.num_tables,
            config.lookups_per_table,
        )
    table.print()
    return 0


def cmd_search(args) -> int:
    from repro.core.lookup_engine import flash_read_cycles
    from repro.fpga.decompose import decompose_model
    from repro.fpga.search import kernel_search
    from repro.fpga.specs import XC7A200T, XCVU9P
    from repro.ssd.geometry import SSDGeometry
    from repro.ssd.timing import SSDTimingModel

    config = get_config(args.model)
    model = build_model(config, rows_per_table=64)
    decomposed = decompose_model(model, config.lookups_per_table)
    flash = flash_read_cycles(
        decomposed.vectors_per_inference,
        SSDGeometry(),
        SSDTimingModel(),
        config.ev_size,
    )
    result = kernel_search(
        decomposed, flash, bram_budget_tiles=args.bram_budget
    )
    print(result.summary())
    table = Table(
        f"{config.name}: kernel assignment",
        ["layer", "shape", "placement", "kernel"],
    )
    for layer in result.model.all_layers():
        table.add_row(
            layer.name, f"{layer.rows}x{layer.cols}", layer.placement,
            str(layer.kernel),
        )
    table.print()
    times = result.times
    print(f"stage times: Temb'={times.temb} Tbot'={times.tbot} "
          f"Ttop'={times.ttop} cycles; "
          f"throughput {times.throughput_qps(200e6):.0f} QPS")
    usage = result.resources
    print(f"resources: {usage.lut} LUT / {usage.ff} FF / "
          f"{usage.bram:.0f} BRAM / {usage.dsp} DSP")
    for part in (XCVU9P, XC7A200T):
        print(f"  {part.name}: {'fits' if part.fits(usage) else 'DOES NOT FIT'}")
    return 0


def cmd_run(args) -> int:
    config = get_config(args.model)
    model = build_model(config, rows_per_table=args.rows)
    tracer = metrics = None
    if args.trace_out:
        from repro.obs import Tracer

        tracer = Tracer()
    if args.metrics_out or args.timeseries_out or args.prom_out:
        from repro.obs import MetricsRegistry, names

        metrics = MetricsRegistry(
            window_ns=args.window_ms * 1e6 if args.timeseries_out else None
        )
    if (tracer or metrics) and args.backend not in ("rm-ssd", "rm-ssd-naive"):
        print(f"note: backend {args.backend!r} is not instrumented; "
              "trace/metrics cover the I/O statistics only")
    vcache = None
    if args.vcache_vectors > 0:
        if args.backend in ("rm-ssd", "rm-ssd-naive"):
            from repro.ssd.vcache import VectorCache

            vcache = VectorCache(
                args.vcache_vectors, policy=args.vcache_policy
            )
        else:
            print(f"note: backend {args.backend!r} has no controller DRAM; "
                  "--vcache-vectors ignored")
    backend = _build_backend(
        args.backend, model, config, tracer=tracer, metrics=metrics,
        vcache=vcache,
    )
    generator = RequestGenerator(
        config, args.rows, hot_access_fraction=args.locality, seed=args.seed
    )
    requests = generator.requests(args.requests, batch_size=args.batch)
    result = backend.run(requests, compute=not args.no_compute)
    print(f"system:         {result.system}")
    print(f"inferences:     {result.inferences} "
          f"({result.requests} requests x batch {args.batch})")
    print(f"simulated time: {result.total_ns / 1e6:.3f} ms")
    print(f"throughput:     {result.qps:.0f} QPS")
    print(f"per-request:    {result.latency_per_request_ns / 1e6:.3f} ms")
    if args.backend in ("rm-ssd", "rm-ssd-naive"):
        counts = backend.device.lookup_engine.path_counts
        print("lookup path:    " + ", ".join(
            f"{path} x{count}" + (f" ({reason})" if reason else "")
            for (path, reason), count in counts.items()
        ))
    if result.breakdown:
        stage_breakdown_table(
            f"{result.system}: stage breakdown (Fig. 11)",
            result.breakdown,
            per_inference=result.inferences,
        ).print()
    print(f"host traffic:   read {format_si(result.stats.host_read_bytes)}B / "
          f"write {format_si(result.stats.host_write_bytes)}B")
    if result.stats.read_amplification:
        print(f"read amp:       {result.stats.read_amplification:.1f}x")
    if vcache is not None:
        print(f"vcache:         {vcache.policy} x{vcache.capacity_vectors} "
              f"vectors; hit ratio {vcache.hit_ratio:.1%} "
              f"({vcache.hits} hits / {vcache.misses} misses / "
              f"{vcache.evictions} evictions)")
    if tracer is not None:
        path = tracer.export_chrome(args.trace_out)
        print(f"trace:          {path} ({len(tracer)} spans; "
              "open in ui.perfetto.dev)")
    if metrics is not None:
        metrics.gauge(names.METRIC_RUN_QPS).set(result.qps)
        metrics.counter(names.METRIC_RUN_INFERENCES).inc(result.inferences)
        metrics.absorb_io(result.stats)
        if args.metrics_out:
            path = metrics.export_json(args.metrics_out)
            print(f"metrics:        {path}")
        if args.timeseries_out:
            path = metrics.export_timeseries(args.timeseries_out)
            print(f"timeseries:     {path} (window {args.window_ms} ms)")
        if args.prom_out:
            path = metrics.export_prometheus(args.prom_out)
            print(f"prometheus:     {path}")
    return 0


def cmd_profile(args) -> int:
    """Profiled DES run: per-resource utilization + bottleneck report."""
    from repro.baselines import RMSSDBackend
    from repro.obs import Profiler

    config = get_config(args.model)
    model = build_model(config, rows_per_table=args.rows)
    profiler = Profiler()
    tracer = None
    if args.trace_out:
        from repro.obs import Tracer

        tracer = Tracer()
    vcache = None
    if args.vcache_vectors > 0:
        from repro.ssd.vcache import VectorCache

        vcache = VectorCache(args.vcache_vectors, policy=args.vcache_policy)
    backend = RMSSDBackend(
        model,
        config.lookups_per_table,
        mlp_design="naive" if args.backend == "rm-ssd-naive" else "optimized",
        use_des=True,
        fastpath=False if args.no_fastpath else None,
        tracer=tracer,
        vcache=vcache,
        profiler=profiler,
    )
    generator = RequestGenerator(
        config, args.rows, hot_access_fraction=args.locality, seed=args.seed
    )
    requests = generator.requests(args.requests, batch_size=args.batch)
    result = backend.run(requests, compute=False)
    profiler.set_meta(
        model=args.model,
        backend=args.backend,
        requests=args.requests,
        batch=args.batch,
        rows=args.rows,
        locality=args.locality,
        seed=args.seed,
    )

    bottleneck = profiler.bottleneck_report()
    stage_labels = {
        "emb": "embedding (flash)",
        "bot": "bottom MLP",
        "top": "top MLP",
        "io": "host I/O",
    }
    print(f"system:         {result.system}")
    print(f"inferences:     {result.inferences} over {bottleneck['batches']} "
          "device batches")
    print(f"bottleneck:     {stage_labels[bottleneck['bottleneck_stage']]}")
    invariant = bottleneck["invariant"]
    status = "holds" if invariant["holds"] else "VIOLATED"
    print(f"invariant:      {invariant['name']} {status}")
    for warning in bottleneck["warnings"]:
        print(f"warning:        {warning['type']}: "
              f"{stage_labels[warning['stage']]} runs "
              f"{warning['ratio']:.2f}x the embedding stage")
    means = bottleneck["stage_means_ns"]
    slack = bottleneck["slack_ns"]
    table = Table(
        "Stage attribution (mean per device batch)",
        ["stage", "mean ms", "slack ms"],
    )
    for key in ("emb", "bot", "top", "io"):
        table.add_row(
            stage_labels[key],
            f"{means[key] / 1e6:.4f}",
            f"{slack[key] / 1e6:.4f}",
        )
    table.print()

    elapsed = profiler.elapsed_ns()
    utilizations = profiler.utilizations(elapsed)
    table = Table(
        f"Busiest resources (elapsed {elapsed / 1e6:.3f} ms)",
        ["resource", "kind", "utilization"],
    )
    report = profiler.resource_report(elapsed)
    ranked = sorted(utilizations, key=lambda n: (-utilizations[n], n))
    for name in ranked[: args.top]:
        table.add_row(name, report[name]["kind"], f"{utilizations[name]:.1%}")
    table.print()
    channels = profiler.channel_report(elapsed)
    if channels:
        busiest = max(channels.values(), key=lambda c: c["utilization"])
        idlest = min(channels.values(), key=lambda c: c["utilization"])
        print(f"EV-FMC channels: {len(channels)}; utilization "
              f"{idlest['utilization']:.1%} .. {busiest['utilization']:.1%}")

    path = profiler.export_json(args.profile_out)
    print(f"profile:        {path}")
    if tracer is not None:
        path = tracer.export_chrome(args.trace_out)
        print(f"trace:          {path} ({len(tracer)} spans)")
    return 0


def cmd_sweep(args) -> int:
    config = get_config(args.model)
    model = build_model(config, rows_per_table=args.rows)
    batches = [int(b) for b in args.batches.split(",")]
    backends = [
        _build_backend(name, model, config) for name in args.backends.split(",")
    ]
    table = Table(
        f"{config.name}: QPS vs batch",
        ["system", *[str(b) for b in batches]],
    )
    generator = RequestGenerator(
        config, args.rows, hot_access_fraction=args.locality, seed=args.seed
    )
    for backend in backends:
        row = []
        for batch in batches:
            requests = generator.requests(args.requests, batch_size=batch)
            result = backend.run(requests, compute=False)
            row.append(f"{result.qps:.0f}")
        table.add_row(backend.name, *row)
    table.print()
    return 0


def cmd_selfcheck(_args) -> int:
    from repro.analysis.selfcheck import run_selfcheck

    results = run_selfcheck(verbose=True)
    return 0 if all(r.passed for r in results) else 1


def cmd_advise(args) -> int:
    from repro.analysis.advisor import advise

    advice = advise(get_config(args.model))
    print(advice.render())
    return 0


def _cluster_trace(kind: str, qps: float, duration_ns: float, seed: int):
    """Build the requested arrival trace for the cluster CLI modes."""
    from repro.workloads.arrivals import (
        diurnal_trace,
        flash_crowd_trace,
        poisson_trace,
    )

    if kind == "poisson":
        queries = max(1, int(qps * duration_ns / 1e9))
        return poisson_trace(qps, queries, seed=seed)
    if kind == "diurnal":
        return diurnal_trace(
            qps, duration_ns, period_ns=duration_ns / 2, seed=seed
        )
    return flash_crowd_trace(
        qps,
        duration_ns,
        burst_start_ns=0.3 * duration_ns,
        burst_duration_ns=0.4 * duration_ns,
        burst_factor=4.0,
        seed=seed,
    )


def _print_scaling_events(events) -> None:
    if not events:
        print("scaling events: none")
        return
    print("scaling events:")
    for event in events:
        print(
            f"  t={event.t_ns / 1e6:8.1f} ms  [{event.action}] "
            f"{event.from_replicas} -> {event.to_replicas} replicas "
            f"({event.reason}; util {event.utilization:.0%}; "
            f"bottleneck {event.bottleneck_stage} "
            f"@ replica {event.bottleneck_replica})"
        )


def _print_explain_summary(document: dict) -> None:
    """Tail-attribution digest of an ``rmssd-explain/v1`` document."""
    totals = document["totals"]
    print(f"requests:       {totals['count']} "
          f"(mean latency {totals['mean_latency_ns'] / 1e6:.2f} ms)")
    for entry in document["quantiles"]:
        blame = entry["tail"]["blame"]
        parts = " / ".join(
            f"{component[:-3]} {blame[component]:.0%}"
            for component in document["components"]
            if blame[component] > 0
        )
        print(f"p{entry['q']:g} {entry['latency_ns'] / 1e6:.2f} ms — "
              f"tail of {entry['tail']['count']}; blame: {parts or 'none'}")
        for exemplar in entry["exemplars"]:
            print(
                f"  batch {exemplar['batch']} "
                f"(replica {exemplar['replica']}, "
                f"t={exemplar['arrival_ns'] / 1e6:.2f} ms): "
                f"{exemplar['latency_ns'] / 1e6:.3f} ms = "
                f"queue {exemplar['queue_ns'] / 1e6:.3f} + "
                f"emb {exemplar['emb_ns'] / 1e6:.3f} + "
                f"bot {exemplar['bot_ns'] / 1e6:.3f} + "
                f"top {exemplar['top_ns'] / 1e6:.3f}"
            )


def _export_explain(document: dict, path: str) -> None:
    from repro.obs import export_explain_document

    out = export_explain_document(document, path)
    print(f"explain: {out} (schema {document['schema']})")


def cmd_explain(args) -> int:
    """Per-request critical-path attribution, or a cross-run diff."""
    import json

    if args.diff:
        from repro.obs.explain import diff_documents, render_diff

        with open(args.diff[0]) as handle:
            baseline = json.load(handle)
        with open(args.diff[1]) as handle:
            fresh = json.load(handle)
        print(f"regression explainer: {args.diff[0]} -> {args.diff[1]}")
        for line in render_diff(diff_documents(baseline, fresh)):
            print(f"  {line}")
        return 0
    if args.model is None:
        print("explain: a model is required unless --diff is given",
              file=sys.stderr)
        return 2
    from repro.core.lookup_engine import flash_read_cycles
    from repro.fpga.decompose import decompose_model
    from repro.fpga.search import kernel_search
    from repro.obs import CritPathCollector, build_explain_document
    from repro.ssd import fastpath
    from repro.ssd.geometry import SSDGeometry
    from repro.ssd.timing import SSDTimingModel

    config = get_config(args.model)
    model = build_model(config, rows_per_table=args.rows)
    dec = decompose_model(model, config.lookups_per_table)
    flash = flash_read_cycles(
        dec.vectors_per_inference, SSDGeometry(), SSDTimingModel(),
        config.ev_size,
    )
    result = kernel_search(dec, flash)
    collector = CritPathCollector()
    fast = False if args.no_fastpath else None
    path = "fast" if (fast is None and fastpath.enabled()) else "des"
    if args.cluster:
        from repro.host.autoscale import Autoscaler
        from repro.host.cluster_serving import ClusterServingSimulator

        replica_qps = result.times.throughput_qps(1e9 / 5.0)
        base_qps = args.qps or 0.6 * replica_qps * args.replicas
        duration_ns = args.duration_ms * 1e6
        trace = _cluster_trace(args.arrivals, base_qps, duration_ns, args.seed)
        scaler = None
        if args.autoscale:
            scaler = Autoscaler(
                sla_ns=args.sla_ms * 1e6,
                quantile=args.quantile,
                window_ns=args.window_ms * 1e6,
                min_replicas=args.min_replicas,
                max_replicas=args.max_replicas,
            )
        sim = ClusterServingSimulator(
            result.times, nbatch=result.nbatch, replicas=args.replicas,
            balancer=args.balancer, autoscaler=scaler, critpath=collector,
        )
        point = sim.serve_trace(trace, fast=fast)
        print(f"critical paths: {config.name}, {args.arrivals} arrivals "
              f"({trace.count} queries), balancer {args.balancer}, "
              f"replicas {point.initial_replicas}->{point.final_replicas}, "
              f"pipeline path: {path}")
        # Meta is path-independent on purpose: the exported document
        # must stay byte-identical between the DES and fast replays.
        meta = {
            "model": args.model, "mode": "cluster",
            "arrivals": args.arrivals, "balancer": args.balancer,
            "replicas": args.replicas, "queries": trace.count,
            "seed": args.seed,
        }
    else:
        from repro.host.serving import ServingSimulator

        tracer = None
        if args.trace_out:
            from repro.obs import Tracer

            tracer = Tracer()
        serving = ServingSimulator(
            result.times, nbatch=result.nbatch, seed=args.seed,
            critpath=collector, tracer=tracer,
        )
        qps = serving.saturation_qps * args.load
        serving.offered_load(qps, queries=args.queries, fast=fast)
        print(f"critical paths: {config.name} at {qps:.0f} QPS "
              f"({args.load:.0%} of saturation; pipeline path: {path})")
        if tracer is not None:
            out = tracer.export_chrome(args.trace_out)
            print(f"trace:          {out} ({len(tracer)} spans)")
        meta = {
            "model": args.model, "mode": "device", "load": args.load,
            "queries": args.queries, "seed": args.seed,
        }
    document = build_explain_document(
        collector.requests, top_k=args.top_k, meta=meta
    )
    _print_explain_summary(document)
    if args.explain_out:
        _export_explain(document, args.explain_out)
    return 0


def _cmd_sla_cluster(args, config, result) -> int:
    """``sla --cluster``: open-loop traffic against a replica fleet."""
    from repro.host.autoscale import Autoscaler
    from repro.host.cluster_serving import ClusterServingSimulator
    from repro.obs import MetricsRegistry, names
    from repro.ssd import fastpath

    window_ns = args.window_ms * 1e6
    sla_ns = args.sla_ms * 1e6
    fast = False if args.no_fastpath else None
    path = "fast" if (fast is None and fastpath.enabled()) else "des"
    replica_qps = result.times.throughput_qps(1e9 / 5.0)
    base_qps = args.qps or 0.6 * replica_qps * args.replicas
    duration_ns = args.duration_ms * 1e6
    trace = _cluster_trace(args.arrivals, base_qps, duration_ns, args.seed)
    print(f"cluster SLA study: {config.name}, {args.arrivals} arrivals "
          f"({trace.count} queries, {trace.mean_qps:.0f} QPS mean), "
          f"{args.replicas} replica(s) @ {replica_qps:.0f} QPS each, "
          f"balancer {args.balancer}, pipeline path: {path}")

    def run(autoscale: bool):
        scaler = None
        if autoscale:
            scaler = Autoscaler(
                sla_ns=sla_ns,
                quantile=args.quantile,
                window_ns=window_ns,
                min_replicas=args.min_replicas,
                max_replicas=args.max_replicas,
            )
        metrics = MetricsRegistry(window_ns=window_ns)
        sim = ClusterServingSimulator(
            result.times,
            nbatch=result.nbatch,
            replicas=args.replicas,
            balancer=args.balancer,
            autoscaler=scaler,
            metrics=metrics,
        )
        return sim, sim.serve_trace(trace, fast=fast)

    table = Table(
        f"p{args.quantile:g} <= {args.sla_ms} ms?",
        ["fleet", "p50 ms", "p99 ms", "achieved QPS", "replicas", "SLA"],
    )

    def add_row(label, point):
        table.add_row(
            label,
            f"{point.p50_ns / 1e6:.2f}",
            f"{point.p99_ns / 1e6:.2f}",
            f"{point.achieved_qps:.0f}",
            f"{point.initial_replicas}->{point.final_replicas}",
            "ok" if point.meets_sla(sla_ns, args.quantile) else "VIOLATED",
        )

    sim, fixed = run(autoscale=False)
    add_row("fixed", fixed)
    point = fixed
    if args.autoscale:
        sim, point = run(autoscale=True)
        add_row("autoscaled", point)
    table.print()
    _print_scaling_events(point.scale_events)
    if args.timeseries_out:
        from repro.obs.timeseries import export_document

        out = export_document(sim.timeseries_document(), args.timeseries_out)
        print(f"timeseries: {out} (window {args.window_ms} ms; "
              f"cluster section: {names.METRIC_CLUSTER_REPLICAS} gauge + "
              f"scaling events)")
    return 0


def cmd_sla(args) -> int:
    from repro.core.lookup_engine import flash_read_cycles
    from repro.fpga.decompose import decompose_model
    from repro.fpga.search import kernel_search
    from repro.host.serving import ServingSimulator
    from repro.ssd import fastpath
    from repro.ssd.geometry import SSDGeometry
    from repro.ssd.timing import SSDTimingModel

    config = get_config(args.model)
    model = build_model(config, rows_per_table=args.rows)
    dec = decompose_model(model, config.lookups_per_table)
    flash = flash_read_cycles(
        dec.vectors_per_inference, SSDGeometry(), SSDTimingModel(), config.ev_size
    )
    result = kernel_search(dec, flash)
    if args.cluster:
        return _cmd_sla_cluster(args, config, result)
    window_ns = args.window_ms * 1e6
    metrics = None
    if args.timeseries_out:
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry(window_ns=window_ns)
    serving = ServingSimulator(
        result.times, nbatch=result.nbatch, seed=args.seed,
        metrics=metrics, window_ns=window_ns,
    )
    fast = False if args.no_fastpath else None
    path = "fast" if (fast is None and fastpath.enabled()) else "des"
    print(f"saturation throughput: {serving.saturation_qps:.0f} QPS "
          f"(pipeline path: {path})")
    table = Table(
        f"{config.name}: latency vs offered load",
        ["offered QPS", "p50 ms", "p95 ms", "p99 ms"],
    )
    for point in serving.load_sweep(queries=args.queries, fast=fast):
        table.add_row(
            f"{point.offered_qps:.0f}",
            f"{point.p50_ns / 1e6:.2f}",
            f"{point.p95_ns / 1e6:.2f}",
            f"{point.p99_ns / 1e6:.2f}",
        )
    table.print()
    search = serving.sla_search(
        sla_ns=args.sla_ms * 1e6, queries=args.queries, fast=fast
    )
    print(f"max load with p99 <= {args.sla_ms} ms: {search.max_qps:.0f} QPS "
          f"({search.max_qps / serving.saturation_qps:.0%} of saturation; "
          f"{len(search.points)} probes)")
    trajectory = " -> ".join(
        f"{point.offered_qps:.0f}" for point in search.points
    )
    print(f"bisection trajectory (offered QPS): {trajectory}")
    # Worst window at the highest passing load: the run aggregate can
    # meet the SLA while one window blows through it.
    passing = [
        point for point in search.points
        if point.offered_qps <= search.max_qps and point.windows
    ]
    if passing:
        critical = max(passing, key=lambda point: point.offered_qps)
        worst = critical.worst_window(99.0)
        if worst is not None:
            print(
                f"worst window at {critical.offered_qps:.0f} QPS: "
                f"window {worst.index} "
                f"(t={worst.start_ns / 1e6:.1f} ms, {worst.count} batches) "
                f"p99 {worst.percentile(99.0) / 1e6:.2f} ms"
            )
    if metrics is not None:
        out = metrics.export_timeseries(args.timeseries_out)
        print(f"timeseries: {out} (window {args.window_ms} ms)")
    return 0


def _cmd_report_cluster(args, config, result) -> int:
    """``report --cluster``: per-window fleet dashboard with scaling log."""
    from repro.host.autoscale import Autoscaler
    from repro.host.cluster_serving import ClusterServingSimulator
    from repro.obs import MetricsRegistry, Profiler, SLOEngine, names
    from repro.obs.timeseries import export_document
    from repro.ssd import fastpath

    window_ns = args.window_ms * 1e6
    sla_ns = args.sla_ms * 1e6
    fast = False if args.no_fastpath else None
    path = "fast" if (fast is None and fastpath.enabled()) else "des"
    replica_qps = result.times.throughput_qps(1e9 / 5.0)
    base_qps = args.qps or 0.6 * replica_qps * args.replicas
    duration_ns = args.duration_ms * 1e6
    trace = _cluster_trace(args.arrivals, base_qps, duration_ns, args.seed)
    scaler = None
    if args.autoscale:
        scaler = Autoscaler(
            sla_ns=sla_ns,
            quantile=args.quantile,
            window_ns=window_ns,
            min_replicas=args.min_replicas,
            max_replicas=args.max_replicas,
        )
    metrics = MetricsRegistry(window_ns=window_ns, sketch_k=args.sketch_k)
    profiler = Profiler()
    critpath = None
    if args.explain or args.explain_out:
        from repro.obs import CritPathCollector

        critpath = CritPathCollector()
    sim = ClusterServingSimulator(
        result.times, nbatch=result.nbatch, replicas=args.replicas,
        balancer=args.balancer, autoscaler=scaler,
        metrics=metrics, profiler=profiler, critpath=critpath,
    )
    slo = SLOEngine(window_ns)
    slo.objective(
        names.SLO_SERVING_TAIL,
        names.METRIC_SERVING_LATENCY,
        quantile=args.quantile,
        threshold_ns=sla_ns,
    )
    point = sim.serve_trace(trace, fast=fast)
    print(f"cluster report: {config.name}, {args.arrivals} arrivals "
          f"({trace.count} queries, {trace.mean_qps:.0f} QPS mean), "
          f"balancer {args.balancer}, pipeline path: {path}")
    print(f"run aggregate:  p50 {point.p50_ns / 1e6:.2f} ms / "
          f"p99 {point.p99_ns / 1e6:.2f} ms / achieved "
          f"{point.achieved_qps:.0f} QPS / replicas "
          f"{point.initial_replicas}->{point.final_replicas}")

    alerts = slo.alerts(metrics)
    alert_windows = {}
    for alert in alerts:
        alert_windows.setdefault(alert["window"], []).append(alert)
    series = metrics.series(names.METRIC_SERVING_LATENCY)
    table = Table(
        f"{config.name}: per-window cluster dashboard "
        f"(window {args.window_ms} ms, SLA p{args.quantile:g} <= "
        f"{args.sla_ms} ms)",
        ["win", "t0 ms", "batches", "p50 ms", f"p{args.quantile:g} ms",
         "replicas", "alerts"],
    )
    for index in series.window_indices() if series is not None else ():
        t0_ns = index * window_ns
        replicas = point.initial_replicas
        for event in point.scale_events:
            if event.t_ns <= t0_ns:
                replicas = event.to_replicas
        fired = ",".join(
            a["severity"] for a in alert_windows.get(index, ())
        )
        table.add_row(
            index,
            f"{t0_ns / 1e6:.1f}",
            series.window_count(index),
            f"{series.window_percentile(index, 50.0) / 1e6:.2f}",
            f"{series.window_percentile(index, args.quantile) / 1e6:.2f}",
            replicas,
            fired or "-",
        )
    table.print()
    _print_scaling_events(point.scale_events)
    if critpath is not None:
        from repro.obs import build_explain_document

        document = build_explain_document(
            critpath.requests,
            meta={
                "model": args.model, "mode": "cluster",
                "arrivals": args.arrivals, "balancer": args.balancer,
                "replicas": args.replicas, "queries": trace.count,
                "seed": args.seed,
            },
        )
        _print_explain_summary(document)
        if args.explain_out:
            _export_explain(document, args.explain_out)
    if args.timeseries_out:
        out = export_document(
            sim.timeseries_document(slo=slo), args.timeseries_out
        )
        print(f"timeseries: {out}")
    if args.metrics_out:
        out = metrics.export_json(args.metrics_out)
        print(f"metrics: {out}")
    if args.prom_out:
        out = metrics.export_prometheus(args.prom_out)
        print(f"prometheus: {out}")
    return 0


def cmd_report(args) -> int:
    """Per-window serving dashboard: tails, utilization, SLO alerts."""
    from repro.core.lookup_engine import flash_read_cycles
    from repro.fpga.decompose import decompose_model
    from repro.fpga.search import kernel_search
    from repro.host.serving import ServingSimulator
    from repro.obs import (
        MetricsRegistry,
        Profiler,
        SLOEngine,
        names,
        utilization_series,
    )
    from repro.ssd import fastpath
    from repro.ssd.geometry import SSDGeometry
    from repro.ssd.timing import SSDTimingModel

    config = get_config(args.model)
    model = build_model(config, rows_per_table=args.rows)
    dec = decompose_model(model, config.lookups_per_table)
    flash = flash_read_cycles(
        dec.vectors_per_inference, SSDGeometry(), SSDTimingModel(), config.ev_size
    )
    result = kernel_search(dec, flash)
    if args.cluster:
        return _cmd_report_cluster(args, config, result)
    window_ns = args.window_ms * 1e6
    metrics = MetricsRegistry(window_ns=window_ns, sketch_k=args.sketch_k)
    profiler = Profiler()
    critpath = None
    if args.explain or args.explain_out:
        from repro.obs import CritPathCollector

        critpath = CritPathCollector()
    serving = ServingSimulator(
        result.times, nbatch=result.nbatch, seed=args.seed,
        metrics=metrics, profiler=profiler, window_ns=window_ns,
        critpath=critpath,
    )
    slo = SLOEngine(window_ns)
    slo.objective(
        names.SLO_SERVING_TAIL,
        names.METRIC_SERVING_LATENCY,
        quantile=args.quantile,
        threshold_ns=args.sla_ms * 1e6,
    )
    fast = False if args.no_fastpath else None
    path = "fast" if (fast is None and fastpath.enabled()) else "des"
    qps = serving.saturation_qps * args.load
    point = serving.offered_load(qps, queries=args.queries, fast=fast)
    print(f"offered load:   {qps:.0f} QPS "
          f"({args.load:.0%} of saturation; pipeline path: {path})")
    print(f"run aggregate:  p50 {point.p50_ns / 1e6:.2f} ms / "
          f"p99 {point.p99_ns / 1e6:.2f} ms / mean queue "
          f"{point.mean_queue_ns / 1e6:.2f} ms")

    alerts = slo.alerts(metrics)
    alert_windows = {}
    for alert in alerts:
        alert_windows.setdefault(alert["window"], []).append(alert)
    utilization = utilization_series(profiler, window_ns)
    emb_windows = {
        w["index"]: w["utilization"]
        for w in utilization.get(names.STAGE_EMB, {}).get("windows", ())
    }
    series = metrics.series(names.METRIC_SERVING_LATENCY)
    table = Table(
        f"{config.name}: per-window dashboard "
        f"(window {args.window_ms} ms, SLA p{args.quantile:g} <= "
        f"{args.sla_ms} ms)",
        ["win", "t0 ms", "batches", "p50 ms", f"p{args.quantile:g} ms",
         "emb util", "alerts"],
    )
    for index in series.window_indices() if series is not None else ():
        tail = series.window_percentile(index, args.quantile)
        fired = ",".join(
            a["severity"] for a in alert_windows.get(index, ())
        )
        table.add_row(
            index,
            f"{index * window_ns / 1e6:.1f}",
            series.window_count(index),
            f"{series.window_percentile(index, 50.0) / 1e6:.2f}",
            f"{tail / 1e6:.2f}",
            _utilization_bar(emb_windows.get(index, 0.0)),
            fired or "-",
        )
    table.print()

    sketch = metrics.histogram(names.METRIC_SERVING_LATENCY).sketch
    if sketch is not None and sketch.n:
        print(f"stream tails (sketch k={sketch.k}, n={sketch.n}, "
              f"rank error <= {sketch.rank_error_bound()}): "
              f"p99 {sketch.quantile(99.0) / 1e6:.2f} ms / "
              f"p999 {sketch.quantile(99.9) / 1e6:.2f} ms / "
              f"p9999 {sketch.quantile(99.99) / 1e6:.2f} ms")
    if alerts:
        print("alert timeline:")
        for alert in alerts:
            print(f"  t={alert['t_ns'] / 1e6:8.1f} ms  "
                  f"[{alert['severity']}] {alert['type']} "
                  f"on {alert['objective']} (window {alert['window']}; "
                  f"burn {alert['long_burn']:.1f}x long / "
                  f"{alert['short_burn']:.1f}x short)")
    else:
        print("alert timeline: quiet (no burn-rate alerts)")
    if critpath is not None:
        from repro.obs import build_explain_document

        document = build_explain_document(
            critpath.requests,
            meta={
                "model": args.model, "mode": "device", "load": args.load,
                "queries": args.queries, "seed": args.seed,
            },
        )
        _print_explain_summary(document)
        if args.explain_out:
            _export_explain(document, args.explain_out)
    if args.timeseries_out:
        out = metrics.export_timeseries(
            args.timeseries_out, profiler=profiler, slo=slo
        )
        print(f"timeseries: {out}")
    if args.metrics_out:
        out = metrics.export_json(args.metrics_out)
        print(f"metrics: {out}")
    if args.prom_out:
        out = metrics.export_prometheus(args.prom_out)
        print(f"prometheus: {out}")
    return 0


def _utilization_bar(fraction: float, width: int = 10) -> str:
    """ASCII utilization bar, e.g. ``#######---  68%``."""
    clamped = min(1.0, max(0.0, fraction))
    filled = round(clamped * width)
    return f"{'#' * filled}{'-' * (width - filled)} {clamped:4.0%}"


def cmd_criteo_gen(args) -> int:
    from repro.workloads.criteo import generate_criteo_file

    path = generate_criteo_file(
        args.path,
        rows=args.rows,
        vocab_size=args.vocab,
        hot_access_fraction=args.locality,
        seed=args.seed,
    )
    print(f"wrote {args.rows} Criteo-format samples to {path}")
    return 0


def cmd_criteo_run(args) -> int:
    from repro.baselines import RMSSDBackend
    from repro.workloads.criteo import CriteoDataset

    config = get_config(args.model)
    model = build_model(config, rows_per_table=args.rows)
    dataset = CriteoDataset.load(args.path, limit=args.limit)
    requests = dataset.to_requests(
        batch_size=args.batch,
        num_tables=config.num_tables,
        rows_per_table=args.rows,
        dense_dim=config.dense_dim,
        lookups_per_table=config.lookups_per_table,
    )
    backend = RMSSDBackend(model, config.lookups_per_table, use_des=False)
    result = backend.run(requests)
    print(f"served {result.inferences} Criteo samples on {result.system}")
    print(f"throughput: {result.qps:.0f} QPS")
    print(f"CTR range: [{result.outputs.min():.3f}, {result.outputs.max():.3f}]")
    return 0


def cmd_trace_stats(args) -> int:
    from repro.workloads import TraceGenerator, TraceStatistics

    generator = TraceGenerator(
        num_tables=args.tables,
        rows_per_table=args.rows,
        lookups_per_table=args.lookups,
        hot_access_fraction=args.locality,
        seed=args.seed,
    )
    flat = generator.flat_indices(generator.generate(args.requests))
    stats = TraceStatistics.from_indices(flat)
    print(stats.summary())
    print(f"hot set size (per table): {generator.hot_set_size}")
    print(f"top-hot-set share: {stats.top_k_share(generator.hot_set_size):.2%}")
    table = Table("occurrence -> #indices", ["occurrence", "#indices"])
    for occurrence, count in stats.occurrence_table(8).items():
        table.add_row(occurrence, count)
    table.print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmssd-repro",
        description="RM-SSD (HPCA 2022) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list model configurations").set_defaults(
        func=cmd_models
    )

    p_search = sub.add_parser("search", help="run the kernel search")
    p_search.add_argument("model", choices=sorted(MODEL_CONFIGS))
    p_search.add_argument("--bram-budget", type=int, default=1024,
                          help="Rule One BRAM budget in BRAM36 tiles")
    p_search.set_defaults(func=cmd_search)

    p_run = sub.add_parser("run", help="serve a request stream")
    p_run.add_argument("model", choices=sorted(MODEL_CONFIGS))
    p_run.add_argument("--backend", choices=BACKEND_CHOICES, default="rm-ssd")
    p_run.add_argument("--batch", type=int, default=1)
    p_run.add_argument("--requests", type=int, default=8)
    p_run.add_argument("--rows", type=int, default=8192,
                       help="rows per embedding table (scaled capacity)")
    p_run.add_argument("--locality", type=float, default=0.65,
                       help="hot-access fraction of the trace")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--no-compute", action="store_true",
                       help="skip numeric outputs (timing only)")
    p_run.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write a Chrome-trace/Perfetto JSON of the run")
    p_run.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write latency histograms + I/O counters as JSON")
    p_run.add_argument("--timeseries-out", default=None, metavar="PATH",
                       help="write windowed metric series as JSON "
                            "(schema rmssd-timeseries/v1)")
    p_run.add_argument("--window-ms", type=float, default=1.0,
                       help="window width for --timeseries-out, in "
                            "simulated milliseconds")
    p_run.add_argument("--prom-out", default=None, metavar="PATH",
                       help="write a Prometheus text-format metrics snapshot")
    p_run.add_argument("--vcache-vectors", type=int, default=0,
                       help="controller-DRAM hot-vector cache capacity in "
                            "vectors (0 = disabled, the paper's design)")
    p_run.add_argument("--vcache-policy", default="lru",
                       choices=("lru", "freq", "static"),
                       help="vector-cache admission/eviction policy")
    p_run.set_defaults(func=cmd_run)

    p_profile = sub.add_parser(
        "profile",
        help="profiled DES run: utilization + bottleneck attribution",
    )
    p_profile.add_argument("model", choices=sorted(MODEL_CONFIGS))
    p_profile.add_argument("--backend", choices=("rm-ssd", "rm-ssd-naive"),
                           default="rm-ssd")
    p_profile.add_argument("--profile-out", required=True, metavar="PATH",
                           help="write the utilization/bottleneck profile "
                                "JSON (schema rmssd-profile/v1)")
    p_profile.add_argument("--batch", type=int, default=2)
    p_profile.add_argument("--requests", type=int, default=4)
    p_profile.add_argument("--rows", type=int, default=512,
                           help="rows per embedding table (scaled capacity)")
    p_profile.add_argument("--locality", type=float, default=0.65,
                           help="hot-access fraction of the trace")
    p_profile.add_argument("--seed", type=int, default=0)
    p_profile.add_argument("--top", type=int, default=8,
                           help="resources to list in the utilization table")
    p_profile.add_argument("--no-fastpath", action="store_true",
                           help="force the per-read DES (the fast path "
                                "records bitwise-identical profiles)")
    p_profile.add_argument("--trace-out", default=None, metavar="PATH",
                           help="also write a Chrome-trace JSON of the run")
    p_profile.add_argument("--vcache-vectors", type=int, default=0,
                           help="controller-DRAM hot-vector cache capacity "
                                "in vectors (0 = disabled)")
    p_profile.add_argument("--vcache-policy", default="lru",
                           choices=("lru", "freq", "static"),
                           help="vector-cache admission/eviction policy")
    p_profile.set_defaults(func=cmd_profile)

    p_sweep = sub.add_parser("sweep", help="batch-size sweep")
    p_sweep.add_argument("model", choices=sorted(MODEL_CONFIGS))
    p_sweep.add_argument("--backends", default="rm-ssd,recssd,dram")
    p_sweep.add_argument("--batches", default="1,2,4,8,16")
    p_sweep.add_argument("--requests", type=int, default=4)
    p_sweep.add_argument("--rows", type=int, default=8192)
    p_sweep.add_argument("--locality", type=float, default=0.65)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.set_defaults(func=cmd_sweep)

    sub.add_parser(
        "selfcheck", help="verify the installation's core invariants"
    ).set_defaults(func=cmd_selfcheck)

    p_advise = sub.add_parser(
        "advise", help="should this model be served in-storage?"
    )
    p_advise.add_argument("model", choices=sorted(MODEL_CONFIGS))
    p_advise.set_defaults(func=cmd_advise)

    p_sla = sub.add_parser("sla", help="open-loop SLA study on RM-SSD")
    p_sla.add_argument("model", choices=sorted(MODEL_CONFIGS))
    p_sla.add_argument("--sla-ms", type=float, default=10.0,
                       help="p99 latency SLA in milliseconds")
    p_sla.add_argument("--rows", type=int, default=512)
    p_sla.add_argument("--queries", type=int, default=150)
    p_sla.add_argument("--seed", type=int, default=0)
    p_sla.add_argument("--no-fastpath", action="store_true",
                       help="force the event-driven pipeline (the "
                            "closed-form replay is bitwise-identical)")
    p_sla.add_argument("--window-ms", type=float, default=5.0,
                       help="window width for per-window summaries and "
                            "--timeseries-out, in simulated milliseconds")
    p_sla.add_argument("--timeseries-out", default=None, metavar="PATH",
                       help="write windowed serving series as JSON "
                            "(schema rmssd-timeseries/v1)")
    p_sla.add_argument("--cluster", action="store_true",
                       help="serve an open-loop arrival trace against a "
                            "replica fleet instead of the single-device "
                            "load sweep")
    p_sla.add_argument("--replicas", type=int, default=2,
                       help="initial replica count (cluster mode)")
    p_sla.add_argument("--balancer", default="round-robin",
                       choices=["round-robin", "jsq", "latency-weighted"],
                       help="cluster load balancer")
    p_sla.add_argument("--arrivals", default="flash-crowd",
                       choices=["poisson", "diurnal", "flash-crowd"],
                       help="arrival-trace shape (cluster mode)")
    p_sla.add_argument("--duration-ms", type=float, default=200.0,
                       help="trace duration in simulated ms (cluster mode)")
    p_sla.add_argument("--qps", type=float, default=None,
                       help="mean offered load in QPS (cluster mode; "
                            "default 60%% of fleet saturation)")
    p_sla.add_argument("--autoscale", action="store_true",
                       help="close the loop: scale replicas on SLO "
                            "burn-rate alerts (cluster mode)")
    p_sla.add_argument("--min-replicas", type=int, default=1,
                       help="autoscaler floor (cluster mode)")
    p_sla.add_argument("--max-replicas", type=int, default=8,
                       help="autoscaler ceiling (cluster mode)")
    p_sla.add_argument("--quantile", type=float, default=99.0,
                       help="SLA quantile (cluster mode)")
    p_sla.set_defaults(func=cmd_sla)

    p_report = sub.add_parser(
        "report",
        help="per-window serving dashboard: tails, utilization, SLO alerts",
    )
    p_report.add_argument("model", choices=sorted(MODEL_CONFIGS))
    p_report.add_argument("--load", type=float, default=0.9,
                          help="offered load as a fraction of saturation")
    p_report.add_argument("--queries", type=int, default=400)
    p_report.add_argument("--rows", type=int, default=512)
    p_report.add_argument("--seed", type=int, default=0)
    p_report.add_argument("--window-ms", type=float, default=5.0,
                          help="window width in simulated milliseconds")
    p_report.add_argument("--sla-ms", type=float, default=10.0,
                          help="per-window tail-latency objective in ms")
    p_report.add_argument("--quantile", type=float, default=99.0,
                          help="objective quantile (e.g. 99, 99.9)")
    p_report.add_argument("--sketch-k", type=int, default=1024,
                          help="rank-sketch compactor capacity "
                               "(rank error scales as ~8/k)")
    p_report.add_argument("--no-fastpath", action="store_true",
                          help="force the event-driven pipeline (the "
                               "closed-form replay is bitwise-identical)")
    p_report.add_argument("--timeseries-out", default=None, metavar="PATH",
                          help="write the full rmssd-timeseries/v1 document "
                               "(series + utilization + slo)")
    p_report.add_argument("--metrics-out", default=None, metavar="PATH",
                          help="also write the run-aggregate metrics JSON")
    p_report.add_argument("--prom-out", default=None, metavar="PATH",
                          help="write a Prometheus text-format snapshot")
    p_report.add_argument("--cluster", action="store_true",
                          help="report on a replica fleet fed by an "
                               "open-loop arrival trace")
    p_report.add_argument("--replicas", type=int, default=2,
                          help="initial replica count (cluster mode)")
    p_report.add_argument("--balancer", default="round-robin",
                          choices=["round-robin", "jsq", "latency-weighted"],
                          help="cluster load balancer")
    p_report.add_argument("--arrivals", default="flash-crowd",
                          choices=["poisson", "diurnal", "flash-crowd"],
                          help="arrival-trace shape (cluster mode)")
    p_report.add_argument("--duration-ms", type=float, default=200.0,
                          help="trace duration in simulated ms "
                               "(cluster mode)")
    p_report.add_argument("--qps", type=float, default=None,
                          help="mean offered load in QPS (cluster mode; "
                               "default 60%% of fleet saturation)")
    p_report.add_argument("--autoscale", action="store_true",
                          help="close the loop: scale replicas on SLO "
                               "burn-rate alerts (cluster mode)")
    p_report.add_argument("--min-replicas", type=int, default=1,
                          help="autoscaler floor (cluster mode)")
    p_report.add_argument("--max-replicas", type=int, default=8,
                          help="autoscaler ceiling (cluster mode)")
    p_report.add_argument("--explain", action="store_true",
                          help="append the per-request critical-path "
                               "attribution (tail blame + exemplars)")
    p_report.add_argument("--explain-out", default=None, metavar="PATH",
                          help="write the rmssd-explain/v1 attribution "
                               "document (implies --explain)")
    p_report.set_defaults(func=cmd_report)

    p_explain = sub.add_parser(
        "explain",
        help="per-request critical-path attribution and tail exemplars, "
             "or a cross-run regression diff (--diff)",
    )
    p_explain.add_argument("model", nargs="?", default=None,
                           choices=sorted(MODEL_CONFIGS))
    p_explain.add_argument("--diff", nargs=2, default=None,
                           metavar=("BASELINE", "FRESH"),
                           help="diff two exported explain/profile/"
                                "timeseries JSON documents and attribute "
                                "the regression instead of running")
    p_explain.add_argument("--explain-out", default=None, metavar="PATH",
                           help="write the rmssd-explain/v1 document")
    p_explain.add_argument("--trace-out", default=None, metavar="PATH",
                           help="also write a Chrome-trace JSON of the run "
                                "(single-device mode; tools/check_trace.py "
                                "cross-checks it against --explain-out)")
    p_explain.add_argument("--top-k", type=int, default=3,
                           help="exemplar requests listed per quantile")
    p_explain.add_argument("--load", type=float, default=0.9,
                           help="offered load as a fraction of saturation")
    p_explain.add_argument("--queries", type=int, default=400)
    p_explain.add_argument("--rows", type=int, default=512)
    p_explain.add_argument("--seed", type=int, default=0)
    p_explain.add_argument("--sla-ms", type=float, default=10.0,
                           help="tail objective in ms (cluster autoscale)")
    p_explain.add_argument("--window-ms", type=float, default=5.0,
                           help="SLO window in simulated ms (cluster "
                                "autoscale)")
    p_explain.add_argument("--quantile", type=float, default=99.0,
                           help="SLA quantile (cluster autoscale)")
    p_explain.add_argument("--no-fastpath", action="store_true",
                           help="force the event-driven pipeline (the "
                                "closed-form replay exports a "
                                "byte-identical document)")
    p_explain.add_argument("--cluster", action="store_true",
                           help="attribute an open-loop cluster run "
                                "instead of the single-device load point")
    p_explain.add_argument("--replicas", type=int, default=2,
                           help="initial replica count (cluster mode)")
    p_explain.add_argument("--balancer", default="round-robin",
                           choices=["round-robin", "jsq", "latency-weighted"],
                           help="cluster load balancer")
    p_explain.add_argument("--arrivals", default="flash-crowd",
                           choices=["poisson", "diurnal", "flash-crowd"],
                           help="arrival-trace shape (cluster mode)")
    p_explain.add_argument("--duration-ms", type=float, default=200.0,
                           help="trace duration in simulated ms "
                                "(cluster mode)")
    p_explain.add_argument("--qps", type=float, default=None,
                           help="mean offered load in QPS (cluster mode; "
                                "default 60%% of fleet saturation)")
    p_explain.add_argument("--autoscale", action="store_true",
                           help="close the loop: scale replicas on SLO "
                                "burn-rate alerts (cluster mode)")
    p_explain.add_argument("--min-replicas", type=int, default=1,
                           help="autoscaler floor (cluster mode)")
    p_explain.add_argument("--max-replicas", type=int, default=8,
                           help="autoscaler ceiling (cluster mode)")
    p_explain.set_defaults(func=cmd_explain)

    p_cgen = sub.add_parser("criteo-gen", help="generate a Criteo-format TSV")
    p_cgen.add_argument("path")
    p_cgen.add_argument("--rows", type=int, default=1000)
    p_cgen.add_argument("--vocab", type=int, default=100_000)
    p_cgen.add_argument("--locality", type=float, default=0.65)
    p_cgen.add_argument("--seed", type=int, default=0)
    p_cgen.set_defaults(func=cmd_criteo_gen)

    p_crun = sub.add_parser("criteo-run", help="serve a Criteo file on RM-SSD")
    p_crun.add_argument("path")
    p_crun.add_argument("model", choices=sorted(MODEL_CONFIGS))
    p_crun.add_argument("--batch", type=int, default=8)
    p_crun.add_argument("--rows", type=int, default=4096)
    p_crun.add_argument("--limit", type=int, default=None)
    p_crun.set_defaults(func=cmd_criteo_run)

    p_trace = sub.add_parser("trace-stats", help="Fig. 4-style trace statistics")
    p_trace.add_argument("--tables", type=int, default=1)
    p_trace.add_argument("--rows", type=int, default=100_000)
    p_trace.add_argument("--lookups", type=int, default=80)
    p_trace.add_argument("--locality", type=float, default=0.65)
    p_trace.add_argument("--requests", type=int, default=200)
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.set_defaults(func=cmd_trace_stats)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
