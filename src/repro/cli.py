"""Command-line interface: ``rmssd-repro`` / ``python -m repro``.

* ``models`` — list the evaluated model configurations (Table III).
* ``search MODEL`` — kernel search: Table V-style assignment, stage
  times, resource bill.
* ``run MODEL`` — serve a request stream on one backend; throughput,
  latency, traffic.
* ``profile MODEL`` — profiled DES run: utilization and bottleneck
  attribution (``rmssd-profile/v1``).
* ``sweep MODEL`` — batch-size sweep across backends (Fig. 12-style).
* ``selfcheck`` — verify the installation's core invariants.
* ``advise MODEL`` — should this model be served in-storage?
* ``sla MODEL`` — latency-vs-load curve and the largest load meeting a
  p99 SLA.
* ``report MODEL`` — per-window dashboard: tails, utilization, SLO
  burn-rate alerts (``rmssd-timeseries/v1``).
* ``explain MODEL`` — per-request critical-path attribution with tail
  exemplars; ``explain --diff A B`` attributes a cross-run regression.
* ``criteo-gen PATH`` / ``criteo-run PATH MODEL`` — write a
  Criteo-format TSV / serve one on RM-SSD.
* ``trace-stats`` — generate a trace and print its Fig. 4 statistics.

``sla``, ``report`` and ``explain`` start from one operating point
(:func:`repro.core.device.operating_point`); ``--cluster`` turns each
into a study of a replica fleet built by one ``_fleet``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional

from repro import baselines, obs
from repro.analysis.advisor import advise
from repro.analysis.report import Table, format_si, stage_breakdown_table
from repro.analysis.selfcheck import run_selfcheck
from repro.core.device import operating_point
from repro.core.pipeline_fast import resolve_fast
from repro.fpga.specs import XC7A200T, XCVU9P
from repro.host.autoscale import Autoscaler
from repro.host.cluster_serving import ClusterServingSimulator
from repro.host.serving import ServingSimulator, check_sla
from repro.models import MODEL_CONFIGS, build_model, get_config
from repro.obs import names
from repro.obs.explain import diff_documents, render_diff
from repro.obs.timeseries import export_document
from repro.ssd.vcache import VectorCache
from repro.workloads import TraceGenerator, TraceStatistics, arrivals
from repro.workloads.criteo import CriteoDataset, generate_criteo_file
from repro.workloads.inputs import RequestGenerator

BACKEND_CHOICES = (
    "ssd-s", "ssd-m", "emb-mmio", "emb-pagesum", "emb-vectorsum", "recssd",
    "rm-ssd", "rm-ssd-naive", "dram",
)
#: Backends with a simulated device behind them (observers, vcache, DES).
RMSSD_BACKENDS = ("rm-ssd", "rm-ssd-naive")


def _build_backend(name: str, model, config, use_des=False, **device_kwargs):
    """Backend by CLI name; ``device_kwargs`` reach ``RMSSD_BACKENDS`` only."""
    if name in RMSSD_BACKENDS:
        return baselines.RMSSDBackend(
            model, config.lookups_per_table, use_des=use_des,
            mlp_design="naive" if name == "rm-ssd-naive" else "optimized",
            **device_kwargs,
        )
    plain = {
        "ssd-s": lambda: baselines.NaiveSSDBackend(model, 0.25),
        "ssd-m": lambda: baselines.NaiveSSDBackend(model, 0.5),
        "emb-mmio": lambda: baselines.EMBMMIOBackend(model),
        "emb-pagesum": lambda: baselines.EMBPageSumBackend(model),
        "emb-vectorsum": lambda: baselines.EMBVectorSumBackend(model),
        "recssd": lambda: baselines.RecSSDBackend(model),
        "dram": lambda: baselines.DRAMBackend(model),
    }
    if name not in plain:
        raise ValueError(f"unknown backend {name!r}")
    return plain[name]()


def _model(args):
    """``(config, model)`` at the command's ``--rows`` scale."""
    config = get_config(args.model)
    return config, build_model(config, rows_per_table=args.rows)


def _request_generator(args, config) -> RequestGenerator:
    return RequestGenerator(
        config, args.rows, hot_access_fraction=args.locality, seed=args.seed
    )


def _require_stream(args) -> None:
    """Refuse, by flag and before any device is built, a ``run`` /
    ``profile`` / ``sweep`` stream with no requests or a negative cache
    size."""
    if args.requests <= 0:
        raise ValueError(f"--requests must be positive, got {args.requests}")
    if getattr(args, "vcache_vectors", 0) < 0:
        raise ValueError(
            f"--vcache-vectors must be >= 0 (0 = no cache), got {args.vcache_vectors}"
        )


def _fast(args) -> Optional[bool]:
    """The ``fast=`` of a run: ``--no-fastpath`` forces the
    event-driven pipeline, otherwise ``RMSSD_FASTPATH`` decides."""
    return False if args.no_fastpath else None


def _export_trace(args, tracer, hint: str = "") -> None:
    if tracer is not None:
        path = tracer.export_chrome(args.trace_out)
        print(f"trace:          {path} ({len(tracer)} spans{hint})")


def cmd_models(_args) -> int:
    table = Table(
        "Evaluated models (Table III)",
        ["key", "name", "bottom MLP", "top MLP", "dim", "tables", "lookups"],
    )
    for key, config in MODEL_CONFIGS.items():
        table.add_row(
            key, config.name,
            "-".join(map(str, config.bottom_widths)) or "(none)",
            "-".join(map(str, config.top_widths)),
            config.dim, config.num_tables, config.lookups_per_table,
        )
    table.print()
    return 0


def cmd_search(args) -> int:
    config = get_config(args.model)
    model = build_model(config, rows_per_table=64)
    result = operating_point(
        model, config.lookups_per_table, bram_budget_tiles=args.bram_budget
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
    _require_stream(args)
    if not (math.isfinite(args.window_ms) and args.window_ms > 0):
        raise ValueError(
            f"--window-ms must be positive and finite, got {args.window_ms!r}"
        )
    config, model = _model(args)
    instrumented = args.backend in RMSSD_BACKENDS
    tracer = obs.Tracer() if args.trace_out else None
    metrics = None
    if args.metrics_out or args.timeseries_out or args.prom_out:
        metrics = obs.MetricsRegistry(
            window_ns=args.window_ms * 1e6 if args.timeseries_out else None
        )
    if (tracer or metrics) and not instrumented:
        print(f"note: backend {args.backend!r} is not instrumented; "
              "trace/metrics cover the I/O statistics only")
    vcache = None
    if args.vcache_vectors > 0:
        if instrumented:
            vcache = VectorCache(args.vcache_vectors, policy=args.vcache_policy)
        else:
            print(f"note: backend {args.backend!r} has no controller DRAM; "
                  "--vcache-vectors ignored")
    backend = _build_backend(
        args.backend, model, config, tracer=tracer, metrics=metrics,
        vcache=vcache,
    )
    requests = _request_generator(args, config).requests(
        args.requests, batch_size=args.batch
    )
    result = backend.run(requests, compute=not args.no_compute)
    print(f"system:         {result.system}")
    print(f"inferences:     {result.inferences} "
          f"({result.requests} requests x batch {args.batch})")
    print(f"simulated time: {result.total_ns / 1e6:.3f} ms")
    print(f"throughput:     {result.qps:.0f} QPS")
    print(f"per-request:    {result.latency_per_request_ns / 1e6:.3f} ms")
    if instrumented:
        counts = backend.device.lookup_engine.path_counts
        print("lookup path:    " + ", ".join(
            f"{path} x{count}" + (f" ({reason})" if reason else "")
            for (path, reason), count in counts.items()
        ))
    if result.breakdown:
        stage_breakdown_table(
            f"{result.system}: stage breakdown (Fig. 11)", result.breakdown,
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
    _export_trace(args, tracer, "; open in ui.perfetto.dev")
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
    _require_stream(args)
    config, model = _model(args)
    profiler = obs.Profiler()
    tracer = obs.Tracer() if args.trace_out else None
    vcache = None
    if args.vcache_vectors > 0:
        vcache = VectorCache(args.vcache_vectors, policy=args.vcache_policy)
    backend = _build_backend(
        args.backend, model, config, use_des=True, fastpath=_fast(args),
        tracer=tracer, vcache=vcache, profiler=profiler,
    )
    requests = _request_generator(args, config).requests(
        args.requests, batch_size=args.batch
    )
    result = backend.run(requests, compute=False)
    profiler.set_meta(
        model=args.model, backend=args.backend, requests=args.requests,
        batch=args.batch, rows=args.rows, locality=args.locality,
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
            f"{means[key] / 1e6:.4f}", f"{slack[key] / 1e6:.4f}",
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
    _export_trace(args, tracer)
    return 0


def cmd_sweep(args) -> int:
    _require_stream(args)
    batches = [int(b) if b.strip().isdecimal() else 0 for b in args.batches.split(",")]
    if min(batches) < 1:
        raise ValueError(f"--batches must list positive integers, got {args.batches!r}")
    config, model = _model(args)
    backends = [
        _build_backend(name, model, config) for name in args.backends.split(",")
    ]
    table = Table(
        f"{config.name}: QPS vs batch",
        ["system", *[str(b) for b in batches]],
    )
    generator = _request_generator(args, config)
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
    results = run_selfcheck(verbose=True)
    return 0 if all(r.passed for r in results) else 1


def cmd_advise(args) -> int:
    advice = advise(get_config(args.model))
    print(advice.render())
    return 0


# -- Serving studies: sla / report / explain ---------------------------
def _operating_point(args):
    """``(config, kernel-search result)`` a serving study starts from."""
    config, model = _model(args)
    return config, operating_point(model, config.lookups_per_table)


def _fleet(args, result, *, autoscale: Optional[bool] = None, metrics=None,
           profiler=None, critpath=None):
    """The ``--cluster`` fleet and the arrival trace offered to it.

    The simulator is built before the trace is sized from it, so a bad
    fleet shape is reported as such and not as the zero load it
    implies.  ``autoscale`` overrides ``--autoscale`` (``sla`` also
    runs the fixed fleet).
    """
    if autoscale is None:
        autoscale = args.autoscale
    scaler = None
    if autoscale:
        scaler = Autoscaler(
            sla_ns=args.sla_ms * 1e6, quantile=args.quantile,
            window_ns=args.window_ms * 1e6,
            min_replicas=args.min_replicas, max_replicas=args.max_replicas,
        )
    sim = ClusterServingSimulator(
        result.times, nbatch=result.nbatch, replicas=args.replicas,
        balancer=args.balancer, autoscaler=scaler,
        metrics=metrics, profiler=profiler, critpath=critpath,
    )
    qps = args.qps
    if qps is None:
        qps = 0.6 * sim.replica_qps * args.replicas
    duration_ns = args.duration_ms * 1e6
    arrivals.require_finite(qps=qps, duration_ms=args.duration_ms)
    if args.arrivals == "poisson":
        expected = qps * duration_ns / 1e9
        arrivals.require_bounded(expected, qps=qps, duration_ms=args.duration_ms)
        trace = arrivals.poisson_trace(qps, max(1, int(expected)), seed=args.seed)
    elif args.arrivals == "diurnal":
        trace = arrivals.diurnal_trace(
            qps, duration_ns, period_ns=duration_ns / 2, seed=args.seed
        )
    else:
        trace = arrivals.flash_crowd_trace(
            qps, duration_ns, burst_start_ns=0.3 * duration_ns,
            burst_duration_ns=0.4 * duration_ns, burst_factor=4.0,
            seed=args.seed,
        )
    return sim, trace


def _device(args, result, **observers):
    """The single-device counterpart of :func:`_fleet`: ``--queries`` at
    ``--load`` of saturation.  Returns the offered QPS, the load point
    and the pipeline path that served it."""
    serving = ServingSimulator(
        result.times, nbatch=result.nbatch, seed=args.seed, **observers
    )
    qps = serving.saturation_qps * args.load
    point = serving.offered_load(qps, queries=args.queries, fast=_fast(args))
    return qps, point, serving.last_path


def _print_scaling_events(events) -> None:
    print("scaling events:" if events else "scaling events: none")
    for event in events:
        print(
            f"  t={event.t_ns / 1e6:8.1f} ms  [{event.action}] "
            f"{event.from_replicas} -> {event.to_replicas} replicas "
            f"({event.reason}; util {event.utilization:.0%}; "
            f"bottleneck {event.bottleneck_stage} "
            f"@ replica {event.bottleneck_replica})"
        )


def _explain_meta(args, trace) -> dict:
    """``meta`` of the explain document.  Path-independent on purpose:
    the exported document must stay byte-identical between the DES and
    fast replays."""
    if not args.cluster:
        return dict(model=args.model, mode="device", load=args.load,
                    queries=args.queries, seed=args.seed)
    return dict(model=args.model, mode="cluster", arrivals=args.arrivals,
                balancer=args.balancer, replicas=args.replicas,
                queries=trace.count, seed=args.seed)


def _print_explanation(args, collector, trace, **document_kwargs) -> None:
    """Tail-attribution digest of the collected requests, plus the
    ``rmssd-explain/v1`` document under ``--explain-out``."""
    document = obs.build_explain_document(
        collector.requests, meta=_explain_meta(args, trace), **document_kwargs
    )
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
    if args.explain_out:
        out = obs.export_document(document, args.explain_out)
        print(f"explain: {out} (schema {document['schema']})")


def cmd_explain(args) -> int:
    """Per-request critical-path attribution, or a cross-run diff."""
    if args.diff:
        documents = []
        for path in args.diff:
            with open(path) as handle:
                documents.append(json.load(handle))
        print(f"regression explainer: {args.diff[0]} -> {args.diff[1]}")
        for line in render_diff(diff_documents(*documents)):
            print(f"  {line}")
        return 0
    if args.model is None:
        print("explain: a model is required unless --diff is given",
              file=sys.stderr)
        return 2
    config, result = _operating_point(args)
    collector = obs.CritPathCollector()
    trace = None
    if args.cluster:
        if args.trace_out:
            print("note: --trace-out covers single-device mode only; "
                  "ignored with --cluster")
        sim, trace = _fleet(args, result, critpath=collector)
        point = sim.serve_trace(trace, fast=_fast(args))
        print(f"critical paths: {config.name}, {args.arrivals} arrivals "
              f"({trace.count} queries), balancer {args.balancer}, "
              f"replicas {point.initial_replicas}->{point.final_replicas}, "
              f"pipeline path: {point.path}")
    else:
        tracer = obs.Tracer() if args.trace_out else None
        qps, _, path = _device(args, result, critpath=collector, tracer=tracer)
        print(f"critical paths: {config.name} at {qps:.0f} QPS "
              f"({args.load:.0%} of saturation; pipeline path: {path})")
        _export_trace(args, tracer)
    _print_explanation(args, collector, trace, top_k=args.top_k)
    return 0


def _cmd_sla_cluster(args, config, result) -> int:
    """``sla --cluster``: open-loop traffic against a replica fleet."""
    window_ns = args.window_ms * 1e6
    sla_ns = args.sla_ms * 1e6

    def run(autoscale: bool):
        sim, trace = _fleet(
            args, result, autoscale=autoscale,
            metrics=obs.MetricsRegistry(window_ns=window_ns),
        )
        return sim, trace, sim.serve_trace(trace, fast=_fast(args))

    sim, trace, point = run(autoscale=False)
    print(f"cluster SLA study: {config.name}, {args.arrivals} arrivals "
          f"({trace.count} queries, {trace.mean_qps:.0f} QPS mean), "
          f"{args.replicas} replica(s) @ {sim.replica_qps:.0f} QPS each, "
          f"balancer {args.balancer}, pipeline path: {point.path}")
    fleets = [("fixed", point)]
    if args.autoscale:
        sim, _, point = run(autoscale=True)
        fleets.append(("autoscaled", point))
    table = Table(
        f"p{args.quantile:g} <= {args.sla_ms} ms?",
        ["fleet", "p50 ms", "p99 ms", "achieved QPS", "replicas", "SLA"],
    )
    for label, served in fleets:
        table.add_row(
            label, f"{served.p50_ns / 1e6:.2f}", f"{served.p99_ns / 1e6:.2f}",
            f"{served.achieved_qps:.0f}",
            f"{served.initial_replicas}->{served.final_replicas}",
            "ok" if served.meets_sla(sla_ns, args.quantile) else "VIOLATED",
        )
    table.print()
    _print_scaling_events(point.scale_events)
    if args.timeseries_out:
        out = export_document(sim.timeseries_document(), args.timeseries_out)
        print(f"timeseries: {out} (window {args.window_ms} ms; "
              f"cluster section: {names.METRIC_CLUSTER_REPLICAS} gauge + "
              f"scaling events)")
    return 0


def cmd_sla(args) -> int:
    config, result = _operating_point(args)
    if args.cluster:
        return _cmd_sla_cluster(args, config, result)
    window_ns = args.window_ms * 1e6
    metrics = None
    if args.timeseries_out:
        metrics = obs.MetricsRegistry(window_ns=window_ns)
    serving = ServingSimulator(
        result.times, nbatch=result.nbatch, seed=args.seed,
        metrics=metrics, window_ns=window_ns,
    )
    sla_ns, q = args.sla_ms * 1e6, args.quantile
    check_sla(sla_ns, q, queries=args.queries)
    fast = _fast(args)
    # Printed before anything runs, so there is no result to read the
    # path from yet.
    print(f"saturation throughput: {serving.saturation_qps:.0f} QPS "
          f"(pipeline path: {'fast' if resolve_fast(fast) else 'des'})")
    table = Table(
        f"{config.name}: latency vs offered load",
        ["offered QPS", "p50 ms", "p95 ms", "p99 ms"],
    )
    for point in serving.load_sweep(queries=args.queries, fast=fast):
        table.add_row(
            f"{point.offered_qps:.0f}", f"{point.p50_ns / 1e6:.2f}",
            f"{point.p95_ns / 1e6:.2f}", f"{point.p99_ns / 1e6:.2f}",
        )
    table.print()
    search = serving.sla_search(
        sla_ns=sla_ns, quantile=q, queries=args.queries, fast=fast
    )
    print(f"max load with p{q:g} <= {args.sla_ms} ms: {search.max_qps:.0f} QPS "
          f"({search.max_qps / serving.saturation_qps:.0%} of saturation; "
          f"{len(search.points)} probes)")
    trajectory = " -> ".join(f"{p.offered_qps:.0f}" for p in search.points)
    print(f"bisection trajectory (offered QPS): {trajectory}")
    # Worst window at the highest passing load: the run aggregate can
    # meet the SLA while one window blows through it.
    passing = [
        point for point in search.points
        if point.offered_qps <= search.max_qps and point.windows
    ]
    if passing:
        critical = max(passing, key=lambda point: point.offered_qps)
        worst = critical.worst_window(q)
        if worst is not None:
            print(
                f"worst window at {critical.offered_qps:.0f} QPS: "
                f"window {worst.index} "
                f"(t={worst.start_ns / 1e6:.1f} ms, {worst.count} batches) "
                f"p{q:g} {worst.percentile(q) / 1e6:.2f} ms"
            )
    if metrics is not None:
        out = metrics.export_timeseries(args.timeseries_out)
        print(f"timeseries: {out} (window {args.window_ms} ms)")
    return 0


def _print_dashboard(args, title, metrics, slo, column, cell) -> list:
    """The per-window table of ``report``: latency tails and the
    burn-rate alerts fired in each window, plus one mode-specific
    ``column`` filled by ``cell(window_index)``.  Returns the alerts."""
    window_ns = args.window_ms * 1e6
    alerts = slo.alerts(metrics)
    alert_windows = {}
    for alert in alerts:
        alert_windows.setdefault(alert["window"], []).append(alert)
    series = metrics.series(names.METRIC_SERVING_LATENCY)
    table = Table(
        f"{title} (window {args.window_ms} ms, SLA p{args.quantile:g} <= "
        f"{args.sla_ms} ms)",
        ["win", "t0 ms", "batches", "p50 ms", f"p{args.quantile:g} ms",
         column, "alerts"],
    )
    for index in series.window_indices() if series is not None else ():
        fired = ",".join(a["severity"] for a in alert_windows.get(index, ()))
        table.add_row(
            index,
            f"{index * window_ns / 1e6:.1f}",
            series.window_count(index),
            f"{series.window_percentile(index, 50.0) / 1e6:.2f}",
            f"{series.window_percentile(index, args.quantile) / 1e6:.2f}",
            cell(index),
            fired or "-",
        )
    table.print()
    return alerts


def _report_cluster(args, config, result, slo, observers):
    """``report --cluster``: per-window fleet dashboard with scaling
    log.  Returns the trace and the timeseries-document builder."""
    sim, trace = _fleet(args, result, **observers)
    point = sim.serve_trace(trace, fast=_fast(args))
    print(f"cluster report: {config.name}, {args.arrivals} arrivals "
          f"({trace.count} queries, {trace.mean_qps:.0f} QPS mean), "
          f"balancer {args.balancer}, pipeline path: {point.path}")
    print(f"run aggregate:  p50 {point.p50_ns / 1e6:.2f} ms / "
          f"p99 {point.p99_ns / 1e6:.2f} ms / achieved "
          f"{point.achieved_qps:.0f} QPS / replicas "
          f"{point.initial_replicas}->{point.final_replicas}")

    window_ns = args.window_ms * 1e6

    def replicas_at(index: int) -> int:
        replicas = point.initial_replicas
        for event in point.scale_events:
            if event.t_ns <= index * window_ns:
                replicas = event.to_replicas
        return replicas

    _print_dashboard(
        args, f"{config.name}: per-window cluster dashboard",
        observers["metrics"], slo, "replicas", replicas_at,
    )
    _print_scaling_events(point.scale_events)
    return trace, lambda: sim.timeseries_document(slo=slo)


def _report_device(args, config, result, slo, observers):
    """Single-device ``report``: dashboard with embedding-stage
    utilization, stream tails and the alert timeline.  Returns the
    timeseries-document builder."""
    metrics, profiler = observers["metrics"], observers["profiler"]
    window_ns = args.window_ms * 1e6
    qps, point, path = _device(args, result, window_ns=window_ns, **observers)
    print(f"offered load:   {qps:.0f} QPS "
          f"({args.load:.0%} of saturation; pipeline path: {path})")
    print(f"run aggregate:  p50 {point.p50_ns / 1e6:.2f} ms / "
          f"p99 {point.p99_ns / 1e6:.2f} ms / mean queue "
          f"{point.mean_queue_ns / 1e6:.2f} ms")

    utilization = obs.utilization_series(profiler, window_ns)
    emb_windows = {
        w["index"]: w["utilization"]
        for w in utilization.get(names.STAGE_EMB, {}).get("windows", ())
    }
    alerts = _print_dashboard(
        args, f"{config.name}: per-window dashboard", metrics, slo,
        "emb util",
        lambda index: _utilization_bar(emb_windows.get(index, 0.0)),
    )
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
    return lambda: metrics.timeseries_dict(profiler, slo)


def cmd_report(args) -> int:
    """Per-window serving dashboard: tails, utilization, SLO alerts."""
    config, result = _operating_point(args)
    window_ns = args.window_ms * 1e6
    metrics = obs.MetricsRegistry(window_ns=window_ns, sketch_k=args.sketch_k)
    critpath = None
    if args.explain or args.explain_out:
        critpath = obs.CritPathCollector()
    observers = dict(metrics=metrics, profiler=obs.Profiler(), critpath=critpath)
    slo = obs.SLOEngine(window_ns)
    slo.objective(
        names.SLO_SERVING_TAIL, names.METRIC_SERVING_LATENCY,
        quantile=args.quantile, threshold_ns=args.sla_ms * 1e6,
    )
    trace = None
    if args.cluster:
        trace, timeseries = _report_cluster(args, config, result, slo, observers)
    else:
        timeseries = _report_device(args, config, result, slo, observers)
    if critpath is not None:
        _print_explanation(args, critpath, trace)
    if args.timeseries_out:
        out = export_document(timeseries(), args.timeseries_out)
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
    path = generate_criteo_file(
        args.path, rows=args.rows, vocab_size=args.vocab,
        hot_access_fraction=args.locality, seed=args.seed,
    )
    print(f"wrote {args.rows} Criteo-format samples to {path}")
    return 0


def cmd_criteo_run(args) -> int:
    config, model = _model(args)
    dataset = CriteoDataset.load(args.path, limit=args.limit)
    requests = dataset.to_requests(
        batch_size=args.batch, num_tables=config.num_tables,
        rows_per_table=args.rows, dense_dim=config.dense_dim,
        lookups_per_table=config.lookups_per_table,
    )
    result = _build_backend("rm-ssd", model, config).run(requests)
    print(f"served {result.inferences} Criteo samples on {result.system}")
    print(f"throughput: {result.qps:.0f} QPS")
    print(f"CTR range: [{result.outputs.min():.3f}, {result.outputs.max():.3f}]")
    return 0


def cmd_trace_stats(args) -> int:
    generator = TraceGenerator(
        num_tables=args.tables, rows_per_table=args.rows,
        lookups_per_table=args.lookups, hot_access_fraction=args.locality,
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


#: Every ``--*-out PATH`` export; a command takes the ones it can write.
_EXPORTS = {
    "--trace-out": "write a Chrome-trace/Perfetto JSON of the run (a "
                   "single device's; tools/check_trace.py validates it)",
    "--metrics-out": "write run-aggregate histograms + counters as JSON",
    "--timeseries-out": "write the windowed series as JSON "
                        "(schema rmssd-timeseries/v1)",
    "--prom-out": "write a Prometheus text-format metrics snapshot",
    "--explain-out": "write the rmssd-explain/v1 attribution document",
    "--profile-out": "write the utilization/bottleneck profile JSON "
                     "(schema rmssd-profile/v1)",
}


def _add_exports(parser, *flags, **kwargs) -> None:
    for flag in flags:
        parser.add_argument(flag, default=None, metavar="PATH",
                            help=_EXPORTS[flag], **kwargs)


def _add_workload_options(parser, *, requests: int, rows: int,
                          batch: Optional[int] = None) -> None:
    """Model and request-stream flags of ``run``/``profile``/``sweep``
    (``sweep`` takes ``--batches`` in place of ``--batch``)."""
    parser.add_argument("model", choices=sorted(MODEL_CONFIGS))
    if batch is not None:
        parser.add_argument("--batch", type=int, default=batch)
    parser.add_argument("--requests", type=int, default=requests)
    parser.add_argument("--rows", type=int, default=rows,
                        help="rows per embedding table (scaled capacity)")
    parser.add_argument("--locality", type=float, default=0.65,
                        help="hot-access fraction of the trace")
    parser.add_argument("--seed", type=int, default=0)


def _add_vcache_options(parser) -> None:
    parser.add_argument("--vcache-vectors", type=int, default=0,
                        help="controller-DRAM hot-vector cache capacity in "
                             "vectors (0 = disabled, the paper's design)")
    parser.add_argument("--vcache-policy", default="lru",
                        choices=("lru", "freq", "static"),
                        help="vector-cache admission/eviction policy")


def _add_serving_options(parser, *, queries: int) -> None:
    """The flags ``sla``, ``report`` and ``explain`` share: the study's
    size and objective, then the ``--cluster`` fleet."""
    parser.add_argument("--rows", type=int, default=512)
    parser.add_argument("--queries", type=int, default=queries)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-fastpath", action="store_true",
                        help="force the event-driven pipeline (the closed-"
                             "form replay is bitwise-identical, exports too)")
    parser.add_argument("--window-ms", type=float, default=5.0,
                        help="window width in simulated ms (per-window "
                             "summaries, SLO windows, --timeseries-out)")
    parser.add_argument("--sla-ms", type=float, default=10.0,
                        help="tail-latency objective in milliseconds")
    parser.add_argument("--quantile", type=float, default=99.0,
                        help="objective quantile (e.g. 99, 99.9)")
    fleet = parser.add_argument_group("replica fleet (--cluster)")
    fleet.add_argument("--cluster", action="store_true",
                       help="serve an open-loop arrival trace against a "
                            "replica fleet instead of the single device")
    fleet.add_argument("--replicas", type=int, default=2,
                       help="initial replica count")
    fleet.add_argument("--balancer", default="round-robin",
                       choices=["round-robin", "jsq", "latency-weighted"],
                       help="cluster load balancer")
    fleet.add_argument("--arrivals", default="flash-crowd",
                       choices=["poisson", "diurnal", "flash-crowd"],
                       help="arrival-trace shape")
    fleet.add_argument("--duration-ms", type=float, default=200.0,
                       help="trace duration in simulated ms")
    fleet.add_argument("--qps", type=float, default=None,
                       help="mean offered load in QPS (default 60%% of "
                            "fleet saturation); a trace expected to hold "
                            f"over {arrivals.MAX_ARRIVALS:,} queries is "
                            "refused")
    fleet.add_argument("--autoscale", action="store_true",
                       help="scale replicas on SLO burn-rate alerts")
    fleet.add_argument("--min-replicas", type=int, default=1,
                       help="autoscaler floor")
    fleet.add_argument("--max-replicas", type=int, default=8,
                       help="autoscaler ceiling")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmssd-repro",
        description="RM-SSD (HPCA 2022) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        added = sub.add_parser(name, help=help)
        added.set_defaults(func=func)
        return added

    command("models", cmd_models, "list model configurations")
    p_search = command("search", cmd_search, "run the kernel search")
    p_search.add_argument("model", choices=sorted(MODEL_CONFIGS))
    p_search.add_argument("--bram-budget", type=int, default=1024,
                          help="Rule One BRAM budget in BRAM36 tiles")

    p_run = command("run", cmd_run, "serve a request stream")
    _add_workload_options(p_run, batch=1, requests=8, rows=8192)
    _add_vcache_options(p_run)
    p_run.add_argument("--backend", choices=BACKEND_CHOICES, default="rm-ssd")
    p_run.add_argument("--no-compute", action="store_true",
                       help="skip numeric outputs (timing only)")
    p_run.add_argument("--window-ms", type=float, default=1.0,
                       help="window width for --timeseries-out, in "
                            "simulated milliseconds")
    _add_exports(p_run, "--trace-out", "--metrics-out", "--timeseries-out",
                 "--prom-out")

    p_profile = command("profile", cmd_profile, "profiled DES run: "
                        "utilization + bottleneck attribution")
    _add_workload_options(p_profile, batch=2, requests=4, rows=512)
    _add_vcache_options(p_profile)
    p_profile.add_argument("--backend", choices=RMSSD_BACKENDS,
                           default="rm-ssd")
    p_profile.add_argument("--top", type=int, default=8,
                           help="resources to list in the utilization table")
    p_profile.add_argument("--no-fastpath", action="store_true",
                           help="force the per-read DES (the fast path "
                                "records bitwise-identical profiles)")
    _add_exports(p_profile, "--profile-out", required=True)
    _add_exports(p_profile, "--trace-out")

    p_sweep = command("sweep", cmd_sweep, "batch-size sweep")
    _add_workload_options(p_sweep, requests=4, rows=8192)
    p_sweep.add_argument("--backends", default="rm-ssd,recssd,dram")
    p_sweep.add_argument("--batches", default="1,2,4,8,16")

    command("selfcheck", cmd_selfcheck,
            "verify the installation's core invariants")

    p_advise = command("advise", cmd_advise,
                       "should this model be served in-storage?")
    p_advise.add_argument("model", choices=sorted(MODEL_CONFIGS))

    p_sla = command("sla", cmd_sla, "open-loop SLA study on RM-SSD")
    p_sla.add_argument("model", choices=sorted(MODEL_CONFIGS))
    _add_serving_options(p_sla, queries=150)
    _add_exports(p_sla, "--timeseries-out")

    p_report = command("report", cmd_report, "per-window serving dashboard: "
                       "tails, utilization, SLO alerts")
    p_report.add_argument("model", choices=sorted(MODEL_CONFIGS))
    p_report.add_argument("--load", type=float, default=0.9,
                          help="offered load as a fraction of saturation")
    _add_serving_options(p_report, queries=400)
    p_report.add_argument("--sketch-k", type=int, default=1024,
                          help="rank-sketch compactor capacity "
                               "(rank error scales as ~8/k)")
    p_report.add_argument("--explain", action="store_true",
                          help="append the per-request critical-path "
                               "attribution (implied by --explain-out)")
    _add_exports(p_report, "--timeseries-out", "--metrics-out", "--prom-out",
                 "--explain-out")

    p_explain = command(
        "explain", cmd_explain,
        "per-request critical-path attribution and tail exemplars, "
        "or a cross-run regression diff (--diff)",
    )
    p_explain.add_argument("model", nargs="?", default=None,
                           choices=sorted(MODEL_CONFIGS))
    p_explain.add_argument("--diff", nargs=2, default=None,
                           metavar=("BASELINE", "FRESH"),
                           help="diff two exported explain/profile/"
                                "timeseries JSON documents and attribute "
                                "the regression instead of running")
    p_explain.add_argument("--top-k", type=int, default=3,
                           help="exemplar requests listed per quantile")
    p_explain.add_argument("--load", type=float, default=0.9,
                           help="offered load as a fraction of saturation")
    _add_serving_options(p_explain, queries=400)
    _add_exports(p_explain, "--explain-out", "--trace-out")

    p_cgen = command("criteo-gen", cmd_criteo_gen,
                     "generate a Criteo-format TSV")
    p_cgen.add_argument("path")
    p_cgen.add_argument("--rows", type=int, default=1000)
    p_cgen.add_argument("--vocab", type=int, default=100_000)
    p_cgen.add_argument("--locality", type=float, default=0.65)
    p_cgen.add_argument("--seed", type=int, default=0)

    p_crun = command("criteo-run", cmd_criteo_run,
                     "serve a Criteo file on RM-SSD")
    p_crun.add_argument("path")
    p_crun.add_argument("model", choices=sorted(MODEL_CONFIGS))
    p_crun.add_argument("--batch", type=int, default=8)
    p_crun.add_argument("--rows", type=int, default=4096)
    p_crun.add_argument("--limit", type=int, default=None)

    p_trace = command("trace-stats", cmd_trace_stats,
                      "Fig. 4-style trace statistics")
    p_trace.add_argument("--tables", type=int, default=1)
    p_trace.add_argument("--rows", type=int, default=100_000)
    p_trace.add_argument("--lookups", type=int, default=80)
    p_trace.add_argument("--locality", type=float, default=0.65)
    p_trace.add_argument("--requests", type=int, default=200)
    p_trace.add_argument("--seed", type=int, default=0)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as error:
        # A value argparse's types accept and the simulator rejects
        # (--queries 0, --load nan, ...): its convention, no traceback.
        print(f"{parser.prog}: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
