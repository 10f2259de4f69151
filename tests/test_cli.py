"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from tests.timer import returns_within


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "rmc9"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "rmc1"])
        assert args.backend == "rm-ssd"
        assert args.batch == 1


class TestCommands:
    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "RMC1" in out and "WnD" in out

    def test_search(self, capsys):
        assert main(["search", "rmc1"]) == 0
        out = capsys.readouterr().out
        assert "4x2" in out
        assert "XC7A200T" in out

    def test_search_with_budget(self, capsys):
        assert main(["search", "rmc3", "--bram-budget", "280"]) == 0
        out = capsys.readouterr().out
        assert "dram" in out

    def test_run_each_backend_smoke(self, capsys):
        for backend in (
            "dram", "emb-vectorsum", "recssd", "rm-ssd-naive",
            "ssd-s", "ssd-m", "emb-mmio", "emb-pagesum",
        ):
            code = main(
                ["run", "rmc1", "--backend", backend, "--requests", "2",
                 "--rows", "512", "--no-compute"]
            )
            assert code == 0
            out = capsys.readouterr().out
            assert "QPS" in out

    def test_run_with_compute(self, capsys):
        assert main(["run", "rmc1", "--requests", "1", "--rows", "256"]) == 0
        assert "throughput" in capsys.readouterr().out

    def test_run_prints_lookup_path_and_fallback_reason(self, capsys, monkeypatch):
        argv = ["run", "rmc1", "--requests", "2", "--rows", "256", "--no-compute"]
        assert main(argv) == 0
        assert "lookup path:    fast x2\n" in capsys.readouterr().out
        monkeypatch.setenv("RMSSD_FASTPATH", "0")
        assert main(argv) == 0
        assert "lookup path:    des x2 (fast disabled)" in capsys.readouterr().out

    def test_sweep(self, capsys):
        code = main(
            ["sweep", "rmc1", "--backends", "rm-ssd,dram",
             "--batches", "1,4", "--requests", "2", "--rows", "512"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "RM-SSD" in out and "DRAM" in out

    def test_advise(self, capsys):
        assert main(["advise", "rmc3"]) == 0
        out = capsys.readouterr().out
        assert "recommendation" in out
        assert "RMC3" in out

    def test_sla(self, capsys):
        code = main(["sla", "rmc1", "--rows", "256", "--queries", "40",
                     "--sla-ms", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "saturation" in out
        assert "max load" in out

    def test_criteo_gen_and_run(self, capsys, tmp_path):
        tsv = str(tmp_path / "c.tsv")
        assert main(["criteo-gen", tsv, "--rows", "80"]) == 0
        assert "wrote 80" in capsys.readouterr().out
        code = main(["criteo-run", tsv, "ncf", "--batch", "4",
                     "--rows", "256"])
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out

    def test_trace_stats(self, capsys):
        code = main(
            ["trace-stats", "--rows", "5000", "--requests", "50",
             "--lookups", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "lookups=" in out
        assert "occurrence" in out

    def test_report(self, capsys, tmp_path):
        ts = tmp_path / "ts.json"
        prom = tmp_path / "prom.txt"
        code = main([
            "report", "rmc1", "--rows", "64", "--queries", "60",
            "--window-ms", "2", "--timeseries-out", str(ts),
            "--prom-out", str(prom),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "per-window dashboard" in out
        assert "run aggregate" in out
        assert "alert timeline" in out
        assert "stream tails" in out
        import json

        document = json.loads(ts.read_text())
        assert document["schema"] == "rmssd-timeseries/v1"
        assert "serving.latency_ns" in document["series"]
        assert "slo" in document
        assert "utilization" in document
        assert "rmssd_serving_batches_total" in prom.read_text()

    def test_report_overload_fires_alerts(self, capsys, tmp_path):
        code = main([
            "report", "rmc1", "--rows", "64", "--queries", "300",
            "--load", "1.02", "--window-ms", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[page]" in out or "[ticket]" in out

    def test_run_timeseries_and_prom_out(self, capsys, tmp_path):
        ts = tmp_path / "ts.json"
        prom = tmp_path / "prom.txt"
        code = main([
            "run", "rmc1", "--backend", "rm-ssd", "--requests", "2",
            "--rows", "64", "--no-compute",
            "--timeseries-out", str(ts), "--prom-out", str(prom),
        ])
        assert code == 0
        import json

        document = json.loads(ts.read_text())
        assert document["schema"] == "rmssd-timeseries/v1"
        assert document["series"], "device run produced no windowed series"
        assert "rmssd_" in prom.read_text()

    def test_sla_timeseries_and_worst_window(self, capsys, tmp_path):
        ts = tmp_path / "ts.json"
        code = main([
            "sla", "rmc1", "--rows", "256", "--queries", "40",
            "--sla-ms", "20", "--timeseries-out", str(ts),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "worst window" in out
        assert "timeseries:" in out
        import json

        assert json.loads(ts.read_text())["schema"] == "rmssd-timeseries/v1"


# Tiny-trace versions of the serving studies tools/check.sh smokes:
# (argv, the --*-out flags whose documents must not depend on the path).
SERVING_STUDIES = [
    (["explain", "rmc1", "--rows", "64", "--queries", "120"],
     ["--explain-out"]),
    (["explain", "rmc2", "--cluster", "--balancer", "jsq", "--rows", "64",
      "--duration-ms", "100"],
     ["--explain-out"]),
    (["sla", "rmc1", "--cluster", "--autoscale", "--balancer", "jsq",
      "--sla-ms", "0.5", "--window-ms", "2", "--rows", "64",
      "--duration-ms", "100"],
     ["--timeseries-out"]),
    (["report", "rmc1", "--cluster", "--explain", "--rows", "64",
      "--duration-ms", "100"],
     ["--explain-out", "--timeseries-out"]),
]


class TestServingStudies:
    @pytest.mark.parametrize(
        "argv,outs", SERVING_STUDIES, ids=lambda v: " ".join(v[:3])
    )
    def test_exports_are_path_independent(self, argv, outs, capsys, tmp_path):
        documents = {}
        for path, extra in (("fast", []), ("des", ["--no-fastpath"])):
            files = [tmp_path / f"{path}{i}.json" for i in range(len(outs))]
            flags = [arg for pair in zip(outs, map(str, files)) for arg in pair]
            assert main(argv + extra + flags) == 0
            assert f"pipeline path: {path}" in capsys.readouterr().out
            documents[path] = [f.read_bytes() for f in files]
        assert documents["fast"] == documents["des"]
        assert all(documents["fast"])


CLUSTER_STUDIES = [
    ["sla", "rmc1", "--cluster"],
    ["report", "rmc1", "--cluster"],
    ["explain", "rmc1", "--cluster"],
]
TINY_FLEET = ["--rows", "64", "--duration-ms", "50"]
EXPORT_FLAGS = {
    "run": ["--trace-out", "--metrics-out", "--timeseries-out", "--prom-out"],
    "profile": ["--profile-out", "--trace-out"],
    "sla": ["--timeseries-out"],
    "report": ["--timeseries-out", "--metrics-out", "--prom-out",
               "--explain-out"],
    "explain": ["--explain-out", "--trace-out"],
}


def refused(argv, capsys) -> str:
    """Run a command the simulator must refuse; return its message."""
    with returns_within(10.0, " ".join(argv)):
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err.startswith("rmssd-repro: error: ")
    return captured.err


class TestBoundaryErrors:
    @pytest.mark.parametrize("study", CLUSTER_STUDIES, ids=lambda v: v[0])
    @pytest.mark.parametrize("qps", ["0", "-5"])
    def test_qps_zero_is_not_the_default_load(self, study, qps, capsys):
        message = refused(study + TINY_FLEET + ["--qps", qps], capsys)
        assert "offered load must be positive" in message

    @pytest.mark.parametrize("study", CLUSTER_STUDIES, ids=lambda v: v[0])
    def test_empty_fleet_is_named(self, study, capsys):
        message = refused(study + TINY_FLEET + ["--replicas", "0"], capsys)
        assert "need at least one replica" in message
        message = refused(
            study + TINY_FLEET
            + ["--autoscale", "--min-replicas", "3", "--max-replicas", "2"],
            capsys,
        )
        assert "max replicas must be >= min replicas" in message

    @pytest.mark.parametrize("argv,message", [
        (["sla", "rmc1", "--queries", "0"], "need at least one query"),
        (["report", "rmc1", "--queries", "0"], "need at least one query"),
        (["explain", "rmc1", "--queries", "0"], "need at least one query"),
        (["sla", "rmc1", "--window-ms", "0"], "window"),
        (["report", "rmc1", "--window-ms", "0"], "window_ns must be positive"),
        (["sla", "rmc1", "--cluster", "--duration-ms", "0"],
         "trace duration must be positive"),
        (["report", "rmc1", "--load", "0"], "offered load must be positive"),
        (["report", "rmc1", "--load", "nan"], "arrival times must be finite"),
        (["explain", "rmc1", "--load", "nan"], "arrival times must be finite"),
        (["report", "rmc1", "--quantile", "101"], "quantile must be in"),
        (["sla", "rmc1", "--cluster", "--duration-ms", "50",
          "--quantile", "101"], "quantile must be in"),
        (["run", "rmc1", "--batch", "0"], "batch size must be positive"),
        (["profile", "rmc1", "--batch", "0"], "batch size must be positive"),
        (["explain", "rmc1", "--cluster", "--replicas", "0"],
         "need at least one replica"),
        (["report", "rmc1", "--cluster", "--qps", "-5"],
         "offered load must be positive"),
        (["sla", "rmc1", "--cluster", "--replicas", "1", "--duration-ms",
          "nan"], "duration_ms must be finite"),
        (["sla", "rmc1", "--cluster", "--replicas", "1", "--duration-ms",
          "inf"], "duration_ms must be finite"),
        (["sla", "rmc1", "--cluster", "--replicas", "1", "--qps", "nan"],
         "qps must be finite"),
        (["sla", "rmc1", "--cluster", "--replicas", "1", "--qps", "inf"],
         "qps must be finite"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_hostile_value_is_a_message_and_writes_nothing(
        self, argv, message, capsys, tmp_path
    ):
        flags = []
        for flag in EXPORT_FLAGS[argv[0]]:
            flags += [flag, str(tmp_path / flag.strip("-"))]
        assert message in refused(argv + ["--rows", "64"] + flags, capsys)
        assert list(tmp_path.iterdir()) == []


class TestExplainTraceOutNote:
    def test_cluster_mode_says_trace_out_is_ignored(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        argv = ["explain", "rmc1", "--cluster", *TINY_FLEET,
                "--trace-out", str(trace)]
        assert main(argv) == 0
        assert ("note: --trace-out covers single-device mode only; "
                "ignored with --cluster") in capsys.readouterr().out
        assert not trace.exists()

    def test_device_mode_writes_the_trace_silently(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        argv = ["explain", "rmc1", "--rows", "64", "--queries", "60",
                "--trace-out", str(trace)]
        assert main(argv) == 0
        assert "note:" not in capsys.readouterr().out
        assert trace.exists()
