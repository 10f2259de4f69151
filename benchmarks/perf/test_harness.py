"""Tests of the benchmark harness itself (not part of tier-1).

Run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_harness.py -q

The unit tests use a fake clock and synthetic result files; the last
three start real (tiny) child runs and take ~30 s together.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.perf import compare, spec
from benchmarks.perf.trace import EXTRA_OP, OP_SPAN, SpanRecorder, render_ledger

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "benchmarks" / "perf" / "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ----------------------------------------------------------------------
# Declarations
# ----------------------------------------------------------------------
def test_benchmark_json_is_what_the_spec_declares():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()


def test_declarations_fit_the_contract():
    document = spec.benchmark_json()
    names = [w["name"] for w in document["workloads"]]
    names += [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert 2 <= len(document["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in document["workloads"])
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    for metric in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in document["end_to_end"])
    setup = next(m for m in document["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in document["end_to_end"])
    assert 1 <= document["run_seconds"] <= 60
    assert len(json.dumps(document)) < 64 * 1024


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class Layers:
    """Stand-in program: outer calls inner twice."""

    def inner(self, value):
        return value + 1

    def outer(self, value):
        return self.inner(self.inner(value))


def _recorder():
    recorder = SpanRecorder(clock=FakeClock())
    recorder.wrap(Layers, "outer", "layers.outer")
    recorder.wrap(Layers, "inner", "layers.inner")
    return recorder


def test_spans_nest_and_self_times_sum_to_the_op():
    recorder = _recorder()
    with recorder.traced_op(7):
        assert Layers().outer(1) == 3
    names = [span[0] for span in recorder.spans]
    assert names == [OP_SPAN, "layers.outer", "layers.inner", "layers.inner"]
    for name, start, end, parent, op in recorder.spans:
        assert op == 7 and end > start
        if parent >= 0:
            _, parent_start, parent_end, _, parent_op = recorder.spans[parent]
            assert parent_start <= start and end <= parent_end and parent_op == op
    assert all(own >= 0 for own in recorder.self_times())
    ledger = recorder.ledger()
    assert ledger["layers.inner"]["calls"] == 2
    assert sum(row["self_s"] for row in ledger.values()) == pytest.approx(
        ledger[OP_SPAN]["busy_s"]
    )
    assert "layers.outer" in render_ledger(ledger, 1, "title")


def test_wrappers_are_removed_after_the_op():
    original_outer, original_inner = vars(Layers)["outer"], vars(Layers)["inner"]
    recorder = _recorder()
    with recorder.traced_op(0):
        assert vars(Layers)["outer"] is not original_outer
        Layers().outer(1)
    assert vars(Layers)["outer"] is original_outer
    assert vars(Layers)["inner"] is original_inner
    assert recorder.restored()
    recorded = len(recorder.spans)
    assert Layers().outer(1) == 3  # untraced op after a traced one
    assert len(recorder.spans) == recorded


def test_wrappers_are_removed_when_the_op_raises():
    recorder = SpanRecorder(clock=FakeClock())

    class Broken:
        def call(self):
            raise ValueError("boom")

    recorder.wrap(Broken, "call", "broken.call")
    with pytest.raises(ValueError):
        with recorder.traced_op(0):
            Broken().call()
    assert recorder.restored()
    assert all(span is not None for span in recorder.spans)


def test_probes_outside_ops_stay_out_of_the_op_ledger():
    recorder = _recorder()
    recorder.install()
    Layers().inner(0)
    recorder.remove()
    assert recorder.spans[0][4] == EXTRA_OP
    assert recorder.ledger() == {}
    assert recorder.ledger(extra=True)["layers.inner"]["calls"] == 1


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def _result(values, digest="d", sim_qps=10.0, failed=0):
    """A result file with one ``lookup_rmc2`` run per value of
    ``host_op_p50_ms`` (seeds 1, 2, ...)."""
    sim = dict.fromkeys(spec.SIM_METRICS, 0.0)
    sim["sim_qps"] = sim_qps
    return {
        "runs": [
            {
                "workload": "lookup_rmc2", "seed": seed, "tiny": False, "trace": 0,
                "metrics": {"host_op_p50_ms": value}, "sim": sim,
                "sim_digest": digest, "sim_digests": [digest],
                "attempted": 20, "failed": failed, "correct": failed == 0,
            }
            for seed, value in enumerate(values, start=1)
        ]
    }


#: The bound of ``host_op_p50_ms``, which the synthetic files carry.
BOUND = next(m.bound for m in spec.END_TO_END if m.name == "host_op_p50_ms")


@pytest.mark.parametrize(
    "scale, expected",
    [
        (1.0 + 0.5 * BOUND, compare.WITHIN),
        (1.0 + 1.5 * BOUND, compare.WORSE),
        (1.0 - 1.5 * BOUND, compare.BETTER),
    ],
)
def test_compare_verdicts(scale, expected):
    before = [100.0, 101.0, 102.0, 103.0]
    rows, mismatches = compare.compare_documents(
        _result(before), _result([value * scale for value in before])
    )
    assert [row[-1] for row in rows] == [expected]
    assert not mismatches


def test_compare_wide_spread_is_better_only_if_every_run_is():
    wide = [100.0, 130.0, 160.0, 190.0]
    assert compare.spread(wide) > BOUND
    rows, _ = compare.compare_documents(_result(wide), _result([90.0, 120.0, 150.0, 180.0]))
    assert rows[0][-1] == compare.UNRESOLVED
    rows, _ = compare.compare_documents(_result(wide), _result([50.0, 60.0, 70.0, 80.0]))
    assert rows[0][-1] == compare.BETTER


def test_compare_exits_nonzero_on_worse_unequal_sim_or_failed_ops(tmp_path, capsys):
    paths = {}
    for label, document in {
        "a": _result([100.0, 101.0]),
        "same": _result([100.5, 101.5]),
        "slow": _result([200.0, 201.0]),
        "drift": _result([100.0, 101.0], digest="other"),
        "sim": _result([100.0, 101.0], sim_qps=11.0),
        "fast_but_failing": _result([50.0, 51.0], failed=1),
    }.items():
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_text(json.dumps(document))
    assert compare.main(str(paths["a"]), str(paths["same"])) == 0
    assert compare.main(str(paths["a"]), str(paths["slow"])) == 1
    assert compare.main(str(paths["a"]), str(paths["drift"])) == 1
    assert compare.main(str(paths["a"]), str(paths["sim"])) == 1
    assert "sim_digest differs" in capsys.readouterr().out
    assert compare.main(str(paths["a"]), str(paths["fast_but_failing"])) == 1
    assert "B failed 1 of 20" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Real child runs (tiny)
# ----------------------------------------------------------------------
def test_self_test_passes(tmp_path):
    done = subprocess.run(
        RUN + ["--self-test", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    spans = json.loads((tmp_path / "trace_fleet_flash_crowd.json").read_text())["spans"]
    for name, start, end, parent, op in spans:
        assert NAME.match(name) and end >= start
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2]
            assert spans[parent][4] == op


def test_one_run_prints_the_contract_line_last(tmp_path):
    done = subprocess.run(
        RUN + ["--workload", "mlp_rmc3", "--seed", "5", "--seconds", "0.2",
               "--trace", "0", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert sorted(line["metrics"]) == sorted(m.name for m in spec.END_TO_END)
    for metric in spec.END_TO_END:
        entry = line["metrics"][metric.name]
        assert entry["unit"] == metric.unit and entry["value"] > 0
    status = subprocess.run(
        ["git", "status", "--short", "--", "."], cwd=ROOT, capture_output=True, text=True
    ).stdout
    assert str(tmp_path) not in status


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and ``paths`` the
    command exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "benchmarks" / "perf", tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "mlp_rmc3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
