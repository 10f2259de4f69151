"""The benchmark's command line.  Run from the repo root::

    python3 benchmarks/perf/run.py                      # all six workloads, untraced
    python3 benchmarks/perf/run.py --trace 1            # per-layer ledger of each
    python3 benchmarks/perf/run.py --workload mlp_rmc3 --seed 3 --seconds 12 --trace 0
    python3 benchmarks/perf/run.py --compare A.json B.json
    python3 benchmarks/perf/run.py --self-test

This process only spawns and collects: each workload runs alone in a
fresh child interpreter (``child.py``), one at a time, single-threaded,
with every ``RMSSD_*`` variable stripped so the program runs on its
user-facing defaults.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.perf import compare, spec  # noqa: E402
from benchmarks.perf.trace import render_ledger  # noqa: E402

#: Processes per untraced run.  Each sets up, warms up and measures
#: its share of ``--seconds``; op times are pooled and ``setup_s`` is
#: the median of the set-ups, so no one process's memory layout or one
#: slow moment of the box decides a metric (the same ops in a fresh
#: process were seen to run 5% faster or slower, start to end).
PROCESSES_PER_RUN = 4
#: Everything the harness writes lands here, inside the checkout.
DEFAULT_OUT = str(ROOT / ".bench_out" / "perf")
NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def child_environment() -> Dict[str, str]:
    """The parent's environment, single-threaded, without ``RMSSD_*``."""
    environment = {
        key: value for key, value in os.environ.items() if not key.startswith("RMSSD_")
    }
    for key in spec.THREAD_VARIABLES:
        environment[key] = "1"
    environment["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + [p for p in environment.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return environment


def spawn_child(workload: str, seed: int, seconds: float, trace: int, out: str,
                tiny: bool) -> dict:
    """Run one child to completion and return the object it printed."""
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--out", out,
        "--spawned-at", repr(time.time()),
    ]
    if tiny:
        command.append("--tiny")
    done = subprocess.run(
        command, env=child_environment(), cwd=str(ROOT),
        stdout=subprocess.PIPE, text=True, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"child for {workload} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int, out: str,
                 tiny: bool = False, processes: int = PROCESSES_PER_RUN) -> dict:
    """One run of one workload, as the document the result file keeps.

    Process ``k`` generates its inputs from seed ``processes * seed +
    k``, so a run covers that many input streams, all fixed by
    ``--seed``.  A traced run is the single process ``k = 0`` with the
    whole budget: its ``sim_digest`` must equal the untraced run's.
    """
    if trace:
        processes = 1
    children = [
        spawn_child(
            workload, PROCESSES_PER_RUN * seed + k, seconds / processes, trace, out, tiny
        )
        for k in range(processes)
    ]
    document = dict(children[0], seed=seed)
    document["attempted"] = sum(child["attempted"] for child in children)
    document["failed"] = sum(child["failed"] for child in children)
    document["checks"] = {
        name: all(child["checks"].get(name, False) for child in children)
        for name in children[0]["checks"]
    }
    document["sim_digests"] = [child["sim_digest"] for child in children]
    document["setup_samples_s"] = [child["setup_s"] for child in children]
    if not trace:
        pooled = [sample for child in children for sample in child["host_op_s"]]
        for raw in ("host_op_s", "inferences", "peak_rss_mb"):
            del document[raw]
        document["ops"]["untraced"] = len(pooled)
        document["metrics"] = {}
        if pooled:
            typical_s = statistics.median(pooled)
            per_op = sum(child["inferences"] for child in children) / len(pooled)
            document["metrics"] = {
                "setup_s": statistics.median(document["setup_samples_s"]),
                "host_op_p50_ms": typical_s * 1e3,
                "host_inferences_per_s": per_op / typical_s,
                "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
            }
            document["host_op"] = {
                "samples": len(pooled),
                "p90_ms": statistics.quantiles(pooled, n=10)[-1] * 1e3 if len(pooled) >= 100 else None,
                "max_ms": max(pooled) * 1e3,
            }
    document.setdefault("metrics", {})
    document["correct"] = bool(document["metrics"]) and document["failed"] == 0
    return document


def declared(trace: int) -> List[spec.Metric]:
    return spec.PER_LAYER if trace else spec.END_TO_END


def contract_line(documents: List[dict]) -> str:
    """The result object printed last: the driver's, for one run; with
    ``<workload>.seed<n>.`` before each metric name for several."""
    metrics = {}
    for document in documents:
        prefix = (
            "" if len(documents) == 1
            else f"{document['workload']}.seed{document['seed']}."
        )
        for metric in declared(document["trace"]):
            if metric.name in document["metrics"]:
                metrics[prefix + metric.name] = {
                    "value": document["metrics"][metric.name], "unit": metric.unit,
                }
    return json.dumps(
        {
            "correct": all(document["correct"] for document in documents),
            "attempted": max(1, sum(document["attempted"] for document in documents)),
            "failed": sum(document["failed"] for document in documents),
            "metrics": metrics,
        }
    )


def report(document: dict) -> str:
    """Every metric of one run by name and unit, then the ledger."""
    ops = document["ops"]
    lines = [
        f"== {document['workload']}  seed={document['seed']} trace={document['trace']}"
        f"  ops={ops['untraced']} untraced + {ops['traced']} traced"
        f"  attempted={document['attempted']} failed={document['failed']}"
        f"  fail_share={document['failed'] / max(1, document['attempted']):.4f}"
    ]
    for metric in declared(document["trace"]):
        value = document["metrics"].get(metric.name)
        if value is None:
            continue
        bound = f"  [bound {metric.bound:.0%}]" if metric.bound is not None else ""
        lines.append(f"  {metric.name:<58}{value:>16.6g} {metric.unit}{bound}")
    host_op = document.get("host_op")
    if host_op:
        p90 = f", p90 {host_op['p90_ms']:.3f} ms" if host_op["p90_ms"] else ""
        lines.append(
            f"  host_op_p50_ms is over {host_op['samples']} ops"
            f"{p90}, max {host_op['max_ms']:.3f} ms (information only)"
        )
    for name, value in document["sim"].items():
        if not document["trace"]:
            lines.append(f"  {name:<58}{value:>16.6g} (simulated, exact)")
    lines.append(f"  sim_digest {document['sim_digest']}")
    lines.append(
        "  checks: " + ", ".join(f"{k}={'ok' if v else 'FAILED'}" for k, v in document["checks"].items())
    )
    if document.get("ledger"):
        lines.append(
            render_ledger(
                document["ledger"], max(1, ops["traced"]),
                f"  ledger of {document['workload']}: host self time per traced op",
            )
        )
    return "\n".join(lines)


def write_outputs(out: str, name: str, documents: List[dict]) -> Path:
    """``<out>/<name>.json`` with every run, plus each traced run's
    rendered ledger next to its ``trace_<workload>.json``."""
    directory = Path(out)
    directory.mkdir(parents=True, exist_ok=True)
    for document in documents:
        if document.get("ledger"):
            (directory / f"ledger_{document['workload']}.txt").write_text(
                report(document) + "\n"
            )
    path = directory / f"{name}.json"
    path.write_text(
        json.dumps(
            {
                "schema": "rmssd-perf/v1",
                "nproc": os.cpu_count(),
                "python": sys.version.split()[0],
                "runs": documents,
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    return path


def self_test(out: str) -> int:
    """Every workload at tiny size, traced and untraced, two seeds."""
    problems: List[str] = []
    for workload in spec.WORKLOADS:
        plain = run_workload(workload, 1, 0.0, 0, out, tiny=True, processes=1)
        traced = run_workload(workload, 1, 0.0, 1, out, tiny=True, processes=1)
        other = run_workload(workload, 2, 0.0, 0, out, tiny=True, processes=1)
        for document in (plain, traced, other):
            label = f"{workload} seed={document['seed']} trace={document['trace']}"
            if not document["correct"]:
                problems.append(f"{label}: not correct ({document['checks']})")
            for metric in declared(document["trace"]):
                if metric.name not in document["metrics"]:
                    problems.append(f"{label}: metric {metric.name} missing")
                if not NAME_PATTERN.match(metric.name):
                    problems.append(f"{label}: bad metric name {metric.name}")
        if plain["sim_digest"] != traced["sim_digest"] or plain["sim"] != traced["sim"]:
            problems.append(f"{workload}: tracing changed the simulated outputs")
        if plain["sim_digest"] == other["sim_digest"]:
            problems.append(f"{workload}: --seed did not change the simulated outputs")
        again = run_workload(workload, 2, 0.0, 0, out, tiny=True, processes=1)
        if again["sim_digest"] != other["sim_digest"]:
            problems.append(f"{workload}: the same seed did not reproduce")
        closure = sum(row["self_s"] for row in traced["ledger"].values())
        op_busy = traced["ledger"]["harness.op"]["busy_s"]
        if abs(closure - op_busy) > 0.02 * op_busy:
            problems.append(f"{workload}: ledger sums to {closure}, ops took {op_busy}")
        print(f"self-test {workload}: done, {len(problems)} problems so far", flush=True)
    for problem in problems:
        print("PROBLEM", problem)
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0], formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS),
                        help="run one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=1,
                        help="the only input to workload generation")
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_S),
                        help="timed host seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics from spans")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds --seed, --seed+1, ...")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="directory for result, trace and ledger files")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two result files and exit")
    parser.add_argument("--self-test", action="store_true",
                        help="every workload at tiny size; checks the harness itself")
    args = parser.parse_args(argv)

    if args.compare:
        return compare.main(args.compare[0], args.compare[1])
    args.out = os.path.abspath(args.out)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(args.out)

    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    documents = []
    for name in names:
        for seed in range(args.seed, args.seed + args.repeat):
            document = run_workload(name, seed, args.seconds, args.trace, args.out)
            documents.append(document)
            print(report(document), flush=True)
    path = write_outputs(args.out, "result_trace" if args.trace else "result", documents)
    print(f"wrote {path}")
    print(contract_line(documents))
    return 0 if all(d["correct"] for d in documents) else 1


if __name__ == "__main__":
    sys.exit(main())
