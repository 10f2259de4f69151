"""Installation self-check (`rmssd-repro selfcheck`).

Runs a fast battery of the reproduction's cornerstone invariants —
the ones that, if broken, invalidate everything downstream — and
reports PASS/FAIL per check.  Meant for adopters to run once after
install, and as a quick smoke in CI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _check_table_ii() -> CheckResult:
    from repro.ssd.timing import SSDTimingModel

    timing = SSDTimingModel()
    ok = (
        abs(timing.page_read_cycles - 4000) < 1e-6
        and abs(timing.vector_read_cycles(128) - 2837.5) < 1e-6
        and 40_000 < timing.random_read_iops_bound(1) < 50_000
    )
    return CheckResult(
        "Table II timing model",
        ok,
        f"Cpage={timing.page_read_cycles:.0f}, CEV(128)="
        f"{timing.vector_read_cycles(128):.1f}",
    )


def _check_numerics() -> CheckResult:
    from repro.core.device import RMSSD
    from repro.models import MODEL_CONFIGS, build_model, get_config

    rng = np.random.default_rng(0)
    for key in MODEL_CONFIGS:
        config = get_config(key)
        model = build_model(config, rows_per_table=48, seed=1)
        device = RMSSD(model, lookups_per_table=min(config.lookups_per_table, 3))
        sparse = [
            [
                list(rng.integers(0, 48, size=min(config.lookups_per_table, 3)))
                for _ in range(config.num_tables)
            ]
        ]
        dense = (
            rng.standard_normal((1, config.dense_dim)).astype(np.float32)
            if config.dense_dim
            else None
        )
        outputs, _ = device.infer_batch(dense, sparse)
        reference = model.forward(dense, sparse)
        if not np.allclose(outputs, reference, rtol=1e-5, atol=1e-6):
            return CheckResult(
                "in-storage numerics", False, f"{key} outputs diverge"
            )
    return CheckResult(
        "in-storage numerics", True, "all 5 models match the host reference"
    )


def _check_table_v() -> CheckResult:
    from repro.core.device import operating_point
    from repro.models import build_model, get_config

    expected = {
        "rmc1": {"Lb0": "4x2", "Lb1": "2x4", "Lb": "4x2", "Le": "4x2",
                 "Lt1": "2x4", "Lt2": "4x1"},
        "rmc3": {"Lb0": "16x8", "Lb1": "8x2", "Lb2": "2x4", "Lb": "4x2",
                 "Le": "4x2", "Lt1": "2x4", "Lt2": "4x1"},
    }
    for key, kernels in expected.items():
        config = get_config(key)
        model = build_model(config, rows_per_table=16)
        result = operating_point(model, config.lookups_per_table)
        got = {name: str(k) for name, k in result.kernels.items()}
        if got != kernels:
            return CheckResult("Table V kernel search", False, f"{key}: {got}")
    return CheckResult("Table V kernel search", True, "RMC1/RMC3 exact")


def _check_ladder() -> CheckResult:
    from repro.baselines import (
        EMBPageSumBackend,
        EMBVectorSumBackend,
        NaiveSSDBackend,
    )
    from repro.models import build_model, get_config
    from repro.workloads.inputs import RequestGenerator

    config = get_config("rmc1")
    model = build_model(config, rows_per_table=1024, seed=0)
    requests = RequestGenerator(config, 1024, seed=1).requests(3, 1)
    times = {}
    for backend in (
        NaiveSSDBackend(model, 0.25),
        EMBPageSumBackend(model),
        EMBVectorSumBackend(model),
    ):
        times[backend.name] = backend.run(requests, compute=False).embedding_ns
    ok = times["SSD-S"] > times["EMB-PageSum"] > times["EMB-VectorSum"]
    return CheckResult(
        "in-storage ladder ordering",
        ok,
        " > ".join(f"{k}" for k in ("SSD-S", "EMB-PageSum", "EMB-VectorSum")),
    )


def _check_pipeline_model() -> CheckResult:
    from repro.core.pipeline_sim import PipelineSimulator

    pipe = PipelineSimulator(emb_ns=100, bot_ns=60, top_ns=40)
    run = pipe.run(16)
    ok = abs(run.steady_interval_ns - 100) < 2
    return CheckResult(
        "Eq. 1 pipeline model", ok,
        f"steady interval {run.steady_interval_ns:.1f} ns (expect 100)",
    )


ALL_CHECKS: List[Callable[[], CheckResult]] = [
    _check_table_ii,
    _check_numerics,
    _check_table_v,
    _check_ladder,
    _check_pipeline_model,
]


def run_selfcheck(verbose: bool = True) -> List[CheckResult]:
    """Run every check; returns the results (and prints when verbose)."""
    results = []
    for check in ALL_CHECKS:
        try:
            result = check()
        except Exception as error:  # surface, don't crash the battery
            result = CheckResult(check.__name__, False, f"raised {error!r}")
        results.append(result)
        if verbose:
            status = "PASS" if result.passed else "FAIL"
            print(f"[{status}] {result.name}: {result.detail}")
    if verbose:
        failed = sum(1 for r in results if not r.passed)
        print(
            f"\n{len(results) - failed}/{len(results)} checks passed"
            + ("" if not failed else f" — {failed} FAILED")
        )
    return results
