"""Ablation — intra-layer decomposition (Fig. 8).

Splitting the top MLP's first layer lets the bottom chain and the
embedding stage run fully in parallel.  Without it, L0 cannot start
until *both* producers finish, and the whole of L0 sits on the
latency path.  This ablation compares batch latency with and without
the decomposition (kernels held identical) and re-verifies numerical
exactness of the split.
"""

import numpy as np
import pytest

from repro.analysis.report import Table
from repro.core.device import operating_point
from repro.core.mlp_engine import dlrm_forward_decomposed
from repro.embedding.pooling import sls_all_tables
from repro.fpga.compose import chain_cycles, stage_times
from repro.fpga.kernel import batch_cycles
from repro.models import build_model, get_config

MODELS = ("rmc1", "rmc2", "rmc3")


def _latency_without_decomposition(result):
    """Latency when L0 is evaluated whole after both producers finish.

    bottom chain (without Lb) and embedding flash run in parallel; then
    the un-split L0 (Lb+Le recombined at Le's kernel) runs; then the
    top chain.
    """
    model = result.model
    nbatch = result.nbatch
    flash = result.flash_cycles_batch1 * nbatch
    bottom_wo_lb = model.bottom[:-1] if model.bottom else []
    bottom_time = chain_cycles(bottom_wo_lb, nbatch) if bottom_wo_lb else 0
    l0_rows = (model.bottom[-1].rows if model.bottom else 0) + (
        model.emb.rows if model.emb else 0
    )
    l0_cols = model.emb.cols if model.emb else model.bottom[-1].cols
    l0_time = batch_cycles(l0_rows, l0_cols, model.emb.kernel, nbatch)
    top_time = chain_cycles(model.top, nbatch) if model.top else 0
    return max(flash, bottom_time) + l0_time + top_time


def _measure():
    out = {}
    for key in MODELS:
        config = get_config(key)
        model = build_model(config, rows_per_table=64, seed=1)
        result = operating_point(model, config.lookups_per_table)
        with_dec = result.times.latency
        without_dec = _latency_without_decomposition(result)
        out[key] = (with_dec, without_dec, result.nbatch)
    return out


@pytest.mark.benchmark(group="ablation")
def test_ablation_intralayer_decomposition(benchmark):
    results = benchmark.pedantic(_measure, rounds=1, iterations=1)

    table = Table(
        "Ablation: intra-layer decomposition (batch latency, cycles)",
        ["model", "with (Fig. 8)", "without", "saving"],
    )
    for key in MODELS:
        with_dec, without_dec, nbatch = results[key]
        table.add_row(
            key.upper(), with_dec, without_dec,
            f"{1 - with_dec / without_dec:.0%}",
        )
    table.print()

    for key in MODELS:
        with_dec, without_dec, _ = results[key]
        assert with_dec < without_dec, key
        # And the split is numerically exact — the latency saving is
        # free (also covered by the unit tests).
        config = get_config(key)
        model = build_model(config, rows_per_table=64, seed=2)
        rng = np.random.default_rng(0)
        dense = rng.standard_normal(model.dense_dim).astype(np.float32)
        sparse = [[1, 5, 9]] * config.num_tables
        pooled = sls_all_tables(model.tables, sparse)
        reference = model.forward_one(dense, sparse)
        split = dlrm_forward_decomposed(model, dense, pooled)
        np.testing.assert_allclose(split, reference, rtol=1e-5, atol=1e-6)
