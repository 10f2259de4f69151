"""Ablation — Rule One's BRAM budget.

Sweeps the on-chip weight budget the kernel search may use for RMC3
(the only evaluated model whose weights do not trivially fit).  As the
budget shrinks, more layers spill to DRAM: the engine's BRAM bill
falls, its DSP/LUT bill rises (DRAM kernels are 16x8 = 16 MAC units),
and the pipeline interval is unchanged as long as the embedding stage
still dominates — which is exactly why the paper can target a low-end
part without losing throughput.
"""

import pytest

from repro.analysis.report import Table
from repro.core.device import operating_point
from repro.fpga.decompose import PLACEMENT_DRAM
from repro.models import build_model, get_config

BUDGETS = (2400, 1024, 280, 64)


def _measure():
    config = get_config("rmc3")
    out = {}
    for budget in BUDGETS:
        model = build_model(config, rows_per_table=64)
        result = operating_point(
            model, config.lookups_per_table, bram_budget_tiles=budget
        )
        spilled = [
            l.name for l in result.model.all_layers()
            if l.placement == PLACEMENT_DRAM
        ]
        out[budget] = (result, spilled)
    return out


@pytest.mark.benchmark(group="ablation")
def test_ablation_bram_budget(benchmark):
    results = benchmark.pedantic(_measure, rounds=1, iterations=1)

    table = Table(
        "Ablation (RMC3): Rule One BRAM budget sweep",
        ["budget (tiles)", "DRAM layers", "BRAM", "DSP", "Nbatch",
         "interval (cyc)"],
    )
    for budget in BUDGETS:
        result, spilled = results[budget]
        table.add_row(
            budget,
            ",".join(spilled) or "(none)",
            f"{result.resources.bram:.0f}",
            result.resources.dsp,
            result.nbatch,
            result.times.interval,
        )
    table.print()

    # Tighter budgets spill monotonically more layers...
    spill_counts = [len(results[b][1]) for b in BUDGETS]
    assert spill_counts == sorted(spill_counts)
    # ...and cut the BRAM bill.
    brams = [results[b][0].resources.bram for b in BUDGETS]
    assert brams[-1] < brams[0]
    # The 10 MB first layer spills at every realistic budget.
    for budget in BUDGETS:
        assert "Lb0" in results[budget][1]
    # Throughput is embedding-bound at the two deployment-relevant
    # budgets (the VU9P-class and the XC7A200T-class points), so
    # spilling between them is free.
    assert (
        results[1024][0].times.interval == results[280][0].times.interval
    )
