"""Table V — kernel sizes chosen by the kernel search per layer.

The search must reproduce the published kernel row for RMC1/RMC2 and
RMC3 exactly, including the Rule-Two 16x8 DRAM kernel for RMC3's
spilled first layer, and the searched kernels must achieve the same
pipeline interval as the maximal default kernels (the paper: "the
default and optimized kernel setting can achieve the same
performance").
"""

import pytest

from repro.analysis.report import Table
from repro.core.device import operating_point
from repro.fpga.compose import stage_times
from repro.fpga.decompose import decompose_model
from repro.fpga.kernel import KernelSize
from repro.fpga.search import default_kernels
from repro.models import build_model, get_config

#: Paper values (Table V).
PAPER = {
    "rmc1": {"Lb0": "4x2", "Lb1": "2x4", "Lb": "4x2", "Le": "4x2",
             "Lt1": "2x4", "Lt2": "4x1"},
    "rmc2": {"Lb0": "4x2", "Lb1": "2x4", "Lb": "4x2", "Le": "4x2",
             "Lt1": "2x4", "Lt2": "4x1"},
    "rmc3": {"Lb0": "16x8", "Lb1": "8x2", "Lb2": "2x4", "Lb": "4x2",
             "Le": "4x2", "Lt1": "2x4", "Lt2": "4x1"},
}


def _search(key):
    config = get_config(key)
    model = build_model(config, rows_per_table=64)
    return config, model, operating_point(model, config.lookups_per_table)


def _measure():
    out = {}
    for key in ("rmc1", "rmc2", "rmc3"):
        config, model, result = _search(key)
        # The default (maximal) kernel design point for the same model.
        dec_default = decompose_model(model, config.lookups_per_table)
        if key == "rmc3":
            default_kernels(dec_default, kernel_area_log2=6,
                            first_bottom_kernel=KernelSize(16, 8))
        else:
            default_kernels(dec_default, kernel_area_log2=8)
        rate = dec_default.vectors_per_inference / result.flash_cycles_batch1
        default_times = stage_times(dec_default, result.nbatch, rate)
        out[key] = (result, default_times)
    return out


@pytest.mark.benchmark(group="table05")
def test_table05_kernel_search(benchmark):
    results = benchmark.pedantic(_measure, rounds=1, iterations=1)

    table = Table(
        "Table V: kernel size per layer [paper values match exactly]",
        ["model", "layer", "searched", "paper", "Nbatch"],
    )
    for key in ("rmc1", "rmc2", "rmc3"):
        result, _ = results[key]
        for name, kernel in result.kernels.items():
            table.add_row(key.upper(), name, str(kernel), PAPER[key][name],
                          result.nbatch)
    table.print()

    for key in ("rmc1", "rmc2", "rmc3"):
        result, default_times = results[key]
        kernels = {name: str(k) for name, k in result.kernels.items()}
        assert kernels == PAPER[key], key
        assert result.feasible, key
        # "the default and optimized kernel setting can achieve the
        # same performance": both are embedding-bound, so intervals tie.
        assert result.times.interval == default_times.interval, key
