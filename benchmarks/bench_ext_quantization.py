"""Extension — the quantization trade-off the paper declined.

Section IV-C1 keeps everything FP32 because recommendation models are
accuracy-sensitive.  This extension quantifies the choice: int8 weight
quantization of the MLP engine would cut its LUT/DSP/BRAM bill by
~3-4x, but perturbs the CTR outputs and *re-orders recommendation
rankings* — the failure mode that matters for a ranking model even when
absolute errors look small.
"""

import numpy as np
import pytest

from benchmarks.conftest import ROWS_PER_TABLE
from repro.analysis.report import Table
from repro.core.device import operating_point
from repro.models import build_model, get_config
from repro.models.quantize import (
    compare_outputs,
    int8_resource_estimate,
    quantize_dlrm,
)
from repro.workloads.inputs import RequestGenerator

MODELS = ("rmc1", "rmc2", "rmc3")
SAMPLES = 64


def _measure():
    out = {}
    for key in MODELS:
        config = get_config(key)
        model = build_model(config, rows_per_table=ROWS_PER_TABLE, seed=3)
        quantized = quantize_dlrm(model)
        generator = RequestGenerator(config, ROWS_PER_TABLE, seed=4)
        request = generator.request(batch_size=SAMPLES)
        reference = model.forward(request.dense, request.sparse)
        q_outputs = quantized.forward(request.dense, request.sparse)
        report = compare_outputs(reference, q_outputs)

        fp32 = operating_point(model, config.lookups_per_table).resources
        int8 = int8_resource_estimate(fp32)
        out[key] = (report, fp32, int8)
    return out


@pytest.mark.benchmark(group="extension")
def test_ext_quantization_tradeoff(benchmark):
    results = benchmark.pedantic(_measure, rounds=1, iterations=1)

    table = Table(
        "Extension: int8 MLP quantization — accuracy cost vs resource saving",
        ["model", "max |dCTR|", "mean |dCTR|", "rank flips",
         "LUT fp32->int8", "DSP fp32->int8"],
    )
    for key in MODELS:
        report, fp32, int8 = results[key]
        table.add_row(
            key.upper(),
            f"{report.max_abs_error:.2e}",
            f"{report.mean_abs_error:.2e}",
            f"{report.flipped_rankings}/{report.samples * (report.samples - 1) // 2}"
            f" ({report.flip_rate:.2%})",
            f"{fp32.lut} -> {int8['lut']}",
            f"{fp32.dsp} -> {int8['dsp']}",
        )
    table.print()

    for key in MODELS:
        report, fp32, int8 = results[key]
        # Quantization is not free: outputs move measurably.
        assert report.max_abs_error > 1e-6, key
        # ...but it is a *rounding* error, not a collapse.
        assert report.max_abs_error < 0.5, key
        # The resource saving the paper left on the table.
        assert int8["lut"] <= fp32.lut / 3, key
        assert int8["dsp"] <= fp32.dsp, key
    # The deeper the MLP, the more the error compounds.
    assert results["rmc3"][0].mean_abs_error >= results["rmc1"][0].mean_abs_error / 10
