"""Table VI — FPGA resource consumption of the MLP Acceleration Engine.

Compares three design points per model through the analytic resource
model: MLP-naive (a shared 16x16 GEMM run layer by layer), MLP (all
layers mapped with default kernels), and MLP-op (kernel-searched).
The absolute counts come from a calibrated analytic model rather than
Vivado synthesis; the *verdicts* the paper draws are asserted:

* the optimized engine costs an order of magnitude less than the
  default mapping for RMC1/2;
* RMC1/2 fit the low-end XC7A200T at every design point's optimized
  configuration;
* RMC3 does **not** fit the XC7A200T with the naive or default
  designs, but the kernel-searched engine does.
"""

import pytest

from repro.analysis.report import Table
from repro.core.device import operating_point
from repro.fpga.decompose import decompose_model
from repro.fpga.kernel import KernelSize
from repro.fpga.resources import engine_resources, naive_gemm_resources
from repro.fpga.search import default_kernels
from repro.fpga.specs import XC7A200T, XCVU9P
from repro.models import build_model, get_config

#: Paper values (Table VI): (LUT, FF, BRAM, DSP).
PAPER = {
    ("rmc1", "MLP-naive"): (154541, 59032, 237, 612),
    ("rmc1", "MLP"): (159338, 60672, 194, 604),
    ("rmc1", "MLP-op"): (19064, 8294, 85, 41),
    ("rmc3", "MLP-naive"): (219671, 82676, 246.5, 612),
    ("rmc3", "MLP"): (284120, 96598, 320, 928),
    ("rmc3", "MLP-op"): (131720, 49277, 221.5, 366),
}


def _design_points(key):
    config = get_config(key)
    model = build_model(config, rows_per_table=64)
    shapes = list(model.fc_shapes_bottom()) + list(model.fc_shapes_top())
    naive = naive_gemm_resources(shapes)

    dec_default = decompose_model(model, config.lookups_per_table)
    if key == "rmc3":
        default_kernels(dec_default, kernel_area_log2=6,
                        first_bottom_kernel=KernelSize(16, 8))
    else:
        default_kernels(dec_default, kernel_area_log2=8)
    default = engine_resources(dec_default)

    # The deployable design point targets the low-end part: Rule One's
    # BRAM budget is the XC7A200T's 365 tiles minus a reserve for the
    # Embedding Lookup Engine and controller logic.
    optimized = operating_point(
        model, config.lookups_per_table, bram_budget_tiles=280
    ).resources
    return {"MLP-naive": naive, "MLP": default, "MLP-op": optimized}


def _measure():
    return {key: _design_points(key) for key in ("rmc1", "rmc2", "rmc3")}


@pytest.mark.benchmark(group="table06")
def test_table06_resource_consumption(benchmark):
    points = benchmark.pedantic(_measure, rounds=1, iterations=1)

    table = Table(
        "Table VI: analytic resource model [paper synthesis in brackets]",
        ["model", "design", "LUT", "FF", "BRAM", "DSP", "fits XC7A200T"],
    )
    for key in ("rmc1", "rmc2", "rmc3"):
        for design in ("MLP-naive", "MLP", "MLP-op"):
            usage = points[key][design]
            paper = PAPER.get((key, design))
            note = (
                f" [{paper[0]}]" if paper else ""
            )
            table.add_row(
                key.upper(),
                design,
                f"{usage.lut}{note}",
                usage.ff,
                f"{usage.bram:.0f}",
                usage.dsp,
                "yes" if XC7A200T.fits(usage) else "NO",
            )
    table.add_row("--", "XC7A200T cap", XC7A200T.luts, XC7A200T.ffs,
                  XC7A200T.brams, XC7A200T.dsps, "-")
    table.print()

    for key in ("rmc1", "rmc2", "rmc3"):
        naive = points[key]["MLP-naive"]
        default = points[key]["MLP"]
        optimized = points[key]["MLP-op"]
        # The kernel search shrinks the engine dramatically.
        assert optimized.lut < default.lut, key
        assert optimized.dsp < default.dsp, key
        # Everything fits the big emulation part.
        for usage in (naive, default, optimized):
            assert XCVU9P.fits(usage), key
    # Near-order-of-magnitude claim for the embedding-dominated models.
    for key in ("rmc1", "rmc2"):
        assert points[key]["MLP"].dsp > 5 * points[key]["MLP-op"].dsp, key
        assert points[key]["MLP"].lut > 4 * points[key]["MLP-op"].lut, key
        assert XC7A200T.fits(points[key]["MLP-op"]), key
    # "RMC3 cannot work with both default settings and naive MLP design"
    # on the low-end part — but the optimized engine can.
    assert not XC7A200T.fits(points["rmc3"]["MLP"])
    assert not XC7A200T.fits(points["rmc3"]["MLP-naive"])
    assert XC7A200T.fits(points["rmc3"]["MLP-op"])
