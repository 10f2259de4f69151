#!/usr/bin/env python
"""Kernel search walkthrough: from model topology to FPGA kernels.

Shows every step of Section IV-C for each evaluated model: the
intra-layer decomposition (Fig. 8), the Rule One BRAM placement, the
Rule Three batch escalation, the final per-layer kernels (Table V),
the Eq. 1 stage times, and the analytic resource bill (Table VI) under
two deployment targets (the XCVU9P emulation card and the low-end
XC7A200T an enterprise SSD would embed).

Run:  python examples/kernel_search_demo.py
"""

from repro.analysis.report import Table
from repro.core.device import operating_point
from repro.fpga.specs import XC7A200T, XCVU9P
from repro.models import build_model, get_config


def demo(key: str) -> None:
    config = get_config(key)
    model = build_model(config, rows_per_table=64, seed=0)
    result = operating_point(model, config.lookups_per_table)
    decomposed = result.model

    print(f"\n=== {config.name} ===")
    print("decomposed topology (Fig. 8):")
    chain = " -> ".join(f"{l.name}({l.rows}x{l.cols})" for l in decomposed.bottom)
    print(f"  bottom: {chain or '(none)'}")
    if decomposed.emb is not None:
        print(f"  emb:    Le({decomposed.emb.rows}x{decomposed.emb.cols})")
    chain = " -> ".join(f"{l.name}({l.rows}x{l.cols})" for l in decomposed.top)
    print(f"  top:    {chain}")

    flash = result.flash_cycles_batch1
    print(f"embedding flash time (batch 1): {flash} cycles "
          f"({flash * 5 / 1000:.1f} us) for "
          f"{decomposed.vectors_per_inference} vectors")

    table = Table(
        f"{config.name}: kernel assignment (Table V)",
        ["layer", "shape", "placement", "kernel", "cycles/batch"],
    )
    from repro.fpga.kernel import batch_cycles

    for layer in result.model.all_layers():
        table.add_row(
            layer.name,
            f"{layer.rows}x{layer.cols}",
            layer.placement,
            str(layer.kernel),
            batch_cycles(layer.rows, layer.cols, layer.kernel, result.nbatch),
        )
    table.print()

    times = result.times
    print(f"Rule Three batch: {result.nbatch}")
    print(f"stage times (Eq. 1): Temb'={times.temb}  Tbot'={times.tbot}  "
          f"Ttop'={times.ttop} cycles")
    print(f"pipeline interval: {times.interval} cycles "
          f"-> {times.throughput_qps(200e6):.0f} QPS")
    usage = result.resources
    print(f"resources: {usage.lut} LUT, {usage.ff} FF, "
          f"{usage.bram:.0f} BRAM, {usage.dsp} DSP")
    for part in (XCVU9P, XC7A200T):
        verdict = "fits" if part.fits(usage) else "DOES NOT FIT"
        print(f"  {part.name}: {verdict}")


def main() -> None:
    for key in ("rmc1", "rmc2", "rmc3", "ncf", "wnd"):
        demo(key)


if __name__ == "__main__":
    main()
