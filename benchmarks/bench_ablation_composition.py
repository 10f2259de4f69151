"""Ablation — inter-layer composition (Fig. 9a vs 9b).

Section IV-C3 claims alternating the kernel scan direction of adjacent
layers pipelines them into pairs, cutting the MLP chain time roughly in
half versus the same-scan design.  This ablation evaluates both chain
schedules with the *same* kernels for every model.
"""

import pytest

from repro.analysis.report import Table
from repro.core.device import operating_point
from repro.fpga.compose import chain_cycles, uncomposed_chain_cycles
from repro.models import build_model, get_config

MODELS = ("rmc1", "rmc2", "rmc3", "ncf", "wnd")


def _measure():
    out = {}
    for key in MODELS:
        config = get_config(key)
        model = build_model(config, rows_per_table=64)
        result = operating_point(model, config.lookups_per_table)
        composed = 0
        uncomposed = 0
        for chain in (result.model.bottom, result.model.top):
            if chain:
                composed += chain_cycles(chain, result.nbatch)
                uncomposed += uncomposed_chain_cycles(chain, result.nbatch)
        out[key] = (composed, uncomposed)
    return out


@pytest.mark.benchmark(group="ablation")
def test_ablation_interlayer_composition(benchmark):
    results = benchmark.pedantic(_measure, rounds=1, iterations=1)

    table = Table(
        "Ablation: inter-layer composition (MLP chain cycles)",
        ["model", "same-scan (Fig. 9a)", "alternating (Fig. 9b)", "saving"],
    )
    for key in MODELS:
        composed, uncomposed = results[key]
        saving = 1 - composed / uncomposed if uncomposed else 0.0
        table.add_row(key.upper(), uncomposed, composed, f"{saving:.0%}")
    table.print()

    for key in MODELS:
        composed, uncomposed = results[key]
        if uncomposed == 0:
            continue
        # Composition never hurts, and strictly helps multi-layer chains.
        assert composed <= uncomposed, key
    for key in ("rmc1", "rmc2", "rmc3"):
        composed, uncomposed = results[key]
        assert composed < uncomposed, key
    # The paper's "reduced by half" is the balanced-pair limit: with
    # equal-time adjacent layers the composed chain costs exactly half.
    from repro.fpga.decompose import LayerAssignment
    from repro.fpga.kernel import KernelSize

    balanced = [
        LayerAssignment(f"L{i}", 64, 64, kernel=KernelSize(4, 2))
        for i in range(4)
    ]
    assert chain_cycles(balanced, 1) * 2 == uncomposed_chain_cycles(balanced, 1)
