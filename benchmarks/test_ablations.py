"""Ablation benchmarks (DESIGN.md §7): B&B pruning, the quadratic transform,
and the α_msl activation threshold of the security-cost trade.

Not a paper figure — these quantify the design choices the paper asserts
(Alg. 2's efficiency, §V-E's optimality argument, the Fig. 5(d) weight
regime) and print the supporting numbers.
"""

import numpy as np

from repro.core.quhe import initial_allocation
from repro.experiments.ablations import (
    bnb_vs_exhaustive,
    msl_activation_threshold,
    transform_vs_direct,
    weight_sensitivity,
)
from repro.utils.tables import format_table


def test_ablation_bnb(typical_cfg, capsys):
    alloc = initial_allocation(typical_cfg)
    ablation = bnb_vs_exhaustive(typical_cfg, alloc)
    with capsys.disabled():
        print()
        print(
            f"Stage-2 ablation: B&B explored {ablation.bnb_nodes} nodes vs "
            f"{ablation.exhaustive_nodes} exhaustive "
            f"({ablation.node_savings:.0%} saved), identical argmax: "
            f"{ablation.identical_argmax}"
        )
    assert ablation.identical_argmax


def test_ablation_transform(typical_cfg, capsys):
    alloc = initial_allocation(typical_cfg)
    ablation = transform_vs_direct(typical_cfg, alloc)
    with capsys.disabled():
        print()
        print(
            f"Stage-3 ablation: transform value {ablation.transform_value:.6f} "
            f"({ablation.transform_runtime_s:.3f}s) vs direct "
            f"{ablation.direct_value:.6f} ({ablation.direct_runtime_s:.3f}s), "
            f"relative gap {ablation.relative_gap:.2e}"
        )
    assert ablation.relative_gap < 5e-3


def test_ablation_weight_threshold(typical_cfg, capsys):
    points = weight_sensitivity(typical_cfg, alpha_msl_values=(0.01, 0.02, 0.05, 0.1))
    threshold = msl_activation_threshold(points)
    rows = [
        [p.alpha_msl, " ".join(str(int(v)) for v in p.lam), f"{p.u_msl:.1f}",
         f"{p.objective:.3f}"]
        for p in points
    ]
    with capsys.disabled():
        print()
        print(format_table(
            ["alpha_msl", "lambda profile", "U_msl", "objective"],
            rows,
            title="Weight-sensitivity ablation (EXPERIMENTS.md caveat 2)",
        ))
        print(f"security trade activates at alpha_msl = {threshold}")
    assert 0.01 < threshold <= 0.1


def test_benchmark_bnb(benchmark, typical_cfg):
    from repro.core.stage2 import BranchAndBoundSolver

    alloc = initial_allocation(typical_cfg)
    solver = BranchAndBoundSolver(typical_cfg)
    result = benchmark(solver.solve, alloc)
    assert result.nodes_explored < 3**6
