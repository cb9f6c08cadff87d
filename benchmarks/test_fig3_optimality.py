"""Fig. 3: objective distribution over random initial configurations (§VI-C).

Prints the Fig. 3(a) statistics (max / min / mean) and the Fig. 3(b)
histogram counts, then benchmarks one QuHE solve from a random start.
Defaults to 20 trials for speed; QUHE_FULL=1 runs the paper's 100.
"""

import numpy as np

from repro.api.service import SolverService
from repro.experiments.fig3_optimality import _random_start, run_optimality_study
from repro.utils.rng import as_generator
from repro.utils.tables import format_table

from conftest import full_run


def test_fig3_distribution(capsys):
    num_samples = 100 if full_run() else 20
    study = run_optimality_study(num_samples=num_samples, seed=0)
    rows = [
        [f"[{low:g}, {high:g})", count]
        for (low, high), count in zip(study.bin_edges, study.bin_counts)
    ]
    with capsys.disabled():
        print()
        print(
            f"Fig. 3(a): {num_samples} samples — max {study.maximum:.2f}, "
            f"min {study.minimum:.2f}, mean {study.mean:.2f}"
        )
        print(format_table(["objective range", "count"], rows, title="Fig. 3(b) histogram"))
        print(
            f"fraction within 5 of best: {study.fraction_near_best(5.0):.0%} "
            f"(paper: 56% 'very good'); within 10: "
            f"{study.fraction_near_best(10.0):.0%} (paper: 88% 'good')"
        )
    # The paper's reliability claim: most runs land near the best observed.
    assert study.fraction_near_best(10.0) >= 0.5
    assert sum(study.bin_counts) >= 0.9 * num_samples


def test_benchmark_quhe_from_random_start(benchmark, typical_cfg):
    # A warm start is never cached, so every round solves, as each Fig. 3
    # trial does inside run_optimality_study's solve_many batch.
    service = SolverService()
    initial = _random_start(typical_cfg, as_generator(123))
    (result,) = benchmark.pedantic(
        service.solve_many, args=([typical_cfg],),
        kwargs={"initials": [initial]}, rounds=3, iterations=1,
    )
    assert result.converged
