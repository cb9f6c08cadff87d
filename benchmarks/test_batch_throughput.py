"""Batched-solver throughput guards (ISSUE 4 acceptance).

The smoke floors protect the batched backend's reason to exist: on a
single process it must beat the serial scalar loop by a wide margin on the
Fig.-6 bandwidth sweep, while agreeing with it within 1e-9 on the
objective.  The full measured numbers live in ``BENCH_batch.json``
(``python scripts/bench.py batch``, whose ``--check`` mode enforces the
≥ 5× acceptance floor); the smoke floor here is deliberately looser
(≥ 2.5×) so CI jitter cannot flake it.

Run: ``pytest benchmarks/test_batch_throughput.py -m smoke -s``
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.batched import BatchedQuHE
from repro.core.quhe import QuHE
from repro.utils.bench import Floor, check_floors, time_op

from conftest import full_run

#: CI-safe smoke floor on the batched-vs-serial sweep speedup.
MIN_SMOKE_SPEEDUP = 2.5


@pytest.fixture(scope="module")
def sweep_configs(typical_cfg):
    points = 16 if full_run() else 8
    grid = np.linspace(0.5e7, 1.5e7, points)
    return [typical_cfg.with_total_bandwidth(float(v)) for v in grid]


@pytest.mark.smoke
def test_batched_sweep_beats_serial(sweep_configs, capsys):
    serial_results = [QuHE(cfg).solve() for cfg in sweep_configs]
    batched_results = BatchedQuHE().solve_batch(sweep_configs)
    for a, b in zip(serial_results, batched_results):
        assert abs(a.objective - b.objective) <= 1e-9
        assert np.array_equal(a.allocation.lam, b.allocation.lam)

    start = time.perf_counter()
    for cfg in sweep_configs:
        QuHE(cfg).solve()
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    BatchedQuHE().solve_batch(sweep_configs)
    batched_s = time.perf_counter() - start
    speedup = serial_s / batched_s
    with capsys.disabled():
        print(
            f"\nbatched sweep: {len(sweep_configs)} configs, "
            f"serial {serial_s:.2f}s vs batched {batched_s:.2f}s "
            f"({speedup:.2f}x)"
        )
    assert speedup >= MIN_SMOKE_SPEEDUP, (
        f"batched backend only {speedup:.2f}x faster than the serial loop "
        f"(floor {MIN_SMOKE_SPEEDUP}x)"
    )


@pytest.mark.smoke
def test_stage1_dedup_amortizes(typical_cfg):
    """Sweep configs share the QKD block: Stage 1 must be solved once."""
    cfgs = [typical_cfg.with_total_bandwidth(v) for v in (0.6e7, 1.0e7, 1.4e7)]
    results = BatchedQuHE().solve_batch(cfgs)
    assert len({id(r.stage1) for r in results}) == 1


@pytest.mark.smoke
def test_stack_tax_stays_amortized(sweep_configs, capsys):
    """Stacking a ConfigBatch must remain a rounding error next to the
    solve it feeds.  The ``scripts/bench.py batch`` floor is ≤ 1/46.3
    (2.2%) of a K=64 solve; here a CI-safe ≤ 25% on the smoke-sized sweep
    (construction is O(K·n) python loops, the solve is the expensive part
    by orders of magnitude)."""
    from repro.core.batch import ConfigBatch

    reps = 5
    start = time.perf_counter()
    for _ in range(reps):
        ConfigBatch.from_configs(sweep_configs)
    construct_s = (time.perf_counter() - start) / reps

    solver = BatchedQuHE()
    solver.solve_config_batch(ConfigBatch.from_configs(sweep_configs[:1]))
    batch = ConfigBatch.from_configs(sweep_configs)
    start = time.perf_counter()
    solver.solve_config_batch(batch)
    solve_s = time.perf_counter() - start

    stack_tax = construct_s / solve_s
    with capsys.disabled():
        print(
            f"\nstack tax: construct {construct_s * 1e3:.2f}ms vs solve "
            f"{solve_s * 1e3:.1f}ms ({stack_tax * 100:.1f}%) at "
            f"K={len(sweep_configs)}"
        )
    assert stack_tax <= 0.25, (
        f"ConfigBatch construction costs {stack_tax * 100:.1f}% of the "
        f"solve it feeds (smoke floor 25%)"
    )


@pytest.mark.smoke
def test_floor_helper_flags_regressions():
    """The shared --check plumbing actually catches a broken floor."""
    fast = time_op(lambda: None, op="noop", backend="x", min_duration=0.01)
    holds = check_floors([fast], [Floor(op="noop", min_ops_per_second=1.0)])
    assert holds == []
    broken = check_floors(
        [fast], [Floor(op="noop", min_ops_per_second=1e12)]
    )
    assert broken and "below the" in broken[0]
    missing = check_floors([fast], [Floor(op="absent")])
    assert missing and "missing" in missing[0]
    unproven = check_floors(
        [fast], [Floor(op="noop", min_param=("proven", True))]
    )
    assert unproven and "hard check" in unproven[0]


@pytest.mark.bench
def test_benchmark_batched_sweep(benchmark, sweep_configs):
    solver = BatchedQuHE()
    results = benchmark.pedantic(
        solver.solve_batch, args=(sweep_configs,), rounds=1, iterations=1
    )
    assert len(results) == len(sweep_configs)
