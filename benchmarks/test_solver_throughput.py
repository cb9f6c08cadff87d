"""SolverService throughput: cache hits, batch fan-out, end-to-end latency.

The API-redesign acceptance criteria live here: ``solve_many`` must agree
with a loop of scalar solves, and the fingerprint cache must turn repeat
solves into sub-millisecond lookups.  Batch *speedup* is recorded by
``python scripts/bench.py solver`` → ``BENCH_solver.json``.

Run::

    pytest benchmarks/test_solver_throughput.py -s            # everything
    pytest benchmarks/test_solver_throughput.py -m smoke -s   # quick guard
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.service import SolverService
from repro.core.quhe import QuHE
from repro.experiments.fig6_sweeps import PAPER_SWEEPS
from repro.utils.bench import time_op

from conftest import full_run


@pytest.fixture(scope="module")
def sweep_configs(typical_cfg):
    grid = PAPER_SWEEPS["bandwidth"]
    if not full_run():
        grid = grid[::2]
    return [typical_cfg.with_total_bandwidth(float(v)) for v in grid]


@pytest.mark.smoke
def test_cache_hit_is_fast_and_identical(typical_cfg, capsys):
    service = SolverService()
    first = service.solve(typical_cfg)
    cold = time_op(
        lambda: SolverService(cache_size=0).solve(typical_cfg),
        op="solve_cold", backend="service", min_duration=0.5, max_reps=32,
    )
    hit = time_op(
        lambda: service.solve(typical_cfg),
        op="solve_cached", backend="service",
    )
    assert service.solve(typical_cfg) is first
    with capsys.disabled():
        print()
        print(cold)
        print(hit)
        print(f"cache speedup: {cold.seconds_per_op / hit.seconds_per_op:.0f}x")
    # A cache hit is a fingerprint + dict lookup; it must beat a full
    # three-stage solve by a wide margin.
    assert hit.seconds_per_op * 5 < cold.seconds_per_op


@pytest.mark.smoke
def test_solve_many_matches_serial_loop(sweep_configs):
    serial = [QuHE(cfg).solve() for cfg in sweep_configs]
    # The batched solve shares the scalar Stage-3 core and agrees within
    # the 1e-9 equivalence contract.
    batched = SolverService().solve_many(sweep_configs, use_cache=False)
    for a, c in zip(serial, batched):
        assert abs(a.objective - c.objective) <= 1e-9
        assert np.array_equal(a.allocation.lam, c.allocation.lam)
        assert np.allclose(a.allocation.phi, c.allocation.phi)
        assert np.allclose(a.allocation.b, c.allocation.b)
        assert np.allclose(a.allocation.f_s, c.allocation.f_s)


@pytest.mark.bench
def test_benchmark_solve_many(benchmark, sweep_configs, service):
    results = benchmark.pedantic(
        service.solve_many,
        args=(sweep_configs,),
        kwargs={"use_cache": False},
        rounds=1,
        iterations=1,
    )
    assert len(results) == len(sweep_configs)
