#!/usr/bin/env python
"""Solver throughput snapshot → ``BENCH_solver.json`` (perf trajectory).

Times the SolverService front-door end to end:

* ``solve_cold`` — one full QuHE solve on the paper configuration,
* ``solve_cached`` — the same config through the fingerprint cache,
* ``solve_many`` — the Fig.-6 bandwidth-sweep batch (one config per sweep
  point) through the service (``batched``) against a plain loop of scalar
  ``QuHE(cfg).solve()`` calls (``serial``), the two checked to agree
  within 1e-9.  Each row is the median of ``SWEEP_REPS`` timed runs, the
  two sides alternating, so one slow run does not decide the ratio floor.

Writes a machine-readable report (see :mod:`repro.utils.bench` for the
schema).

Usage::

    PYTHONPATH=src python scripts/bench_solver.py
    PYTHONPATH=src python scripts/bench_solver.py --output my.json
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api.service import SolverService, config_fingerprint  # noqa: E402
from repro.core.config import paper_config  # noqa: E402
from repro.core.quhe import QuHE  # noqa: E402
from repro.experiments.fig6_sweeps import PAPER_SWEEPS  # noqa: E402
from repro.utils.bench import (  # noqa: E402
    BenchResult,
    Floor,
    run_check,
    time_op,
    write_results,
)

#: --check floors: a cache hit must dominate a cold solve, and the batched
#: backend must dominate the serial loop on the sweep batch.
FLOORS = (
    Floor(op="solve_cached", min_ratio=5.0, min_ratio_vs="solve_cold"),
    Floor(
        op="solve_many_fig6_bandwidth",
        backend="batched",
        min_ratio=2.5,
        min_ratio_vs="solve_many_fig6_bandwidth",
        min_ratio_vs_backend="serial",
    ),
)


#: timed runs per side of the sweep batch; each row reports their median
SWEEP_REPS = 5


def sweep_configs(seed: int = 2):
    """One config per Fig.-6(a) bandwidth sweep point."""
    base = paper_config(seed=seed)
    return [base.with_total_bandwidth(float(v)) for v in PAPER_SWEEPS["bandwidth"]]


def bench_single(seed: int = 2):
    service = SolverService()
    cfg = paper_config(seed=seed)
    params = {"seed": seed, "n_clients": cfg.num_clients}
    yield time_op(
        lambda: SolverService(cache_size=0).solve(cfg),
        op="solve_cold", backend="service", params=params,
        min_duration=1.0, max_reps=64,
    )
    service.solve(cfg)  # prime the cache
    yield time_op(
        lambda: service.solve(cfg),
        op="solve_cached", backend="service", params=params,
    )
    yield time_op(
        lambda: config_fingerprint(cfg),
        op="config_fingerprint", backend="service", params=params,
    )


def bench_solve_many(seed: int = 2):
    configs = sweep_configs(seed)
    runs = [
        ("serial", lambda: [QuHE(cfg).solve() for cfg in configs]),
        ("batched", lambda: SolverService().solve_many(
            configs, use_cache=False)),
    ]
    reference = runs[0][1]()
    elapsed = {label: [] for label, _ in runs}
    for _ in range(SWEEP_REPS):
        for label, run in runs:
            start = time.perf_counter()
            results = run()
            elapsed[label].append(time.perf_counter() - start)
            for a, b in zip(reference, results):
                assert abs(a.objective - b.objective) <= 1e-9, (
                    f"{label} diverged from serial"
                )
    for label, _ in runs:
        yield BenchResult(
            op="solve_many_fig6_bandwidth",
            backend=label,
            params={"batch": len(configs), "seed": seed,
                    "cpu_count": os.cpu_count()},
            reps=SWEEP_REPS,
            seconds_per_op=statistics.median(elapsed[label]),
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_solver.json")
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when a performance floor fails")
    args = parser.parse_args(argv)

    results: list[BenchResult] = []
    for res in bench_single(seed=args.seed):
        results.append(res)
        print(res)
    for res in bench_solve_many(seed=args.seed):
        results.append(res)
        print(res)

    by_backend = {
        r.backend: r.seconds_per_op
        for r in results if r.op == "solve_many_fig6_bandwidth"
    }
    serial = by_backend.get("serial")
    if serial:
        for backend, sec in sorted(by_backend.items()):
            print(f"solve_many {backend}: {serial / sec:.2f}x vs serial "
                  f"({os.cpu_count()} cpu)")

    out = write_results(args.output, results)
    print(f"\nwrote {out}")
    if args.check:
        return run_check(results, FLOORS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
