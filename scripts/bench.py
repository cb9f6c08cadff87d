#!/usr/bin/env python
"""Benchmark driver: every suite's measurements and floors → ``BENCH_<suite>.json``.

One table, :data:`SUITES`, holds an entry per suite (solver, batch, sim,
routing, campaign, serve, crypto): the function that measures it and the
floors ``--check`` holds it to.  A floor is a throughput, a speedup over
another row, or a hard check on a recorded param
(:class:`repro.utils.bench.Floor`).  Correctness that must hold before a
timing means anything (batched ≡ serial within 1e-9, the RNS ring ≡ the
reference ring bit for bit, the campaign completes) is asserted inside
the suites.

Usage::

    python scripts/bench.py                     # every suite, full mode
    python scripts/bench.py sim routing         # two suites
    python scripts/bench.py --quick --check --out-dir /tmp/bench   # CI

Files go to ``--out-dir``, by default the repository root, where the
committed snapshots live.  ``--quick`` runs smaller grids and shorter
horizons, so a ``--quick`` run refuses to write there.  Each file's
``meta`` carries the machine calibration of :mod:`perfbench.common`.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench.common import calibrate  # noqa: E402
from repro import io as repro_io  # noqa: E402
from repro.api.service import SolverService, config_fingerprint  # noqa: E402
from repro.campaign import CampaignRunner, CampaignSpec  # noqa: E402
from repro.core.batch import ConfigBatch  # noqa: E402
from repro.core.batched import BatchedQuHE  # noqa: E402
from repro.core.config import paper_config  # noqa: E402
from repro.core.quhe import QuHE  # noqa: E402
from repro.crypto.ckks import CKKSContext  # noqa: E402
from repro.crypto.ntt import find_ntt_primes  # noqa: E402
from repro.crypto.poly import PolyRing  # noqa: E402
from repro.crypto.rns import RNSPolyRing  # noqa: E402
from repro.experiments.simulation import run_keyrate_sim  # noqa: E402
from repro.serve import (  # noqa: E402
    AllocationServer, ServeClient, ServeSettings, SqliteResultCache)
from repro.serve.bench import run_serve_bench, sweep_specs  # noqa: E402
from repro.sim import QuantumNetworkSimulation, SimParams  # noqa: E402
from repro.sim.routing import RouteController, candidate_routes  # noqa: E402
from repro.sim.topology import config_for_topology, make_topology  # noqa: E402
from repro.utils.bench import (  # noqa: E402
    BenchResult, Floor, check_floors, time_op, write_results)

#: the paper configuration seed every suite measures
SEED = 2


def bandwidth_configs(points: int, seed: int = 2):
    """``points`` configs across the Fig.-6(a) bandwidth range (its paper
    sweep, ``PAPER_SWEEPS["bandwidth"]``, is the 5-point grid)."""
    base = paper_config(seed=seed)
    return [
        base.with_total_bandwidth(float(v))
        for v in np.linspace(0.5e7, 1.5e7, points)
    ]


def solver_suite(quick: bool):
    """The SolverService front door: a cold solve and a cache hit on the
    paper configuration, and the Fig.-6 bandwidth-sweep batch through the
    service (``batched``) against a plain loop of scalar
    ``QuHE(cfg).solve()`` calls (``serial``), the two checked to agree
    within 1e-9.  No smaller grid exists: ``quick`` changes nothing."""
    yield from bench_single(SEED)
    yield from bench_solve_many(SEED)


#: timed runs per side of the sweep batch.  Each row is their median, the
#: two sides alternating, so one slow run does not decide the ratio floor.
SWEEP_REPS = 5


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
    configs = bandwidth_configs(5, seed)
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


def batch_suite(quick: bool):
    """The vectorized batched Alg.-4 core against the serial scalar path on
    the Fig.-6(a) bandwidth sweep, one config per sweep point, all on a
    single process; how it scales with K (per-config seconds at K = 1 / 4
    / 16 / 64; full runs only); and the ConfigBatch stacking cost.
    Equivalence (objective within 1e-9, identical λ) is asserted before
    any timing so the speedup never comes from solving a different
    problem."""
    yield from bench_sweep(8 if quick else 16, SEED)
    if not quick:
        yield from bench_scaling(SEED)
    yield from bench_service_cache(SEED)
    yield from bench_stack_tax(SEED)


def bench_sweep(points: int, seed: int):
    configs = bandwidth_configs(points, seed)
    # Correctness first: the batched backend must match the scalar solver.
    serial_results = [QuHE(cfg).solve() for cfg in configs]
    batched_results = BatchedQuHE().solve_batch(configs)
    for a, b in zip(serial_results, batched_results):
        assert abs(a.objective - b.objective) <= 1e-9, "batched diverged"
        assert np.array_equal(a.allocation.lam, b.allocation.lam)

    start = time.perf_counter()
    for cfg in configs:
        QuHE(cfg).solve()
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    BatchedQuHE().solve_batch(configs)
    batched_s = time.perf_counter() - start

    params = {"batch": points, "seed": seed, "cpu_count": os.cpu_count()}
    yield BenchResult(
        op="fig6_bandwidth_sweep",
        backend="serial",
        params=params,
        reps=points,
        seconds_per_op=serial_s / points,
    )
    yield BenchResult(
        op="fig6_bandwidth_sweep",
        backend="batched",
        params={**params, "speedup_vs_serial": serial_s / batched_s},
        reps=points,
        seconds_per_op=batched_s / points,
    )


def bench_scaling(seed: int, sizes=(1, 4, 16, 64)):
    for k in sizes:
        configs = bandwidth_configs(k, seed)
        solver = BatchedQuHE()
        solver.solve_batch(configs[:1])  # warm numpy / stage-1 cache cold
        start = time.perf_counter()
        BatchedQuHE().solve_batch(configs)
        elapsed = time.perf_counter() - start
        yield BenchResult(
            op="batched_scaling",
            backend=f"K={k}",
            params={"batch": k, "seed": seed},
            reps=k,
            seconds_per_op=elapsed / k,
        )


def bench_stack_tax(seed: int, k: int = 64):
    """Stacking cost vs solve cost at K=64 — the columnar-core headline.

    ``config_batch_construct`` is one ConfigBatch.from_configs over the
    whole batch; ``config_batch_solve`` is the native columnar solve fed by
    it.  Both are recorded per config so the ratio floor compares totals;
    ``stack_tax`` in the params is the construction share of one solve.
    """
    configs = bandwidth_configs(k, seed)
    construct_reps = 10
    start = time.perf_counter()
    for _ in range(construct_reps):
        ConfigBatch.from_configs(configs)
    construct_s = (time.perf_counter() - start) / construct_reps

    # Warm numpy and the scipy path before timing the solve.
    BatchedQuHE().solve_config_batch(ConfigBatch.from_configs(configs[:1]))
    batch = ConfigBatch.from_configs(configs)
    start = time.perf_counter()
    BatchedQuHE().solve_config_batch(batch)
    solve_s = time.perf_counter() - start

    stack_tax = construct_s / solve_s
    params = {"batch": k, "seed": seed}
    yield BenchResult(
        op="config_batch_construct",
        backend="columnar",
        params={**params, "stack_tax": stack_tax,
                "construct_ms_total": construct_s * 1000.0},
        reps=k * construct_reps,
        seconds_per_op=construct_s / k,
    )
    yield BenchResult(
        op="config_batch_solve",
        backend="columnar",
        params={**params, "ms_per_config": solve_s / k * 1000.0},
        reps=k,
        seconds_per_op=solve_s / k,
    )


def bench_service_cache(seed: int):
    configs = bandwidth_configs(8, seed)
    service = SolverService(cache_size=128)
    service.solve_many(configs)
    start = time.perf_counter()
    service.solve_many(configs)
    elapsed = time.perf_counter() - start
    yield BenchResult(
        op="solve_many_warm_cache",
        backend="batched",
        params={"batch": len(configs), "seed": seed},
        reps=len(configs),
        seconds_per_op=elapsed / len(configs),
    )


def sim_suite(quick: bool):
    """QuantumNetworkSimulation end to end on the paper topology across
    workloads of increasing machinery (one op = one event): generation,
    swapping and monitoring only; plus demand draws; plus outages; plus
    fading and mid-run re-optimization (solver time included, so this is
    the end-to-end adaptive figure); the clean workload with the trace
    on."""
    duration = 20.0 if quick else 120.0  # simulated horizon per workload (s)
    service = SolverService()
    config = paper_config(seed=SEED)
    service.solve(config)  # warm the solver cache outside the timings
    for op, params in sim_workloads(duration):
        result = QuantumNetworkSimulation(
            config, params, seed=SEED, service=service
        ).run()
        yield BenchResult(
            op=op,
            backend="event-heap",
            params={
                "duration_s": params.duration_s,
                "seed": SEED,
                "events": result.events_processed,
                "pairs_delivered": sum(result.pairs_delivered),
                "outages": result.outage_count,
                "reopts": len(result.reopt_times),
            },
            reps=result.events_processed,
            seconds_per_op=result.wall_time_s / max(1, result.events_processed),
        )


def sim_workloads(duration: float):
    base = dict(duration_s=duration, record_trace=False)
    yield "sim_clean", SimParams(**base)
    yield "sim_demand", SimParams(**base, demand_factor=0.9)
    yield "sim_disrupted", SimParams(
        **base, demand_factor=0.9, outage_rate=0.05, outage_duration_s=20.0
    )
    yield "sim_adaptive", SimParams(
        **base,
        demand_factor=0.9,
        outage_rate=0.05,
        outage_duration_s=20.0,
        fading_interval_s=30.0,
        reopt_interval_s=30.0,
    )
    yield "sim_traced", SimParams(duration_s=duration, record_trace=True)


SIZES = (16, 64, 128)


def routing_suite(quick: bool):
    """The routing layer on generated Waxman topologies of ``SIZES`` nodes
    (``quick``: all but the largest): Yen candidate paths, one cold
    re-optimization and a routed simulation per size."""
    for num_nodes in SIZES[:-1] if quick else SIZES:
        topo, controller, config = topology_case(num_nodes, SEED)
        yield bench_paths(topo, SEED)
        yield bench_reopt(topo, config, SEED)
        yield bench_routed_sim(topo, controller, config, duration=30.0,
                               seed=SEED)


def topology_case(num_nodes: int, seed: int):
    topo = make_topology(
        "waxman", num_nodes=num_nodes, num_clients=4, seed=seed
    )
    controller = RouteController(topo, k=3, policy="proactive")
    config = config_for_topology(topo, controller.initial_routes(), seed=seed)
    return topo, controller, config


def bench_reopt(topo, config, seed: int, reps: int = 3) -> BenchResult:
    """Cold-solve latency: what one mid-run re-optimization costs."""
    best = float("inf")
    for _ in range(reps):
        service = SolverService()  # fresh cache: measure the solve, not a hit
        start = time.perf_counter()
        service.solve(config)
        best = min(best, time.perf_counter() - start)
    return BenchResult(
        op=f"reopt_n{topo.num_nodes}",
        backend="alternation",
        params={
            "nodes": topo.num_nodes,
            "links": topo.num_links,
            "routes": config.network.num_routes,
            "seed": seed,
        },
        reps=1,
        seconds_per_op=best,
    )


def bench_paths(topo, seed: int, reps: int = 20) -> BenchResult:
    """One full Yen ``k=3`` candidate sweep over all clients: the cost the
    proactive controller pays once at setup."""
    start = time.perf_counter()
    for _ in range(reps):
        candidate_routes(topo, k=3)
    elapsed = time.perf_counter() - start
    return BenchResult(
        op=f"paths_n{topo.num_nodes}",
        backend="yen",
        params={"nodes": topo.num_nodes, "links": topo.num_links,
                "clients": len(topo.clients), "k": 3, "seed": seed},
        reps=reps,
        seconds_per_op=elapsed / reps,
    )


def bench_routed_sim(topo, controller, config, duration: float,
                     seed: int) -> BenchResult:
    """Routed-simulation events/s with reroute-on-outage active: outages
    strike any link, every link-state change consults the RouteController,
    and the adaptive loop re-solves on its cadence."""
    service = SolverService()
    service.solve(config)  # warm the baseline outside the timing
    params = SimParams(
        duration_s=duration,
        demand_factor=0.8,
        outage_rate=0.2,
        outage_duration_s=8.0,
        reopt_interval_s=10.0,
        strike="any",
        record_trace=False,
    )
    result = QuantumNetworkSimulation(
        config, params, seed=seed, service=service, router=controller
    ).run()
    return BenchResult(
        op=f"routing_n{topo.num_nodes}",
        backend="event-heap+router",
        params={
            "nodes": topo.num_nodes,
            "links": topo.num_links,
            "duration_s": duration,
            "seed": seed,
            "events": result.events_processed,
            "outages": result.outage_count,
            "reroutes": result.reroute_count,
            "reopts": len(result.reopt_times),
        },
        reps=result.events_processed,
        seconds_per_op=result.wall_time_s / max(1, result.events_processed),
    )


def campaign_suite(quick: bool):
    """A 2-axis × 8-seed ``sim-keyrate`` campaign through CampaignRunner
    (one batched baseline solve per chunk + shared service cache + artifact
    persistence) against the *naive* baseline — one isolated scenario run
    per cell, each with a fresh SolverService, exactly what N separate
    ``repro run sim-keyrate`` invocations would cost — and the resume fast
    path (a completed campaign re-run only loads artifacts)."""
    # Warm the process (imports, numpy dispatch) outside the timed region.
    run_keyrate_sim(seed=10_000, duration_s=2.0, service=SolverService())
    yield from bench_campaign(bench_spec(quick=quick))


def bench_spec(*, quick: bool) -> CampaignSpec:
    return CampaignSpec(
        name="bench-keyrate",
        scenario="sim-keyrate",
        axes={
            "demand_factor": [0.0, 0.6],
            "duration": [6.0, 9.0] if quick else [6.0, 9.0, 12.0],
        },
        seeds=tuple(range(8)),  # replications per grid point
    )


def bench_campaign(spec: CampaignSpec):
    cells = spec.cells()
    params = {
        "cells": len(cells),
        "points": spec.num_points,
        "seeds": len(spec.seeds),
        "cpu_count": os.cpu_count(),
    }

    # Naive baseline: every cell is an isolated scenario run with a fresh
    # service — a cold scalar solve per cell, no sharing, no artifacts.
    start = time.perf_counter()
    for cell in cells:
        run_keyrate_sim(
            seed=cell.params["seed"],
            duration_s=cell.params["duration"],
            demand_factor=cell.params["demand_factor"],
            sample_dt=cell.params["sample_dt"],
            service=SolverService(),
        )
    naive_s = time.perf_counter() - start
    yield BenchResult(
        op="campaign_keyrate_grid",
        backend="naive-per-cell",
        params=params,
        reps=len(cells),
        seconds_per_op=naive_s / len(cells),
    )

    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "campaign"
        start = time.perf_counter()
        result = CampaignRunner(spec, out_dir=out_dir).run()
        campaign_s = time.perf_counter() - start
        assert result.complete, "campaign did not complete"
        yield BenchResult(
            op="campaign_keyrate_grid",
            backend="campaign",
            params={**params, "speedup_vs_naive": naive_s / campaign_s},
            reps=len(cells),
            seconds_per_op=campaign_s / len(cells),
        )

        # Resume fast path: nothing pending, cells load from disk.
        start = time.perf_counter()
        resumed = CampaignRunner(spec, out_dir=out_dir).run()
        resume_s = time.perf_counter() - start
        assert resumed.cells_completed == len(cells)
        yield BenchResult(
            op="campaign_resume_noop",
            backend="campaign",
            params=params,
            reps=len(cells),
            seconds_per_op=resume_s / len(cells),
        )


def serve_suite(quick: bool):
    """An embedded AllocationServer driven by the closed-loop generator of
    repro.serve.bench: steady-state rate and latency over a cache-warm
    working set; identical-fingerprint no-cache traffic with in-flight
    coalescing on vs off (the off run is capped by ``max_batch`` dedup, so
    coalescing must win by a wide margin); the one-solve coalescing proof;
    daemon ≡ direct identity; and a supervised-worker crash storm, which
    must actually kill workers, proving the respawn/re-dispatch path
    carried the load rather than the faults never firing."""
    # (clients, seconds) of each load run: --quick sizes, then full ones
    yield bench_sustained(*(200, 1.0) if quick else (1000, 3.0), SEED)
    # 3 s, not 1 s, in --quick: a 1 s window holds only 3-4 coalesced solve
    # waves, too few for a stable on/off ratio.
    yield from bench_coalesce(*(64, 3.0) if quick else (256, 2.0), SEED)
    yield coalesce_proof(32 if quick else 128, SEED)
    yield identity_check(SEED)
    yield bench_availability(*(16, 2.0) if quick else (32, 4.0), SEED)


def bench_sustained(clients: int, duration: float, seed: int) -> BenchResult:
    result = run_serve_bench(
        clients=clients, duration=duration, distinct=8, seed=seed,
        max_queue=4096,
    )
    print(result.render())
    return BenchResult(
        op="serve_sustained",
        backend="daemon",
        params={
            "clients": result.clients,
            "connections": result.connections,
            "distinct": result.distinct_specs,
            "p50_ms": round(result.p50_ms, 3),
            "p99_ms": round(result.p99_ms, 3),
            "cache_hits": result.cache_hits,
            "shed": result.shed,
            "errors": result.errors,
            "byte_identical": result.byte_identical,
            "cpu_count": os.cpu_count(),
        },
        reps=result.requests,
        seconds_per_op=1.0 / result.rate_rps if result.rate_rps else None,
    )


def bench_coalesce(clients: int, duration: float, seed: int):
    for coalesce in (True, False):
        result = run_serve_bench(
            clients=clients, duration=duration, distinct=1, seed=seed,
            use_cache=False, coalesce=coalesce, max_queue=4096,
        )
        print(result.render())
        yield BenchResult(
            op="serve_coalesce",
            backend="coalesce-on" if coalesce else "coalesce-off",
            params={
                "clients": result.clients,
                "backend_solves": result.backend_solves,
                "coalesced": result.coalesced,
                "p99_ms": round(result.p99_ms, 3),
                "byte_identical": result.byte_identical,
            },
            reps=result.requests,
            seconds_per_op=1.0 / result.rate_rps if result.rate_rps else None,
        )


def coalesce_proof(requests: int, seed: int) -> BenchResult:
    """N simultaneous identical no-cache requests → exactly one solve."""
    spec = sweep_specs(1, seed=seed)[0]

    async def _go() -> int:
        with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
            server = AllocationServer(
                ServeSettings(socket_path=str(Path(tmp) / "s.sock"))
            )
            await server.start()
            try:
                client = await ServeClient.connect(
                    socket_path=server.settings.socket_path
                )
                responses = await asyncio.gather(*(
                    client.solve(spec, use_cache=False)
                    for _ in range(requests)
                ))
                for response in responses:
                    response.raise_for_error()
                await client.close()
                return server.stats["backend_solves"]
            finally:
                await server.stop()

    solves = asyncio.run(_go())
    return BenchResult(
        op="serve_coalesce_proof",
        backend="daemon",
        params={"requests": requests, "backend_solves": solves,
                "proven": solves == 1},
        reps=requests,
    )


#: serve_availability: non-overload success floor under the crash storm.
AVAILABILITY_FLOOR = 0.99


def bench_availability(
    clients: int, duration: float, seed: int
) -> BenchResult:
    """Supervised workers under a crash storm, driven by retrying clients.

    ``distinct=1, coalesce=False, use_cache=False`` forces every request
    through the worker pool — the configuration that maximises
    ``serve.worker`` seam hits per second.  ``after=1`` makes each respawned worker's first batch
    safe, so recovery is always possible and the availability floor
    measures the supervisor, not fault-plan luck.  ``fault_seed=3`` fires
    the crash on a fresh worker's second batch, so the storm fires on a
    fixed batch rather than within the time window.
    """
    result = run_serve_bench(
        clients=clients, duration=duration, distinct=1, seed=seed,
        use_cache=False, coalesce=False, max_queue=4096,
        workers=2, crash_rate=0.4, retry=True, max_restarts=10_000,
        fault_seed=3,
    )
    print(result.render())
    return BenchResult(
        op="serve_availability",
        backend="supervised",
        params={
            "clients": result.clients,
            "workers": result.workers,
            "crash_rate": result.crash_rate,
            "availability": round(result.availability, 5),
            "worker_restarts": result.worker_restarts,
            "shed": result.shed,
            "errors": result.errors,
            "byte_identical": result.byte_identical,
            "floor": AVAILABILITY_FLOOR,
        },
        reps=result.requests,
        seconds_per_op=1.0 / result.rate_rps if result.rate_rps else None,
    )


def identity_check(seed: int) -> BenchResult:
    """Daemon result vs direct SolverService.solve through a shared cache."""
    spec = sweep_specs(1, seed=seed)[0]

    async def _go(db: str) -> dict:
        server = AllocationServer(
            ServeSettings(
                socket_path=str(Path(db).parent / "s.sock"), cache_db=db
            )
        )
        await server.start()
        try:
            client = await ServeClient.connect(
                socket_path=server.settings.socket_path
            )
            response = await client.solve(spec)
            response.raise_for_error()
            await client.close()
            return response.result
        finally:
            await server.stop()

    with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
        db = str(Path(tmp) / "cache.db")
        daemon_payload = asyncio.run(_go(db))
        direct = SolverService(cache=SqliteResultCache(db))
        direct_payload = repro_io.result_to_dict(direct.solve(spec.build()))
    identical = json.dumps(daemon_payload, sort_keys=True) == json.dumps(
        direct_payload, sort_keys=True
    )
    return BenchResult(
        op="serve_identity",
        backend="daemon",
        params={"identical": identical},
        reps=1,
    )


def crypto_suite(quick: bool):
    """Ring multiplication on both backends across ring degrees (``quick``
    skips n=4096 and the slow reference ring there), plus whole-scheme
    CKKS operations."""
    grid = [(256, 30, 2), (1024, 45, 2)] + ([] if quick else [(4096, 55, 2)])
    for degree, bits, k in grid:
        cap = 4 if degree >= 4096 else 64
        yield from bench_ring_mul(degree, bits, k, reference_cap=cap)
    yield from bench_ckks(128, 2)


def bench_ring_mul(degree: int, prime_bits: int, num_primes: int, *, reference_cap: int):
    primes = find_ntt_primes(prime_bits, degree, num_primes)
    q = 1
    for p in primes:
        q *= p
    rng = np.random.default_rng(degree)
    a = [int(x) % q for x in rng.integers(0, 2**62, degree)]
    b = [int(x) % q for x in rng.integers(0, 2**62, degree)]
    fast = RNSPolyRing(degree, primes)
    fa, fb = fast.from_coefficients(a), fast.from_coefficients(b)
    reference = PolyRing(degree, q)
    assert fast.mul(fa, fb) == reference.mul(a, b)
    params = {"n": degree, "log2q": q.bit_length()}
    yield time_op(
        lambda: fast.mul(fa, fb), op="ring_mul", backend="rns", params=params
    )
    yield time_op(
        lambda: reference.mul(a, b),
        op="ring_mul",
        backend="reference",
        params=params,
        min_duration=0.3,
        max_reps=reference_cap,
    )


def bench_ckks(degree: int, depth: int):
    for backend in ("rns", "reference"):
        ctx = CKKSContext(
            ring_degree=degree, scale_bits=22, base_modulus_bits=30,
            depth=depth, seed=1, backend=backend,
        )
        v = np.linspace(-1, 1, ctx.num_slots)
        x = ctx.encrypt(v)
        y = ctx.encrypt(v)
        params = {"n": degree, "depth": depth}
        yield time_op(
            lambda: ctx.encrypt(v), op="ckks_encrypt", backend=backend,
            params=params, min_duration=0.3, max_reps=256,
        )
        yield time_op(
            lambda: ctx.multiply(x, y), op="ckks_multiply", backend=backend,
            params=params, min_duration=0.3, max_reps=64,
        )


# -- the table ------------------------------------------------------------------


#: suite name → (its measurement function, called with ``quick``; its
#: floors).  A floor whose ``mode`` is ``"full"`` or ``"quick"`` governs a
#: row only that run's grid records; the rest hold in both modes at one
#: threshold.
SUITES = {
    "solver": (solver_suite, (
        # a cache hit must dominate a cold solve
        Floor(op="solve_cached", min_ratio=42.9, min_ratio_vs="solve_cold"),
        Floor(op="solve_many_fig6_bandwidth", backend="batched",
              min_ratio=2.5, min_ratio_vs_backend="serial"),
    )),
    "batch": (batch_suite, (
        # batched ≥ 5× the serial scalar loop on the 16-point sweep; the
        # 8-point --quick sweep amortizes less
        Floor(op="fig6_bandwidth_sweep", backend="batched", mode="full",
              min_ratio=5.0, min_ratio_vs_backend="serial"),
        Floor(op="fig6_bandwidth_sweep", backend="batched", mode="quick",
              min_ratio=2.5, min_ratio_vs_backend="serial"),
        # ConfigBatch construction must stay amortized: at most 2.2% of the
        # K=64 columnar solve it feeds
        Floor(op="config_batch_construct", min_ratio=46.3,
              min_ratio_vs="config_batch_solve"),
        Floor(op="config_batch_solve", min_ops_per_second=50.0),
    )),
    "sim": (sim_suite, (
        Floor(op="sim_clean", min_ops_per_second=180_200.0),
    )),
    "routing": (routing_suite, (
        Floor(op="routing_n16", min_ops_per_second=24_400.0),
        # a 16-node reopt within 0.74 s
        Floor(op="reopt_n16", min_ops_per_second=1.36),
    )),
    "campaign": (campaign_suite, (
        # campaign ≥ 3× naive per-cell runs on the 2x3 grid; the --quick
        # 2x2 grid amortizes the batched prefetch over fewer cells
        Floor(op="campaign_keyrate_grid", backend="campaign", mode="full",
              min_ratio=3.0, min_ratio_vs_backend="naive-per-cell"),
        Floor(op="campaign_keyrate_grid", backend="campaign", mode="quick",
              min_ratio=2.0, min_ratio_vs_backend="naive-per-cell"),
    )),
    "serve": (serve_suite, (
        Floor(op="serve_sustained", min_ops_per_second=350.0),
        # in-flight coalescing must beat coalescing off (which still enjoys
        # in-batch dedup)
        Floor(op="serve_coalesce", backend="coalesce-on", min_ratio=2.0,
              min_ratio_vs_backend="coalesce-off"),
        Floor(op="serve_coalesce_proof", min_param=("proven", True)),
        Floor(op="serve_identity", min_param=("identical", True)),
        Floor(op="serve_sustained", min_param=("byte_identical", True)),
        Floor(op="serve_availability",
              min_param=("availability", AVAILABILITY_FLOOR)),
        # the storm must actually have killed workers
        Floor(op="serve_availability", min_param=("worker_restarts", 2)),
    )),
    "crypto": (crypto_suite, (
        # the RNS ring must stay well ahead of the big-int ring
        Floor(op="ring_mul", backend="rns", params={"n": 1024},
              min_ratio=33.5, min_ratio_vs_backend="reference"),
        Floor(op="ring_mul", backend="rns", params={"n": 4096}, mode="full",
              min_ratio=10.0, min_ratio_vs_backend="reference"),
    )),
}


def floors_for(name: str, quick: bool) -> List[Floor]:
    """The floors ``--check`` holds suite ``name`` to in the given mode."""
    modes = ("both", "quick" if quick else "full")
    return [floor for floor in SUITES[name][1] if floor.mode in modes]


def run_suite(name: str, quick: bool, check: bool, out_dir: Path) -> int:
    """Measure one suite in this process, write its file, check its floors."""
    results = []
    for result in SUITES[name][0](quick):
        print(result, flush=True)
        results.append(result)
    out = write_results(
        out_dir / f"BENCH_{name}.json", results,
        meta={"quick": quick, "calibration": calibrate()},
    )
    print(f"wrote {out}")
    problems = check_floors(results, floors_for(name, quick)) if check else []
    for problem in problems:
        print(f"FLOOR VIOLATION: {problem}")
    if check and not problems:
        print(f"{name}: all floors hold")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("suites", nargs="*", metavar="SUITE",
                        help=f"suites to run (default: all of {', '.join(SUITES)})")
    parser.add_argument("--quick", action="store_true",
                        help="smaller grids and shorter horizons (the CI mode)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when a floor or hard check fails")
    parser.add_argument("--out-dir", type=Path, default=ROOT,
                        help="directory for BENCH_<suite>.json "
                             "(default: the repository root)")
    args = parser.parse_args(argv)
    unknown = [name for name in args.suites if name not in SUITES]
    if unknown:
        parser.error(f"unknown suite(s) {', '.join(unknown)}; "
                     f"choose from {', '.join(SUITES)}")
    if args.quick and args.out_dir.resolve() == ROOT:
        parser.error("a --quick run does not overwrite the committed "
                     "snapshots; pass --out-dir")
    names = args.suites or list(SUITES)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    if len(names) == 1:
        return run_suite(names[0], args.quick, args.check, args.out_dir)

    # One fresh interpreter per suite, as separate scripts would be: one
    # suite's solver caches, fault plans and heap never reach the next
    # suite's timings, and the serve suite's supervised workers run under a
    # main process rather than inside a daemonic pool worker.
    flags = ["--out-dir", str(args.out_dir)]
    flags += ["--quick"] * args.quick + ["--check"] * args.check
    failed = []
    for name in names:
        print(f"== {name}", flush=True)
        if subprocess.run([sys.executable, __file__, name, *flags]).returncode:
            failed.append(name)
    if failed:
        print(f"suites failed: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
