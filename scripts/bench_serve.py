#!/usr/bin/env python
"""Allocation-daemon load test → ``BENCH_serve.json`` (serving trajectory).

Drives an embedded :class:`repro.serve.server.AllocationServer` with the
closed-loop generator from :mod:`repro.serve.bench` and records:

* ``serve_sustained`` — steady-state request rate and p50/p99 latency with
  1000 logical clients (``--quick``: 200) over a cache-warm working set,
* ``serve_coalesce`` — identical-fingerprint no-cache traffic with in-flight
  coalescing on vs off (the off run is capped by ``max_batch`` dedup, so
  coalescing must win by a wide margin),
* ``serve_coalesce_proof`` — N simultaneous identical requests must reach
  the backend as exactly **one** solve,
* ``serve_identity`` — a daemon response must be byte-identical to a direct
  ``SolverService.solve`` sharing the same sqlite cache,
* ``serve_availability`` — a supervised-worker run under a seeded
  ``serve.worker`` crash storm with the retrying client: non-overload
  success must stay >= 99% *and* the storm must actually kill workers
  (``worker_restarts > 0``), proving the respawn/re-dispatch path carried
  the load rather than the faults never firing.

``--check`` enforces the floors (CI runs ``--quick --check``).

Usage::

    PYTHONPATH=src python scripts/bench_serve.py            # full, 1k clients
    PYTHONPATH=src python scripts/bench_serve.py --quick --check
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.serve.bench import run_serve_bench, sweep_specs  # noqa: E402
from repro.utils.bench import (  # noqa: E402
    BenchResult,
    Floor,
    run_check,
    write_results,
)

#: --check floors: the daemon must sustain a modest request rate on the
#: 1-core CI box, and in-flight coalescing must beat the coalescing-off
#: configuration (which still enjoys in-batch dedup) by >= 2x.
FLOORS = (
    Floor(op="serve_sustained", min_ops_per_second=150.0),
    Floor(
        op="serve_coalesce",
        backend="coalesce-on",
        min_ratio=2.0,
        min_ratio_vs="serve_coalesce",
        min_ratio_vs_backend="coalesce-off",
    ),
)


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
        seconds_per_op=1.0 / result.rate_rps if result.rate_rps else float("nan"),
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
            seconds_per_op=(
                1.0 / result.rate_rps if result.rate_rps else float("nan")
            ),
        )


def coalesce_proof(requests: int, seed: int) -> BenchResult:
    """N simultaneous identical no-cache requests → exactly one solve."""
    from repro.serve import AllocationServer, ServeClient, ServeSettings

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
    status = "PROVEN" if solves == 1 else "FAILED"
    print(f"coalesce proof: {requests} identical requests -> "
          f"{solves} backend solve(s)  [{status}]\n")
    return BenchResult(
        op="serve_coalesce_proof",
        backend="daemon",
        params={"requests": requests, "backend_solves": solves,
                "proven": solves == 1},
        reps=requests,
        seconds_per_op=float("nan"),
    )


#: serve_availability: non-overload success floor under the crash storm.
AVAILABILITY_FLOOR = 0.99


def bench_availability(
    clients: int, duration: float, seed: int
) -> BenchResult:
    """Supervised workers under a crash storm, driven by retrying clients.

    ``distinct=1, coalesce=False, use_cache=False`` keeps every batch's
    composition fixed (one config) while forcing every request through the
    worker pool — the configuration that maximises ``serve.worker`` seam
    hits per second.  ``after=1`` makes each respawned worker's first batch
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
        seconds_per_op=(
            1.0 / result.rate_rps if result.rate_rps else float("nan")
        ),
    )


def identity_check(seed: int) -> BenchResult:
    """Daemon result vs direct SolverService.solve through a shared cache."""
    from repro import io as repro_io
    from repro.api.service import SolverService
    from repro.serve import (
        AllocationServer,
        ServeClient,
        ServeSettings,
        SqliteResultCache,
    )

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
    print(f"identity check: daemon payload byte-identical to direct solve "
          f"via shared sqlite cache: {identical}\n")
    return BenchResult(
        op="serve_identity",
        backend="daemon",
        params={"identical": identical},
        reps=1,
        seconds_per_op=float("nan"),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_serve.json")
    parser.add_argument("--quick", action="store_true",
                        help="200 clients / shorter windows (CI mode)")
    parser.add_argument("--clients", type=int, default=0,
                        help="override the sustained-run client count")
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when a floor or proof fails")
    args = parser.parse_args(argv)

    if args.quick:
        sustained_clients, sustained_duration = 200, 1.0
        # 3 s, not 1 s: a 1 s window holds only 3-4 coalesced solve waves,
        # too few for a stable on/off ratio.
        coalesce_clients, coalesce_duration = 64, 3.0
        proof_requests = 32
        storm_clients, storm_duration = 16, 2.0
    else:
        sustained_clients, sustained_duration = 1000, 3.0
        coalesce_clients, coalesce_duration = 256, 2.0
        proof_requests = 128
        storm_clients, storm_duration = 32, 4.0
    if args.clients:
        sustained_clients = args.clients

    results = [bench_sustained(sustained_clients, sustained_duration,
                               args.seed)]
    results.extend(bench_coalesce(coalesce_clients, coalesce_duration,
                                  args.seed))
    results.append(coalesce_proof(proof_requests, args.seed))
    results.append(identity_check(args.seed))
    results.append(bench_availability(storm_clients, storm_duration,
                                      args.seed))

    out = write_results(args.output, results)
    print(f"wrote {out}")
    if args.check:
        rc = run_check(results, FLOORS)
        hard_checks = {
            "coalesce proof": all(
                r.params["proven"] for r in results
                if r.op == "serve_coalesce_proof"
            ),
            "byte identity": all(
                r.params["identical"] for r in results
                if r.op == "serve_identity"
            ),
            "sustained byte identity": all(
                r.params["byte_identical"] for r in results
                if r.op == "serve_sustained"
            ),
            "availability under crash storm": all(
                r.params["availability"] >= r.params["floor"]
                for r in results if r.op == "serve_availability"
            ),
            "crash storm actually fired": all(
                r.params["worker_restarts"] > 0
                for r in results if r.op == "serve_availability"
            ),
        }
        for name, ok in hard_checks.items():
            if not ok:
                print(f"CHECK FAILED: {name}")
                rc = 1
        return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
