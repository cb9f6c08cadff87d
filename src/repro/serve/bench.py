"""Closed-loop load generation against an embedded allocation daemon.

:func:`run_serve_bench` starts an :class:`~repro.serve.server.AllocationServer`
on a private unix socket, drives it with N *logical* closed-loop clients
(each keeps exactly one request outstanding; many logical clients multiplex
over a handful of connections, the way real load generators do), and
returns a :class:`ServeBenchResult`: sustained request rate, p50/p99
latency, and the server's own counters (coalesced, backend solves, shed).

The ``serve-bench`` scenario wraps this for ``repro run serve-bench`` /
``repro serve-bench``; the serve suite of ``scripts/bench.py`` composes
several runs (coalescing on vs off, 1k-client sustained) into
``BENCH_serve.json``.
"""

from __future__ import annotations

import asyncio
import json
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.serve.protocol import ConfigSpec
from repro.serve.server import AllocationServer, ServeSettings

__all__ = ["ServeBenchResult", "run_serve_bench", "sweep_specs"]


def sweep_specs(distinct: int, *, seed: int = 2) -> List[ConfigSpec]:
    """``distinct`` configurations: the seed plus bandwidth sweep points.

    Mirrors the Fig.-6 bandwidth sweep so the daemon's working set matches
    the batched-solver benchmarks (distinct fingerprints, one shape group).
    """
    bandwidths = np.linspace(1e6, 3e6, max(1, distinct))
    return [
        ConfigSpec(seed=seed, total_bandwidth_hz=float(b)) for b in bandwidths
    ]


@dataclass(frozen=True)
class ServeBenchResult:
    """One closed-loop load run (the ``serve_bench_result`` codec payload)."""

    clients: int
    connections: int
    duration_s: float
    distinct_specs: int
    use_cache: bool
    coalesce_enabled: bool
    requests: int
    rate_rps: float
    p50_ms: float
    p99_ms: float
    mean_ms: float
    coalesced: int
    backend_batches: int
    backend_solves: int
    cache_hits: int
    shed: int
    errors: int
    #: daemon payloads match a direct SolverService solve of the same spec
    #: (strict byte equality through the shared cache when one exists,
    #: modulo wall-clock ``runtime_s`` fields otherwise)
    byte_identical: bool
    #: supervised worker subprocesses (0 = inline solve path)
    workers: int = 0
    #: injected ``serve.worker`` crash/hang probabilities for this run
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    #: requests driven through the retrying client (vs raw ``solve``)
    retry_enabled: bool = False
    #: non-overload success fraction: ok / (ok + errors); shed excluded
    #: (an honest 503 with retry advice is load management, not failure)
    availability: float = 1.0
    #: worker respawns the supervisor performed during the run
    worker_restarts: int = 0

    def render(self) -> str:
        lines = [
            f"serve-bench: {self.clients} closed-loop clients over "
            f"{self.connections} connections, {self.distinct_specs} distinct "
            f"specs, {self.duration_s:.2f}s window "
            f"(use_cache={self.use_cache}, coalesce={self.coalesce_enabled}, "
            f"workers={self.workers})",
            f"  throughput : {self.rate_rps:10.1f} req/s "
            f"({self.requests} requests)",
            f"  latency    : p50 {self.p50_ms:.2f} ms | "
            f"p99 {self.p99_ms:.2f} ms | mean {self.mean_ms:.2f} ms",
            f"  server     : {self.backend_solves} backend solves in "
            f"{self.backend_batches} batches, {self.coalesced} coalesced, "
            f"{self.cache_hits} cache hits, {self.shed} shed, "
            f"{self.errors} errors",
            f"  results match direct solve: {self.byte_identical}",
        ]
        if self.crash_rate or self.hang_rate or self.workers:
            lines.append(
                f"  faults     : crash={self.crash_rate:g} "
                f"hang={self.hang_rate:g} -> availability "
                f"{self.availability:.4f}, {self.worker_restarts} worker "
                f"restarts (retry={'on' if self.retry_enabled else 'off'})"
            )
        return "\n".join(lines) + "\n"


def _strip_runtimes(payload: Any) -> Any:
    """A payload copy with wall-clock fields removed (recursively).

    Two independent solves of one config are deterministic in every output
    except elapsed wall time; comparisons of independently produced payloads
    ignore exactly those fields: every key ending in ``runtime_s``
    (``runtime_s``, ``total_runtime_s``, the ablations' ``transform_runtime_s``
    and ``direct_runtime_s``, …) and ``wall_time_s``.
    """
    if isinstance(payload, dict):
        return {
            k: _strip_runtimes(v)
            for k, v in payload.items()
            if not (isinstance(k, str)
                    and (k.endswith("runtime_s") or k == "wall_time_s"))
        }
    if isinstance(payload, list):
        return [_strip_runtimes(v) for v in payload]
    return payload


def payloads_equivalent(
    a: Dict[str, Any], b: Dict[str, Any], *, strict: bool = False
) -> bool:
    """Byte-level payload comparison (modulo wall-clock unless ``strict``)."""
    if not strict:
        a, b = _strip_runtimes(a), _strip_runtimes(b)
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


async def _drive(
    server: AllocationServer,
    socket_path: str,
    specs: List[ConfigSpec],
    *,
    clients: int,
    connections: int,
    duration_s: float,
    use_cache: bool,
    retry: bool = False,
) -> Tuple[int, List[float], Dict[int, Dict[str, Any]], int, int]:
    from repro.errors import RetryExhausted, ServerOverloaded
    from repro.serve.client import ServeClient
    from repro.utils.retry import RetryPolicy

    links = [
        await ServeClient.connect(socket_path=socket_path)
        for _ in range(connections)
    ]
    loop = asyncio.get_running_loop()
    latencies: List[float] = []
    sample_payloads: Dict[int, Dict[str, Any]] = {}
    counters = {"done": 0, "shed": 0, "errors": 0}
    t_end = loop.time() + duration_s

    async def one_client(index: int) -> None:
        client = links[index % len(links)]
        policy = RetryPolicy(max_attempts=4, base_s=0.005, cap_s=0.25)
        spec_index = index % len(specs)
        while loop.time() < t_end:
            start = loop.time()
            if retry:
                try:
                    response = await client.solve_with_retry(
                        specs[spec_index], use_cache=use_cache, policy=policy
                    )
                except RetryExhausted as exc:
                    if isinstance(exc.__cause__, ServerOverloaded):
                        counters["shed"] += 1
                    else:
                        counters["errors"] += 1
                    spec_index = (spec_index + len(links)) % len(specs)
                    continue
                except Exception:  # noqa: BLE001 - availability denominator
                    counters["errors"] += 1
                    spec_index = (spec_index + len(links)) % len(specs)
                    continue
            else:
                response = await client.solve(
                    specs[spec_index], use_cache=use_cache
                )
            if response.ok:
                counters["done"] += 1
                latencies.append((loop.time() - start) * 1000.0)
                if spec_index not in sample_payloads and response.result:
                    sample_payloads[spec_index] = response.result
            elif (response.error or {}).get("type") == "ServerOverloaded":
                counters["shed"] += 1
                retry_after = (response.error or {}).get("retry_after_ms", 10.0)
                await asyncio.sleep(retry_after / 1000.0)
            else:
                counters["errors"] += 1
            spec_index = (spec_index + len(links)) % len(specs)

    try:
        await asyncio.gather(*(one_client(i) for i in range(clients)))
    finally:
        for client in links:
            await client.close()
    return (
        counters["done"],
        latencies,
        sample_payloads,
        counters["shed"],
        counters["errors"],
    )


def run_serve_bench(
    *,
    clients: int = 64,
    duration: float = 2.0,
    distinct: int = 4,
    seed: int = 2,
    max_batch: int = 16,
    max_wait_ms: float = 2.0,
    max_queue: int = 1024,
    coalesce: bool = True,
    use_cache: bool = True,
    warm: bool = True,
    connections: Optional[int] = None,
    cache_db: str = "",
    workers: int = 0,
    batch_deadline_s: float = 30.0,
    max_restarts: int = 5,
    crash_rate: float = 0.0,
    hang_rate: float = 0.0,
    fault_seed: int = 7,
    retry: bool = False,
) -> ServeBenchResult:
    """One closed-loop load run against an embedded daemon (see module doc).

    ``warm=True`` pre-solves every distinct spec before the measured window,
    so a cache-enabled run measures the serving stack rather than the first
    cold solves; ``use_cache=False`` forces backend work on every request
    (the configuration that exposes coalescing/batching gains).

    ``workers > 0`` serves through the supervised subprocess pool, and
    ``crash_rate``/``hang_rate`` install a deterministic
    :mod:`repro.faults` plan on the ``serve.worker`` seam (``after=1``, so
    every fresh worker's first batch is safe and recovery is always
    possible).  ``retry=True`` drives requests through
    :meth:`~repro.serve.client.ServeClient.solve_with_retry`; the resulting
    ``availability`` field is the non-overload success fraction the chaos
    floor of ``scripts/bench.py``'s serve suite asserts on.
    """
    if clients < 1 or distinct < 1:
        raise ValueError("clients and distinct must be >= 1")
    if not 0.0 <= crash_rate <= 1.0 or not 0.0 <= hang_rate <= 1.0:
        raise ValueError("crash_rate and hang_rate must be in [0, 1]")
    if (crash_rate or hang_rate) and workers < 1:
        raise ValueError(
            "worker fault injection needs workers >= 1 (the inline path "
            "has no serve.worker seam)"
        )
    n_connections = connections or min(64, clients)
    specs = sweep_specs(distinct, seed=seed)

    async def _main() -> ServeBenchResult:
        from repro import faults as _faults

        plan_installed = False
        if crash_rate or hang_rate:
            rules = []
            if crash_rate:
                rules.append(_faults.FaultRule(
                    seam="serve.worker", kind="crash",
                    probability=crash_rate, after=1,
                ))
            if hang_rate:
                rules.append(_faults.FaultRule(
                    seam="serve.worker", kind="hang",
                    probability=hang_rate, after=1,
                    delay_s=2.0 * batch_deadline_s,
                ))
            _faults.install(_faults.FaultPlan(
                seed=fault_seed, rules=tuple(rules),
            ))
            plan_installed = True
        try:
            return await _run_embedded()
        finally:
            if plan_installed:
                _faults.clear()

    async def _run_embedded() -> ServeBenchResult:
        with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
            socket_path = str(Path(tmp) / "serve.sock")
            server = AllocationServer(
                ServeSettings(
                    socket_path=socket_path,
                    max_batch=max_batch,
                    max_wait_ms=max_wait_ms,
                    max_queue=max_queue,
                    coalesce=coalesce,
                    cache_db=cache_db,
                    workers=workers,
                    batch_deadline_s=batch_deadline_s,
                    max_restarts=max_restarts,
                )
            )
            await server.start()
            try:
                from repro.serve.client import ServeClient

                if warm:
                    warm_client = await ServeClient.connect(
                        socket_path=socket_path
                    )
                    for spec in specs:
                        (await warm_client.solve(spec)).raise_for_error()
                    await warm_client.close()
                before = dict(server.stats)
                done, latencies, samples, shed, errors = await _drive(
                    server,
                    socket_path,
                    specs,
                    clients=clients,
                    connections=n_connections,
                    duration_s=duration,
                    use_cache=use_cache,
                    retry=retry,
                )
                after = server.stats_snapshot()
                byte_identical = _verify_samples(server, specs, samples)
                restarts = int(
                    after.get("supervisor", {}).get("worker_restarts", 0)
                )
            finally:
                await server.stop()
        lat = np.asarray(latencies, dtype=float)
        return ServeBenchResult(
            clients=clients,
            connections=n_connections,
            duration_s=duration,
            distinct_specs=distinct,
            use_cache=use_cache,
            coalesce_enabled=coalesce,
            requests=done,
            rate_rps=done / duration if duration > 0 else float("nan"),
            p50_ms=float(np.percentile(lat, 50)) if lat.size else float("nan"),
            p99_ms=float(np.percentile(lat, 99)) if lat.size else float("nan"),
            mean_ms=float(lat.mean()) if lat.size else float("nan"),
            coalesced=after["coalesced"] - before["coalesced"],
            backend_batches=after["backend_batches"] - before["backend_batches"],
            backend_solves=after["backend_solves"] - before["backend_solves"],
            cache_hits=after["cache_hits"] - before["cache_hits"],
            shed=shed,
            errors=errors,
            byte_identical=byte_identical,
            workers=workers,
            crash_rate=crash_rate,
            hang_rate=hang_rate,
            retry_enabled=retry,
            availability=(
                done / (done + errors) if (done + errors) else 1.0
            ),
            worker_restarts=restarts,
        )

    return asyncio.run(_main())


def _verify_samples(
    server: AllocationServer,
    specs: List[ConfigSpec],
    samples: Dict[int, Dict[str, Any]],
) -> bool:
    """Daemon payloads vs direct ``SolverService.solve`` of the same specs.

    Uses the daemon's own service (shared cache): a cached spec compares
    strictly byte-for-byte; an uncached one (no-cache load runs) compares
    modulo wall-clock fields.
    """
    from repro import io as repro_io

    if not samples:
        return False
    for spec_index, payload in samples.items():
        config = specs[spec_index].build()
        direct = repro_io.result_to_dict(server.service.solve(config))
        if not payloads_equivalent(payload, direct):
            return False
    return True
