"""Allocation-daemon serving guards (PR 7 acceptance).

The smoke floors protect the serving stack's reason to exist: the daemon
must sustain a healthy request rate on cache-warm traffic, and in-flight
coalescing must beat the coalescing-off configuration (which still enjoys
in-batch dedup) on identical-fingerprint no-cache traffic.  The full
measured numbers — 1000 closed-loop clients, the N-identical→1-solve
proof, and the byte-identity check — live in ``BENCH_serve.json``
(``python scripts/bench.py serve``, whose ``--check`` mode enforces the
acceptance floors and hard checks); the smoke floors here are deliberately
looser so CI jitter cannot flake them.

Run: ``pytest benchmarks/test_serve_throughput.py -m smoke -s``
"""

from __future__ import annotations

import pytest

from repro.serve.bench import run_serve_bench

from conftest import full_run

#: CI-safe smoke floors (the script's --check floors are 150 rps / 2.0x).
MIN_SMOKE_RPS = 100.0
MIN_SMOKE_COALESCE_SPEEDUP = 1.5


@pytest.mark.smoke
def test_daemon_sustains_cache_warm_traffic(capsys):
    clients = 200 if full_run() else 64
    result = run_serve_bench(clients=clients, duration=1.0, distinct=4)
    with capsys.disabled():
        print()
        print(result.render())
    assert result.errors == 0
    assert result.byte_identical
    assert result.rate_rps >= MIN_SMOKE_RPS, (
        f"daemon sustained only {result.rate_rps:.0f} req/s "
        f"(floor {MIN_SMOKE_RPS:.0f})"
    )


@pytest.mark.smoke
def test_coalescing_beats_batching_alone(capsys):
    clients = 64 if full_run() else 32
    on = run_serve_bench(clients=clients, duration=1.0, distinct=1,
                         use_cache=False, coalesce=True)
    off = run_serve_bench(clients=clients, duration=1.0, distinct=1,
                          use_cache=False, coalesce=False)
    # Each closed-loop client keeps exactly one request in flight, so by
    # Little's law the throughput ratio is the inverse mean-latency ratio.
    # done / duration is biased toward 1: every client's last request
    # starts inside the window and is counted after it, on both sides.
    speedup = off.mean_ms / on.mean_ms
    with capsys.disabled():
        print()
        print(f"coalesce on : {on.rate_rps:8.1f} req/s, mean "
              f"{on.mean_ms:.1f} ms ({on.backend_solves} backend solves)")
        print(f"coalesce off: {off.rate_rps:8.1f} req/s, mean "
              f"{off.mean_ms:.1f} ms ({off.backend_solves} backend solves)")
        print(f"speedup     : {speedup:.2f}x")
    assert on.byte_identical and off.byte_identical
    assert speedup >= MIN_SMOKE_COALESCE_SPEEDUP, (
        f"coalescing only {speedup:.2f}x faster than batching alone "
        f"(floor {MIN_SMOKE_COALESCE_SPEEDUP}x)"
    )
