"""``sweep``: one closed-loop caller on a cold ``SolverService``.

A round makes four kinds of call, in this order, on a fresh service:

* four Fig.-6 panels, each K=16 configs from one channel realization with
  one budget swept (``solve_many``) -- work shared across inputs;
* one K=64 batch of distinct paper-config realizations (``solve_batch`` on a
  ``ConfigBatch``) -- a heterogeneous batch that iterates until its slowest
  config converges;
* one mixed-topology batch of grid, ring, Waxman and scale-free configs with
  3-6 clients (``solve_many``) -- shape grouping;
* three single ``solve(config)`` calls -- the K=1 path.

Each round runs on a new service with its own input set (``ROUND_SETS`` sets
are generated from the seed, used in turn), so a run averages several K=64
stragglers instead of depending on one.  The solver does almost all of the
work; serving and the simulator none.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

#: Fig.-6 panels and the budget range each one sweeps.
PANEL_RANGES = {
    "bandwidth": (0.5e7, 1.5e7),
    "power": (0.2, 1.0),
    "client_cpu": (0.3e10, 1.5e10),
    "server_cpu": (2.0e10, 3.0e10),
}
FAMILIES = ("grid", "ring", "waxman", "scale-free")


@dataclass
class Sizes:
    panel_k: int = 16
    batch_k: int = 64
    mixed_k: int = 8
    singles: int = 3
    mixed_nodes: int = 16


SMOKE_SIZES = Sizes(panel_k=3, batch_k=4, mixed_k=4, singles=1, mixed_nodes=8)
#: input sets per run; round i uses set i mod ROUND_SETS
ROUND_SETS = 8


@dataclass
class Call:
    """One call of a round: its kind (which entry point) and its configs."""

    kind: str  # k16 | k64 | mixed | k1
    configs: list


def make_inputs(seed: int, smoke: bool = False) -> List[List[Call]]:
    """``ROUND_SETS`` rounds of calls, generated from ``seed`` alone."""
    return [make_round(seed, r, smoke) for r in range(ROUND_SETS)]


def make_round(seed: int, index: int, smoke: bool = False) -> List[Call]:
    """The calls of one round."""
    from repro.core.config import paper_config
    from repro.sim.routing import RouteController
    from repro.sim.topology import config_for_topology, make_topology

    sizes = SMOKE_SIZES if smoke else Sizes()
    rng = np.random.default_rng([seed, 0x5EE9, index])

    def draw() -> int:
        return int(rng.integers(1 << 31))

    calls: List[Call] = []
    for panel, (lo, hi) in PANEL_RANGES.items():
        base = paper_config(seed=draw())
        modify = {
            "bandwidth": base.with_total_bandwidth,
            "power": base.with_max_power,
            "client_cpu": base.with_client_max_frequency,
            "server_cpu": base.with_total_server_frequency,
        }[panel]
        values = np.linspace(lo, hi, sizes.panel_k)
        calls.append(Call("k16", [modify(float(v)) for v in values]))
    calls.append(
        Call("k64", [paper_config(seed=draw()) for _ in range(sizes.batch_k)])
    )
    mixed = []
    for i in range(sizes.mixed_k):
        topo = make_topology(
            FAMILIES[i % len(FAMILIES)],
            num_nodes=sizes.mixed_nodes,
            num_clients=3 + int(rng.integers(4)),
            seed=draw(),
        )
        routes = RouteController(topo, k=1).initial_routes()
        mixed.append(config_for_topology(topo, routes, seed=draw()))
    calls.append(Call("mixed", mixed))
    for _ in range(sizes.singles):
        calls.append(Call("k1", [paper_config(seed=draw())]))
    return calls


def run_call(service, call: Call) -> list:
    """Make one call through the public ``SolverService`` surface."""
    from repro.core.batch import ConfigBatch

    if call.kind == "k1":
        return [service.solve(call.configs[0])]
    if call.kind == "k64":
        solution = service.solve_batch(ConfigBatch.from_configs(call.configs))
        return [solution[i] for i in range(len(call.configs))]
    return list(service.solve_many(call.configs))


@dataclass
class Round:
    seconds: float
    calls: List[Tuple[str, int, float]]  # (kind, configs, seconds)
    results: list
    cache: Dict[str, int]


def run_round(calls: List[Call]) -> Round:
    from repro.api.service import SolverService

    service = SolverService()
    timings, results = [], []
    start = time.perf_counter()
    for call in calls:
        t0 = time.perf_counter()
        out = run_call(service, call)
        timings.append((call.kind, len(call.configs), time.perf_counter() - t0))
        results.append(out)
    return Round(time.perf_counter() - start, timings, results,
                 service.cache_info())


def run_rounds(sets: List[List[Call]], seconds: float,
               first: int = 0) -> List[Round]:
    """Whole rounds (set ``first``, ``first + 1``, ...) while the next one
    is expected to fit in ``seconds``."""
    rounds: List[Round] = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(sets[(first + len(rounds)) % len(sets)]))
        elapsed = time.perf_counter() - start
        if elapsed + rounds[-1].seconds > seconds:
            return rounds


def end_to_end(rounds: List[Round]) -> Dict[str, float]:
    """Totals over the run's rounds (see README for definitions)."""
    seconds = sum(r.seconds for r in rounds)
    configs = sum(n for r in rounds for _, n, _ in r.calls)
    iterations = sum(int(res.outer_iterations) for r in rounds
                     for out in r.results for res in out)
    return {
        "configs_per_s": configs / seconds,
        "events_per_s": iterations / seconds,
    }


# -- output checks -----------------------------------------------------------------


def check_results(calls: List[Call], results: List[list]) -> List[str]:
    """Eq.-17 feasibility, finiteness and convergence of every result."""
    from repro.core.problem import QuHEProblem

    failures: List[str] = []
    for ci, (call, out) in enumerate(zip(calls, results)):
        if len(out) != len(call.configs):
            failures.append(f"call {ci}: {len(out)} results for "
                            f"{len(call.configs)} configs")
            continue
        for j, (cfg, res) in enumerate(zip(call.configs, out)):
            where = f"call {ci} ({call.kind}) config {j}"
            alloc = res.allocation
            arrays = [alloc.phi, alloc.w, alloc.lam, alloc.p, alloc.b,
                      alloc.f_c, alloc.f_s]
            if not (np.isfinite(res.objective)
                    and all(np.all(np.isfinite(a)) for a in arrays)):
                failures.append(f"{where}: non-finite result")
                continue
            if not res.converged:
                failures.append(f"{where}: not converged")
            violated = QuHEProblem(cfg).check_constraints(alloc, tol=1e-6)
            if violated:
                failures.append(f"{where}: violates {violated[0]}")
    return failures


def sample_indices(calls: List[Call], seed: int) -> List[Tuple[int, int]]:
    """One seeded (call, config) pick per batched call kind."""
    rng = np.random.default_rng([seed, 0xC4EC])
    picks = []
    for kind in ("k16", "k64", "mixed"):
        idx = [i for i, c in enumerate(calls) if c.kind == kind]
        ci = idx[int(rng.integers(len(idx)))]
        picks.append((ci, int(rng.integers(len(calls[ci].configs)))))
    return picks


def check_against_scalar(
    calls: List[Call], results: List[list], picks: List[Tuple[int, int]],
    references: Dict[Tuple[int, int], object],
) -> List[str]:
    """Batched results must equal a scalar solve: objective and λ."""
    failures = []
    for ci, j in picks:
        res, ref = results[ci][j], references[(ci, j)]
        if abs(res.objective - ref.objective) > 1e-9 * max(1.0, abs(ref.objective)):
            failures.append(
                f"call {ci} config {j}: objective {res.objective!r} != "
                f"scalar {ref.objective!r}"
            )
        if not np.array_equal(res.allocation.lam, ref.allocation.lam):
            failures.append(f"call {ci} config {j}: λ differs from scalar")
    return failures


def scalar_references(calls: List[Call], picks) -> Dict[Tuple[int, int], object]:
    from repro.core.quhe import QuHE

    return {(ci, j): QuHE(calls[ci].configs[j]).solve() for ci, j in picks}


# -- phases (called by run.py in a fresh interpreter) ---------------------------------


def setup(seed: int, seconds: float, smoke: bool) -> Dict:
    return {"seed": seed, "sets": make_inputs(seed, smoke)}


def check_rounds(sets: List[List[Call]], rounds: List[Round]) -> List[str]:
    failures = []
    for i, r in enumerate(rounds):
        failures += check_results(sets[i % len(sets)], r.results)
    return failures


def measure(state: Dict, seconds: float):
    from perfbench.common import own_peak_rss_mb, percentile

    sets = state["sets"]
    rounds = run_rounds(sets, seconds)
    metrics = end_to_end(rounds)
    metrics["peak_rss_mb"] = own_peak_rss_mb()
    failures = check_rounds(sets, rounds)
    calls = sets[0]
    picks = sample_indices(calls, state["seed"])
    failures += check_against_scalar(
        calls, rounds[0].results, picks, scalar_references(calls, picks))
    attempted = sum(n for r in rounds for _, n, _ in r.calls) + len(picks)
    latencies = [1000.0 * s for r in rounds for _, _, s in r.calls]
    info = {"rounds": len(rounds), "round_s": [r.seconds for r in rounds],
            "call_ms_p50": percentile(latencies, 50),
            "call_ms_p99": percentile(latencies, 99)}
    return metrics, attempted, failures, info


def traced(state: Dict, seconds: float):
    """Untraced rounds, then traced rounds of the same input sets."""
    from perfbench.tracing import Tracer, layer_metrics

    sets = state["sets"]
    plain = run_rounds(sets, seconds / 2)
    tracer = Tracer().install()
    try:
        rounds = run_rounds(sets, seconds / 2)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer.spans)
    metrics["api.cache_hits"] = sum(r.cache["hits"] for r in rounds)
    metrics["api.cache_misses"] = sum(r.cache["misses"] for r in rounds)
    # Same sets in the same order, so compare round by round.
    pairs = list(zip(rounds, plain))
    metrics["bench.trace_overhead"] = (
        sum(t.seconds for t, _ in pairs) / sum(p.seconds for _, p in pairs)
        - 1.0)
    failures = check_rounds(sets, rounds)
    attempted = sum(n for r in rounds for _, n, _ in r.calls)
    return metrics, attempted, failures, tracer.spans
