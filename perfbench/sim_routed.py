"""``sim_routed``: a closed loop of routed simulations.

One simulation covers a 30 s horizon on a 64-node Waxman topology with four
clients (about 1.04M events): proactive k=3 routing, demand 0.8, outages at
0.2/s with an 8 s mean striking *loaded* links (with ``strike="any"`` this
size rerouted 0 times), re-optimization every 10 s, trace recording on.  The
event kernel does most of the work; re-optimization (warm-started solves of
1-3 configs) and rerouting each take a measured share.

The topology is fixed (Waxman seed ``TOPOLOGY_SEED``, the seed the routing
benchmarks used), so its links and rates -- which set the event count -- do
not change with the workload seed.  The workload seed selects two simulation
seeds from ``pins.json`` (``seed mod len`` and the entry half the table away)
that drive generation, demand and the outage schedule; simulations
alternate between them.  Each entry's trace digest and event count were
recorded by ``pin_sim.py``; a simulation whose digest or count differs fails
its output check.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

PINS = Path(__file__).resolve().parent / "pins.json"


#: the Waxman topology every case runs on
TOPOLOGY_SEED = 2


@dataclass(frozen=True)
class Shape:
    nodes: int = 64
    clients: int = 4
    horizon_s: float = 30.0


SMOKE_SHAPE = Shape(nodes=16, clients=4, horizon_s=3.0)


def sim_params(shape: Shape, record_trace: bool = True):
    from repro.sim.qnetwork import SimParams

    return SimParams(
        duration_s=shape.horizon_s,
        demand_factor=0.8,
        outage_rate=0.2,
        outage_duration_s=8.0,
        reopt_interval_s=10.0,
        strike="loaded",
        record_trace=record_trace,
    )


def load_pins(smoke: bool) -> List[Dict]:
    table = json.loads(PINS.read_text())
    return table["smoke" if smoke else "full"]


def case_pins(seed: int, smoke: bool) -> List[Dict]:
    """The two pinned simulation seeds a run alternates between."""
    pins = load_pins(smoke)
    return [pins[seed % len(pins)], pins[(seed + len(pins) // 2) % len(pins)]]


@dataclass
class Case:
    shape: Shape
    controller: object
    config: object
    service: object


def make_case(shape: Shape) -> Case:
    """Topology, candidate routes and the baseline solve (the set-up)."""
    from repro.api.service import SolverService
    from repro.sim.routing import RouteController
    from repro.sim.topology import config_for_topology, make_topology

    topo = make_topology("waxman", num_nodes=shape.nodes,
                         num_clients=shape.clients, seed=TOPOLOGY_SEED)
    controller = RouteController(topo, k=3, policy="proactive")
    config = config_for_topology(topo, controller.initial_routes(),
                                 seed=TOPOLOGY_SEED)
    service = SolverService()
    service.solve(config)
    return Case(shape, controller, config, service)


def simulate(case: Case, seed: int, record_trace: bool = True):
    """Build and run one simulation; returns (result, wall seconds, sim)."""
    from repro.sim.qnetwork import QuantumNetworkSimulation

    sim = QuantumNetworkSimulation(
        case.config, sim_params(case.shape, record_trace), seed=seed,
        service=case.service, router=case.controller,
    )
    start = time.perf_counter()
    result = sim.run()
    return result, time.perf_counter() - start, sim


def run_sims(case: Case, seeds: List[int], seconds: float) -> List[tuple]:
    """Whole simulations, alternating seeds, while the next one fits.

    Returns ``(result, wall seconds)`` pairs; each simulator (and its
    in-memory event trace) is released before the next one starts.
    """
    runs = []
    start = time.perf_counter()
    while True:
        result, wall, _ = simulate(case, seeds[len(runs) % len(seeds)])
        runs.append((result, wall))
        if time.perf_counter() - start + wall > seconds:
            return runs


def end_to_end(runs: List[tuple]) -> Dict[str, float]:
    walls = [wall for _, wall in runs]
    events = sum(result.events_processed for result, _ in runs)
    return {
        "configs_per_s": len(runs) / sum(walls),
        "events_per_s": events / sum(walls),
    }


def check_run(result, pin: Dict) -> List[str]:
    """The trace digest and event count must equal the pinned values."""
    failures = []
    if result.trace_digest != pin["digest"]:
        failures.append(
            f"seed {pin['seed']}: trace digest {result.trace_digest[:16]}… != "
            f"pinned {pin['digest'][:16]}…"
        )
    if result.events_processed != pin["events"]:
        failures.append(
            f"seed {pin['seed']}: {result.events_processed} events != pinned "
            f"{pin['events']}"
        )
    return failures


def event_families(trace) -> Dict[str, int]:
    """Processed events per tag family (``gen.link3`` → ``gen``)."""
    counts: Dict[str, int] = {}
    for _, tag in trace:
        family = tag.split(".", 1)[0] or "untagged"
        counts[family] = counts.get(family, 0) + 1
    return counts


def pin_entry(case: Case, seed: int) -> Dict:
    """Digest and event count of one simulation seed."""
    result, _, _ = simulate(case, seed)
    return {"seed": seed, "digest": result.trace_digest,
            "events": result.events_processed}


# -- phases (called by run.py in a fresh interpreter) ---------------------------------


def setup(seed: int, seconds: float, smoke: bool) -> Dict:
    return {"pins": case_pins(seed, smoke),
            "case": make_case(SMOKE_SHAPE if smoke else Shape())}


def measure(state: Dict, seconds: float):
    from perfbench.common import own_peak_rss_mb

    pins = state["pins"]
    runs = run_sims(state["case"], [pin["seed"] for pin in pins], seconds)
    metrics = end_to_end(runs)
    metrics["peak_rss_mb"] = own_peak_rss_mb()
    failures = []
    for i, (result, _) in enumerate(runs):
        failures += check_run(result, pins[i % len(pins)])
    info = {"sim_seeds": [pin["seed"] for pin in pins], "sims": len(runs),
            "wall_s": [w for _, w in runs],
            "events": [r.events_processed for r, _ in runs]}
    return metrics, len(runs), failures, info


#: tag families of the routed workload's event trace
FAMILIES = ("gen", "recover", "demand", "disruption", "adapt", "monitor",
            "reroute")


def traced(state: Dict, seconds: float):
    """Trace on, trace off (for sim.trace_share), then with spans."""
    from perfbench.tracing import Tracer, layer_metrics

    case, pin = state["case"], state["pins"][0]
    plain, wall_on, _ = simulate(case, pin["seed"], record_trace=True)
    _, wall_off, _ = simulate(case, pin["seed"], record_trace=False)
    before = case.service.cache_info()
    tracer = Tracer().install()
    try:
        result, wall, sim = simulate(case, pin["seed"], record_trace=True)
    finally:
        tracer.uninstall()
    after = case.service.cache_info()
    metrics = layer_metrics(tracer.spans)
    metrics["api.cache_hits"] = after["hits"] - before["hits"]
    metrics["api.cache_misses"] = after["misses"] - before["misses"]
    metrics["sim.trace_share"] = (wall_on - wall_off) / wall_on
    metrics["sim.events"] = result.events_processed
    families = event_families(sim.sim.trace)
    for family in FAMILIES:
        metrics[f"sim.events.{family}"] = families.pop(family, 0)
    metrics["sim.events.other"] = sum(families.values())
    metrics["sim.reroutes"] = result.reroute_count
    metrics["sim.outages"] = result.outage_count
    metrics["sim.reopt_failures"] = result.reopt_failures
    metrics["bench.trace_overhead"] = wall / wall_on - 1.0
    failures = check_run(plain, pin) + check_run(result, pin)
    return metrics, 2, failures, tracer.spans
