"""Routing-layer throughput guards on generated topologies.

The topology/routing layer (``docs/topology.md``) promises that routed
simulations stay in the simulator's throughput class — rerouting hooks on
the link-change path must not turn the event loop into a graph-algorithm
loop — and that candidate-path construction is a setup-time cost, not a
per-event one.  The smoke guards enforce both on a 16-node Waxman
topology; ``python scripts/bench.py routing`` records the full
16/64/128-node scaling profile.

Run: ``pytest benchmarks/test_routing_throughput.py -m smoke -s``
"""

import time

import pytest

from repro.sim.qnetwork import QuantumNetworkSimulation, SimParams
from repro.sim.routing import RouteController, candidate_routes
from repro.sim.topology import config_for_topology, make_topology

#: CI floor for the routed event loop (conservative: the plain engine
#: clears 10k, and routing only adds work on link-change events).
MIN_EVENTS_PER_SECOND = 2_000


@pytest.fixture(scope="module")
def case():
    topo = make_topology("waxman", num_nodes=16, num_clients=4, seed=2)
    controller = RouteController(topo, k=3, policy="proactive")
    config = config_for_topology(topo, controller.initial_routes(), seed=2)
    return topo, controller, config


@pytest.mark.smoke
def test_routed_sim_stays_in_engine_throughput_class(case, service):
    topo, controller, config = case
    params = SimParams(
        duration_s=30.0, demand_factor=0.8, outage_rate=0.2,
        outage_duration_s=8.0, reopt_interval_s=10.0, strike="any",
        record_trace=False,
    )
    result = QuantumNetworkSimulation(
        config, params, seed=2, service=service, router=controller
    ).run()
    assert result.events_processed > 10_000
    assert result.events_per_second >= MIN_EVENTS_PER_SECOND, (
        f"routed-sim throughput regressed: {result.events_per_second:,.0f} "
        f"events/s < {MIN_EVENTS_PER_SECOND:,}"
    )


@pytest.mark.smoke
def test_candidate_path_construction_is_setup_cost(case):
    """A full Yen candidate sweep must be far below one reopt interval."""
    topo, _, _ = case
    start = time.perf_counter()
    for _ in range(5):
        candidate_routes(topo, k=3)
    per_sweep = (time.perf_counter() - start) / 5
    assert per_sweep < 1.0, f"candidate sweep took {per_sweep:.2f}s"
