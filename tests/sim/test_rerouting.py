"""Reroute-on-outage: controller semantics, retargeting, swap policies.

Covers the seams the routing layer added to the simulation: the
:class:`RouteController` contract (non-fallback routes never cross a down
link, pure function of link state), the mid-run retargeting of
:class:`AllocationState` and :class:`RouteBuffers`, the entanglement-swap
yield model, the strike-mode outage pools, and — in fresh subprocesses —
the seed-stability of both new scenarios.
"""

import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.sim.processes import (
    AllocationState,
    DisruptionProcess,
    RouteBuffers,
    swap_credit,
)
from repro.sim.qnetwork import QuantumNetworkSimulation, SimParams
from repro.sim.routing import RouteController, path_links, shortest_path
from repro.sim.topology import (
    config_for_topology,
    custom_topology,
    grid_topology,
    make_topology,
)

SRC = str(Path(__file__).resolve().parents[2] / "src")


def triangle():
    """A-B-C path plus A-C chord: two distinct routes to the client."""
    return custom_topology({
        "name": "triangle",
        "links": [
            {"u": "A", "v": "B", "length_km": 10.0},
            {"u": "B", "v": "C", "length_km": 10.0},
            {"u": "A", "v": "C", "length_km": 30.0},
        ],
        "key_center": "A",
        "clients": ["C"],
    })


class TestRouteController:
    @pytest.mark.parametrize("policy", ["proactive", "reactive"])
    def test_all_up_keeps_primary_routes(self, policy):
        topo = grid_topology(3, 4, num_clients=3)
        ctrl = RouteController(topo, k=3, policy=policy)
        primary = ctrl.initial_routes()
        routes, fallback = ctrl.routes_for([True] * topo.num_links)
        assert [r.link_ids for r in routes] == [r.link_ids for r in primary]
        assert fallback == [False, False, False]

    @pytest.mark.parametrize("policy", ["proactive", "reactive"])
    def test_non_fallback_routes_never_cross_down_links(self, policy):
        rng = np.random.default_rng(42)
        for family, n in [("grid", 12), ("ring", 8), ("waxman", 16)]:
            topo = make_topology(family, num_nodes=n, num_clients=3, seed=7)
            ctrl = RouteController(topo, k=3, policy=policy)
            for _ in range(30):
                link_up = list(rng.random(topo.num_links) > 0.3)
                down = {
                    l + 1 for l, up in enumerate(link_up) if not up
                }
                routes, fallback = ctrl.routes_for(link_up)
                for route, dead in zip(routes, fallback):
                    if not dead:
                        assert not down.intersection(route.link_ids)

    @pytest.mark.parametrize("policy", ["proactive", "reactive"])
    def test_unreachable_client_falls_back_to_primary(self, policy):
        topo = triangle()
        ctrl = RouteController(topo, k=2, policy=policy)
        primary = ctrl.initial_routes()[0]
        assert primary.link_ids == (1, 2)  # A-B-C is shorter than the chord
        # chord down -> reroute impossible once B-C also fails
        link_up = [True, False, False]
        routes, fallback = ctrl.routes_for(link_up)
        assert fallback == [True]
        assert routes[0].link_ids == primary.link_ids

    def test_detour_taken_when_primary_cut(self):
        topo = triangle()
        for policy in ("proactive", "reactive"):
            ctrl = RouteController(topo, k=2, policy=policy)
            routes, fallback = ctrl.routes_for([True, False, True])
            assert fallback == [False]
            assert routes[0].link_ids == (3,)  # the A-C chord

    @pytest.mark.parametrize("policy", ["proactive", "reactive"])
    def test_pure_function_of_link_state(self, policy):
        topo = make_topology("scale-free", num_nodes=14, num_clients=4, seed=2)
        ctrl = RouteController(topo, k=3, policy=policy)
        rng = np.random.default_rng(11)
        for _ in range(10):
            link_up = list(rng.random(topo.num_links) > 0.4)
            a_routes, a_fb = ctrl.routes_for(link_up)
            b_routes, b_fb = ctrl.routes_for(link_up)
            assert [r.link_ids for r in a_routes] == [
                r.link_ids for r in b_routes
            ]
            assert a_fb == b_fb

    def test_reactive_matches_fresh_dijkstra(self):
        topo = grid_topology(3, 4, num_clients=2)
        ctrl = RouteController(topo, k=1, policy="reactive")
        rng = np.random.default_rng(5)
        for _ in range(20):
            link_up = list(rng.random(topo.num_links) > 0.25)
            down = frozenset(
                l + 1 for l, up in enumerate(link_up) if not up
            )
            routes, fallback = ctrl.routes_for(link_up)
            for client, route, dead in zip(topo.clients, routes, fallback):
                found = shortest_path(
                    topo, topo.key_center, client, avoid_links=down
                )
                if dead:
                    assert found is None
                else:
                    assert route.link_ids == path_links(topo, found[1])

    def test_argument_validation(self):
        topo = triangle()
        with pytest.raises(ValueError, match="unknown routing policy"):
            RouteController(topo, policy="psychic")
        with pytest.raises(ValueError, match="k must be"):
            RouteController(topo, k=0)
        ctrl = RouteController(topo, k=2)
        with pytest.raises(ValueError, match="link_up has"):
            ctrl.routes_for([True, True])


class TestSwapCredit:
    def test_ideal_swapping_is_exactly_one(self):
        for hops in (1, 2, 5, 11):
            assert swap_credit(hops, 1.0) == 1.0

    def test_yield_decays_geometrically_with_hops(self):
        assert swap_credit(1, 0.8) == 1.0  # single hop needs no swap
        assert swap_credit(2, 0.8) == pytest.approx(0.8)
        assert swap_credit(4, 0.8) == pytest.approx(0.8 ** 3)
        assert swap_credit(3, 0.5) < swap_credit(2, 0.5)


def two_route_state():
    """Allocation state on the triangle with both routes in play."""
    topo = triangle()
    from repro.quantum.routing import Route

    routes = [
        Route(1, source="A", target="C", link_ids=(1, 2)),
        Route(2, source="A", target="C", link_ids=(3,)),
    ]
    network = topo.network(routes)
    return topo, network, AllocationState(network, [1.0, 1.0], [0.2, 0.2, 0.2])


class TestRouteBuffers:
    def test_atomic_drains_every_complete_set(self):
        _, _, state = two_route_state()
        buffers = RouteBuffers(state)
        buffers.pending[0] = [2, 2]
        buffers.on_pair(0, 0)  # -> [3, 2]: two complete end-to-end sets
        assert buffers.pairs_delivered[0] == 2
        assert buffers.pending[0] == [1, 0]

    def test_stepwise_delivers_at_most_one_per_arrival(self):
        _, _, state = two_route_state()
        buffers = RouteBuffers(state, swap_policy="stepwise")
        buffers.pending[0] = [2, 2]
        buffers.on_pair(0, 0)
        assert buffers.pairs_delivered[0] == 1
        assert buffers.pending[0] == [2, 1]

    def test_swap_success_scales_delivered_bits(self):
        _, _, state = two_route_state()
        ideal = RouteBuffers(state)
        lossy = RouteBuffers(state, swap_success=0.5)
        for b in (ideal, lossy):
            b.on_pair(0, 0)
            b.on_pair(0, 1)
        assert ideal.pairs_delivered[0] == lossy.pairs_delivered[0] == 1
        # 2-hop route: one swap at q=0.5 halves the expected yield
        assert lossy.delivered_bits[0] == pytest.approx(
            0.5 * ideal.delivered_bits[0]
        )
        # the single-link route needs no swap: no penalty
        ideal.on_pair(1, 0)
        lossy.on_pair(1, 0)
        assert lossy.delivered_bits[1] == ideal.delivered_bits[1]

    def test_retarget_flushes_pending_and_keeps_key_bits(self):
        topo, network, state = two_route_state()
        buffers = RouteBuffers(state)
        buffers.on_pair(0, 0)  # pending on the 2-hop route
        buffers.key_bits[1] = 7.5
        from repro.quantum.routing import Route

        swapped = topo.network([
            Route(1, source="A", target="C", link_ids=(3,)),
            Route(2, source="A", target="C", link_ids=(1, 2)),
        ])
        state.retarget(swapped, state.phi, state.w)
        buffers.retarget()
        assert buffers.pairs_flushed == [1, 0]
        assert [len(p) for p in buffers.pending] == [1, 2]  # new hop counts
        assert all(v == 0 for p in buffers.pending for v in p)
        assert buffers.key_bits[1] == 7.5  # delivered key survives reroutes

    def test_retarget_rejects_shape_changes(self):
        topo, network, state = two_route_state()
        from repro.quantum.routing import Route

        fewer = topo.network(
            [Route(1, source="A", target="C", link_ids=(1, 2))]
        )
        with pytest.raises(ValueError, match="route count"):
            state.retarget(fewer, [1.0], [0.2, 0.2, 0.2])

    def test_invalid_swap_arguments(self):
        _, _, state = two_route_state()
        with pytest.raises(ValueError, match="swap policy"):
            RouteBuffers(state, swap_policy="telepathic")
        with pytest.raises(ValueError, match="swap_success"):
            RouteBuffers(state, swap_success=0.0)
        with pytest.raises(ValueError, match="swap_success"):
            RouteBuffers(state, swap_success=1.5)


class TestStrikeModes:
    def _disruption(self, strike):
        topo, network, state = two_route_state()
        # only len(sources) matters before the process starts stepping
        sources = [object()] * network.num_links
        return DisruptionProcess(
            sources, state,
            outage_rate=0.1, mean_outage_s=5.0, strike=strike,
        )

    def test_any_mode_targets_every_link(self):
        assert self._disruption("any")._loaded == [True, True, True]

    def test_loaded_mode_targets_route_carrying_links(self):
        topo = triangle()
        from repro.quantum.routing import Route

        network = topo.network(
            [Route(1, source="A", target="C", link_ids=(1, 2))]
        )
        state = AllocationState(network, [1.0], [0.2, 0.2, 0.2])
        proc = DisruptionProcess(
            [object()] * 3, state,
            outage_rate=0.1, mean_outage_s=5.0, strike="loaded",
        )
        assert proc._loaded == [True, True, False]  # chord carries nothing

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="strike mode"):
            self._disruption("everything")
        with pytest.raises(ValueError, match="strike mode"):
            SimParams(strike="everything")


class RecordingController(RouteController):
    """RouteController that logs every decision the simulation asks for."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def routes_for(self, link_up):
        routes, fallback = super().routes_for(link_up)
        self.calls.append(
            (tuple(link_up), [r.link_ids for r in routes], list(fallback))
        )
        return routes, fallback


class TestReroutingInSimulation:
    def test_live_routes_respect_link_state_throughout_a_run(self):
        """End to end: every mid-run routing decision honours link state."""
        topo = grid_topology(3, 4, num_clients=3)
        ctrl = RecordingController(topo, k=3, policy="proactive")
        config = config_for_topology(topo, ctrl.initial_routes(), seed=3)
        params = SimParams(
            duration_s=30.0,
            demand_factor=0.8,
            outage_rate=0.3,
            outage_duration_s=8.0,
            reopt_interval_s=10.0,
            strike="any",
        )
        sim = QuantumNetworkSimulation(config, params, seed=3, router=ctrl)
        result = sim.run()
        assert ctrl.calls, "no outage ever consulted the router"
        for link_up, route_ids, fallback in ctrl.calls:
            down = {l + 1 for l, up in enumerate(link_up) if not up}
            for ids, dead in zip(route_ids, fallback):
                if not dead:
                    assert not down.intersection(ids)
        assert result.reroute_count == len(result.reroutes)
        assert len(result.final_route_links) == 3

    def test_finished_simulation_freed_without_gc(self):
        """A finished routed simulation holds no reference cycle: dropping
        it frees its simulator and trace with the cyclic collector off,
        and what it leaves readable reads as before."""
        topo = grid_topology(3, 4, num_clients=3)
        ctrl = RouteController(topo, k=3, policy="proactive")
        config = config_for_topology(topo, ctrl.initial_routes(), seed=3)
        params = SimParams(
            duration_s=10.0, demand_factor=0.8, outage_rate=0.3,
            outage_duration_s=4.0, reopt_interval_s=5.0, fading_interval_s=5.0,
            strike="any",
        )
        enabled = gc.isenabled()
        gc.disable()
        try:
            sim = QuantumNetworkSimulation(config, params, seed=3, router=ctrl)
            result = sim.run()
            assert sim.disruption.outages and sim.adaptation.reopt_times
            assert sim.sim.trace_digest() == result.trace_digest
            assert len(sim.sim.trace) == result.events_processed
            assert [s.pairs_generated for s in sim.sources] == (
                result.pairs_generated)
            assert sim.buffers.delivered_bits == result.delivered_bits
            assert sim.monitor.sample_times == result.sample_times
            ref = weakref.ref(sim.sim)
            del sim
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_router_topology_must_match_config(self):
        topo = grid_topology(3, 4, num_clients=3)
        ctrl = RouteController(topo, k=2)
        other = grid_topology(3, 3, num_clients=2)
        config = config_for_topology(
            other, RouteController(other, k=1).initial_routes(), seed=0
        )
        with pytest.raises(ValueError, match="link set"):
            QuantumNetworkSimulation(config, router=ctrl)


SEED_STABILITY_SCRIPT = """\
import json
from repro.api.service import SolverService
from repro.experiments.simulation import run_multipath_sim, run_routing_compare

multi = run_multipath_sim(
    seed=5, duration_s=12.0, outage_rate=0.3, outage_duration_s=5.0,
    service=SolverService(),
)
study = run_routing_compare(
    seed=5, duration_s=12.0, outage_rate=0.3, outage_duration_s=5.0,
    service=SolverService(),
)
print(json.dumps({
    "sim-multipath": multi.trace_digest,
    "sim-routing-compare": [
        study.proactive.trace_digest,
        study.reactive.trace_digest,
        study.static.trace_digest,
    ],
}))
"""


def test_scenarios_are_seed_stable_across_fresh_processes():
    """Satellite of the determinism contract: each new scenario, run twice
    in *fresh* interpreter processes, produces identical trace digests —
    no hash-seed, set-iteration, or import-order dependence survives."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="random")
    outputs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-c", SEED_STABILITY_SCRIPT],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout))
    assert outputs[0] == outputs[1]
    assert len(outputs[0]["sim-multipath"]) == 64
