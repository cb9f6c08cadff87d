"""repro.sim — discrete-event quantum network simulator.

The optimization layer answers *"what is the best static allocation?"*;
this package answers *"what happens over time?"*: entanglement generation
latency, key-buffer depletion, link outages, fading epochs, and the value
of re-optimizing mid-run.

Layers (see ``docs/simulation.md``):

* :mod:`repro.sim.engine` — generic discrete-event kernel: event heap,
  simulation clock, :class:`~repro.sim.engine.Entity` /
  :class:`~repro.sim.engine.Process` base classes, named deterministic RNG
  streams, event-trace digests;
* :mod:`repro.sim.processes` — quantum-network processes: per-link
  entanglement sources (β_l / Werner models), swapping into per-route key
  buffers, transciphering demand, disruptions, fading, adaptation hooks;
* :mod:`repro.sim.bank` — the entanglement sources' bank, firing every
  source's attempts between two heap events in one NumPy pass (imported
  by the first source a simulation starts);
* :mod:`repro.sim.qnetwork` — the orchestrator binding a
  :class:`~repro.core.config.SystemConfig` + solver allocation to the
  process layer, including mid-simulation ``SolverService`` re-invocation;
* :mod:`repro.sim.topology` — generated network graphs (grid, ring,
  Waxman, scale-free, declarative custom dicts) carrying the same link
  physics as the paper topology (see ``docs/topology.md``);
* :mod:`repro.sim.routing` — Dijkstra / Yen k-shortest candidate paths
  and the :class:`~repro.sim.routing.RouteController` reroute-on-outage
  policies;
* :mod:`repro.sim.result` — :class:`~repro.sim.result.SimulationResult` /
  :class:`~repro.sim.result.AdaptiveSimStudy` /
  :class:`~repro.sim.result.RoutingCompareStudy`, registered with the
  :mod:`repro.io` codec registry.

Quick start::

    from repro.core.config import paper_config
    from repro.sim import QuantumNetworkSimulation, SimParams

    sim = QuantumNetworkSimulation(
        paper_config(seed=2),
        SimParams(duration_s=120.0, demand_factor=0.8, outage_rate=0.02),
        seed=7,
    )
    result = sim.run()
    print(result.render())
"""

from importlib import import_module

#: The submodule each public name lives in.  A name is imported on first
#: use (PEP 562), so importing one submodule -- the codec registry needs
#: only ``repro.sim.result``, a topology sweep only ``routing`` and
#: ``topology`` -- does not load the simulator.
_HOMES = {
    "Entity": "engine",
    "Event": "engine",
    "Process": "engine",
    "RngStreams": "engine",
    "Simulator": "engine",
    "QuantumNetworkSimulation": "qnetwork",
    "SimParams": "qnetwork",
    "run_adaptive_study": "qnetwork",
    "AdaptiveSimStudy": "result",
    "RoutingCompareStudy": "result",
    "SimulationResult": "result",
    "RouteController": "routing",
    "Topology": "topology",
    "config_for_topology": "topology",
    "make_topology": "topology",
}


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{home}"), name)
    return value


__all__ = sorted(_HOMES)
