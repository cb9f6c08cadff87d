"""Golden-trace regression corpus: pinned event-trace and payload digests.

The simulator's determinism contract (``docs/simulation.md``) says a
``(scenario, params, seed)`` triple fully determines the event trace.  The
golden corpus pins that contract *across refactors*: SHA-256 trace digests
for every ``sim-*`` scenario at three seeds are checked in under
``tests/sim/golden/`` and recomputed by a tier-1 test, so an RNG-stream
reordering (like PR 4's bulk-draw change) that silently alters
trajectories fails CI instead of shipping.

A trace digest covers ``(time, tag)`` only: which route a pair went to,
pending-cap drops and the delivered and served bits never enter it.  So
every run also pins the SHA-256 of its
:meth:`~repro.sim.result.SimulationResult.deterministic_payload` as
canonical JSON (:func:`payload_digest`).

This module is the single source of the corpus definition — the generator
(``scripts/gen_golden_traces.py``) and the regression test
(``tests/sim/test_golden_traces.py``) both import it, so they cannot
disagree about parameters.

Digests are computed on a **fresh** :class:`~repro.api.service.SolverService`
per scenario: the baseline allocation must come from the scalar solver,
never from whatever a shared cache happens to hold.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Tuple

__all__ = [
    "GOLDEN_CASES",
    "GOLDEN_SEEDS",
    "compute_pins",
    "payload_digest",
]

#: The pinned replication seeds (chosen to include an outage-free and
#: outage-heavy realization under the disrupted parameter sets).
GOLDEN_SEEDS: Tuple[int, ...] = (2, 3, 5)

#: Scenario name -> the (short-horizon) parameters the corpus pins.
GOLDEN_CASES: Dict[str, Dict[str, float]] = {
    "sim-keyrate": {
        "duration": 20.0,
        "demand_factor": 0.5,
        "sample_dt": 1.0,
    },
    "sim-outage": {
        "duration": 40.0,
        "outage_rate": 0.05,
        "outage_duration": 15.0,
        "demand_factor": 0.9,
        "sample_dt": 1.0,
    },
    "sim-adaptive": {
        "duration": 40.0,
        "reopt_interval": 10.0,
        "fading_interval": 10.0,
        "outage_rate": 0.05,
        "outage_duration": 15.0,
        "demand_factor": 0.9,
        "sample_dt": 1.0,
    },
    # Generated-topology routing scenarios (string-valued params are the
    # topology family; see repro.sim.topology).  Short horizons and a
    # small grid keep the corpus fast while still exercising reroutes.
    "sim-multipath": {
        "topology": "grid",
        "nodes": 12.0,
        "clients": 3.0,
        "k_paths": 2.0,
        "duration": 30.0,
        "outage_rate": 0.1,
        "outage_duration": 10.0,
        "demand_factor": 0.8,
        "reopt_interval": 10.0,
        "sample_dt": 1.0,
    },
    "sim-routing-compare": {
        "topology": "grid",
        "nodes": 12.0,
        "clients": 4.0,
        "k_paths": 3.0,
        "duration": 30.0,
        "outage_rate": 0.25,
        "outage_duration": 12.0,
        "demand_factor": 0.8,
        "reopt_interval": 10.0,
        "sample_dt": 1.0,
    },
}


def payload_digest(result) -> str:
    """SHA-256 of a run's deterministic payload as canonical JSON."""
    text = json.dumps(
        result.deterministic_payload(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def compute_pins(
    scenario: str, seed: int, *, service=None
) -> Tuple[Dict[str, str], Dict[str, str]]:
    """The scenario's trace digests and payload digests at ``seed``.

    Both map run names to digests: ``{"trace": ...}`` for the single-run
    scenarios, ``{"adaptive": ..., "static": ...}`` for ``sim-adaptive``
    and ``{"proactive": ..., "reactive": ..., "static": ...}`` for
    ``sim-routing-compare`` (every run of a study is pinned: the policies
    share disruption randomness, so any one diverging is a regression).
    The scenario runs once for both.
    """
    runs = _run_case(scenario, seed, service)
    return (
        {name: result.trace_digest for name, result in runs.items()},
        {name: payload_digest(result) for name, result in runs.items()},
    )


def _run_case(scenario: str, seed: int, service) -> Dict[str, object]:
    """Run name -> :class:`~repro.sim.result.SimulationResult` of a case."""
    from repro.api.service import SolverService
    from repro.experiments.simulation import (
        run_adaptive_sim,
        run_keyrate_sim,
        run_multipath_sim,
        run_outage_sim,
        run_routing_compare,
    )

    if service is None:
        service = SolverService()
    params = GOLDEN_CASES[scenario]
    if scenario == "sim-keyrate":
        result = run_keyrate_sim(
            seed=seed,
            duration_s=params["duration"],
            sample_dt=params["sample_dt"],
            demand_factor=params["demand_factor"],
            service=service,
        )
        return {"trace": result}
    if scenario == "sim-outage":
        result = run_outage_sim(
            seed=seed,
            duration_s=params["duration"],
            outage_rate=params["outage_rate"],
            outage_duration_s=params["outage_duration"],
            demand_factor=params["demand_factor"],
            sample_dt=params["sample_dt"],
            service=service,
        )
        return {"trace": result}
    if scenario == "sim-adaptive":
        study = run_adaptive_sim(
            seed=seed,
            duration_s=params["duration"],
            reopt_interval_s=params["reopt_interval"],
            fading_interval_s=params["fading_interval"],
            outage_rate=params["outage_rate"],
            outage_duration_s=params["outage_duration"],
            demand_factor=params["demand_factor"],
            sample_dt=params["sample_dt"],
            service=service,
        )
        return {"adaptive": study.adaptive, "static": study.static}
    if scenario == "sim-multipath":
        result = run_multipath_sim(
            seed=seed,
            topology=str(params["topology"]),
            num_nodes=int(params["nodes"]),
            num_clients=int(params["clients"]),
            k_paths=int(params["k_paths"]),
            duration_s=params["duration"],
            outage_rate=params["outage_rate"],
            outage_duration_s=params["outage_duration"],
            demand_factor=params["demand_factor"],
            reopt_interval_s=params["reopt_interval"],
            sample_dt=params["sample_dt"],
            service=service,
        )
        return {"trace": result}
    if scenario == "sim-routing-compare":
        study = run_routing_compare(
            seed=seed,
            topology=str(params["topology"]),
            num_nodes=int(params["nodes"]),
            num_clients=int(params["clients"]),
            k_paths=int(params["k_paths"]),
            duration_s=params["duration"],
            outage_rate=params["outage_rate"],
            outage_duration_s=params["outage_duration"],
            demand_factor=params["demand_factor"],
            reopt_interval_s=params["reopt_interval"],
            sample_dt=params["sample_dt"],
            service=service,
        )
        return {
            "proactive": study.proactive,
            "reactive": study.reactive,
            "static": study.static,
        }
    raise KeyError(f"no golden case for scenario {scenario!r}")
