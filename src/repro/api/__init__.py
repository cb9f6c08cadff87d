"""repro.api — the unified experiment surface.

Three pieces, designed so every consumer (CLI, examples, tests, benchmarks)
goes through the same door:

* :mod:`repro.api.registry` — the declarative **scenario registry**; each
  experiment is one :class:`~repro.api.registry.Scenario` with a typed
  parameter spec, and the CLI is generated from this table.
* :mod:`repro.api.service` — :class:`~repro.api.service.SolverService`, the
  cached/batched front-door to the QuHE solver (``solve``, ``solve_many``
  and ``solve_batch`` share one vectorized solve path).
* :mod:`repro.api.artifacts` — :class:`~repro.api.artifacts.RunRecord`,
  the durable params+seed+result+timings artifact each run can write.

Importing this package registers the built-in scenarios
(:mod:`repro.api.scenarios`).

Quick start::

    from repro.api import run_scenario

    record = run_scenario("fig6", {"panel": "bandwidth"})
    print(record.result.render())
    record.save("runs/")
"""

from repro.api.artifacts import RunRecord, record_run
from repro.api.registry import (
    REGISTRY,
    ParamSpec,
    Scenario,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.api.service import SolverService, config_fingerprint
from repro.api.scenarios import SERVICE, run_scenario

__all__ = [
    "REGISTRY",
    "ParamSpec",
    "RunRecord",
    "Scenario",
    "SERVICE",
    "SolverService",
    "config_fingerprint",
    "get_scenario",
    "record_run",
    "register_scenario",
    "run_scenario",
    "scenario_names",
]
