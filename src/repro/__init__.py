"""repro — reproduction of the QuHE secure edge computing system (ICDCS 2025).

QuHE integrates quantum key distribution (QKD), transciphering and CKKS
homomorphic encryption in a mobile edge computing network, and jointly
optimises QKD utility, HE security, delay and energy (paper Eq. 17) with a
three-stage alternating algorithm.

Quick start::

    from repro import paper_config, SolverService

    config = paper_config(seed=0)
    result = SolverService().solve(config)
    print(result.metrics.summary())

Subpackages
-----------
``repro.quantum``
    QKD network substrate (Werner links, SURFnet topology, entanglement
    simulation, BBM92 protocol, key management, network utility).
``repro.crypto``
    ChaCha20, CKKS, LWE security estimation, transciphering.
``repro.wireless``
    3GPP channel model, Shannon-rate FDMA uplink.
``repro.compute``
    CPU-cycle cost curves and device models.
``repro.core``
    Problem P1, the QuHE algorithm (stages 1-3) and all baselines.
``repro.experiments``
    Regeneration harness for every table and figure of the paper's §VI.
``repro.api``
    Unified scenario registry + :class:`SolverService` front-door: cached,
    batchable solves and artifact-first experiment runs
    (``run_scenario("fig6", {"panel": "power"}).save("runs/")``).
"""

from repro.core import (
    Allocation,
    BranchAndBoundSolver,
    ExhaustiveSolver,
    Metrics,
    QuHE,
    QuHEProblem,
    QuHEResult,
    Stage1Solver,
    Stage3Solver,
    SystemConfig,
    average_allocation,
    occr_baseline,
    olaa_baseline,
    paper_config,
)
from repro.pipeline import SecureEdgePipeline, PipelineReport
from repro.api import RunRecord, SolverService, get_scenario, run_scenario, scenario_names

__version__ = "1.0.0"

__all__ = [
    "Allocation",
    "RunRecord",
    "SolverService",
    "get_scenario",
    "run_scenario",
    "scenario_names",
    "BranchAndBoundSolver",
    "ExhaustiveSolver",
    "Metrics",
    "PipelineReport",
    "QuHE",
    "QuHEProblem",
    "QuHEResult",
    "SecureEdgePipeline",
    "Stage1Solver",
    "Stage3Solver",
    "SystemConfig",
    "average_allocation",
    "occr_baseline",
    "olaa_baseline",
    "paper_config",
    "__version__",
]
