"""The paper's primary contribution: Problem P1 and the QuHE algorithm.

* :mod:`repro.core.config` — the full system configuration (paper §VI-A
  parameter setting) including the SURFnet network and channel realization.
* :mod:`repro.core.problem` — Problem P1 (Eq. 17): objective, metrics and
  constraint checking.
* :mod:`repro.core.solution` — allocation and metric containers.
* :mod:`repro.core.stage1` — Stage 1: convexified QKD-utility maximisation
  (Alg. 1, Eq. 18-20).
* :mod:`repro.core.stage1_baselines` — gradient descent, simulated annealing
  and random selection baselines for Stage 1 (paper §VI-B).
* :mod:`repro.core.stage2` — Stage 2: branch-and-bound over the discrete λ
  (Alg. 2, Eq. 21-23), plus exhaustive search for validation.
* :mod:`repro.core.stage3` — Stage 3: fractional-programming alternation for
  powers, bandwidths and CPU allocations (Alg. 3, Eq. 24-28).
* :mod:`repro.core.quhe` — the scalar Alg. 4 reference loop and its
  feasible starting point.
* :mod:`repro.core.batched` — the vectorized Alg. 4 every solve runs.
* :mod:`repro.core.baselines` — the AA / OLAA / OCCR system baselines.
"""

from repro.core.config import SystemConfig, paper_config
from repro.core.problem import ConstraintReport, QuHEProblem
from repro.core.solution import Allocation, Metrics
from repro.core.stage1 import Stage1Result, Stage1Solver
from repro.core.stage2 import BranchAndBoundSolver, ExhaustiveSolver, Stage2Result
from repro.core.stage3 import Stage3Result, Stage3Solver
from repro.core.quhe import QuHE, QuHEResult, initial_allocation
from repro.core.batch import ConfigBatch, SolutionBatch
from repro.core.batched import BatchedQuHE
from repro.core.baselines import (
    average_allocation,
    occr_baseline,
    olaa_baseline,
)
from repro.core.stage1_baselines import (
    GradientDescentStage1,
    RandomSearchStage1,
    SimulatedAnnealingStage1,
)

__all__ = [
    "BatchedQuHE",
    "ConfigBatch",
    "SolutionBatch",
    "Allocation",
    "BranchAndBoundSolver",
    "ConstraintReport",
    "ExhaustiveSolver",
    "GradientDescentStage1",
    "Metrics",
    "QuHE",
    "QuHEProblem",
    "QuHEResult",
    "RandomSearchStage1",
    "SimulatedAnnealingStage1",
    "Stage1Result",
    "Stage1Solver",
    "Stage2Result",
    "Stage3Result",
    "Stage3Solver",
    "SystemConfig",
    "average_allocation",
    "initial_allocation",
    "occr_baseline",
    "olaa_baseline",
    "paper_config",
]
