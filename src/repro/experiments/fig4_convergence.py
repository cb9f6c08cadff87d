"""Fig. 4: per-stage convergence of QuHE (§VI-D).

Regenerates the four panels:

* (a) Stage-1 objective per SLSQP iteration (paper: converges in 12 steps),
* (b) Stage-2 incumbent objective per branch-and-bound expansion (26 steps),
* (c) Stage-3 primal objective per fractional-programming iteration (34),
* (d) Stage-3 tightness gap per iteration — the role the CVX duality gap
  plays in the paper: it certifies the quadratic transform has become exact
  (≤1e-5 by the final iterations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.config import SystemConfig
from repro.core.quhe import initial_allocation
from repro.core.stage1 import Stage1Solver
from repro.core.stage2 import BranchAndBoundSolver
from repro.core.stage3 import solve_with_fallback


@dataclass(frozen=True)
class ConvergenceTraces:
    """The four series of Fig. 4 plus stage call counts and runtime."""

    stage1_objective: List[float]
    stage2_incumbent: List[float]
    stage3_objective: List[float]
    stage3_gap: List[float]
    stage1_iterations: int
    stage2_nodes: int
    stage3_iterations: int
    outer_iterations: int
    total_runtime_s: float

    @property
    def final_gap(self) -> float:
        """Last Stage-3 tightness gap (paper: duality gap reaches 1e-5)."""
        return self.stage3_gap[-1] if self.stage3_gap else float("nan")


def run_convergence(config: SystemConfig) -> ConvergenceTraces:
    """Trace each stage's first full pass from the initial point (Fig. 4).

    The paper's Fig. 4 plots the *within-stage* convergence on the first
    outer iteration — the later outer rounds of Alg. 4 start from already
    near-optimal points and show no visible trajectory.  We therefore run
    the three stage solvers once from the cold start (Stage 2 as the
    branch-and-bound whose incumbent Fig. 4(b) plots), then take the total
    runtime and outer-iteration count from a full
    :class:`~repro.api.service.SolverService` solve.  A Stage-3
    :class:`~repro.errors.SolverError` degrades the first pass to the SLSQP
    reference, as the service does for the full solve.
    """
    from repro.api.service import SolverService

    alloc = initial_allocation(config)
    s1 = Stage1Solver(config).solve(alloc.phi)
    alloc = alloc.with_updates(phi=s1.phi, w=s1.w)
    s2 = BranchAndBoundSolver(config).solve(alloc)
    alloc = alloc.with_updates(lam=s2.lam, T=s2.T)
    s3 = solve_with_fallback(config, alloc)
    result = SolverService().solve(config)
    return ConvergenceTraces(
        stage1_objective=list(s1.history),
        stage2_incumbent=list(s2.history),
        stage3_objective=list(s3.history),
        stage3_gap=list(s3.transform_gap),
        stage1_iterations=s1.iterations,
        stage2_nodes=s2.nodes_explored,
        stage3_iterations=s3.outer_iterations,
        outer_iterations=result.outer_iterations,
        total_runtime_s=result.runtime_s,
    )
