"""The whole QuHE procedure (paper Alg. 4).

Three-stage alternating optimization: Stage 1 solves the (decoupled) QKD
block (φ, w), Stage 2 the discrete λ block with the branch-and-bound of
Alg. 2, Stage 3 the communication/computation block (p, b, f_c, f_s, T) via
fractional programming.  The outer loop repeats until the Eq. 17 objective
changes by less than the accuracy tolerance ε.

The QKD block shares no constraint or objective term with the other blocks,
so Stage 1 reaches its optimum in the first outer iteration — matching the
paper's Fig. 5(a), where every stage is called exactly once.

Production solves run the vectorized loop of
:class:`~repro.core.batched.BatchedQuHE` through
:class:`~repro.api.service.SolverService`.  This scalar :class:`QuHE` is the
independent reference: the SLSQP degraded path re-solves with it, and the
test suite checks the batched loop against it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.config import SystemConfig
from repro.core.problem import QuHEProblem
from repro.core.solution import Allocation, Metrics
from repro.core.stage1 import Stage1Result, Stage1Solver
from repro.core.stage2 import BranchAndBoundSolver, Stage2Result
from repro.core.stage3 import Stage3Result, Stage3Solver
from repro.quantum.utility import optimal_link_werner


@dataclass(frozen=True)
class QuHEResult:
    """Everything Alg. 4 produces: the allocation, metrics and diagnostics."""

    allocation: Allocation
    metrics: Metrics
    objective_history: List[float]
    stage1: Stage1Result
    stage2: Stage2Result
    stage3: Stage3Result
    stage1_calls: int
    stage2_calls: int
    stage3_calls: int
    outer_iterations: int
    runtime_s: float
    converged: bool
    #: True when the primary IPM inner engine failed and this result came
    #: from the scalar SLSQP reference fallback (see
    #: :meth:`repro.api.service.SolverService.solve`) — trustworthy, but
    #: produced by the degraded path and flagged as such in artifacts.
    degraded: bool = False

    @property
    def objective(self) -> float:
        return self.metrics.objective


def initial_allocation(config: SystemConfig) -> Allocation:
    """The Alg. 4 feasible starting point (an AA-style assignment).

    λ at the smallest admissible degree, full transmit power and client CPU
    speed, and bandwidth and server CPU split evenly; φ is a strictly
    feasible rate just above φ_min, with the matching Werner parameters.
    """
    n = config.num_clients
    phi0 = Stage1Solver(config).feasible_start()
    return Allocation(
        phi=phi0,
        w=optimal_link_werner(
            phi0, config.network.incidence, config.network.betas
        ),
        lam=np.full(n, config.cost_model.lambda_set[0], dtype=float),
        p=config.max_power.copy(),
        b=np.full(n, config.server.total_bandwidth_hz / n),
        f_c=config.client_max_frequency.copy(),
        f_s=np.full(n, config.server.total_frequency_hz / n),
    )


class QuHE:
    """The Quantum-enhanced Homomorphic Encryption resource allocator."""

    def __init__(
        self,
        config: SystemConfig,
        *,
        max_outer_iterations: int = 20,
        stage3_solver: Optional[Stage3Solver] = None,
    ) -> None:
        self.config = config
        self.problem = QuHEProblem(config)
        self.max_outer_iterations = int(max_outer_iterations)
        self.stage1 = Stage1Solver(config)
        self.stage2 = BranchAndBoundSolver(config)
        self.stage3 = stage3_solver or Stage3Solver(config)

    def solve(self, initial: Optional[Allocation] = None) -> QuHEResult:
        """Run Alg. 4 to convergence and return the full result bundle."""
        cfg = self.config
        alloc = initial or initial_allocation(cfg)
        history: List[float] = [self.problem.objective(alloc)]
        s1_result: Optional[Stage1Result] = None
        s2_result: Optional[Stage2Result] = None
        s3_result: Optional[Stage3Result] = None
        calls = {"s1": 0, "s2": 0, "s3": 0}
        start = time.perf_counter()
        converged = False
        outer = 0
        for outer in range(1, self.max_outer_iterations + 1):
            # Stage 1: (φ, w).  The QKD block is decoupled, so once solved it
            # stays optimal; re-solving would return the same point.
            if s1_result is None:
                s1_result = self.stage1.solve(alloc.phi)
                calls["s1"] += 1
            alloc = alloc.with_updates(phi=s1_result.phi, w=s1_result.w)
            # Stage 2: (λ, T_s2) by branch and bound.
            s2_result = self.stage2.solve(alloc)
            calls["s2"] += 1
            alloc = alloc.with_updates(lam=s2_result.lam, T=s2_result.T)
            # Stage 3: (p, b, f_c, f_s, T) by fractional programming.
            s3_result = self.stage3.solve(alloc)
            calls["s3"] += 1
            alloc = alloc.with_updates(
                p=s3_result.p,
                b=s3_result.b,
                f_c=s3_result.f_c,
                f_s=s3_result.f_s,
                T=s3_result.T,
            )
            history.append(self.problem.objective(alloc))
            # ε is treated as a relative tolerance once |F| exceeds 1 so the
            # stopping rule is scale-invariant across weight configurations.
            scale = max(1.0, abs(history[-1]))
            if abs(history[-1] - history[-2]) <= cfg.tolerance * scale:
                converged = True
                break
        runtime = time.perf_counter() - start
        metrics = self.problem.metrics(alloc)
        return QuHEResult(
            allocation=alloc,
            metrics=metrics,
            objective_history=history,
            stage1=s1_result,
            stage2=s2_result,
            stage3=s3_result,
            stage1_calls=calls["s1"],
            stage2_calls=calls["s2"],
            stage3_calls=calls["s3"],
            outer_iterations=outer,
            runtime_s=runtime,
            converged=converged,
        )
