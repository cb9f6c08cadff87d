"""Ablation studies beyond the paper's figures (DESIGN.md §7).

* :func:`bnb_vs_exhaustive` — Stage-2 branch-and-bound against exhaustive
  enumeration: identical argmax, node-count savings.
* :func:`transform_vs_direct` — Stage-3 quadratic transform against the
  direct pseudoconvex solve: identical optimum (paper §V-E's optimality
  argument, validated numerically).
* :func:`weight_sensitivity` — the Eq. 17 objective weights as levers:
  sweeps α_msl and reports the selected λ profile and metrics, locating the
  activation threshold of the security-vs-cost trade (EXPERIMENTS.md
  caveat 2).
* :func:`log_convexification_ablation` — Stage 1 solved in raw φ space vs
  the paper's ϕ = ln φ space, showing the convexification is what buys
  reliability.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np
from scipy import optimize

from repro.core.config import SystemConfig
from repro.core.quhe import initial_allocation
from repro.core.solution import Allocation
from repro.core.stage1 import Stage1Solver, _DOMAIN_MARGIN
from repro.core.stage2 import BranchAndBoundSolver, ExhaustiveSolver
from repro.core.stage3 import Stage3Solver
from repro.core.stage3_direct import Stage3DirectSolver
from repro.quantum.utility import stage1_objective_and_gradient
from repro.quantum.werner import F_SKF_ZERO_CROSSING


@dataclass(frozen=True)
class BnbAblation:
    """Stage-2 ablation outcome."""

    bnb_value: float
    exhaustive_value: float
    bnb_nodes: int
    exhaustive_nodes: int
    identical_argmax: bool

    @property
    def node_savings(self) -> float:
        """Fraction of enumeration work avoided by the bound."""
        return 1.0 - self.bnb_nodes / self.exhaustive_nodes


def bnb_vs_exhaustive(config: SystemConfig, alloc: Allocation) -> BnbAblation:
    """Run both Stage-2 solvers on one allocation and compare."""
    bnb = BranchAndBoundSolver(config).solve(alloc)
    exhaustive = ExhaustiveSolver(config).solve(alloc)
    return BnbAblation(
        bnb_value=bnb.value,
        exhaustive_value=exhaustive.value,
        bnb_nodes=bnb.nodes_explored,
        exhaustive_nodes=exhaustive.nodes_explored,
        identical_argmax=bool(np.array_equal(bnb.lam, exhaustive.lam)),
    )


@dataclass(frozen=True)
class TransformAblation:
    """Stage-3 ablation outcome."""

    transform_value: float
    direct_value: float
    transform_runtime_s: float
    direct_runtime_s: float

    @property
    def relative_gap(self) -> float:
        scale = max(abs(self.transform_value), abs(self.direct_value), 1e-12)
        return abs(self.transform_value - self.direct_value) / scale


def transform_vs_direct(config: SystemConfig, alloc: Allocation) -> TransformAblation:
    """Quadratic-transform Stage 3 vs the direct pseudoconvex solve."""
    transform = Stage3Solver(config).solve(alloc)
    direct = Stage3DirectSolver(config).solve(alloc)
    return TransformAblation(
        transform_value=transform.value,
        direct_value=direct.value,
        transform_runtime_s=transform.runtime_s,
        direct_runtime_s=direct.runtime_s,
    )


@dataclass(frozen=True)
class WeightPoint:
    """One α_msl sweep point."""

    alpha_msl: float
    lam: np.ndarray
    u_msl: float
    total_energy: float
    objective: float


def weight_sensitivity(
    config: SystemConfig,
    alpha_msl_values: Sequence[float] = (0.01, 0.02, 0.05, 0.1, 0.2),
    *,
    service: Optional["SolverService"] = None,
) -> List[WeightPoint]:
    """Sweep α_msl and record the λ profile QuHE selects at each value.

    The sweep points are independent, so they run as one
    :meth:`~repro.api.service.SolverService.solve_many` batch.
    """
    from repro.api.service import SolverService

    cfgs = [replace(config, alpha_msl=float(alpha)) for alpha in alpha_msl_values]
    svc = service if service is not None else SolverService()
    results = svc.solve_many(cfgs)
    return [
        WeightPoint(
            alpha_msl=float(alpha),
            lam=result.allocation.lam.copy(),
            u_msl=result.metrics.u_msl,
            total_energy=result.metrics.total_energy,
            objective=result.objective,
        )
        for alpha, result in zip(alpha_msl_values, results)
    ]


def msl_activation_threshold(points: Sequence[WeightPoint]) -> float:
    """Smallest swept α_msl at which any client leaves λ = 2^15.

    Returns ``inf`` when the trade never activates in the sweep.
    """
    for point in points:
        if np.any(point.lam > min(point.lam.min(), 2**15)):
            if np.any(point.lam != 2**15):
                return point.alpha_msl
    return float("inf")


@dataclass(frozen=True)
class AblationSuite:
    """All DESIGN.md §7 ablations in one result (the ``ablations`` scenario)."""

    bnb: BnbAblation
    transform: TransformAblation
    weights: List[WeightPoint]
    activation_threshold: float
    convexification: "ConvexificationAblation"

    def render(self) -> str:
        lines = [
            f"Stage-2 B&B: {self.bnb.bnb_nodes} nodes vs "
            f"{self.bnb.exhaustive_nodes} exhaustive "
            f"({self.bnb.node_savings:.0%} saved), identical argmax: "
            f"{self.bnb.identical_argmax}",
            f"Stage-3 transform vs direct: {self.transform.transform_value:.6f} "
            f"vs {self.transform.direct_value:.6f} "
            f"(relative gap {self.transform.relative_gap:.2e})",
            "alpha_msl sweep (lambda profile / U_msl / energy):",
        ]
        for point in self.weights:
            lines.append(
                f"  alpha={point.alpha_msl:g}: lam={[int(v) for v in point.lam]} "
                f"u_msl={point.u_msl:.3f} energy={point.total_energy:.1f} "
                f"objective={point.objective:.4f}"
            )
        lines.append(f"MSL activation threshold: {self.activation_threshold:g}")
        lines.append(
            f"Stage-1 convexification: log-space {self.convexification.log_space_value:.6f} "
            f"vs raw-space {self.convexification.raw_space_value:.6f} "
            f"(raw converged: {self.convexification.raw_space_converged})"
        )
        return "\n".join(lines) + "\n"


def run_ablation_suite(
    config: SystemConfig,
    *,
    alpha_msl_values: Sequence[float] = (0.01, 0.05, 0.1),
    service: Optional["SolverService"] = None,
) -> AblationSuite:
    """Run every ablation on ``config`` (from QuHE's own starting point)."""
    alloc = initial_allocation(config)
    points = weight_sensitivity(
        config, alpha_msl_values=alpha_msl_values, service=service
    )
    return AblationSuite(
        bnb=bnb_vs_exhaustive(config, alloc),
        transform=transform_vs_direct(config, alloc),
        weights=points,
        activation_threshold=msl_activation_threshold(points),
        convexification=log_convexification_ablation(config),
    )


@dataclass(frozen=True)
class ConvexificationAblation:
    """Stage-1 with vs without the ϕ = ln φ substitution."""

    log_space_value: float
    raw_space_value: float
    raw_space_converged: bool

    @property
    def raw_gap(self) -> float:
        """How much worse (≥ ~0) the raw-space solve is."""
        return self.raw_space_value - self.log_space_value


def log_convexification_ablation(config: SystemConfig) -> ConvexificationAblation:
    """Solve Problem P2 in raw φ space (non-convex) and compare to P3.

    The raw-space solve uses the same SLSQP machinery on the untransformed
    variables; the paper's point is that without the Kar-Wehner log
    substitution there is no convexity guarantee — in practice SLSQP still
    finds the optimum from a good start, but the guarantee (and the
    insensitivity to initialisation) is lost.
    """
    reference = Stage1Solver(config).solve()
    a = config.network.incidence
    beta = config.network.betas

    def objective(phi: np.ndarray) -> float:
        value, _ = stage1_objective_and_gradient(np.log(np.maximum(phi, 1e-12)), a, beta)
        return value if np.isfinite(value) else 1e12

    def capacity(phi: np.ndarray) -> np.ndarray:
        return 1.0 - (a @ phi) / beta - _DOMAIN_MARGIN

    def fidelity(phi: np.ndarray) -> np.ndarray:
        slack = 1.0 - (a @ phi) / beta
        if np.any(slack <= 0):
            return np.full(config.num_clients, -1.0)
        return a.T @ np.log(slack) - np.log(F_SKF_ZERO_CROSSING + _DOMAIN_MARGIN)

    phi0 = Stage1Solver(config).feasible_start()
    result = optimize.minimize(
        objective,
        phi0,
        method="SLSQP",
        bounds=[(float(config.min_rates[i]), None) for i in range(config.num_clients)],
        constraints=[
            {"type": "ineq", "fun": capacity},
            {"type": "ineq", "fun": fidelity},
        ],
        options={"maxiter": 300, "ftol": 1e-10},
    )
    return ConvexificationAblation(
        log_space_value=reference.value,
        raw_space_value=float(objective(result.x)),
        raw_space_converged=bool(result.success),
    )
