"""Stage 1 of QuHE (Alg. 1): QKD rates φ and Werner parameters w.

With every other block fixed, Problem P1 reduces to maximising the QKD
utility.  The paper's chain of transformations (Eq. 18-20):

1. The objective increases monotonically in every ``w_l``, so the capacity
   constraint (17c) is tight: ``w_l* = 1 − (Σ_n a_ln φ_n)/β_l`` (Eq. 18).
2. Logarithm turns the product utility into a sum (Problem P2, Eq. 19), with
   the extra domain constraint ``ϖ_n > 0.779944`` (19b) keeping
   ``ln F_skf`` defined.
3. The substitution ``ϕ_n = ln φ_n`` convexifies the problem (Problem P3,
   Eq. 20; convexity per Kar & Wehner [10]).

We solve P3 with SciPy's SLSQP using the analytic gradient from
:func:`repro.quantum.utility.stage1_objective_and_gradient` (the paper uses
CVX; both reach the unique optimum of the convex program — DESIGN.md §3).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
from scipy import optimize

from repro.core.config import SystemConfig
from repro.errors import ConfigurationError
from repro.quantum.utility import (
    optimal_link_werner,
    stage1_objective_and_gradient,
)
from repro.quantum.werner import F_SKF_ZERO_CROSSING

#: Safety margin that keeps iterates strictly inside the open constraints
#: (19a)/(19b) so the logarithms stay finite.
_DOMAIN_MARGIN = 1e-6


@dataclass(frozen=True)
class Stage1Result:
    """Outcome of Stage 1.

    ``value`` is the *minimisation* objective of Problem P2/P3 (the quantity
    plotted in Fig. 4(a) and compared in Fig. 5(c)); ``log_utility`` is
    ``ln U_qkd = -value`` up to the dropped ``ln α_qkd`` constant.
    """

    phi: np.ndarray
    w: np.ndarray
    value: float
    iterations: int
    runtime_s: float
    history: List[float] = field(default_factory=list)
    converged: bool = True

    @property
    def log_utility(self) -> float:
        return -self.value


class Stage1Solver:
    """Convex solver for Problem P3 (Eq. 20)."""

    def __init__(self, config: SystemConfig, *, max_iterations: int = 200) -> None:
        self.config = config
        self.max_iterations = int(max_iterations)
        self._incidence = config.network.incidence
        self._betas = config.network.betas

    # -- feasible starting point -----------------------------------------------

    def feasible_start(self) -> np.ndarray:
        """A strictly feasible φ: slightly above φ_min, validated against (19a/b).

        φ_min itself is feasible in the paper's setting; we verify and scale
        down toward φ_min if a custom network makes the margin too tight.
        """
        phi = self.config.min_rates * 1.05
        for _ in range(60):
            if self._is_interior(phi):
                return phi
            phi = self.config.min_rates + 0.5 * (phi - self.config.min_rates)
        if self._is_interior(self.config.min_rates):
            return self.config.min_rates.copy()
        raise ConfigurationError(
            "no strictly feasible starting point found: even φ_min violates the "
            "capacity or fidelity constraints (19a)/(19b)"
        )

    def _is_interior(self, phi: np.ndarray) -> bool:
        load = self._incidence @ phi
        slack = 1.0 - load / self._betas
        if np.any(slack <= _DOMAIN_MARGIN):
            return False
        log_varpi = self._incidence.T @ np.log(slack)
        return bool(np.all(np.exp(log_varpi) > F_SKF_ZERO_CROSSING + _DOMAIN_MARGIN))

    # -- solve -------------------------------------------------------------------

    def solve(self, initial_phi: Optional[np.ndarray] = None) -> Stage1Result:
        """Run Alg. 1: solve P3 in ϕ-space, recover φ* = e^ϕ* and w* (Eq. 18)."""
        cfg = self.config
        a, beta = self._incidence, self._betas
        phi0 = self.feasible_start() if initial_phi is None else np.asarray(initial_phi, dtype=float)
        if not self._is_interior(phi0):
            phi0 = self.feasible_start()
        x0 = np.log(phi0)
        history: List[float] = []

        def objective(x: np.ndarray):
            value, grad = stage1_objective_and_gradient(x, a, beta)
            if not np.isfinite(value):
                # Outside the domain: large value, zero gradient lets SLSQP
                # backtrack its line search.
                return 1e12, np.zeros_like(x)
            return value, grad

        def capacity_constraint(x: np.ndarray) -> np.ndarray:
            # (20b): β_l − Σ_n a_ln e^{ϕ_n} > 0 (scaled by β_l for conditioning).
            phi = np.exp(x)
            return 1.0 - (a @ phi) / beta - _DOMAIN_MARGIN

        def capacity_jacobian(x: np.ndarray) -> np.ndarray:
            phi = np.exp(x)
            return -(a * phi[None, :]) / beta[:, None]

        def fidelity_constraint(x: np.ndarray) -> np.ndarray:
            # (20c): ln ϖ_n − ln 0.779944 > 0.
            phi = np.exp(x)
            slack = 1.0 - (a @ phi) / beta
            if np.any(slack <= 0):
                return np.full(cfg.num_clients, -1.0)
            log_varpi = a.T @ np.log(slack)
            return log_varpi - np.log(F_SKF_ZERO_CROSSING + _DOMAIN_MARGIN)

        constraints = [
            {"type": "ineq", "fun": capacity_constraint, "jac": capacity_jacobian},
            {"type": "ineq", "fun": fidelity_constraint},
        ]
        # (20a): ϕ_n ≥ ln φ_min as box bounds; cap above by the largest load
        # any link on the route could take alone.
        upper = np.log(np.min(beta[:, None] * np.where(a > 0, 1.0, np.inf), axis=0))
        bounds = [
            (float(np.log(cfg.min_rates[n])), float(upper[n]))
            for n in range(cfg.num_clients)
        ]

        def callback(x: np.ndarray) -> None:
            value, _ = objective(x)
            history.append(float(value))

        start = time.perf_counter()
        result = optimize.minimize(
            lambda x: objective(x),
            x0,
            jac=True,
            method="SLSQP",
            bounds=bounds,
            constraints=constraints,
            callback=callback,
            options={"maxiter": self.max_iterations, "ftol": cfg.tolerance * 1e-4},
        )
        runtime = time.perf_counter() - start
        phi_star = np.exp(result.x)
        w_star = optimal_link_werner(phi_star, a, beta)
        value, _ = objective(result.x)
        if not history or history[-1] != value:
            history.append(float(value))
        return Stage1Result(
            phi=phi_star,
            w=w_star,
            value=float(value),
            iterations=int(result.nit),
            runtime_s=runtime,
            history=history,
            converged=bool(result.success),
        )
