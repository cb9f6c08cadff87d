"""System-level baselines AA / OLAA / OCCR (paper §VI-B).

All three share the Stage-1 optimal (φ, w) — the paper's Fig. 5(d) compares
"assuming the optimal U_qkd is obtained in Stage 1":

* **AA (average allocation)** — λ_n = 2^15, p_n = p_max, b_n = B_total/N,
  f_c = f_max, f_s = f_total/N.
* **OLAA (optimize λ only, average allocation)** — Stage 2 on top of the
  AA communication/computation assignment.
* **OCCR (optimize computation & communication resources only)** — Stage 3
  on top of λ_n = 2^15.

Each returns the same ``(Allocation, Metrics)`` bundle as QuHE so the
comparison harness treats all methods uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import SystemConfig
from repro.core.problem import QuHEProblem
from repro.core.quhe import initial_allocation
from repro.core.solution import Allocation, Metrics
from repro.core.stage1 import Stage1Result, Stage1Solver
from repro.core.stage2 import BranchAndBoundSolver
from repro.core.stage3 import solve_with_fallback
from repro.errors import SolverError


@dataclass(frozen=True)
class BaselineResult:
    """A baseline's allocation plus its Problem-P1 metrics."""

    name: str
    allocation: Allocation
    metrics: Metrics

    @property
    def objective(self) -> float:
        return self.metrics.objective


def _stage1(config: SystemConfig, stage1_result: Optional[Stage1Result]) -> Stage1Result:
    return stage1_result or Stage1Solver(config).solve()


def _aa_allocation(config: SystemConfig, s1: Stage1Result) -> Allocation:
    return initial_allocation(config).with_updates(phi=s1.phi, w=s1.w)


def average_allocation(
    config: SystemConfig, *, stage1_result: Optional[Stage1Result] = None
) -> BaselineResult:
    """The AA baseline: everything fixed at its average/max value."""
    s1 = _stage1(config, stage1_result)
    alloc = _aa_allocation(config, s1)
    return BaselineResult("AA", alloc, QuHEProblem(config).metrics(alloc))


def olaa_baseline(
    config: SystemConfig, *, stage1_result: Optional[Stage1Result] = None
) -> BaselineResult:
    """OLAA: optimise λ (Stage 2) over the average allocation."""
    s1 = _stage1(config, stage1_result)
    alloc = _aa_allocation(config, s1)
    s2 = BranchAndBoundSolver(config).solve(alloc)
    alloc = alloc.with_updates(lam=s2.lam, T=s2.T)
    return BaselineResult("OLAA", alloc, QuHEProblem(config).metrics(alloc))


def occr_baseline(
    config: SystemConfig, *, stage1_result: Optional[Stage1Result] = None
) -> BaselineResult:
    """OCCR: optimise communication/computation resources (Stage 3), λ = 2^15.

    A Stage-3 :class:`~repro.errors.SolverError` degrades to the SLSQP
    reference (:func:`~repro.core.stage3.solve_with_fallback`).
    """
    s1 = _stage1(config, stage1_result)
    alloc = _aa_allocation(config, s1)
    s3 = solve_with_fallback(config, alloc)
    alloc = alloc.with_updates(p=s3.p, b=s3.b, f_c=s3.f_c, f_s=s3.f_s, T=s3.T)
    return BaselineResult("OCCR", alloc, QuHEProblem(config).metrics(alloc))


def baselines_batch(
    configs: "Sequence[SystemConfig]",
    *,
    stage1_results: "Optional[Sequence[Stage1Result]]" = None,
) -> "List[Dict[str, BaselineResult]]":
    """All three baselines for a batch of configs in one vectorized pass.

    AA and OLAA are cheap per config; OCCR's Stage-3 solve — the expensive
    part — runs on the batched interior-point core for the whole batch at
    once, so a K-point sweep pays roughly one Stage-3 price instead of K.
    Configs must share ``num_clients`` and λ-set length.  Results match
    the scalar :func:`occr_baseline` (the scalar Stage-3 path runs the same
    core with a batch of one).  If the batched pass raises a
    :class:`~repro.errors.SolverError`, every config's Stage 3 is re-solved
    alone, degrading to the SLSQP reference where the IPM fails again, as
    :class:`~repro.api.service.SolverService` does.
    """
    from repro.core.batch import ConfigBatch
    from repro.core.stage3_ipm import solve_stage3_batch

    if stage1_results is None:
        stage1_results = [_stage1(cfg, None) for cfg in configs]
    allocs = [
        _aa_allocation(cfg, s1) for cfg, s1 in zip(configs, stage1_results)
    ]
    constants = ConfigBatch.from_configs(configs).stage3_constants()
    cycles = np.stack(
        [cfg.server_cycle_demand(a.lam) for cfg, a in zip(configs, allocs)]
    )
    try:
        batch3 = solve_stage3_batch(
            constants,
            cycles,
            np.stack([a.p for a in allocs]),
            np.stack([a.b for a in allocs]),
            np.stack([a.f_c for a in allocs]),
            np.stack([a.f_s for a in allocs]),
        )
        stage3 = [
            (batch3.p[j], batch3.b[j], batch3.f_c[j], batch3.f_s[j],
             float(batch3.T[j]))
            for j in range(len(allocs))
        ]
    except SolverError:
        solved = [solve_with_fallback(c, a) for c, a in zip(configs, allocs)]
        stage3 = [(s.p, s.b, s.f_c, s.f_s, s.T) for s in solved]
    out: "List[Dict[str, BaselineResult]]" = []
    for j, (cfg, alloc) in enumerate(zip(configs, allocs)):
        problem = QuHEProblem(cfg)
        s2 = BranchAndBoundSolver(cfg).solve(alloc)
        olaa = alloc.with_updates(lam=s2.lam, T=s2.T)
        p, b, f_c, f_s, t = stage3[j]
        occr = alloc.with_updates(p=p, b=b, f_c=f_c, f_s=f_s, T=t)
        out.append(
            {
                "AA": BaselineResult("AA", alloc, problem.metrics(alloc)),
                "OLAA": BaselineResult("OLAA", olaa, problem.metrics(olaa)),
                "OCCR": BaselineResult("OCCR", occr, problem.metrics(occr)),
            }
        )
    return out
