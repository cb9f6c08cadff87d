"""Fig. 6: objective vs resource budgets for AA / OLAA / OCCR / QuHE (§VI-G).

Four sweeps, each regenerating one panel:

* (a) total bandwidth ``B_total`` ∈ [0.5, 1.5] × 10^7 Hz,
* (b) maximum transmit power ``p_max`` ∈ [0.2, 1.0] W,
* (c) client CPU cap ``f_c^max`` ∈ [0.3, 1.5] × 10^10 Hz,
* (d) server CPU total ``f_total`` ∈ [2, 3] × 10^10 Hz.

Each point re-solves all four methods on the modified configuration; the
Stage-1 block does not depend on any swept quantity, so its solution is
computed once and shared (exactly the paper's "optimal U_qkd from Stage 1"
convention).

Sweep points are independent, so :func:`sweep` solves each panel's grid as
one batch; :func:`run_panels` bundles the four panels into one
:class:`SweepSet` result for the scenario registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.baselines import baselines_batch
from repro.core.config import SystemConfig
from repro.core.stage1 import Stage1Result, Stage1Solver
from repro.utils.tables import format_table

#: Canonical panel order of Fig. 6(a)-(d).
PANEL_ORDER = ("bandwidth", "power", "client_cpu", "server_cpu")

#: Paper sweep grids (panel → x values).
PAPER_SWEEPS: Dict[str, np.ndarray] = {
    "bandwidth": np.linspace(0.5e7, 1.5e7, 5),
    "power": np.linspace(0.2, 1.0, 5),
    "client_cpu": np.linspace(0.3e10, 1.5e10, 5),
    "server_cpu": np.linspace(2.0e10, 3.0e10, 5),
}

_MODIFIERS: Dict[str, Callable[[SystemConfig, float], SystemConfig]] = {
    "bandwidth": lambda cfg, v: cfg.with_total_bandwidth(v),
    "power": lambda cfg, v: cfg.with_max_power(v),
    "client_cpu": lambda cfg, v: cfg.with_client_max_frequency(v),
    "server_cpu": lambda cfg, v: cfg.with_total_server_frequency(v),
}


@dataclass(frozen=True)
class SweepSeries:
    """One Fig.-6 panel: x values and the per-method objective series."""

    parameter: str
    x_values: np.ndarray
    objectives: Dict[str, List[float]]

    def best_method_per_point(self) -> List[str]:
        """Which method wins at each sweep point (paper: QuHE everywhere)."""
        methods = list(self.objectives)
        winners = []
        for i in range(len(self.x_values)):
            winners.append(max(methods, key=lambda m: self.objectives[m][i]))
        return winners

    def render(self) -> str:
        headers = [self.parameter, *self.objectives.keys()]
        rows = []
        for i, x in enumerate(self.x_values):
            rows.append([f"{x:.3g}", *[self.objectives[m][i] for m in self.objectives]])
        return format_table(headers, rows, title=f"Fig. 6 sweep: {self.parameter}")


def sweep(
    parameter: str,
    config: SystemConfig,
    *,
    values: Optional[Sequence[float]] = None,
    stage1_result: Optional[Stage1Result] = None,
    service: Optional["SolverService"] = None,
) -> SweepSeries:
    """Run one Fig.-6 panel: all four methods across the parameter grid.

    The sweep points form one batch: the QuHE solves run as a single
    vectorized pass through
    :meth:`~repro.api.service.SolverService.solve_many` and the OCCR
    Stage-3 solves through :func:`~repro.core.baselines.baselines_batch` —
    one Stage-3 price for the whole grid instead of one per point.  Grid
    order is preserved; every point shares the same Stage-1 solution.
    """
    from repro.api.service import SolverService

    if parameter not in _MODIFIERS:
        raise ValueError(
            f"unknown sweep parameter {parameter!r}; choose from {sorted(_MODIFIERS)}"
        )
    grid = np.asarray(
        PAPER_SWEEPS[parameter] if values is None else values, dtype=float
    )
    s1 = stage1_result or Stage1Solver(config).solve()
    cfgs = [_MODIFIERS[parameter](config, float(v)) for v in grid]
    svc = service if service is not None else SolverService()
    quhe_results = svc.solve_many(cfgs)
    base = baselines_batch(cfgs, stage1_results=[s1] * len(cfgs))
    objectives: Dict[str, List[float]] = {
        "AA": [b["AA"].objective for b in base],
        "OLAA": [b["OLAA"].objective for b in base],
        "OCCR": [b["OCCR"].objective for b in base],
        "QuHE": [r.objective for r in quhe_results],
    }
    return SweepSeries(parameter=parameter, x_values=grid, objectives=objectives)


@dataclass(frozen=True)
class SweepSet:
    """A bundle of Fig.-6 panels (the ``fig6`` scenario result)."""

    panels: Dict[str, SweepSeries]

    def render(self) -> str:
        blocks = []
        for series in self.panels.values():
            blocks.append(series.render())
            blocks.append("winners: " + str(series.best_method_per_point()))
            blocks.append("")
        return "\n".join(blocks).rstrip() + "\n"


def run_panels(
    config: SystemConfig,
    *,
    panels: Sequence[str] = PANEL_ORDER,
    stage1_result: Optional[Stage1Result] = None,
    service: Optional["SolverService"] = None,
) -> SweepSet:
    """Run the requested Fig.-6 panels with one shared Stage-1 solution."""
    s1 = stage1_result or Stage1Solver(config).solve()
    return SweepSet(
        panels={
            name: sweep(name, config, stage1_result=s1, service=service)
            for name in panels
        }
    )
