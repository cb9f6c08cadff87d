"""Fig. 5: runtime and method comparisons (§VI-D/E/F).

* (a) number of stage calls and total runtime of QuHE
  (:func:`run_stage_call_report`),
* (b)/(c) Stage-1 method runtimes and objective values — produced by
  :func:`repro.experiments.tables.run_stage1_methods`,
* (d) energy / delay / U_msl / objective for AA, OLAA, OCCR and QuHE
  (:func:`run_method_comparison`).

The paper states all methods share the Stage-1 optimal (φ, w); we pass the
one Stage-1 result to every baseline.

With the paper's literal weights (α_msl = 1e-2) Stage 2 always selects
λ = 2^15 — the security gain never outweighs the energy cost — so AA/OLAA
and QuHE/OCCR tie on U_msl.  ``alpha_msl_override`` (default 0.1) activates
the trade and reproduces the Fig. 5(d) security ordering
(QuHE ≈ OLAA ≫ AA ≈ OCCR); see EXPERIMENTS.md for the discussion.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.core.baselines import (
    BaselineResult,
    average_allocation,
    occr_baseline,
    olaa_baseline,
)
from repro.core.config import SystemConfig
from repro.experiments.tables import Stage1MethodComparison, run_stage1_methods
from repro.utils.tables import format_table

METHOD_ORDER = ("AA", "OLAA", "OCCR", "QuHE")


@dataclass(frozen=True)
class MethodRow:
    """One Fig.-5(d) bar group."""

    method: str
    energy_j: float
    delay_s: float
    u_msl: float
    objective: float


@dataclass(frozen=True)
class MethodComparison:
    """All four methods' metrics on one configuration."""

    rows: List[MethodRow]

    def by_method(self) -> Dict[str, MethodRow]:
        return {row.method: row for row in self.rows}

    def render(self) -> str:
        return format_table(
            ["method", "energy_j", "delay_s", "u_msl", "objective"],
            [
                [r.method, r.energy_j, r.delay_s, r.u_msl, r.objective]
                for r in self.rows
            ],
            title="Fig. 5(d): method comparison",
        )


@dataclass(frozen=True)
class StageCallReport:
    """Fig. 5(a): stage call counts and total runtime."""

    stage1_calls: int
    stage2_calls: int
    stage3_calls: int
    runtime_s: float


def run_stage_call_report(config: SystemConfig) -> StageCallReport:
    """Solve once with QuHE and report stage calls + runtime (Fig. 5(a))."""
    from repro.api.service import SolverService

    result = SolverService().solve(config)
    return StageCallReport(
        stage1_calls=result.stage1_calls,
        stage2_calls=result.stage2_calls,
        stage3_calls=result.stage3_calls,
        runtime_s=result.runtime_s,
    )


@dataclass(frozen=True)
class Fig5Bundle:
    """All of Fig. 5 in one result (the ``fig5`` scenario result).

    ``stage1_methods`` reuses the Table-V/VI comparison (Fig. 5(b)/(c) plot
    exactly those runtimes and objective values, conventionally at seed 0).
    """

    stage_calls: StageCallReport
    stage1_methods: Stage1MethodComparison
    methods: MethodComparison

    def render(self) -> str:
        from repro.utils.tables import format_table

        lines = [
            f"Fig 5(a): S1={self.stage_calls.stage1_calls} "
            f"S2={self.stage_calls.stage2_calls} "
            f"S3={self.stage_calls.stage3_calls} "
            f"runtime={self.stage_calls.runtime_s:.3f}s"
        ]
        rows = [
            [name, f"{res.value:.4f}", f"{res.runtime_s:.4f}"]
            for name, res in self.stage1_methods.results.items()
        ]
        lines.append(
            format_table(
                ["method", "P2 value", "runtime (s)"], rows,
                title="Fig. 5(b)/(c): Stage-1 methods",
            )
        )
        lines.append(self.methods.render())
        return "\n".join(lines) + "\n"


def run_fig5_bundle(
    config: SystemConfig,
    *,
    table_config: Optional[SystemConfig] = None,
    gd_max_iterations: int = 20000,
    sa_max_iterations: int = 4000,
    rs_num_samples: int = 10_000,
) -> Fig5Bundle:
    """Run every Fig.-5 panel: stage calls, Stage-1 methods, method bars."""
    return Fig5Bundle(
        stage_calls=run_stage_call_report(config),
        stage1_methods=run_stage1_methods(
            table_config if table_config is not None else config,
            gd_max_iterations=gd_max_iterations,
            sa_max_iterations=sa_max_iterations,
            rs_num_samples=rs_num_samples,
        ),
        methods=run_method_comparison(config),
    )


def run_method_comparison(
    config: SystemConfig,
    *,
    alpha_msl_override: Optional[float] = 0.1,
) -> MethodComparison:
    """Fig. 5(d): evaluate AA, OLAA, OCCR and QuHE on one configuration."""
    from repro.api.service import SolverService

    cfg = config if alpha_msl_override is None else replace(
        config, alpha_msl=alpha_msl_override
    )
    quhe = SolverService().solve(cfg)
    baselines: List[BaselineResult] = [
        average_allocation(cfg, stage1_result=quhe.stage1),
        olaa_baseline(cfg, stage1_result=quhe.stage1),
        occr_baseline(cfg, stage1_result=quhe.stage1),
    ]
    rows = [
        MethodRow(
            method=b.name,
            energy_j=b.metrics.total_energy,
            delay_s=b.metrics.total_delay,
            u_msl=b.metrics.u_msl,
            objective=b.metrics.objective,
        )
        for b in baselines
    ]
    rows.append(
        MethodRow(
            method="QuHE",
            energy_j=quhe.metrics.total_energy,
            delay_s=quhe.metrics.total_delay,
            u_msl=quhe.metrics.u_msl,
            objective=quhe.metrics.objective,
        )
    )
    return MethodComparison(rows=rows)
