"""One-shot report: run every experiment, keep the data, render markdown.

``python -m repro report`` (or :func:`generate_report`) reruns the headline
experiments and renders a self-contained markdown summary — the live
counterpart of the static EXPERIMENTS.md.

The run is split so nothing is print-only anymore:

* :func:`collect_report` runs the battery once and returns a
  :class:`ReportBundle` holding every underlying result object,
* :func:`render_report` turns a bundle into the markdown document,
* :func:`report_artifacts` turns the same bundle into machine-readable JSON
  payloads (one per section, via the :mod:`repro.io` codecs) that the CLI
  writes next to the markdown file.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.config import SystemConfig, paper_config
from repro.experiments.fig3_optimality import OptimalityStudy, run_optimality_study
from repro.experiments.fig4_convergence import ConvergenceTraces, run_convergence
from repro.experiments.fig5_comparison import (
    MethodComparison,
    StageCallReport,
    run_method_comparison,
    run_stage_call_report,
)
from repro.experiments.fig6_sweeps import SweepSet, run_panels
from repro.experiments.tables import (
    Stage1MethodComparison,
    render_table_v,
    render_table_vi,
    run_stage1_methods,
)


@dataclass(frozen=True)
class ReportBundle:
    """Every result object behind the markdown report (``report`` scenario)."""

    seed: int
    fig3_samples: int
    stage1_methods: Stage1MethodComparison
    optimality: OptimalityStudy
    convergence: ConvergenceTraces
    stage_calls: StageCallReport
    methods: MethodComparison
    sweeps: SweepSet

    def render(self) -> str:
        return render_report(self)


def collect_report(
    *,
    seed: int = 2,
    fig3_samples: int = 20,
    config: Optional[SystemConfig] = None,
) -> ReportBundle:
    """Run the full experiment battery and return the result bundle."""
    cfg = config or paper_config(seed=seed)
    table_cfg = paper_config(seed=0)
    return ReportBundle(
        seed=seed,
        fig3_samples=fig3_samples,
        stage1_methods=run_stage1_methods(table_cfg),
        optimality=run_optimality_study(num_samples=fig3_samples, seed=seed),
        convergence=run_convergence(cfg),
        stage_calls=run_stage_call_report(cfg),
        methods=run_method_comparison(cfg),
        sweeps=run_panels(cfg),
    )


def render_report(bundle: ReportBundle) -> str:
    """Render a collected bundle as the markdown report."""
    out = io.StringIO()
    seed = bundle.seed

    print("# QuHE reproduction report", file=out)
    print(f"\nChannel seed: {seed} (tables use seed 0, matching EXPERIMENTS.md)\n", file=out)

    print("## Tables V and VI (Stage 1)\n", file=out)
    comparison = bundle.stage1_methods
    print("```", file=out)
    print(render_table_v(comparison), file=out)
    print(file=out)
    print(render_table_vi(comparison), file=out)
    print("```", file=out)
    values = comparison.values()
    runtimes = comparison.runtimes()
    print("\n## Fig. 5(b)/(c): Stage-1 methods\n", file=out)
    print("| method | P2 value | runtime (s) |", file=out)
    print("|---|---|---|", file=out)
    for name in values:
        print(f"| {name} | {values[name]:.4f} | {runtimes[name]:.4f} |", file=out)

    print("\n## Fig. 3: optimality study\n", file=out)
    study = bundle.optimality
    print(
        f"{bundle.fig3_samples} trials: max {study.maximum:.2f}, min "
        f"{study.minimum:.2f}, mean {study.mean:.2f}; "
        f"{study.fraction_near_best(5.0):.0%} within 5 of best, "
        f"{study.fraction_near_best(10.0):.0%} within 10.",
        file=out,
    )

    print("\n## Fig. 4: convergence\n", file=out)
    traces = bundle.convergence
    print(
        f"Stage 1: {traces.stage1_iterations} iterations to "
        f"{traces.stage1_objective[-1]:.4f}; Stage 2: {traces.stage2_nodes} "
        f"B&B nodes; Stage 3: {traces.stage3_iterations} outer iterations, "
        f"tightness gap {traces.stage3_gap[0]:.3g} → {traces.stage3_gap[-1]:.3g}.",
        file=out,
    )

    print("\n## Fig. 5(a): stage calls\n", file=out)
    report = bundle.stage_calls
    print(
        f"S1={report.stage1_calls}, S2={report.stage2_calls}, "
        f"S3={report.stage3_calls}, runtime {report.runtime_s:.3f} s.",
        file=out,
    )

    print("\n## Fig. 5(d): method comparison (alpha_msl = 0.1 ablation)\n", file=out)
    print("| method | energy (J) | delay (s) | U_msl | objective |", file=out)
    print("|---|---|---|---|---|", file=out)
    for row in bundle.methods.rows:
        print(
            f"| {row.method} | {row.energy_j:.1f} | {row.delay_s:.1f} | "
            f"{row.u_msl:.1f} | {row.objective:.3f} |",
            file=out,
        )

    print("\n## Fig. 6: sweeps (winners per point)\n", file=out)
    for parameter, series in bundle.sweeps.panels.items():
        winners = ", ".join(series.best_method_per_point())
        print(f"* {parameter}: {winners}", file=out)

    return out.getvalue()


def report_artifacts(bundle: ReportBundle) -> Dict[str, Dict]:
    """Section name → JSON-ready payload for every figure behind the report."""
    from repro.io import result_to_dict

    return {
        "tables": result_to_dict(bundle.stage1_methods),
        "fig3": result_to_dict(bundle.optimality),
        "fig4": result_to_dict(bundle.convergence),
        "fig5_stage_calls": result_to_dict(bundle.stage_calls),
        "fig5_methods": result_to_dict(bundle.methods),
        "fig6": result_to_dict(bundle.sweeps),
    }


# -- campaign report: CI-aware figure variants --------------------------------
#
# Campaign aggregates carry replication statistics, so their figures show
# shaded 95% confidence bands instead of the single-seed point estimates
# the classic report prints.  Rendering is text/markdown like everything
# else: one band strip per grid point, normalized across the metric.


def _band_strip(lo: float, mean: float, hi: float,
                axis_lo: float, axis_hi: float, width: int = 32) -> str:
    """One grid point's CI band on a shared axis: ``···[═══o═══]···``."""
    span = axis_hi - axis_lo
    if span <= 0 or width < 3:
        return "o".center(width, "·")

    def col(value: float) -> int:
        frac = (value - axis_lo) / span
        return min(width - 1, max(0, round(frac * (width - 1))))

    cells = ["·"] * width
    for i in range(col(lo), col(hi) + 1):
        cells[i] = "═"
    cells[col(mean)] = "o"
    return "".join(cells)


def render_campaign_report(result) -> str:
    """Markdown report of a campaign with shaded-band figures.

    For every aggregated metric: a table of per-grid-point mean ± 95% CI
    (Student-t over the seed replications) and an aligned text band strip —
    the campaign counterpart of the classic report's point estimates.
    """
    out = io.StringIO()
    axis_names = list(result.axes)
    print(f"# Campaign report: {result.name}", file=out)
    print(
        f"\nScenario `{result.scenario}`, "
        f"{len(result.points)} grid points x {result.replications} seed "
        f"replications ({result.cells_completed}/{result.cells_total} cells"
        + ("" if result.complete else ", **incomplete**") + ").",
        file=out,
    )
    if result.base:
        fixed = ", ".join(f"`{k}={v!r}`" for k, v in result.base.items())
        print(f"\nFixed parameters: {fixed}.", file=out)
    for metric in result.metric_names:
        rows = [
            (point, point.metrics[metric])
            for point in result.points
            if metric in point.metrics
        ]
        if not rows:
            continue
        axis_lo = min(s["mean"] - s["ci95"] for _, s in rows)
        axis_hi = max(s["mean"] + s["ci95"] for _, s in rows)
        print(f"\n## `{metric}`\n", file=out)
        header = " | ".join(axis_names) if axis_names else "point"
        print(f"| {header} | mean | 95% CI | band |", file=out)
        print("|" + "---|" * (max(len(axis_names), 1) + 3), file=out)
        for point, stats in rows:
            labels = (
                " | ".join(f"`{point.params[a]!r}`" for a in axis_names)
                if axis_names else "-"
            )
            strip = _band_strip(
                stats["mean"] - stats["ci95"],
                stats["mean"],
                stats["mean"] + stats["ci95"],
                axis_lo, axis_hi,
            )
            print(
                f"| {labels} | {stats['mean']:.6g} | ±{stats['ci95']:.3g} "
                f"| `{strip}` |",
                file=out,
            )
    return out.getvalue()


def generate_report(
    *,
    seed: int = 2,
    fig3_samples: int = 20,
    config: Optional[SystemConfig] = None,
) -> str:
    """Run the full experiment battery and return a markdown report."""
    return render_report(
        collect_report(seed=seed, fig3_samples=fig3_samples, config=config)
    )
