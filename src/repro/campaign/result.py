"""Campaign aggregates: per-grid-point streaming statistics with 95% CIs.

:class:`CampaignResult` is the durable outcome of a campaign — for every
grid point, every metric's replication statistics (Welford mean/std,
min/max, P² percentile estimates, Student-t 95% confidence half-width)
streamed over the seed replications in manifest order.  It round-trips
through the :mod:`repro.io` codec registry (kind ``campaign_result``), so
``repro campaign report --json`` and :class:`~repro.api.artifacts.RunRecord`
artifacts work like every other result type.

Aggregation is a deterministic fold: cells are consumed in manifest order
and every statistic is a pure function of the cell metrics, so an
interrupted-then-resumed campaign emits a ``campaign_result`` payload byte
identical to an uninterrupted run's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Tuple

from repro.campaign.metrics import scalar_metrics
from repro.campaign.spec import CampaignSpec, Cell
from repro.utils.stats import StreamingStats
from repro.utils.tables import format_table

__all__ = ["CampaignResult", "GridPointAggregate", "aggregate_cells"]

#: Per-metric summary keys, in serialization order.
STAT_KEYS = ("count", "mean", "std", "min", "max", "ci95", "p05", "p50", "p95")


@dataclass(frozen=True)
class GridPointAggregate:
    """One grid point's replication statistics, one entry per metric."""

    #: the swept-axis values identifying this point (axes order)
    params: Dict[str, Any]
    #: metric name -> {count, mean, std, min, max, ci95, p05, p50, p95}
    metrics: Dict[str, Dict[str, float]]

    def mean(self, metric: str) -> float:
        return self.metrics[metric]["mean"]

    def ci95(self, metric: str) -> float:
        return self.metrics[metric]["ci95"]

    def band(self, metric: str) -> Tuple[float, float]:
        """The 95% confidence band ``(lo, hi)`` on the metric's mean."""
        stats = self.metrics[metric]
        return stats["mean"] - stats["ci95"], stats["mean"] + stats["ci95"]


@dataclass(frozen=True)
class CampaignResult:
    """Everything a campaign aggregated (the ``campaign_result`` artifact)."""

    name: str
    scenario: str
    base: Dict[str, Any]
    axes: Dict[str, List[Any]]
    seeds: List[int]
    cells_total: int
    cells_completed: int
    #: cells quarantined after exhausting their retry budget — reported as a
    #: hole in the study, never silently dropped
    cells_failed: int = 0
    #: quarantined cell ids, manifest order (artifact dirs under
    #: ``cells_failed/<cell_id>/`` hold each one's exception chain)
    failed_cell_ids: List[str] = field(default_factory=list)
    points: List[GridPointAggregate] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """Every cell accounted for: aggregated, or explicitly quarantined."""
        return self.cells_completed + self.cells_failed == self.cells_total

    @property
    def metric_names(self) -> List[str]:
        names: List[str] = []
        for point in self.points:
            for name in point.metrics:
                if name not in names:
                    names.append(name)
        return names

    @property
    def replications(self) -> int:
        return len(self.seeds)

    def series(self, metric: str) -> List[Dict[str, float]]:
        """The metric's per-point summaries, grid order (for figures)."""
        return [dict(point.metrics[metric]) for point in self.points
                if metric in point.metrics]

    def render(self) -> str:
        """Mean ± 95% CI per grid point for every aggregated metric."""
        lines = [
            f"campaign {self.name!r}: scenario={self.scenario} "
            f"{len(self.points)} grid points x {self.replications} seeds "
            f"({self.cells_completed}/{self.cells_total} cells"
            + (f", {self.cells_failed} QUARANTINED" if self.cells_failed else "")
            + ("" if self.complete else ", INCOMPLETE") + ")"
        ]
        if self.failed_cell_ids:
            preview = ", ".join(self.failed_cell_ids[:6])
            if len(self.failed_cell_ids) > 6:
                preview += f", … ({len(self.failed_cell_ids)} total)"
            lines.append(
                f"quarantined cells (see cells_failed/<id>/error.json): "
                f"{preview}"
            )
        axis_names = list(self.axes)
        for metric in self.metric_names:
            rows = []
            for point in self.points:
                if metric not in point.metrics:
                    continue
                stats = point.metrics[metric]
                rows.append(
                    [*(f"{point.params[a]!r}" for a in axis_names),
                     f"{stats['mean']:.6g}",
                     f"±{stats['ci95']:.3g}",
                     f"{stats['std']:.3g}",
                     f"{stats['p05']:.6g}",
                     f"{stats['p50']:.6g}",
                     f"{stats['p95']:.6g}"]
                )
            lines.append(format_table(
                [*axis_names, "mean", "ci95", "std", "p5", "p50", "p95"],
                rows,
                title=f"{metric} (n={self.replications})",
            ))
        return "\n\n".join(lines) + "\n"


def aggregate_cells(
    spec: CampaignSpec,
    completed: Iterable[Tuple[Cell, Any]],
    *,
    failed: Iterable[str] = (),
) -> CampaignResult:
    """Fold completed ``(cell, result)`` pairs into a :class:`CampaignResult`.

    ``completed`` must be ordered by cell index (manifest order); the fold
    is deterministic, so equal cell results — however they were produced —
    give byte-identical aggregate payloads.  Cells of partially-replicated
    grid points still aggregate (with their smaller ``count``); grid points
    with no completed cells are omitted.  ``failed`` lists the quarantined
    cell ids (manifest order): they are reported on the result, never
    silently dropped, and their grid points aggregate from the surviving
    replications.
    """
    grid = spec.grid_points()
    failed_ids = list(failed)
    accumulators: Dict[int, Dict[str, StreamingStats]] = {}
    seen = 0
    last_index = -1
    available: set = set()
    for cell, result in completed:
        if cell.index <= last_index:
            raise ValueError(
                "completed cells must be supplied in manifest order "
                f"(cell {cell.index} after {last_index})"
            )
        last_index = cell.index
        seen += 1
        metrics = scalar_metrics(result)
        available.update(metrics)
        if spec.metrics:
            metrics = {k: v for k, v in metrics.items() if k in spec.metrics}
        point_stats = accumulators.setdefault(cell.point, {})
        for name, value in metrics.items():
            point_stats.setdefault(name, StreamingStats()).push(value)
    if seen and spec.metrics and not any(
        stats for point in accumulators.values() for stats in point
    ):
        # A typo'd filter must not silently produce a metric-less study
        # after hours of cell compute.
        raise ValueError(
            f"metrics filter {list(spec.metrics)} matched none of the "
            f"metrics the cells produced: {sorted(available)}"
        )
    points = [
        GridPointAggregate(
            params=dict(grid[point]),
            metrics={name: stats.summary()
                     for name, stats in accumulators[point].items()},
        )
        for point in sorted(accumulators)
    ]
    return CampaignResult(
        name=spec.name,
        scenario=spec.scenario,
        base=dict(spec.base),
        axes={name: list(values) for name, values in spec.axes.items()},
        seeds=[int(s) for s in spec.seeds],
        cells_total=spec.num_cells,
        cells_completed=seen,
        points=points,
        cells_failed=len(failed_ids),
        failed_cell_ids=failed_ids,
    )
