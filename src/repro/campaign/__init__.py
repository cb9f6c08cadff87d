"""Monte Carlo campaign engine: replicated, resumable many-seed studies.

A campaign expands a declarative :class:`~repro.campaign.spec.CampaignSpec`
(scenario × parameter grid × seed replications) into a cell manifest,
executes it through the scenario layer with one batched baseline solve
per chunk, persists every cell as a run-record artifact, and folds the
results into per-grid-point streaming statistics with 95% confidence
intervals (:class:`~repro.campaign.result.CampaignResult`).

Quick start::

    from repro.campaign import CampaignSpec, run_campaign

    result = run_campaign(CampaignSpec(
        name="keyrate-demand",
        scenario="sim-keyrate",
        base={"duration": 30.0},
        axes={"demand_factor": [0.0, 0.5, 0.9]},
        seeds=tuple(range(100, 108)),
    ), out_dir="campaigns/keyrate-demand")
    print(result.render())

Kill it at any point; ``repro campaign resume campaigns/keyrate-demand``
(or calling :func:`run_campaign` again with the same directory) skips the
completed cells and produces aggregates byte-identical to an uninterrupted
run.  See ``docs/campaigns.md``.
"""

from repro.campaign.result import (
    CampaignResult,
    GridPointAggregate,
    aggregate_cells,
)
from repro.campaign.runner import (
    CampaignRunner,
    CampaignStatus,
    campaign_report,
    campaign_status,
    resume_campaign,
    run_campaign,
)
from repro.campaign.spec import CampaignSpec, Cell, demo_spec, load_spec

__all__ = [
    "CampaignResult",
    "CampaignRunner",
    "CampaignSpec",
    "CampaignStatus",
    "Cell",
    "GridPointAggregate",
    "aggregate_cells",
    "campaign_report",
    "campaign_status",
    "demo_spec",
    "load_spec",
    "resume_campaign",
    "run_campaign",
]
