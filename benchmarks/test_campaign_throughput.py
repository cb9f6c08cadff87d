"""Campaign-engine throughput guards (ISSUE 5 acceptance).

The smoke floor protects the campaign runner's reason to exist: a
replicated grid study must beat naive per-cell scenario runs (one fresh
service and one cold scalar solve per cell — what N separate ``repro run``
invocations cost) by a wide margin on a single core.  The full measured
numbers live in ``BENCH_campaign.json`` (``python scripts/bench.py
campaign``, whose ``--check`` mode enforces the ≥ 3× acceptance floor);
the smoke floor here is deliberately looser (≥ 1.8×) so CI jitter cannot
flake it.

Run: ``pytest benchmarks/test_campaign_throughput.py -m smoke -s``
"""

from __future__ import annotations

import time

import pytest

from repro.api.service import SolverService
from repro.campaign import CampaignRunner, CampaignSpec
from repro.experiments.simulation import run_keyrate_sim

#: CI-safe smoke floor on the campaign-vs-naive speedup.
MIN_SMOKE_SPEEDUP = 1.8


@pytest.fixture(scope="module")
def smoke_spec():
    return CampaignSpec(
        name="smoke-keyrate",
        scenario="sim-keyrate",
        axes={"demand_factor": [0.0, 0.6]},
        seeds=tuple(range(6)),
        base={"duration": 6.0},
    )


@pytest.mark.smoke
def test_campaign_beats_naive_per_cell(smoke_spec, tmp_path, capsys):
    # Warm the process so neither side pays first-call dispatch costs.
    run_keyrate_sim(seed=10_000, duration_s=2.0, service=SolverService())

    cells = smoke_spec.cells()
    start = time.perf_counter()
    for cell in cells:
        run_keyrate_sim(
            seed=cell.params["seed"],
            duration_s=cell.params["duration"],
            demand_factor=cell.params["demand_factor"],
            sample_dt=cell.params["sample_dt"],
            service=SolverService(),
        )
    naive_s = time.perf_counter() - start

    start = time.perf_counter()
    result = CampaignRunner(smoke_spec, out_dir=tmp_path / "c").run()
    campaign_s = time.perf_counter() - start
    assert result.complete

    speedup = naive_s / campaign_s
    with capsys.disabled():
        print(
            f"\ncampaign: {len(cells)} cells, naive {naive_s:.2f}s vs "
            f"campaign {campaign_s:.2f}s ({speedup:.2f}x)"
        )
    assert speedup >= MIN_SMOKE_SPEEDUP, (
        f"campaign runner only {speedup:.2f}x faster than naive per-cell "
        f"runs (floor {MIN_SMOKE_SPEEDUP}x)"
    )


@pytest.mark.smoke
def test_resume_noop_is_fast(smoke_spec, tmp_path):
    """A completed campaign re-run must only load artifacts, never solve."""
    out_dir = tmp_path / "c"
    CampaignRunner(smoke_spec, out_dir=out_dir).run()
    start = time.perf_counter()
    resumed = CampaignRunner(smoke_spec, out_dir=out_dir).run()
    resume_s = time.perf_counter() - start
    assert resumed.complete
    # Loading 12 small JSON artifacts takes milliseconds; one accidental
    # re-solve alone would cost ~10x this bound.
    assert resume_s < 2.0, f"resume of a complete campaign took {resume_s:.2f}s"
