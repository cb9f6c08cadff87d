"""Tests for the Fig. 4 convergence traces."""

import numpy as np
import pytest

from repro.experiments.fig4_convergence import ConvergenceTraces, run_convergence


@pytest.fixture(scope="module")
def traces(typical_cfg):
    return run_convergence(typical_cfg)


class TestTraces:
    def test_all_series_populated(self, traces):
        assert len(traces.stage1_objective) > 1
        assert len(traces.stage2_incumbent) >= 1
        assert len(traces.stage3_objective) >= 1
        assert len(traces.stage3_gap) == len(traces.stage3_objective)

    def test_stage1_trace_decreases(self, traces):
        """Fig. 4(a): the Stage-1 minimisation objective falls monotonically
        (up to solver line-search wiggles) and converges."""
        series = np.asarray(traces.stage1_objective)
        assert series[-1] <= series[0]
        assert series[-1] == pytest.approx(4.58, abs=0.02)

    def test_stage2_incumbent_nondecreasing(self, traces):
        """Fig. 4(b): branch-and-bound incumbent only improves."""
        series = np.asarray(traces.stage2_incumbent)
        assert np.all(np.diff(series) >= -1e-12)

    def test_stage3_objective_improves(self, traces):
        """Fig. 4(c): the fractional-programming objective rises to a plateau."""
        series = np.asarray(traces.stage3_objective)
        assert series[-1] >= series[0] - 1e-9

    def test_stage3_gap_shrinks_by_orders(self, traces):
        """Fig. 4(d): the tightness gap collapses (duality-gap analogue)."""
        gaps = np.asarray(traces.stage3_gap)
        if len(gaps) > 1:
            assert gaps[-1] <= gaps[0] * 0.1
        assert traces.final_gap == gaps[-1]

    def test_counts_positive(self, traces):
        assert traces.stage1_iterations > 0
        assert traces.stage2_nodes > 0
        assert traces.stage3_iterations > 0
        assert traces.total_runtime_s > 0

    def test_converges_within_paper_scale_iterations(self, traces):
        """The paper converges within 34 inner steps; we check the same
        order of magnitude (< 100 for every stage)."""
        assert traces.stage1_iterations < 100
        assert traces.stage3_iterations < 100


def test_stage3_failure_degrades_the_first_pass():
    """A one-shot Stage-3 failure re-solves the first pass on SLSQP; the
    scenario completes."""
    from repro.api import run_scenario
    from repro.faults import FaultPlan, FaultRule

    plan = FaultPlan(rules=(
        FaultRule(seam="solver.stage3", kind="solver_fail"),))
    with plan.activate():
        record = run_scenario("fig4", {"seed": 0})
    traces = record.result
    assert len(traces.stage3_objective) >= 1
    assert traces.stage3_iterations > 0
