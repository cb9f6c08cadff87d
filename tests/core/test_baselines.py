"""Tests for the AA / OLAA / OCCR baselines (§VI-B)."""

import dataclasses

import numpy as np
import pytest

from repro.core.baselines import average_allocation, occr_baseline, olaa_baseline
from repro.core.problem import QuHEProblem


@pytest.fixture(scope="module")
def shared_stage1(typical_cfg):
    from repro.core.stage1 import Stage1Solver

    return Stage1Solver(typical_cfg).solve()


class TestAA:
    def test_average_values(self, typical_cfg, shared_stage1):
        result = average_allocation(typical_cfg, stage1_result=shared_stage1)
        n = typical_cfg.num_clients
        alloc = result.allocation
        assert np.all(alloc.lam == 2**15)
        assert np.allclose(alloc.p, typical_cfg.max_power)
        assert np.allclose(alloc.b, typical_cfg.server.total_bandwidth_hz / n)
        assert np.allclose(alloc.f_c, typical_cfg.client_max_frequency)
        assert np.allclose(alloc.f_s, typical_cfg.server.total_frequency_hz / n)

    def test_feasible(self, typical_cfg, shared_stage1):
        result = average_allocation(typical_cfg, stage1_result=shared_stage1)
        assert QuHEProblem(typical_cfg).is_feasible(result.allocation)

    def test_uses_stage1_block(self, typical_cfg, shared_stage1):
        result = average_allocation(typical_cfg, stage1_result=shared_stage1)
        assert np.allclose(result.allocation.phi, shared_stage1.phi)
        assert np.allclose(result.allocation.w, shared_stage1.w)


class TestOLAA:
    def test_lambda_optimized_resources_averaged(self, typical_cfg, shared_stage1):
        result = olaa_baseline(typical_cfg, stage1_result=shared_stage1)
        n = typical_cfg.num_clients
        assert np.allclose(result.allocation.b, typical_cfg.server.total_bandwidth_hz / n)
        assert all(int(v) in typical_cfg.cost_model.lambda_set for v in result.allocation.lam)

    def test_no_worse_than_aa(self, typical_cfg, shared_stage1):
        aa = average_allocation(typical_cfg, stage1_result=shared_stage1)
        olaa = olaa_baseline(typical_cfg, stage1_result=shared_stage1)
        assert olaa.objective >= aa.objective - 1e-9

    def test_msl_dominates_aa_when_weighted(self, typical_cfg, shared_stage1):
        """Fig. 5(d) shape: with α_msl = 0.1 OLAA far exceeds AA on U_msl."""
        cfg = dataclasses.replace(typical_cfg, alpha_msl=0.1)
        aa = average_allocation(cfg, stage1_result=shared_stage1)
        olaa = olaa_baseline(cfg, stage1_result=shared_stage1)
        assert olaa.metrics.u_msl > aa.metrics.u_msl


class TestOCCR:
    def test_lambda_fixed_at_minimum(self, typical_cfg, shared_stage1):
        result = occr_baseline(typical_cfg, stage1_result=shared_stage1)
        assert np.all(result.allocation.lam == 2**15)

    def test_no_worse_than_aa(self, typical_cfg, shared_stage1):
        aa = average_allocation(typical_cfg, stage1_result=shared_stage1)
        occr = occr_baseline(typical_cfg, stage1_result=shared_stage1)
        assert occr.objective >= aa.objective - 1e-9

    def test_energy_dominates_aa(self, typical_cfg, shared_stage1):
        """Fig. 5(d): OCCR's optimized resources slash energy vs AA."""
        aa = average_allocation(typical_cfg, stage1_result=shared_stage1)
        occr = occr_baseline(typical_cfg, stage1_result=shared_stage1)
        assert occr.metrics.total_energy < aa.metrics.total_energy

    def test_feasible(self, typical_cfg, shared_stage1):
        result = occr_baseline(typical_cfg, stage1_result=shared_stage1)
        violations = QuHEProblem(typical_cfg).check_constraints(
            result.allocation, tol=1e-5
        )
        assert not violations, [str(v) for v in violations]


class TestOrdering:
    def test_quhe_beats_all_baselines(self, typical_cfg, shared_stage1, quhe_result):
        """The paper's headline: QuHE has the best objective value."""
        for fn in (average_allocation, olaa_baseline, occr_baseline):
            baseline = fn(typical_cfg, stage1_result=shared_stage1)
            assert quhe_result.objective >= baseline.objective - 1e-6

    def test_stage1_computed_when_not_supplied(self, typical_cfg):
        result = average_allocation(typical_cfg)
        expected = np.array([2.098, 1.106, 1.103, 1.872, 0.6864, 0.5781])
        assert np.allclose(result.allocation.phi, expected, atol=2e-3)


class TestStage3Failure:
    """A Stage-3 failure degrades the OCCR baseline instead of raising."""

    @staticmethod
    def _one_failure():
        from repro.faults import FaultPlan, FaultRule

        return FaultPlan(rules=(
            FaultRule(seam="solver.stage3", kind="solver_fail"),)).activate()

    def test_occr_degrades_to_slsqp(self, typical_cfg, shared_stage1):
        clean = occr_baseline(typical_cfg, stage1_result=shared_stage1)
        with self._one_failure():
            degraded = occr_baseline(typical_cfg, stage1_result=shared_stage1)
        assert degraded.objective == pytest.approx(clean.objective, rel=1e-4)
        assert QuHEProblem(typical_cfg).is_feasible(degraded.allocation, tol=1e-5)

    def test_failed_batch_resolves_each_config(self, typical_cfg, shared_stage1):
        """The failed batched pass re-solves every config alone on the IPM,
        to the bits the clean batch gives."""
        from repro.core.baselines import baselines_batch

        configs = [typical_cfg.with_total_bandwidth(v) for v in (8e6, 1.2e7)]
        stage1 = [shared_stage1] * len(configs)
        clean = baselines_batch(configs, stage1_results=stage1)
        with self._one_failure():
            recovered = baselines_batch(configs, stage1_results=stage1)
        for want, got in zip(clean, recovered):
            for name in ("AA", "OLAA", "OCCR"):
                assert got[name].objective == want[name].objective
                assert np.array_equal(got[name].allocation.b,
                                      want[name].allocation.b)
