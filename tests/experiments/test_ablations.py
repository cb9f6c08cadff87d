"""Tests for the DESIGN.md §7 ablation studies."""

import numpy as np
import pytest

from repro.core.quhe import initial_allocation
from repro.experiments.ablations import (
    bnb_vs_exhaustive,
    log_convexification_ablation,
    msl_activation_threshold,
    transform_vs_direct,
    weight_sensitivity,
)


@pytest.fixture(scope="module")
def base_alloc(typical_cfg):
    return initial_allocation(typical_cfg)


class TestBnbAblation:
    def test_identical_argmax_and_savings(self, typical_cfg, base_alloc):
        ablation = bnb_vs_exhaustive(typical_cfg, base_alloc)
        assert ablation.identical_argmax
        assert ablation.bnb_value == pytest.approx(ablation.exhaustive_value)
        assert ablation.exhaustive_nodes == 3**6
        assert 0.0 < ablation.node_savings < 1.0

    def test_savings_substantial(self, typical_cfg, base_alloc):
        ablation = bnb_vs_exhaustive(typical_cfg, base_alloc)
        assert ablation.node_savings > 0.5  # B&B prunes most of the tree


class TestTransformAblation:
    def test_same_optimum(self, typical_cfg, base_alloc):
        ablation = transform_vs_direct(typical_cfg, base_alloc)
        assert ablation.relative_gap < 5e-3

    def test_runtimes_recorded(self, typical_cfg, base_alloc):
        ablation = transform_vs_direct(typical_cfg, base_alloc)
        assert ablation.transform_runtime_s > 0
        assert ablation.direct_runtime_s > 0


class TestWeightSensitivity:
    @pytest.fixture(scope="class")
    def points(self, typical_cfg):
        return weight_sensitivity(typical_cfg, alpha_msl_values=(0.01, 0.05, 0.1))

    def test_umsl_nondecreasing_in_alpha(self, points):
        u = [p.u_msl for p in points]
        assert all(b >= a - 1e-9 for a, b in zip(u, u[1:]))

    def test_trade_activates_at_higher_alpha(self, points):
        threshold = msl_activation_threshold(points)
        assert threshold <= 0.1  # activates somewhere in the sweep
        assert threshold > 0.01  # but not at the paper's literal weight

    def test_literal_weight_stays_at_minimum_lambda(self, points):
        assert np.all(points[0].lam == 2**15)

    def test_high_weight_selects_maximum_lambda_somewhere(self, points):
        assert np.any(points[-1].lam > 2**15)


class TestConvexificationAblation:
    def test_log_space_no_worse(self, typical_cfg):
        ablation = log_convexification_ablation(typical_cfg)
        # The convexified solve is the reference optimum; the raw-space solve
        # can match but never beat it beyond tolerance.
        assert ablation.raw_gap >= -1e-4

    def test_raw_space_close_from_good_start(self, typical_cfg):
        ablation = log_convexification_ablation(typical_cfg)
        assert ablation.raw_space_value == pytest.approx(
            ablation.log_space_value, abs=0.2
        )


class TestScenarioPayloads:
    def test_two_runs_compare_equivalent(self):
        """Two runs of the ``ablations`` scenario at one seed differ only in
        wall-clock fields, ``transform_runtime_s``/``direct_runtime_s``
        included, so their payloads compare equivalent."""
        from repro.api import run_scenario
        from repro.io import result_to_dict
        from repro.serve.bench import payloads_equivalent

        first, second = (
            result_to_dict(run_scenario("ablations", {"seed": 1}).result)
            for _ in range(2)
        )
        assert first["transform"]["transform_runtime_s"] > 0
        assert payloads_equivalent(first, second)
        assert not payloads_equivalent(first, second, strict=True)
