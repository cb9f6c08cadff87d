"""Ablation: the quadratic transform vs a direct pseudoconvex solve.

The paper's §V-E optimality argument says both must reach the same
(globally optimal) stationary point of Problem P5; verifying that here
validates the Eq. 25-26 machinery end to end.
"""

import numpy as np
import pytest

from repro.core.quhe import QuHE, initial_allocation
from repro.core.stage3 import Stage3Solver
from repro.core.stage3_direct import Stage3DirectSolver


@pytest.fixture(scope="module")
def base_alloc(typical_cfg):
    return initial_allocation(typical_cfg)


@pytest.fixture(scope="module")
def transform_result(typical_cfg, base_alloc):
    return Stage3Solver(typical_cfg).solve(base_alloc)


@pytest.fixture(scope="module")
def direct_result(typical_cfg, base_alloc):
    return Stage3DirectSolver(typical_cfg).solve(base_alloc)


class TestAgreement:
    def test_same_objective_value(self, transform_result, direct_result):
        """Both solvers reach the same P5 optimum (paper §V-E)."""
        assert transform_result.value == pytest.approx(direct_result.value, rel=2e-3)

    def test_same_delay_bound(self, transform_result, direct_result):
        assert transform_result.T == pytest.approx(direct_result.T, rel=0.02)

    def test_comparable_energy_terms(self, typical_cfg, transform_result, direct_result):
        solver = Stage3Solver(typical_cfg)
        cycles = typical_cfg.server_cycle_demand(np.full(typical_cfg.num_clients, 2**15))
        e_t = sum(
            np.sum(term)
            for term in solver._energy_terms(
                transform_result.p, transform_result.b,
                transform_result.f_c, transform_result.f_s, cycles,
            )
        )
        e_d = sum(
            np.sum(term)
            for term in solver._energy_terms(
                direct_result.p, direct_result.b,
                direct_result.f_c, direct_result.f_s, cycles,
            )
        )
        assert e_t == pytest.approx(e_d, rel=0.02)


class TestDirectSolver:
    def test_respects_caps(self, typical_cfg, direct_result):
        cfg = typical_cfg
        assert np.all(direct_result.p <= cfg.max_power * (1 + 1e-9))
        assert np.sum(direct_result.b) <= cfg.server.total_bandwidth_hz * (1 + 1e-9)
        assert np.sum(direct_result.f_s) <= cfg.server.total_frequency_hz * (1 + 1e-9)

    def test_no_surrogate_gap(self, direct_result):
        assert direct_result.transform_gap == [0.0]

    def test_usable_inside_quhe(self, typical_cfg):
        """QuHE accepts the direct solver as a drop-in Stage 3."""
        solver = QuHE(typical_cfg, stage3_solver=Stage3DirectSolver(typical_cfg))
        result = solver.solve()
        assert result.converged
        reference = QuHE(typical_cfg).solve()
        assert result.objective == pytest.approx(reference.objective, abs=0.02)
