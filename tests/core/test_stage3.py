"""Tests for Stage 3: the fractional-programming block (Alg. 3)."""

import numpy as np
import pytest

from repro.core.problem import QuHEProblem
from repro.core.quhe import initial_allocation
from repro.core.stage3 import Stage3Solver


@pytest.fixture(scope="module")
def base_alloc(typical_cfg):
    return initial_allocation(typical_cfg)


@pytest.fixture(scope="module")
def stage3_result(typical_cfg, base_alloc):
    return Stage3Solver(typical_cfg).solve(base_alloc)


class TestSolve:
    def test_improves_over_initial(self, typical_cfg, base_alloc, stage3_result):
        solver = Stage3Solver(typical_cfg)
        initial_value = solver.p5_objective(base_alloc)
        assert stage3_result.value > initial_value

    def test_history_monotone_nondecreasing(self, stage3_result):
        h = np.asarray(stage3_result.history)
        assert np.all(np.diff(h) >= -1e-6 * np.abs(h[:-1]))

    def test_transform_gap_shrinks(self, typical_cfg, stage3_result):
        """The quadratic transform becomes tight (Fig. 4(d) analogue)."""
        gaps = np.asarray(stage3_result.transform_gap)
        # The gap decays by orders of magnitude across outer iterations and
        # ends small relative to the transmission energy it approximates.
        tr_energy = float(
            np.sum(stage3_result.p * typical_cfg.upload_bits)
            / np.mean(Stage3Solver(typical_cfg)._rates(stage3_result.p, stage3_result.b))
        )
        assert gaps[-1] < max(1e-6, 0.05 * gaps[0])
        assert gaps[-1] < 1e-2 * max(1.0, tr_energy)

    def test_converged(self, stage3_result):
        assert stage3_result.converged

    def test_solution_respects_caps(self, typical_cfg, stage3_result):
        cfg = typical_cfg
        assert np.all(stage3_result.p <= cfg.max_power * (1 + 1e-9))
        assert np.sum(stage3_result.b) <= cfg.server.total_bandwidth_hz * (1 + 1e-9)
        assert np.all(stage3_result.f_c <= cfg.client_max_frequency * (1 + 1e-9))
        assert np.sum(stage3_result.f_s) <= cfg.server.total_frequency_hz * (1 + 1e-9)

    def test_T_equals_max_delay(self, typical_cfg, base_alloc, stage3_result):
        problem = QuHEProblem(typical_cfg)
        alloc = base_alloc.with_updates(
            p=stage3_result.p,
            b=stage3_result.b,
            f_c=stage3_result.f_c,
            f_s=stage3_result.f_s,
            T=None,
        )
        delays = problem.metrics(alloc).per_node_delay
        assert stage3_result.T == pytest.approx(np.max(delays), rel=1e-6)

    def test_full_allocation_feasible(self, typical_cfg, base_alloc, stage3_result):
        problem = QuHEProblem(typical_cfg)
        alloc = base_alloc.with_updates(
            p=stage3_result.p,
            b=stage3_result.b,
            f_c=stage3_result.f_c,
            f_s=stage3_result.f_s,
            T=stage3_result.T,
        )
        violations = problem.check_constraints(alloc, tol=1e-5)
        assert not violations, [str(v) for v in violations]

    def test_energy_better_than_average_allocation(self, typical_cfg, base_alloc, stage3_result):
        """Fig. 5(d): optimizing resources slashes energy vs the AA point."""
        problem = QuHEProblem(typical_cfg)
        aa_energy = problem.metrics(base_alloc).total_energy
        opt = base_alloc.with_updates(
            p=stage3_result.p,
            b=stage3_result.b,
            f_c=stage3_result.f_c,
            f_s=stage3_result.f_s,
        )
        assert problem.metrics(opt).total_energy < aa_energy

    def test_bottleneck_gets_most_bandwidth(self, typical_cfg, stage3_result):
        """The weakest channel should receive the largest bandwidth share."""
        gains = typical_cfg.channel_gains
        worst = int(np.argmin(gains))
        assert stage3_result.b[worst] == pytest.approx(np.max(stage3_result.b), rel=0.3)


class TestEdgeCases:
    def test_infeasible_initial_point_recovered(self, typical_cfg, base_alloc):
        bad = base_alloc.with_updates(
            b=base_alloc.b * 10,  # violates Σb ≤ B_total before clipping
            f_s=base_alloc.f_s * 10,
        )
        result = Stage3Solver(typical_cfg).solve(bad)
        cfg = typical_cfg
        assert np.sum(result.b) <= cfg.server.total_bandwidth_hz * (1 + 1e-9)
        assert np.sum(result.f_s) <= cfg.server.total_frequency_hz * (1 + 1e-9)

    def test_single_outer_iteration_cap(self, typical_cfg, base_alloc):
        result = Stage3Solver(typical_cfg, max_outer_iterations=1).solve(base_alloc)
        assert result.outer_iterations == 1
        assert len(result.history) == 1
