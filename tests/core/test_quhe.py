"""Tests for the whole QuHE procedure (Alg. 4)."""

import dataclasses

import numpy as np
import pytest

from repro.core.problem import QuHEProblem
from repro.core.quhe import QuHE, initial_allocation


class TestSolve:
    def test_converges(self, quhe_result):
        assert quhe_result.converged

    def test_objective_history_improves(self, quhe_result):
        h = np.asarray(quhe_result.objective_history)
        assert h[-1] > h[0]
        # The alternation never decreases the objective between outer rounds.
        assert np.all(np.diff(h) >= -1e-6)

    def test_final_allocation_feasible(self, typical_cfg, quhe_result):
        problem = QuHEProblem(typical_cfg)
        violations = problem.check_constraints(quhe_result.allocation, tol=1e-5)
        assert not violations, [str(v) for v in violations]

    def test_metrics_match_allocation(self, typical_cfg, quhe_result):
        problem = QuHEProblem(typical_cfg)
        recomputed = problem.metrics(quhe_result.allocation)
        assert recomputed.objective == pytest.approx(quhe_result.objective)

    def test_stage_results_populated(self, quhe_result):
        assert quhe_result.stage1 is not None
        assert quhe_result.stage2 is not None
        assert quhe_result.stage3 is not None

    def test_one_stage1_call(self, quhe_result):
        """Fig. 5(a): Stage 1 is called exactly once (the block is decoupled)."""
        assert quhe_result.stage1_calls == 1

    def test_stage1_block_at_paper_optimum(self, quhe_result):
        expected = np.array([2.098, 1.106, 1.103, 1.872, 0.6864, 0.5781])
        assert np.allclose(quhe_result.allocation.phi, expected, atol=2e-3)

    def test_lambda_in_admissible_set(self, typical_cfg, quhe_result):
        for v in quhe_result.allocation.lam:
            assert int(v) in typical_cfg.cost_model.lambda_set

    def test_runtime_recorded(self, quhe_result):
        assert quhe_result.runtime_s > 0

    def test_custom_initial_allocation(self, typical_cfg):
        initial = initial_allocation(typical_cfg)
        perturbed = initial.with_updates(p=initial.p * 0.5)
        result = QuHE(typical_cfg).solve(perturbed)
        assert result.converged

    def test_iteration_cap_respected(self, typical_cfg):
        solver = QuHE(typical_cfg, max_outer_iterations=1)
        result = solver.solve()
        assert result.outer_iterations == 1


class TestAgainstBruteForce:
    def test_quhe_at_least_as_good_as_grid_probe(self, typical_cfg, quhe_result):
        """QuHE beats a coarse random probe of the full variable space."""
        problem = QuHEProblem(typical_cfg)
        rng = np.random.default_rng(0)
        best_probe = -np.inf
        for _ in range(200):
            base = initial_allocation(typical_cfg)
            n = typical_cfg.num_clients
            raw_b = rng.uniform(0.1, 1.0, n)
            raw_fs = rng.uniform(0.1, 1.0, n)
            lam = rng.choice(typical_cfg.cost_model.lambda_set, n).astype(float)
            candidate = base.with_updates(
                p=rng.uniform(0.02, 0.2, n),
                b=raw_b / raw_b.sum() * typical_cfg.server.total_bandwidth_hz,
                f_c=rng.uniform(0.5e9, 3e9, n),
                f_s=raw_fs / raw_fs.sum() * typical_cfg.server.total_frequency_hz,
                lam=lam,
            )
            if problem.is_feasible(candidate):
                best_probe = max(best_probe, problem.objective(candidate))
        assert quhe_result.objective >= best_probe - 1e-6


class TestWeightSensitivity:
    def test_high_msl_weight_selects_larger_lambda(self, typical_cfg):
        """Ablation: raising α_msl flips the λ choice to the secure end."""
        low = QuHE(typical_cfg).solve()
        high_cfg = dataclasses.replace(typical_cfg, alpha_msl=0.1)
        high = QuHE(high_cfg).solve()
        assert np.max(high.allocation.lam) > np.max(low.allocation.lam)

    def test_zero_delay_weight_prefers_energy(self, typical_cfg):
        """With α_t = 0 nothing pushes against energy minimisation, so the
        achieved energy is no worse than under the default weights."""
        frugal_cfg = dataclasses.replace(typical_cfg, alpha_t=0.0)
        default = QuHE(typical_cfg).solve()
        frugal = QuHE(frugal_cfg).solve()
        assert frugal.metrics.total_energy <= default.metrics.total_energy * 1.05
