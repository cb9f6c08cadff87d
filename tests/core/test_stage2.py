"""Tests for Stage 2: branch-and-bound over the discrete λ (Alg. 2)."""

import itertools

import numpy as np
import pytest

from repro.core.problem import QuHEProblem
from repro.core.quhe import initial_allocation
from repro.core.stage2 import BranchAndBoundSolver, ExhaustiveSolver, _Stage2Objective


@pytest.fixture()
def base_alloc(paper_cfg):
    return initial_allocation(paper_cfg)


class TestObjectiveTables:
    def test_value_matches_problem_metrics(self, paper_cfg, base_alloc):
        """F_s2 computed from the tables equals the full Problem-P1 objective."""
        objective = _Stage2Objective(paper_cfg, base_alloc)
        problem = QuHEProblem(paper_cfg)
        choices = objective.choices
        for assignment in [(0,) * 6, (2,) * 6, (0, 1, 2, 0, 1, 2)]:
            lam = np.array([choices[j] for j in assignment], dtype=float)
            alloc = base_alloc.with_updates(lam=lam, T=None)
            expected = problem.metrics(alloc).objective
            assert objective.value(assignment) == pytest.approx(expected, rel=1e-9)

    def test_upper_bound_admissible(self, paper_cfg, base_alloc):
        """The bound never underestimates the best completion of a prefix."""
        objective = _Stage2Objective(paper_cfg, base_alloc)
        m = len(objective.choices)
        for prefix in [(), (0,), (2, 1), (1, 1, 1)]:
            bound = objective.upper_bound(prefix)
            rest = 6 - len(prefix)
            best_completion = max(
                objective.value(prefix + tail)
                for tail in itertools.product(range(m), repeat=rest)
            )
            assert bound >= best_completion - 1e-9

    def test_induced_T_is_max_delay(self, paper_cfg, base_alloc):
        objective = _Stage2Objective(paper_cfg, base_alloc)
        assignment = (0, 1, 2, 0, 1, 2)
        lam = np.array([objective.choices[j] for j in assignment], dtype=float)
        problem = QuHEProblem(paper_cfg)
        delays = problem.metrics(base_alloc.with_updates(lam=lam)).per_node_delay
        assert objective.induced_T(assignment) == pytest.approx(np.max(delays))


class TestSolvers:
    def test_bnb_matches_exhaustive(self, paper_cfg, base_alloc):
        """Branch & bound returns the exhaustive argmax (ablation of Alg. 2)."""
        bb = BranchAndBoundSolver(paper_cfg).solve(base_alloc)
        ex = ExhaustiveSolver(paper_cfg).solve(base_alloc)
        assert bb.value == pytest.approx(ex.value, rel=1e-12)
        assert np.array_equal(bb.lam, ex.lam)

    def test_bnb_matches_exhaustive_high_msl_weight(self, paper_cfg, base_alloc):
        """Same check in the regime where the λ trade-off activates."""
        import dataclasses

        cfg = dataclasses.replace(paper_cfg, alpha_msl=0.1)
        bb = BranchAndBoundSolver(cfg).solve(base_alloc)
        ex = ExhaustiveSolver(cfg).solve(base_alloc)
        assert bb.value == pytest.approx(ex.value, rel=1e-12)
        assert np.array_equal(bb.lam, ex.lam)

    def test_bnb_explores_fewer_nodes(self, paper_cfg, base_alloc):
        """The point of Alg. 2: fewer explored nodes than 3^6 enumerations."""
        bb = BranchAndBoundSolver(paper_cfg).solve(base_alloc)
        ex = ExhaustiveSolver(paper_cfg).solve(base_alloc)
        assert ex.nodes_explored == 3**6
        assert bb.nodes_explored < ex.nodes_explored

    def test_lambda_in_admissible_set(self, paper_cfg, base_alloc):
        bb = BranchAndBoundSolver(paper_cfg).solve(base_alloc)
        assert all(int(v) in paper_cfg.cost_model.lambda_set for v in bb.lam)

    def test_T_satisfies_17i(self, paper_cfg, base_alloc):
        bb = BranchAndBoundSolver(paper_cfg).solve(base_alloc)
        problem = QuHEProblem(paper_cfg)
        alloc = base_alloc.with_updates(lam=bb.lam, T=bb.T)
        delays = problem.metrics(alloc).per_node_delay
        assert np.all(delays <= bb.T * (1 + 1e-9))

    def test_incumbent_history_monotone(self, paper_cfg, base_alloc):
        bb = BranchAndBoundSolver(paper_cfg).solve(base_alloc)
        h = np.asarray(bb.history)
        assert np.all(np.diff(h) >= -1e-12)

    def test_privacy_weight_ordering_of_lambda(self, paper_cfg, base_alloc):
        """When the trade is active, higher-ς clients never get smaller λ
        (their marginal security benefit is strictly larger at equal cost)."""
        import dataclasses

        # All clients are identical except ς, so λ must be ς-monotone at any
        # alpha_msl that produces a heterogeneous assignment.
        for alpha in (0.02, 0.05, 0.08):
            cfg = dataclasses.replace(paper_cfg, alpha_msl=alpha)
            result = ExhaustiveSolver(cfg).solve(base_alloc)
            weights = cfg.privacy_weights
            order = np.argsort(weights)
            lam_sorted = result.lam[order]
            # Allow ties; require non-decreasing in ς.
            assert np.all(np.diff(lam_sorted) >= 0)
