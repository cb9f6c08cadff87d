"""The figure code solves through SolverService, and agrees with the oracle.

fig3, fig4, fig5 and the dynamic study's epoch 0 run the batched Alg.-4
loop (:class:`~repro.core.batched.BatchedQuHE`, reached through
:class:`~repro.api.service.SolverService`).  The scalar
:class:`~repro.core.quhe.QuHE` loop is the reference they are checked
against here: fig3 within 1e-9 relative with identical λ, the single-config
solves bitwise.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.api.service import SolverService
from repro.core.config import paper_config
from repro.core.quhe import QuHE
from repro.experiments.dynamic import run_dynamic_study
from repro.experiments.fig3_optimality import _random_start, run_optimality_study
from repro.experiments.fig4_convergence import run_convergence
from repro.experiments.fig5_comparison import (
    run_fig5_bundle,
    run_method_comparison,
    run_stage_call_report,
)
from repro.utils.rng import spawn_generators

ALLOCATION_FIELDS = ("phi", "w", "lam", "p", "b", "f_c", "f_s")


def scalar_fig3(*, num_samples, seed, config, randomize_start, resample_channels):
    """Fig. 3 as a per-sample scalar loop: config first, start second."""
    results = []
    for rng in spawn_generators(seed, num_samples):
        cfg = paper_config(seed=rng) if resample_channels else config
        start = _random_start(cfg, rng) if randomize_start else None
        results.append(QuHE(cfg).solve(start))
    return results


def assert_same_allocation(a, b):
    __tracebackhide__ = True
    for field in ALLOCATION_FIELDS:
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert a.T == b.T


@pytest.mark.parametrize("resample_channels", [True, False])
@pytest.mark.parametrize("randomize_start", [True, False])
def test_fig3_matches_scalar_loop(
    monkeypatch, typical_cfg, randomize_start, resample_channels
):
    batched = []
    solve_many = SolverService.solve_many

    def spy(self, configs, **kwargs):
        results = solve_many(self, configs, **kwargs)
        batched.extend(results)
        return results

    monkeypatch.setattr(SolverService, "solve_many", spy)
    options = dict(
        num_samples=3, seed=5, config=typical_cfg,
        randomize_start=randomize_start, resample_channels=resample_channels,
    )
    study = run_optimality_study(**options)
    oracle = scalar_fig3(**options)
    np.testing.assert_allclose(
        study.values, [r.objective for r in oracle], rtol=1e-9, atol=0.0
    )
    assert len(batched) == len(oracle)
    for b, s in zip(batched, oracle):
        assert np.array_equal(b.allocation.lam, s.allocation.lam)


@pytest.mark.parametrize("seed", [0, 3])
def test_single_solves_match_scalar_bitwise(seed):
    """Fig. 5(a), Fig. 5(d)'s QuHE row and the dynamic epoch 0."""
    cfg = paper_config(seed=seed)
    oracle = QuHE(cfg).solve()

    report = run_stage_call_report(cfg)
    assert (report.stage1_calls, report.stage2_calls, report.stage3_calls) == (
        oracle.stage1_calls, oracle.stage2_calls, oracle.stage3_calls
    )

    study = run_dynamic_study(cfg, num_epochs=1)
    assert_same_allocation(study.baseline_allocation, oracle.allocation)
    assert study.epochs[0].adaptive_objective == oracle.objective

    for alpha_msl in (None, 0.1):
        ref = oracle if alpha_msl is None else QuHE(
            replace(cfg, alpha_msl=alpha_msl)
        ).solve()
        row = run_method_comparison(
            cfg, alpha_msl_override=alpha_msl
        ).by_method()["QuHE"]
        assert (row.energy_j, row.delay_s, row.u_msl, row.objective) == (
            ref.metrics.total_energy, ref.metrics.total_delay,
            ref.metrics.u_msl, ref.metrics.objective,
        )


def test_figures_never_run_the_scalar_loop(monkeypatch, typical_cfg):
    def refuse(self, initial=None):
        raise AssertionError("figure code ran the scalar QuHE loop")

    monkeypatch.setattr(QuHE, "solve", refuse)
    assert len(run_optimality_study(num_samples=2, seed=1).values) == 2
    assert run_convergence(typical_cfg).outer_iterations >= 1
    bundle = run_fig5_bundle(
        typical_cfg,
        gd_max_iterations=50, sa_max_iterations=50, rs_num_samples=50,
    )
    assert bundle.stage_calls.stage1_calls == 1
    assert len(run_dynamic_study(typical_cfg, num_epochs=2).epochs) == 2
