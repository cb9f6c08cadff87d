"""Fig. 5(a)/(b): stage call counts, QuHE runtime, Stage-1 method runtimes.

Prints the stage-call report (paper: one call per stage, 1.5 s total) and
the per-method Stage-1 runtimes (paper: QuHE 0.09 s ≪ SA 4.17 s < GD 5.84 s;
random select fastest but worst).  Benchmarks the full QuHE procedure — the
headline runtime of Fig. 5(a).
"""

from repro.api.service import SolverService
from repro.experiments.fig5_comparison import run_stage_call_report
from repro.experiments.tables import run_stage1_methods
from repro.utils.tables import format_table


def test_fig5a_stage_calls(typical_cfg, capsys):
    report = run_stage_call_report(typical_cfg)
    with capsys.disabled():
        print()
        print(format_table(
            ["S1 calls", "S2 calls", "S3 calls", "runtime (s)"],
            [[report.stage1_calls, report.stage2_calls, report.stage3_calls,
              f"{report.runtime_s:.3f}"]],
            title="Fig. 5(a): stage calls and runtime",
        ))
    assert report.stage1_calls == 1  # the paper: one call of each stage


def test_fig5b_stage1_runtimes(paper_cfg, capsys):
    comparison = run_stage1_methods(paper_cfg)
    runtimes = comparison.runtimes()
    with capsys.disabled():
        print()
        print(format_table(
            ["method", "runtime (s)"],
            [[name, f"{rt:.4f}"] for name, rt in runtimes.items()],
            title="Fig. 5(b): Stage-1 method runtimes",
        ))
    # Orderings the paper reports: the convex solve is far faster than both
    # iterative baselines.
    assert runtimes["QuHE Stage 1"] < runtimes["Gradient descent"]
    assert runtimes["QuHE Stage 1"] < runtimes["Sim. annealing"]


def test_benchmark_full_quhe(benchmark, typical_cfg):
    # No result cache, so every round is a full solve through the path
    # run_stage_call_report takes.
    service = SolverService(cache_size=0)
    result = benchmark.pedantic(
        service.solve, args=(typical_cfg,), rounds=3, iterations=1
    )
    assert result.converged
