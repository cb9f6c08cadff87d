#!/usr/bin/env python
"""Write the golden codec corpus under ``tests/golden_codecs/``.

One ``<kind>.json`` per registered :mod:`repro.io` codec kind, written
exactly as :func:`repro.io.save_result` writes it
(``json.dumps(payload, indent=2) + "\\n"``, insertion order kept).  The
tier-1 test ``tests/test_codec_corpus.py`` decodes every file and
re-encodes it to identical bytes, so a codec change that moves a byte of a
run artifact, a cache row or a campaign ``aggregate.json`` fails loudly.

Instances are real wherever the repo builds one in seconds (a
``paper_config(seed=2)`` solve, smoke-sized scenario runs, a two-cell
campaign); only the serve wire messages and the fault plan are literals.
Wall-clock fields (``*runtime_s``, ``wall_time_s``) are pinned to a fixed
value so a regeneration moves only what the codec moves.

An existing file is never overwritten unless ``--kind`` names it, so every
regeneration is deliberate and per kind::

    PYTHONPATH=src python scripts/gen_codec_corpus.py                  # missing kinds
    PYTHONPATH=src python scripts/gen_codec_corpus.py --kind quhe_result
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path
from typing import Any, Callable, Dict

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import io as repro_io  # noqa: E402

CORPUS_DIR = REPO_ROOT / "tests" / "golden_codecs"

#: Wall-clock fields, pinned so regenerated files differ only by codec changes.
CLOCK_FIELDS = frozenset(
    {"runtime_s", "total_runtime_s", "transform_runtime_s",
     "direct_runtime_s", "wall_time_s"}
)
PINNED_SECONDS = 0.25

#: Smoke-sized Stage-1 budgets: real method runs with short histories.
STAGE1_BUDGETS = {"gd_max_iterations": 40, "sa_max_iterations": 40,
                  "rs_num_samples": 40}


def pin_clock(value: Any) -> Any:
    """``value`` with every float wall-clock field set to PINNED_SECONDS."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.replace(value, **{
            f.name: _pinned(f.name, getattr(value, f.name))
            for f in dataclasses.fields(value) if f.init
        })
    if isinstance(value, dict):
        return {key: _pinned(key, item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(pin_clock(item) for item in value)
    return value


def _pinned(name: str, value: Any) -> Any:
    if name in CLOCK_FIELDS and isinstance(value, float):
        return PINNED_SECONDS
    return pin_clock(value)


@functools.lru_cache(maxsize=None)
def scenario(name: str, **overrides: Any) -> Any:
    from repro.api.scenarios import SERVICE, run_scenario

    # Scenarios share one solver cache; start each from an empty one so a
    # kind's instance does not depend on which kinds were built before it.
    SERVICE.clear_cache()
    return pin_clock(run_scenario(name, overrides).result)


def solve() -> Any:
    return scenario("solve", seed=2)


def fig5() -> Any:
    return scenario("fig5", **STAGE1_BUDGETS)


def campaign_result() -> Any:
    from repro.campaign import CampaignSpec, run_campaign

    spec = CampaignSpec(
        name="corpus", scenario="sim-keyrate", base={"duration": 4.0},
        axes={"demand_factor": [0.6]}, seeds=(2, 3),
    )
    return run_campaign(spec)


def report_bundle() -> Any:
    from repro.experiments.report import ReportBundle

    bundle = fig5()
    return ReportBundle(
        seed=2,
        fig3_samples=2,
        stage1_methods=scenario("table5", **STAGE1_BUDGETS),
        optimality=scenario("fig3", samples=2),
        convergence=scenario("fig4"),
        stage_calls=bundle.stage_calls,
        methods=bundle.methods,
        sweeps=scenario("fig6", panel="server_cpu"),
    )


def fault_plan() -> Any:
    from repro.faults import FaultPlan, FaultRule

    return FaultPlan(seed=7, rules=(
        FaultRule(seam="campaign.cell", kind="raise", probability=0.5,
                  max_fires=2),
        FaultRule(seam="serve.worker", kind="hang", delay_s=0.25, after=1),
    ))


def serve_request() -> Any:
    from repro.serve.protocol import ConfigSpec, ServeRequest

    return ServeRequest(id="r1", op="solve",
                        spec=ConfigSpec(seed=3, total_bandwidth_hz=2e6),
                        use_cache=False)


def serve_response() -> Any:
    from repro.serve.protocol import ServeResponse

    return ServeResponse(id="r1", ok=True,
                         result=repro_io.result_to_dict(solve()),
                         meta={"cache": "miss", "batch": 1})


BUILDERS: Dict[str, Callable[[], Any]] = {
    "allocation": lambda: solve().allocation,
    "metrics": lambda: solve().metrics,
    "stage1_result": lambda: solve().stage1,
    "stage2_result": lambda: solve().stage2,
    "stage3_result": lambda: solve().stage3,
    "quhe_result": solve,
    "stage1_method_comparison": lambda: scenario("table5", **STAGE1_BUDGETS),
    "optimality_study": lambda: scenario("fig3", samples=2),
    "convergence_traces": lambda: scenario("fig4"),
    "stage_call_report": lambda: fig5().stage_calls,
    "method_comparison": lambda: fig5().methods,
    "fig5_bundle": fig5,
    "sweep_series": lambda: scenario("fig6", panel="server_cpu").panels[
        "server_cpu"],
    "sweep_set": lambda: scenario("fig6", panel="server_cpu"),
    "ablation_suite": lambda: scenario("ablations"),
    "dynamic_study": lambda: scenario("dynamic", epochs=2),
    "pipeline_report": lambda: scenario("pipeline"),
    "simulation_result": lambda: scenario("sim-keyrate", duration=6.0,
                                          sample_dt=2.0),
    "adaptive_sim_study": lambda: scenario(
        "sim-adaptive", duration=30.0, reopt_interval=10.0,
        fading_interval=10.0, sample_dt=5.0),
    "routing_compare_study": lambda: scenario(
        "sim-routing-compare", duration=8.0, outage_rate=0.15,
        clients=3, sample_dt=4.0),
    "campaign_result": campaign_result,
    "fault_plan": fault_plan,
    "report_bundle": report_bundle,
    "serve_request": serve_request,
    "serve_response": serve_response,
    "serve_bench_result": lambda: scenario(
        "serve-bench", clients=4, duration=0.3, distinct=2),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--kind", action="append", default=[],
        help="(re)write this kind even if its file exists (repeatable)")
    args = parser.parse_args(argv)
    kinds = repro_io.registered_kinds()
    missing = sorted(set(kinds) - set(BUILDERS))
    if missing:
        parser.error(f"no corpus builder for kind(s) {missing}")
    unknown = sorted(set(args.kind) - set(kinds))
    if unknown:
        parser.error(f"unknown kind(s) {unknown}; known: {kinds}")
    CORPUS_DIR.mkdir(parents=True, exist_ok=True)
    for kind in kinds:
        path = CORPUS_DIR / f"{kind}.json"
        if path.exists() and kind not in args.kind:
            print(f"kept {path.relative_to(REPO_ROOT)} (--kind {kind} rewrites it)")
            continue
        obj = BUILDERS[kind]()
        repro_io.save_result(obj, path)
        print(f"wrote {path.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
