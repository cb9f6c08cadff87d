"""Built-in scenario definitions: every paper artefact, registered once.

This module is the only place that knows how to wire an experiment module
into the unified surface.  Each ``register_scenario`` call declares the
typed parameters (seed included — it is an ordinary per-scenario parameter,
recorded in every :class:`~repro.api.artifacts.RunRecord`), the run
function, and the renderer producing the text the CLI prints.

The module-level :data:`SERVICE` is the shared :class:`SolverService`
instance: the scenarios that pass it reuse its fingerprint cache within one
process.  ``fig3``, ``fig4``, ``fig5`` and ``report`` take no service: their
experiment functions each solve through a fresh :class:`SolverService`, so
they neither read nor fill it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.api.artifacts import RunRecord, record_run
from repro.api.registry import ParamSpec, Scenario, get_scenario, register_scenario
from repro.api.service import SolverService
from repro.core.config import paper_config

#: Shared solver front-door.  Scenarios that pass it reuse its cache;
#: fig3/fig4/fig5/report solve through their own fresh services.
SERVICE = SolverService()

_SEED = ParamSpec("seed", int, 2, help="channel realization seed")

#: Iteration-budget knobs shared by the Stage-1 method comparisons.
_STAGE1_BUDGETS = (
    ParamSpec("gd_max_iterations", int, 20000, help="gradient-descent budget"),
    ParamSpec("sa_max_iterations", int, 4000, help="simulated-annealing budget"),
    ParamSpec("rs_num_samples", int, 10_000, help="random-search samples"),
)
_STAGE1_SMOKE = {
    "gd_max_iterations": 3000,
    "sa_max_iterations": 1000,
    "rs_num_samples": 2000,
}


def run_scenario(
    name: str,
    overrides: Optional[Mapping[str, Any]] = None,
    *,
    out_dir: Optional[str] = None,
) -> RunRecord:
    """Execute a registered scenario and return its :class:`RunRecord`.

    ``out_dir`` additionally persists the record (``record.json`` +
    ``result.json``) under ``out_dir/<run_id>/``.
    """
    scenario = get_scenario(name)
    params = scenario.bind(overrides)
    record = record_run(
        scenario.name,
        params,
        scenario.run,
        cache_probe=SERVICE.cache_info,
    )
    if out_dir:
        record.save(out_dir)
    return record


# -- solve -------------------------------------------------------------------


def _run_solve(seed: int):
    return SERVICE.solve(paper_config(seed=seed))


def _render_solve(result) -> str:
    alloc = result.allocation
    lines = [
        f"converged={result.converged} outer={result.outer_iterations} "
        f"runtime={result.runtime_s:.2f}s",
        "phi: " + np.array2string(alloc.phi, precision=4),
        "lam: " + str([int(v) for v in alloc.lam]),
        "p  : " + np.array2string(alloc.p, precision=4),
        "b  : " + np.array2string(alloc.b / 1e6, precision=4) + " MHz",
        "f_c: " + np.array2string(alloc.f_c / 1e9, precision=4) + " GHz",
        "f_s: " + np.array2string(alloc.f_s / 1e9, precision=4) + " GHz",
    ]
    for key, value in result.metrics.summary().items():
        lines.append(f"{key:>16s}: {value:.6g}")
    return "\n".join(lines) + "\n"


register_scenario(Scenario(
    name="solve",
    help="run QuHE on the paper configuration and print the allocation",
    params=(_SEED,),
    run=_run_solve,
    render=_render_solve,
))


# -- tables ------------------------------------------------------------------


def _run_tables(seed, gd_max_iterations, sa_max_iterations, rs_num_samples):
    from repro.experiments.tables import run_stage1_methods

    return run_stage1_methods(
        paper_config(seed=seed),
        gd_max_iterations=gd_max_iterations,
        sa_max_iterations=sa_max_iterations,
        rs_num_samples=rs_num_samples,
    )


def _render_table(which: str):
    def render(comparison) -> str:
        from repro.experiments.tables import render_table_v, render_table_vi

        table = render_table_v if which == "v" else render_table_vi
        return table(comparison) + "\n"

    return render


for _name, _which, _label in (("table5", "v", "V"), ("table6", "vi", "VI")):
    register_scenario(Scenario(
        name=_name,
        help=f"Table {_label}: Stage-1 {'phi' if _which == 'v' else 'w'} per method",
        params=(_SEED, *_STAGE1_BUDGETS),
        run=_run_tables,
        render=_render_table(_which),
        smoke_overrides=_STAGE1_SMOKE,
    ))


# -- fig3 --------------------------------------------------------------------


def _run_fig3(seed, samples, resample_channels, randomize_start):
    from repro.experiments.fig3_optimality import run_optimality_study

    return run_optimality_study(
        num_samples=samples,
        seed=seed,
        resample_channels=resample_channels,
        randomize_start=randomize_start,
    )


def _render_fig3(study) -> str:
    from repro.utils.tables import format_table

    rows = [
        [f"[{low:g}, {high:g})", count]
        for (low, high), count in zip(study.bin_edges, study.bin_counts)
    ]
    return (
        f"max {study.maximum:.2f}  min {study.minimum:.2f}  mean {study.mean:.2f}\n"
        + format_table(["range", "count"], rows, title="Fig. 3(b) histogram")
        + "\n"
    )


register_scenario(Scenario(
    name="fig3",
    help="Fig. 3 optimality study over random initial configurations",
    params=(
        _SEED,
        ParamSpec("samples", int, 20, help="number of random trials"),
        ParamSpec("resample_channels", bool, True,
                  help="draw a fresh channel realization per trial"),
        ParamSpec("randomize_start", bool, True,
                  help="sample the initial allocation uniformly"),
    ),
    run=_run_fig3,
    render=_render_fig3,
    smoke_overrides={"samples": 2},
))


# -- fig4 --------------------------------------------------------------------


def _run_fig4(seed):
    from repro.experiments.fig4_convergence import run_convergence

    return run_convergence(paper_config(seed=seed))


def _render_fig4(traces) -> str:
    return (
        f"stage1 ({traces.stage1_iterations} iters): "
        + str([round(v, 4) for v in traces.stage1_objective])
        + f"\nstage2 ({traces.stage2_nodes} nodes): "
        + str([round(v, 4) for v in traces.stage2_incumbent])
        + f"\nstage3 ({traces.stage3_iterations} iters): "
        + str([round(v, 4) for v in traces.stage3_objective])
        + "\nstage3 gap: "
        + str([round(v, 6) for v in traces.stage3_gap])
        + "\n"
    )


register_scenario(Scenario(
    name="fig4",
    help="Fig. 4 per-stage convergence traces",
    params=(_SEED,),
    run=_run_fig4,
    render=_render_fig4,
))


# -- fig5 --------------------------------------------------------------------


def _run_fig5(seed, gd_max_iterations, sa_max_iterations, rs_num_samples):
    from repro.experiments.fig5_comparison import run_fig5_bundle

    # Fig. 5(b)/(c) conventionally reuse the Table-V/VI seed-0 comparison.
    return run_fig5_bundle(
        paper_config(seed=seed),
        table_config=paper_config(seed=0),
        gd_max_iterations=gd_max_iterations,
        sa_max_iterations=sa_max_iterations,
        rs_num_samples=rs_num_samples,
    )


register_scenario(Scenario(
    name="fig5",
    help="Fig. 5 stage calls, Stage-1 methods, AA/OLAA/OCCR/QuHE comparison",
    params=(_SEED, *_STAGE1_BUDGETS),
    run=_run_fig5,
    render=lambda bundle: bundle.render(),
    smoke_overrides=_STAGE1_SMOKE,
))


# -- fig6 --------------------------------------------------------------------


def _run_fig6(seed, panel):
    from repro.experiments.fig6_sweeps import PANEL_ORDER, run_panels

    panels = PANEL_ORDER if panel == "all" else (panel,)
    return run_panels(paper_config(seed=seed), panels=panels, service=SERVICE)


register_scenario(Scenario(
    name="fig6",
    help="Fig. 6 resource sweeps (objective vs budget, all four methods)",
    params=(
        _SEED,
        ParamSpec(
            "panel", str, "all",
            choices=("bandwidth", "power", "client_cpu", "server_cpu", "all"),
            help="which sweep panel to run",
        ),
    ),
    run=_run_fig6,
    render=lambda sweep_set: sweep_set.render(),
    smoke_overrides={"panel": "server_cpu"},
))


# -- ablations ---------------------------------------------------------------


def _run_ablations(seed):
    from repro.experiments.ablations import run_ablation_suite

    return run_ablation_suite(paper_config(seed=seed), service=SERVICE)


register_scenario(Scenario(
    name="ablations",
    help="DESIGN.md §7 ablations: B&B pruning, transform vs direct, weights",
    params=(_SEED,),
    run=_run_ablations,
    render=lambda suite: suite.render(),
))


# -- dynamic -----------------------------------------------------------------


def _run_dynamic(seed, epochs):
    from repro.experiments.dynamic import run_dynamic_study

    return run_dynamic_study(
        paper_config(seed=seed), num_epochs=epochs, seed=seed, service=SERVICE
    )


def _render_dynamic(study) -> str:
    lines = ["epoch  adaptive     static       gain"]
    for e in study.epochs:
        lines.append(
            f"{e.epoch:>5d}  {e.adaptive_objective:>10.4f}  "
            f"{e.static_objective:>10.4f}  {e.adaptation_gain:>9.4f}"
        )
    lines.append(f"mean adaptation gain: {study.mean_adaptation_gain:.4f}")
    return "\n".join(lines) + "\n"


register_scenario(Scenario(
    name="dynamic",
    help="block-fading adaptation study (adaptive vs static policy)",
    params=(
        _SEED,
        ParamSpec("epochs", int, 5, help="fading epochs to simulate"),
    ),
    run=_run_dynamic,
    render=_render_dynamic,
    smoke_overrides={"epochs": 2},
))


# -- discrete-event simulation -----------------------------------------------


_SIM_SAMPLE_DT = ParamSpec("sample_dt", float, 1.0,
                           help="time-series sampling interval (s)")
_SIM_DISRUPTION = (
    ParamSpec("outage_rate", float, 0.02,
              help="network-wide link outage rate (outages/s)"),
    ParamSpec("outage_duration", float, 30.0, help="mean outage length (s)"),
    ParamSpec("demand_factor", float, 0.9,
              help="offered key demand as a fraction of the allocated key rate"),
)


def _run_sim_keyrate(seed, duration, sample_dt, demand_factor):
    from repro.experiments.simulation import run_keyrate_sim

    return run_keyrate_sim(
        seed=seed,
        duration_s=duration,
        sample_dt=sample_dt,
        demand_factor=demand_factor,
        service=SERVICE,
    )


register_scenario(Scenario(
    name="sim-keyrate",
    help="discrete-event validation of the analytic key rates (clean network)",
    params=(
        _SEED,
        ParamSpec("duration", float, 120.0, help="simulated horizon (s)"),
        _SIM_SAMPLE_DT,
        ParamSpec("demand_factor", float, 0.0,
                  help="offered key demand as a fraction of the allocated "
                       "key rate (0 disables demand)"),
    ),
    run=_run_sim_keyrate,
    render=lambda result: result.render(),
    smoke_overrides={"duration": 20.0},
))


def _run_sim_outage(seed, duration, outage_rate, outage_duration,
                    demand_factor, sample_dt):
    from repro.experiments.simulation import run_outage_sim

    return run_outage_sim(
        seed=seed,
        duration_s=duration,
        outage_rate=outage_rate,
        outage_duration_s=outage_duration,
        demand_factor=demand_factor,
        sample_dt=sample_dt,
        service=SERVICE,
    )


register_scenario(Scenario(
    name="sim-outage",
    help="link outages + transciphering demand: buffer depletion and shortfall",
    params=(
        _SEED,
        ParamSpec("duration", float, 300.0, help="simulated horizon (s)"),
        *_SIM_DISRUPTION,
        _SIM_SAMPLE_DT,
    ),
    run=_run_sim_outage,
    render=lambda result: result.render(),
    smoke_overrides={"duration": 40.0},
))


def _run_sim_adaptive(seed, duration, reopt_interval, fading_interval,
                      outage_rate, outage_duration, demand_factor, sample_dt):
    from repro.experiments.simulation import run_adaptive_sim

    return run_adaptive_sim(
        seed=seed,
        duration_s=duration,
        reopt_interval_s=reopt_interval,
        fading_interval_s=fading_interval,
        outage_rate=outage_rate,
        outage_duration_s=outage_duration,
        demand_factor=demand_factor,
        sample_dt=sample_dt,
        service=SERVICE,
    )


register_scenario(Scenario(
    name="sim-adaptive",
    help="mid-simulation re-optimization vs frozen allocation (adaptation gain)",
    params=(
        _SEED,
        ParamSpec("duration", float, 300.0, help="simulated horizon (s)"),
        ParamSpec("reopt_interval", float, 60.0,
                  help="re-optimization cadence (s); disruptions also trigger"),
        ParamSpec("fading_interval", float, 60.0,
                  help="block-fading epoch length (s)"),
        *_SIM_DISRUPTION,
        _SIM_SAMPLE_DT,
    ),
    run=_run_sim_adaptive,
    render=lambda study: study.render(),
    smoke_overrides={"duration": 60.0, "reopt_interval": 20.0,
                     "fading_interval": 20.0},
))


#: Generated-topology knobs shared by the routing scenarios
#: (see docs/topology.md for the families).
_SIM_TOPOLOGY = (
    ParamSpec("topology", str, "grid",
              choices=("grid", "ring", "waxman", "scale-free"),
              help="generated topology family"),
    ParamSpec("nodes", int, 12, help="approximate node count"),
)


def _run_sim_multipath(seed, topology, nodes, clients, k_paths, duration,
                       outage_rate, outage_duration, demand_factor,
                       reopt_interval, sample_dt):
    from repro.experiments.simulation import run_multipath_sim

    return run_multipath_sim(
        seed=seed,
        topology=topology,
        num_nodes=nodes,
        num_clients=clients,
        k_paths=k_paths,
        duration_s=duration,
        outage_rate=outage_rate,
        outage_duration_s=outage_duration,
        demand_factor=demand_factor,
        reopt_interval_s=reopt_interval,
        sample_dt=sample_dt,
        service=SERVICE,
    )


register_scenario(Scenario(
    name="sim-multipath",
    help="multipath allocation on a generated topology: k candidate routes "
         "per client, rate split across path diversity",
    params=(
        _SEED,
        *_SIM_TOPOLOGY,
        ParamSpec("clients", int, 3, help="client nodes (farthest-first)"),
        ParamSpec("k_paths", int, 2,
                  help="Yen candidate paths per client, all active"),
        ParamSpec("duration", float, 40.0, help="simulated horizon (s)"),
        ParamSpec("outage_rate", float, 0.1,
                  help="network-wide link outage rate (outages/s)"),
        ParamSpec("outage_duration", float, 10.0,
                  help="mean outage length (s)"),
        ParamSpec("demand_factor", float, 0.8,
                  help="offered key demand as a fraction of the allocated "
                       "key rate"),
        ParamSpec("reopt_interval", float, 10.0,
                  help="re-optimization cadence (s); outages also trigger"),
        _SIM_SAMPLE_DT,
    ),
    run=_run_sim_multipath,
    render=lambda result: result.render(),
    smoke_overrides={"duration": 15.0},
))


def _run_routing_compare(seed, topology, nodes, clients, k_paths, duration,
                         outage_rate, outage_duration, demand_factor,
                         reopt_interval, sample_dt):
    from repro.experiments.simulation import run_routing_compare

    return run_routing_compare(
        seed=seed,
        topology=topology,
        num_nodes=nodes,
        num_clients=clients,
        k_paths=k_paths,
        duration_s=duration,
        outage_rate=outage_rate,
        outage_duration_s=outage_duration,
        demand_factor=demand_factor,
        reopt_interval_s=reopt_interval,
        sample_dt=sample_dt,
        service=SERVICE,
    )


register_scenario(Scenario(
    name="sim-routing-compare",
    help="proactive vs reactive reroute-on-outage vs rate-only "
         "re-optimization, three runs on one outage schedule",
    params=(
        _SEED,
        *_SIM_TOPOLOGY,
        ParamSpec("clients", int, 4, help="client nodes (farthest-first)"),
        ParamSpec("k_paths", int, 3,
                  help="precomputed candidate paths per client (proactive)"),
        ParamSpec("duration", float, 40.0, help="simulated horizon (s)"),
        ParamSpec("outage_rate", float, 0.25,
                  help="network-wide link outage rate (outages/s)"),
        ParamSpec("outage_duration", float, 12.0,
                  help="mean outage length (s)"),
        ParamSpec("demand_factor", float, 0.8,
                  help="offered key demand as a fraction of the allocated "
                       "key rate"),
        ParamSpec("reopt_interval", float, 10.0,
                  help="re-optimization cadence (s); outages also trigger"),
        _SIM_SAMPLE_DT,
    ),
    run=_run_routing_compare,
    render=lambda study: study.render(),
    smoke_overrides={"duration": 15.0, "outage_rate": 0.15},
))


# -- pipeline ----------------------------------------------------------------


def _run_pipeline(seed):
    from repro.core.stage1 import Stage1Solver
    from repro.pipeline import SecureEdgePipeline

    cfg = paper_config(seed=seed)
    stage1 = Stage1Solver(cfg).solve()
    pipeline = SecureEdgePipeline(ckks_ring_degree=64, seed=seed)
    pipeline.distribute_keys(stage1.phi, stage1.w, duration_s=400.0, min_bytes=32)
    rng = np.random.default_rng(seed)
    features = rng.normal(size=8)
    weights = rng.normal(size=8)
    return pipeline.run_client(
        client_index=0,
        features=features,
        model_weights=weights,
        model_bias=0.1,
        bandwidth_hz=cfg.server.total_bandwidth_hz / cfg.num_clients,
        power_w=float(cfg.max_power[0]),
        channel_gain=float(cfg.channel_gains[0]),
        noise_psd=cfg.noise_psd,
    )


def _render_pipeline(report) -> str:
    return (
        f"uplink: {report.uplink_bits:.3g} bits, {report.uplink_delay_s:.4f} s, "
        f"{report.uplink_energy_j:.4g} J\n"
        f"prediction  : {np.round(report.prediction, 4)}\n"
        f"reference   : {np.round(report.plaintext_reference, 4)}\n"
        f"max |error| : {report.max_abs_error:.3e}\n"
    )


register_scenario(Scenario(
    name="pipeline",
    help="end-to-end secure inference demo (QKD → transcipher → CKKS)",
    params=(_SEED,),
    run=_run_pipeline,
    render=_render_pipeline,
))


# -- campaign ----------------------------------------------------------------


def _run_campaign(seed, spec, dir, resume):
    from repro.campaign import demo_spec, load_spec, run_campaign

    campaign_spec = load_spec(spec) if spec else demo_spec(seed_base=seed)
    return run_campaign(campaign_spec, out_dir=dir or None, resume=resume)


register_scenario(Scenario(
    name="campaign",
    help="replicated many-seed study: scenario x parameter grid x R seeds, "
         "resumable, with streaming statistics (see docs/campaigns.md)",
    params=(
        ParamSpec("seed", int, 2,
                  help="base seed of the built-in demo campaign (ignored "
                       "when spec= names a spec file)"),
        ParamSpec("spec", str, "",
                  help="path to a campaign spec JSON (empty = built-in demo)"),
        ParamSpec("dir", str, "",
                  help="artifact directory for resumable cell records "
                       "(empty = in-memory only)"),
        ParamSpec("resume", bool, True,
                  help="skip cells already persisted under dir="),
    ),
    run=_run_campaign,
    render=lambda result: result.render(),
))


# -- serve-bench -------------------------------------------------------------


def _run_serve_bench(seed, clients, duration, distinct, max_batch,
                     max_wait_ms, max_queue, coalesce, use_cache, connections,
                     workers, batch_deadline_s, max_restarts, crash_rate,
                     hang_rate, fault_seed, retry):
    from repro.serve.bench import run_serve_bench

    return run_serve_bench(
        seed=seed,
        clients=clients,
        duration=duration,
        distinct=distinct,
        max_batch=max_batch,
        max_wait_ms=max_wait_ms,
        max_queue=max_queue,
        coalesce=coalesce,
        use_cache=use_cache,
        connections=connections or None,
        workers=workers,
        batch_deadline_s=batch_deadline_s,
        max_restarts=max_restarts,
        crash_rate=crash_rate,
        hang_rate=hang_rate,
        fault_seed=fault_seed,
        retry=retry,
    )


register_scenario(Scenario(
    name="serve-bench",
    help="closed-loop load test of the allocation daemon (see docs/serving.md)",
    params=(
        _SEED,
        ParamSpec("clients", int, 64, help="closed-loop logical clients"),
        ParamSpec("duration", float, 2.0, help="measured window (s)"),
        ParamSpec("distinct", int, 4, help="distinct config specs in the mix"),
        ParamSpec("max_batch", int, 16, help="daemon micro-batch size cap"),
        ParamSpec("max_wait_ms", float, 2.0,
                  help="daemon micro-batch linger before a partial batch"),
        ParamSpec("max_queue", int, 1024,
                  help="daemon admission queue bound (overflow is shed)"),
        ParamSpec("coalesce", bool, True,
                  help="merge concurrent identical-fingerprint requests"),
        ParamSpec("use_cache", bool, True,
                  help="let requests hit the daemon's result cache"),
        ParamSpec("connections", int, 0,
                  help="client connections to multiplex over (0 = auto)"),
        ParamSpec("workers", int, 0,
                  help="supervised solver workers (0 = solve in-process)"),
        ParamSpec("batch_deadline_s", float, 30.0,
                  help="per-batch worker deadline before the batch is "
                       "declared hung"),
        ParamSpec("max_restarts", int, 5,
                  help="worker restarts tolerated per window before the "
                       "circuit breaker opens"),
        ParamSpec("crash_rate", float, 0.0,
                  help="seeded serve.worker crash probability per batch "
                       "(needs workers > 0)"),
        ParamSpec("hang_rate", float, 0.0,
                  help="seeded serve.worker hang probability per batch "
                       "(needs workers > 0)"),
        ParamSpec("fault_seed", int, 7,
                  help="RNG seed for the injected crash/hang storm"),
        ParamSpec("retry", bool, False,
                  help="drive clients through solve_with_retry instead of "
                       "one-shot solves"),
    ),
    run=_run_serve_bench,
    render=lambda result: result.render(),
    smoke_overrides={"clients": 8, "duration": 0.3, "distinct": 2},
))


# -- report ------------------------------------------------------------------


def _run_report(seed, samples, output):
    import json

    from repro.experiments.report import collect_report, report_artifacts, render_report

    bundle = collect_report(seed=seed, fig3_samples=samples)
    if output:
        out = Path(output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(render_report(bundle))
        for section, payload in report_artifacts(bundle).items():
            artifact = out.with_name(f"{out.stem}.{section}.json")
            artifact.write_text(json.dumps(payload, indent=2) + "\n")
    return bundle


register_scenario(Scenario(
    name="report",
    help="run everything, emit a markdown report (+ JSON artifacts with output=)",
    params=(
        _SEED,
        ParamSpec("samples", int, 20, help="Fig. 3 trial count"),
        ParamSpec("output", str, "",
                  help="write markdown here (parents created); JSON artifacts "
                       "land next to it as <stem>.<section>.json"),
    ),
    run=_run_report,
    render=lambda bundle: bundle.render(),
    smoke_overrides={"samples": 2},
    writes_own_output=True,
))
