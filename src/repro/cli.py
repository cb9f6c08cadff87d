"""Command-line interface: ``python -m repro <command>``.

The CLI is **generated from the scenario registry**
(:mod:`repro.api.registry`): every registered scenario becomes a subcommand
whose flags mirror its typed parameter spec, and the uniform ``run``
subcommand drives any scenario with ``--set key=value`` overrides.  Adding a
scenario to the registry adds its subcommand, flags and help automatically.

Surfaces
--------
``repro run <scenario> [--set k=v ...] [--json] [--out DIR]``
    Run any registered scenario.  ``--json`` prints the versioned
    :mod:`repro.io` payload instead of the rendered text; ``--out DIR``
    writes a :class:`~repro.api.artifacts.RunRecord` (params + seed +
    result + timings) under ``DIR/<run_id>/``.
``repro list``
    Show every scenario with its parameters and defaults.
``repro <scenario> [--<param> value ...]``
    Direct subcommands (``solve``, ``table5``, ``table6``, ``fig3``-``fig6``,
    ``ablations``, ``dynamic``, ``pipeline``, ``report``), kept for
    compatibility — ``python -m repro fig6 --panel bandwidth`` still works.
``repro campaign [run [SPEC] | status DIR | resume DIR | report DIR]``
    The Monte Carlo campaign family (replicated many-seed studies, see
    ``docs/campaigns.md``): ``run`` executes a spec (resuming by default
    when ``--dir`` holds a partial campaign), ``status`` shows completed vs
    pending cells, ``resume`` continues a killed campaign, ``report``
    re-aggregates persisted cells and can write a CI-band markdown report.
    Bare ``repro campaign`` runs the built-in demo campaign.
``repro serve [--socket PATH | --host H --port P] [...]``
    Run the allocation daemon (:mod:`repro.serve`, see ``docs/serving.md``)
    in the foreground until interrupted; ``repro serve --status`` queries a
    running daemon's counters over the same socket instead.  Load-test an
    embedded daemon with ``repro serve-bench``.

Examples::

    python -m repro solve --seed 2
    python -m repro run fig6 --set panel=bandwidth --json
    python -m repro run fig3 --set samples=100 --out runs/
    python -m repro report --samples 20 --output out/report.md
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

_RUN_HELP = "run any registered scenario by name (see 'repro list')"


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json", action="store_true",
        help="print the versioned JSON payload instead of rendered text",
    )
    parser.add_argument(
        "--out", type=str, default="",
        help="write a RunRecord (record.json + result.json) under this directory",
    )


def _build_parser() -> argparse.ArgumentParser:
    from repro.api import REGISTRY

    parser = argparse.ArgumentParser(
        prog="repro",
        description="QuHE reproduction: secure QKD+HE edge computing experiments",
    )
    # dest avoids colliding with the per-scenario --seed flags, whose
    # SUPPRESS defaults could not override an attribute the top-level parser
    # already set (scenarios would then see seed=None instead of their default).
    parser.add_argument(
        "--seed", dest="global_seed", type=int, default=None,
        help="override the scenario's seed parameter (compatibility alias for "
             "--set seed=N / the per-scenario --seed flag)",
    )
    parser.add_argument(
        "--debug", action="store_true",
        help="print full tracebacks on failure instead of the one-line "
             "classified error",
    )
    parser.add_argument(
        "--faults", default="", metavar="PLAN",
        help="activate a deterministic fault-injection plan (inline JSON or "
             "a plan file path; see docs/robustness.md)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help=_RUN_HELP)
    run.add_argument("scenario", choices=[s.name for s in REGISTRY],
                     help="scenario name")
    run.add_argument(
        "--set", dest="overrides", action="append", default=[],
        metavar="KEY=VALUE", help="override a scenario parameter (repeatable)",
    )
    _add_output_options(run)

    lister = sub.add_parser(
        "list", help="list registered scenarios and their parameters"
    )
    lister.add_argument(
        "--brief", action="store_true",
        help="one 'name: description' line per scenario, no parameters",
    )

    _add_campaign_family(sub)
    _add_serve_command(sub)

    for scenario in REGISTRY:
        if scenario.name == "campaign":
            # The campaign scenario is driven by the hand-written verb
            # family above (and remains reachable as `repro run campaign`).
            continue
        direct = sub.add_parser(
            scenario.name, aliases=list(scenario.aliases), help=scenario.help
        )
        for spec in scenario.params:
            direct.add_argument(
                _flag(spec.name),
                dest=spec.name,
                type=spec.parse,
                default=argparse.SUPPRESS,
                choices=spec.choices,
                help=f"{spec.help} (default: {spec.default!r})",
            )
        _add_output_options(direct)
    return parser


def _add_campaign_family(sub) -> None:
    """The ``repro campaign run|status|resume|report`` verb family."""
    campaign = sub.add_parser(
        "campaign",
        help="replicated many-seed studies: run/status/resume/report "
             "(bare `repro campaign` runs the built-in demo)",
    )
    verbs = campaign.add_subparsers(dest="verb")

    run = verbs.add_parser(
        "run", help="execute a campaign spec (resumes a partial --dir)"
    )
    run.add_argument("spec", nargs="?", default="",
                     help="campaign spec JSON path (empty = built-in demo)")
    run.add_argument("--dir", default="",
                     help="artifact directory (enables kill/resume)")
    run.add_argument("--fresh", action="store_true",
                     help="re-execute cells even when artifacts exist")
    run.add_argument("--json", action="store_true",
                     help="print the campaign_result payload")

    status = verbs.add_parser("status", help="completed vs pending cells")
    status.add_argument("dir", help="campaign artifact directory")

    resume = verbs.add_parser(
        "resume", help="continue a killed campaign from its directory"
    )
    resume.add_argument("dir", help="campaign artifact directory")
    resume.add_argument("--json", action="store_true",
                        help="print the campaign_result payload")

    report = verbs.add_parser(
        "report", help="re-aggregate persisted cells; optionally write "
                       "a CI-band markdown report"
    )
    report.add_argument("dir", help="campaign artifact directory")
    report.add_argument("--output", default="",
                        help="write the markdown report here")
    report.add_argument("--json", action="store_true",
                        help="print the campaign_result payload")


def _add_serve_command(sub) -> None:
    """The hand-written ``repro serve`` daemon command (not a scenario)."""
    serve = sub.add_parser(
        "serve",
        help="run the allocation daemon in the foreground "
             "(--status queries a running one; see docs/serving.md)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="TCP bind address (ignored with --socket)")
    serve.add_argument("--port", type=int, default=7723,
                       help="TCP port (0 = ephemeral, printed on stderr)")
    serve.add_argument("--socket", default="", metavar="PATH",
                       help="serve on a unix socket instead of TCP")
    serve.add_argument("--max-batch", type=int, default=16,
                       help="micro-batch size cap per backend solve")
    serve.add_argument("--max-wait-ms", type=float, default=2.0,
                       help="linger before dispatching a partial micro-batch")
    serve.add_argument("--max-queue", type=int, default=256,
                       help="admission queue bound; overflow is shed "
                            "with a ServerOverloaded error response")
    serve.add_argument("--no-coalesce", action="store_true",
                       help="disable merging of concurrent identical requests")
    serve.add_argument("--cache-db", default="", metavar="PATH",
                       help="sqlite result-cache path shared across "
                            "processes (empty = per-process in-memory LRU)")
    serve.add_argument("--cache-size", type=int, default=256,
                       help="result-cache capacity (entries)")
    serve.add_argument("--workers", type=int, default=0,
                       help="supervised solver subprocesses (0 = solve "
                            "inline; >0 isolates crashes/hangs per batch)")
    serve.add_argument("--batch-deadline-s", type=float, default=30.0,
                       help="per-batch deadline; a worker that misses it "
                            "is killed and respawned")
    serve.add_argument("--status", action="store_true",
                       help="query a running daemon's stats (JSON) and exit")
    serve.add_argument("--health", action="store_true",
                       help="query a running daemon's health detail "
                            "(queue, workers, breaker) and exit")
    serve.add_argument("--stop", action="store_true",
                       help="ask a running daemon to drain gracefully "
                            "(flush in-flight work, then exit 0)")


def _serve_main(args) -> int:
    import asyncio
    import signal

    from repro.serve import AllocationServer, ServeRequest, ServeSettings

    if args.status or args.health or args.stop:
        from repro.serve import request_once

        op = "stats" if args.status else ("health" if args.health else "drain")
        response = request_once(
            ServeRequest(id=f"cli-{op}", op=op),
            socket_path=args.socket, host=args.host, port=args.port,
        ).raise_for_error()
        if op == "drain":
            print("repro serve: drain acknowledged", file=sys.stderr)
        else:
            print(json.dumps(response.stats, indent=2, sort_keys=True))
        return 0

    settings = ServeSettings(
        host=args.host,
        port=args.port,
        socket_path=args.socket,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        max_queue=args.max_queue,
        coalesce=not args.no_coalesce,
        cache_db=args.cache_db,
        cache_capacity=args.cache_size,
        workers=args.workers,
        batch_deadline_s=args.batch_deadline_s,
    )
    server = AllocationServer(settings)

    async def _run() -> None:
        await server.start()
        where = (
            args.socket
            if args.socket
            else "%s:%d" % server.address
        )
        print(f"repro serve: listening on {where}", file=sys.stderr)
        loop = asyncio.get_running_loop()
        drain_tasks = []

        def _on_signal() -> None:
            # Graceful drain: stop accepting, flush in-flight requests into
            # the cache and their responses, then exit 0.
            drain_tasks.append(asyncio.ensure_future(server.drain()))

        # SIGINT is routed here too, not left to KeyboardInterrupt: Python
        # installs no KeyboardInterrupt when the process inherits SIGINT as
        # ignored (a background job of a non-interactive shell).
        signals = (signal.SIGINT, signal.SIGTERM)
        try:
            for signum in signals:
                loop.add_signal_handler(signum, _on_signal)
        except (NotImplementedError, RuntimeError):
            pass  # non-unix event loop: the signals keep their defaults
        try:
            await server.serve_forever()
            # A drain (a signal or the `drain` wire op) closed the listener;
            # wait for it to finish flushing before returning cleanly.
            await server.wait_terminated()
            print("repro serve: drained, shut down", file=sys.stderr)
        finally:
            for signum in signals:
                with contextlib.suppress(ValueError, RuntimeError):
                    loop.remove_signal_handler(signum)
            await server.stop()
            if drain_tasks:
                await asyncio.gather(*drain_tasks, return_exceptions=True)

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("repro serve: interrupted, shut down", file=sys.stderr)
    return 0


def _campaign_main(args) -> int:
    from repro import io as repro_io
    from repro.campaign import campaign_report, campaign_status, resume_campaign

    verb = args.verb or "run"
    if verb == "run":
        from repro.api import run_scenario

        overrides = {
            "spec": getattr(args, "spec", ""),
            "dir": getattr(args, "dir", ""),
            "resume": not getattr(args, "fresh", False),
        }
        record = run_scenario("campaign", overrides)
        result = record.result
    elif verb == "status":
        print(campaign_status(args.dir).render(), end="")
        return 0
    elif verb == "resume":
        result = resume_campaign(args.dir)
    else:  # report
        result = campaign_report(args.dir)
        output = getattr(args, "output", "")
        if output:
            from repro.experiments.report import render_campaign_report

            out = Path(output)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(render_campaign_report(result))
            print(f"campaign report written to {out}", file=sys.stderr)
            if not getattr(args, "json", False):
                return 0
    if getattr(args, "json", False):
        print(json.dumps(repro_io.result_to_dict(result), indent=2))
    else:
        print(result.render(), end="")
    return 0


def _parse_set_overrides(scenario, pairs: List[str]) -> Dict[str, Any]:
    """``--set key=value`` strings → typed parameter overrides.

    ``--set faults=PLAN`` is reserved: it is not a scenario parameter but
    the per-invocation switch for the fault-injection layer — the plan is
    installed (and exported to subprocess workers) as a side effect and
    never reaches the scenario.
    """
    overrides: Dict[str, Any] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"--set expects KEY=VALUE, got {pair!r}")
        if key == "faults":
            from repro import faults

            faults.install(faults.load_plan(value))
            continue
        overrides[key] = scenario.param(key).parse(value)
    return overrides


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code.

    Failures exit with the :mod:`repro.errors` taxonomy code for their
    class (configuration 2, solver 3, artifact 4, worker 5, deadline 6,
    transient IO 7, retry exhausted 8, injected fault 9; unclassified 1)
    and a one-line ``repro: <Type>: <message>`` on stderr — the full
    traceback only appears under ``--debug``.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(parser, args)
    except Exception as exc:  # noqa: BLE001 - classified for the exit code
        if getattr(args, "debug", False):
            raise
        from repro.errors import exit_code_for

        print(f"repro: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exit_code_for(exc)


def _dispatch(parser: argparse.ArgumentParser, args) -> int:
    """Route a parsed invocation (the fallible part of :func:`main`)."""
    if getattr(args, "faults", ""):
        from repro import faults

        faults.install(faults.load_plan(args.faults))

    if args.command == "list":
        # Same metadata as docs/scenarios.md (see repro.api.catalog): names,
        # one-line descriptions, and — unless --brief — every parameter.
        from repro.api.catalog import render_scenario_list

        print(render_scenario_list(verbose=not args.brief), end="")
        return 0

    if args.command == "campaign":
        return _campaign_main(args)

    if args.command == "serve":
        return _serve_main(args)

    from repro.api import get_scenario, run_scenario

    if args.command == "run":
        name = args.scenario
        scenario = get_scenario(name)
        try:
            overrides = _parse_set_overrides(scenario, args.overrides)
        except (KeyError, ValueError) as exc:
            parser.error(str(exc))
    else:
        name = args.command
        scenario = get_scenario(name)
        overrides = {
            spec.name: getattr(args, spec.name)
            for spec in scenario.params
            if hasattr(args, spec.name)
        }
    if args.global_seed is not None and "seed" not in overrides and any(
        spec.name == "seed" for spec in scenario.params
    ):
        overrides["seed"] = args.global_seed

    try:
        scenario.bind(overrides)  # surface parameter errors as usage errors
    except ValueError as exc:
        parser.error(str(exc))
    # Execution errors are real failures, not usage mistakes: main() maps
    # them to their taxonomy exit code (traceback under --debug) instead of
    # an argparse usage banner.
    record = run_scenario(name, overrides)

    if args.json:
        print(json.dumps(record.result_payload(), indent=2))
    elif scenario.writes_own_output and record.params.get("output"):
        print(f"report written to {record.params['output']}")
    else:
        print(scenario.render(record.result), end="")
    if args.out:
        print(f"run record written to {record.save(args.out)}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
