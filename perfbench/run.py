"""The repository benchmark: one command, three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

``--workload`` is ``sweep``, ``serve_mixed`` or ``sim_routed`` (see
``perfbench/README.md``).  ``--trace 0`` prints every end-to-end metric of
``BENCHMARK.json``; ``--trace 1`` runs the workload again under the span
wrappers of ``perfbench/tracing.py`` and prints every per-layer metric.  The
last line of stdout is the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Every workload runs in fresh interpreters.  With ``--trace 0`` the set-up
(imports, input generation, daemon spawn and cache warm-up, routes and the
baseline solve) is timed from process start to ready, three times, and
``setup_s`` is the median; the last of the three goes on to the timed
window and the output checks.  ``--smoke`` shrinks every input (tests only).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    ROOT,
    RUN_DIR,
    SRC,
    BenchError,
    calibrate,
    child_env,
    cpu_ticks,
    emit,
    import_repro,
    median,
    steal_share,
)

WORKLOADS = ("sweep", "serve_mixed", "sim_routed")
SETUP_REPS = 3
#: the whole run must end within 180 s
DEADLINE_S = 170.0


def _module(workload: str):
    import importlib

    return importlib.import_module(f"perfbench.{workload}")


# -- child side -------------------------------------------------------------------------


def child(args) -> int:
    """One fresh interpreter: set up, then (unless ``setup``) measure."""
    import_repro()
    module = _module(args.workload)
    state = module.setup(args.seed, args.seconds, args.smoke)
    print("READY", flush=True)
    ticks = cpu_ticks()
    try:
        if args.child == "setup":
            return 0
        if args.child == "measure":
            metrics, attempted, failures, info = module.measure(
                state, args.seconds)
            emit("info", info)
        else:
            metrics, attempted, failures, spans = module.traced(
                state, args.seconds)
            # Layers this workload does not exercise report zero work.
            spec = json.loads((ROOT / "BENCHMARK.json").read_text())
            idle = [m["name"] for m in spec["per_layer"]
                    if m["name"] not in metrics
                    and not m["name"].startswith("calib.")]
            metrics.update(dict.fromkeys(idle, 0.0))
            emit("not_exercised", idle)
            spans_file = f"spans-{args.workload}-seed{args.seed}.json"
            (ROOT / RUN_DIR / spans_file).write_text(json.dumps(spans))
        steal = steal_share(ticks, cpu_ticks())
        calibration = dict(calibrate(), steal_pct=100.0 * steal)
        emit("calibration", calibration)
        if args.child == "traced":
            metrics["calib.py_loop_ms"] = calibration["py_loop_ms"]
            metrics["calib.np_matmul_solve_ms"] = calibration[
                "np_matmul_solve_ms"]
        for failure in failures[:20]:
            print(f"check failed: {failure}", file=sys.stderr)
        emit("RESULT", {"attempted": attempted, "failed": len(failures),
                        "metrics": metrics})
        return 0
    finally:
        teardown = getattr(module, "teardown", None)
        if teardown is not None:
            teardown(state)


# -- parent side -------------------------------------------------------------------------


class Child:
    """A child interpreter in its own process group, under a deadline."""

    def __init__(self, args, phase: str, deadline: float) -> None:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--child", phase,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
        if args.smoke:
            cmd.append("--smoke")
        env = dict(child_env(), PERFBENCH_RUN_DIR=str(args.run_dir))
        self.started = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        remaining = max(1.0, deadline - time.monotonic())
        self.timer = threading.Timer(remaining, self.kill)
        self.timer.start()
        self.ready_s = None
        self.result = None

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def communicate(self) -> None:
        for line in self.proc.stdout:
            if line.startswith("READY"):
                self.ready_s = time.monotonic() - self.started
            elif line.startswith("RESULT "):
                self.result = json.loads(line[len("RESULT "):])
            else:
                sys.stdout.write(line)
        self.proc.wait()
        self.timer.cancel()
        # Reap anything the child left behind in its group (e.g. a daemon).
        self.kill()
        if self.proc.returncode != 0:
            raise BenchError(
                f"{self.proc.args[3]} child exited with {self.proc.returncode}")
        if self.ready_s is None:
            raise BenchError("child never became ready")


def parent(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no source tree under {SRC}; nothing to measure")
    deadline = time.monotonic() + DEADLINE_S
    args.run_dir = RUN_DIR / f"run-{os.getpid()}"
    (ROOT / args.run_dir).mkdir(parents=True, exist_ok=True)
    try:
        return _parent_runs(args, spec, deadline)
    finally:
        shutil.rmtree(ROOT / args.run_dir, ignore_errors=True)


def _parent_runs(args, spec, deadline: float) -> int:
    if args.trace:
        run = Child(args, "traced", deadline)
        run.communicate()
        wanted = spec["per_layer"]
        metrics = run.result["metrics"]
    else:
        setups = []
        for _ in range(SETUP_REPS - 1):
            rep = Child(args, "setup", deadline)
            rep.communicate()
            setups.append(rep.ready_s)
        run = Child(args, "measure", deadline)
        run.communicate()
        setups.append(run.ready_s)
        wanted = spec["end_to_end"]
        metrics = dict(run.result["metrics"], setup_s=median(setups))
        emit("setup_s", setups)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"workload did not measure {missing}")
    result = {
        "correct": run.result["failed"] == 0,
        "attempted": int(run.result["attempted"]),
        "failed": int(run.result["failed"]),
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--child", choices=("setup", "measure", "traced"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    try:
        return child(args) if args.child else parent(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        traceback.print_exc()
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
