#!/usr/bin/env python
"""(Re)generate the Stage-3 bit pins, ``tests/core/golden/stage3_digests.json``.

Solves a fixed corpus through the production entry points and pins, per
config, one SHA-256 over its allocation arrays, ``objective_history``,
``stage3.history`` and ``stage3.transform_gap`` (the OCCR baseline has
only an allocation and objective), plus each solve's Newton iteration count
(one per Hessian assembly of the batched Stage-3 IPM).  The corpus:

* three K=1 ``paper_config`` solves;
* a K=16 bandwidth panel whose low end makes the bandwidth budget bind;
* a K=8 ``ConfigBatch``;
* four mixed-topology configs (3-6 clients, one group per shape);
* four fig3-style uniform box warm starts;
* a Stage-3 start with the bandwidth budget spent and five clients at the
  bandwidth floor;
* the fig6 OCCR path through ``baselines_batch``.

The tier-1 test ``tests/core/test_stage3_pins.py`` recomputes and compares
them.  Regenerate **only** for a change meant to move Stage-3 bits (as for
``perfbench/pins.json``), and say so in the commit message.

Usage::

    PYTHONPATH=src python scripts/gen_stage3_pins.py          # rewrite
    PYTHONPATH=src python scripts/gen_stage3_pins.py --check  # diff only
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

PINS_PATH = REPO_ROOT / "tests" / "core" / "golden" / "stage3_digests.json"

#: The fig6 bandwidth grid of the K=16 panel; at 0.5 MHz the solution
#: spends the whole bandwidth budget.
PANEL_BANDWIDTH = (0.5e6, 1.5e7)


def _digest(arrays) -> str:
    sha = hashlib.sha256()
    for arr in arrays:
        data = np.ascontiguousarray(np.asarray(arr, dtype=float))
        sha.update(str(data.shape).encode())
        sha.update(data.tobytes())
    return sha.hexdigest()


def _allocation(alloc) -> list:
    return [alloc.phi, alloc.w, alloc.lam, alloc.p, alloc.b, alloc.f_c,
            alloc.f_s, [np.nan if alloc.T is None else alloc.T]]


def result_digest(result) -> str:
    """One config's solve: allocation, objective and Stage-3 histories."""
    return _digest(_allocation(result.allocation) + [
        result.objective_history,
        result.stage3.history,
        result.stage3.transform_gap,
    ])


@contextlib.contextmanager
def newton_counter() -> Iterator[List[int]]:
    """Count Newton iterations (Hessian assemblies) of the Stage-3 IPM."""
    from repro.core import stage3_ipm

    count = [0]
    original = stage3_ipm._Subproblem.gradient_and_hessian

    def counted(self, *args, **kwargs):
        count[0] += 1
        return original(self, *args, **kwargs)

    stage3_ipm._Subproblem.gradient_and_hessian = counted
    try:
        yield count
    finally:
        stage3_ipm._Subproblem.gradient_and_hessian = original


def _solves() -> List[Tuple[str, Callable[[], List[str]]]]:
    """(name, run) pairs; each run solves and returns per-config digests."""
    from repro.api.service import SolverService
    from repro.core.baselines import baselines_batch
    from repro.core.batch import ConfigBatch
    from repro.core.config import paper_config
    from repro.core.quhe import initial_allocation
    from repro.core.stage1 import Stage1Solver
    from repro.core.stage3_ipm import solve_stage3_batch
    from repro.experiments.fig3_optimality import _random_start
    from repro.experiments.fig6_sweeps import PAPER_SWEEPS
    from repro.sim.routing import RouteController
    from repro.sim.topology import config_for_topology, make_topology

    def single(seed: int):
        return lambda: [result_digest(
            SolverService(cache_size=0).solve(paper_config(seed=seed)))]

    def panel():
        base = paper_config(seed=3)
        configs = [base.with_total_bandwidth(float(v))
                   for v in np.linspace(*PANEL_BANDWIDTH, 16)]
        return [result_digest(r)
                for r in SolverService().solve_many(configs)]

    def config_batch():
        batch = ConfigBatch.from_configs(
            [paper_config(seed=s) for s in range(10, 18)])
        solution = SolverService().solve_batch(batch)
        return [result_digest(solution[i]) for i in range(len(batch))]

    def mixed():
        configs = []
        for i, family in enumerate(("grid", "ring", "waxman", "scale-free")):
            topo = make_topology(family, num_nodes=16, num_clients=3 + i,
                                 seed=40 + i)
            routes = RouteController(topo, k=1).initial_routes()
            configs.append(config_for_topology(topo, routes, seed=50 + i))
        return [result_digest(r)
                for r in SolverService().solve_many(configs)]

    def warm_starts():
        rng = np.random.default_rng(7)
        configs, starts = [], []
        for seed in range(20, 24):
            configs.append(paper_config(seed=seed))
            starts.append(_random_start(configs[-1], rng))
        return [result_digest(r) for r in
                SolverService().solve_many(configs, initials=starts)]

    def off_domain_start():
        # Budget spent with five clients at the bandwidth floor: the rescale
        # into the budget shrinks only the excess above the floor, so the
        # start stays inside the barrier's domain.  Two Alg.-3 rounds of the
        # IPM itself.
        cfg = paper_config(seed=4)
        start = initial_allocation(cfg)
        b = np.full(cfg.num_clients, 1e3)
        b[0] = cfg.server.total_bandwidth_hz - b[1:].sum()
        out = solve_stage3_batch(
            ConfigBatch.from_configs([cfg]).stage3_constants(),
            cfg.server_cycle_demand(start.lam)[None],
            start.p[None], b[None], start.f_c[None], start.f_s[None],
            max_outer_iterations=2)
        return [_digest([out.p, out.b, out.f_c, out.f_s, out.T, out.value,
                         out.histories[0], out.transform_gaps[0]])]

    def occr():
        base = paper_config(seed=2)
        s1 = Stage1Solver(base).solve()
        configs = [base.with_total_bandwidth(float(v))
                   for v in PAPER_SWEEPS["bandwidth"]]
        out = baselines_batch(configs, stage1_results=[s1] * len(configs))
        return [_digest(_allocation(b["OCCR"].allocation) + [[b["OCCR"].objective]])
                for b in out]

    return [
        ("k1_seed0", single(0)),
        ("k1_seed1", single(1)),
        ("k1_seed2", single(2)),
        ("k16_bandwidth_panel", panel),
        ("k8_config_batch", config_batch),
        ("mixed_topologies", mixed),
        ("fig3_box_warm_starts", warm_starts),
        ("off_domain_warm_start", off_domain_start),
        ("fig6_occr_baselines", occr),
    ]


def compute_pins() -> Dict:
    """The pin payload of the current tree."""
    solves = {}
    for name, run in _solves():
        with newton_counter() as count:
            digests = run()
        solves[name] = {"newton_iterations": count[0], "digests": digests}
    return {"kind": "stage3_digests", "format_version": 1, "solves": solves}


def render(pins: Dict) -> str:
    return json.dumps(pins, indent=2) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if the committed pins differ")
    args = parser.parse_args(argv)

    rendered = render(compute_pins())
    if args.check:
        if PINS_PATH.exists() and PINS_PATH.read_text() == rendered:
            print(f"ok: {PINS_PATH}")
            return 0
        print(f"STALE: {PINS_PATH}")
        print("Stage-3 bits moved; regenerate with scripts/gen_stage3_pins.py "
              "only for a change meant to move them")
        return 1
    PINS_PATH.parent.mkdir(parents=True, exist_ok=True)
    PINS_PATH.write_text(rendered)
    print(f"wrote {PINS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
