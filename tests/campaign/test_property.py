"""Seeded property sweep: the batched≡scalar contract on campaign cells,
and kill/resume byte-identity at randomized kill points.

Hand-rolled property testing: a seeded ``default_rng`` draws (topology,
batch size, warm-start) tuples and random kill points; failures print the
draw so they replay exactly.  Each draw costs full solves or a campaign
run, so a fixed handful of draws stands in for a hypothesis search (the
suite uses hypothesis where inputs are cheap, e.g. ``tests/compute``).
"""

import dataclasses

import numpy as np
import pytest

from repro.api.service import SolverService
from repro.campaign import CampaignRunner, CampaignSpec
from repro.campaign.runner import AGGREGATE_FILENAME
from repro.core.config import paper_config
from repro.core.quhe import QuHE
from repro.quantum.topology import QKDNetwork

OBJECTIVE_TOL = 1e-9


def small_network(num_clients: int) -> QKDNetwork:
    if num_clients == 1:
        edges = [("KC", "A", 8.0)]
        clients = ["A"]
    else:
        edges = [("KC", "A", 8.0), ("KC", "B", 10.0), ("B", "C", 7.0)]
        clients = ["A", "B", "C"]
    return QKDNetwork.from_edge_list(edges, clients, key_center="KC")


def draw_config(rng: np.random.Generator):
    seed = int(rng.integers(0, 50))
    topology = rng.choice(["paper", "small3", "small1"])
    if topology == "paper":
        cfg = paper_config(seed=seed)
    else:
        cfg = paper_config(
            seed=seed, network=small_network(3 if topology == "small3" else 1)
        )
    if rng.random() < 0.5:
        cfg = cfg.with_total_bandwidth(float(rng.uniform(0.5e7, 1.5e7)))
    if rng.random() < 0.3:
        cfg = dataclasses.replace(cfg, alpha_msl=float(rng.uniform(0.05, 0.3)))
    return cfg


class TestBatchedScalarContractOnCells:
    """Random draws of the batched≡scalar equivalence property,
    campaign-shaped: the runner's batched baseline solve hands every cell a
    batched result, so batched must agree with scalar for arbitrary
    (topology, K, warm-start) combinations."""

    @pytest.mark.parametrize("draw", range(4))
    def test_random_draw_batched_equals_scalar(self, draw):
        rng = np.random.default_rng(1000 + draw)
        k = int(rng.integers(1, 5))
        configs = [draw_config(rng) for _ in range(k)]
        warm = bool(rng.random() < 0.5)
        context = f"draw={draw} K={k} warm={warm}"

        service = SolverService()
        initials = None
        if warm:
            initials = [
                QuHE(cfg).solve().allocation.with_updates(T=None)
                for cfg in configs
            ]
        batched = service.solve_many(configs, initials=initials)
        serial = [
            QuHE(cfg).solve(None if initials is None else initials[i])
            for i, cfg in enumerate(configs)
        ]
        for i, (b, s) in enumerate(zip(batched, serial)):
            assert abs(b.objective - s.objective) <= OBJECTIVE_TOL, (
                f"{context} config={i}: objective diverged "
                f"{b.objective!r} vs {s.objective!r}"
            )
            assert np.array_equal(b.allocation.lam, s.allocation.lam), (
                f"{context} config={i}: lambda diverged"
            )


class TestRandomizedKillResume:
    """Kill a campaign at a random cell count, resume it, and demand the
    aggregate artifact match an uninterrupted run at the default chunk
    size byte for byte."""

    @pytest.fixture(scope="class")
    def spec(self):
        return CampaignSpec(
            name="kill-prop",
            scenario="sim-keyrate",
            base={"duration": 4.0},
            axes={"demand_factor": [0.0, 0.7]},
            seeds=(2, 3, 5),
        )

    @pytest.fixture(scope="class")
    def reference_bytes(self, spec, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("kill") / "reference"
        CampaignRunner(spec, out_dir=out_dir).run()
        return (out_dir / AGGREGATE_FILENAME).read_bytes()

    @pytest.mark.parametrize("draw", range(3))
    def test_random_kill_point(self, draw, spec, reference_bytes, tmp_path):
        rng = np.random.default_rng(2000 + draw)
        kill_at = int(rng.integers(1, spec.num_cells))  # 1..5 of 6 cells
        out_dir = tmp_path / f"killed-{kill_at}"
        partial = CampaignRunner(spec, out_dir=out_dir).run(max_cells=kill_at)
        assert partial.cells_completed == kill_at, f"draw={draw}"

        resumed = CampaignRunner(spec, out_dir=out_dir).run()
        assert resumed.complete, f"draw={draw} kill_at={kill_at}"
        assert (out_dir / AGGREGATE_FILENAME).read_bytes() == reference_bytes, (
            f"draw={draw} kill_at={kill_at}: resumed aggregate differs from "
            "the uninterrupted run"
        )

    def test_kill_exactly_at_chunk_boundary(
        self, spec, reference_bytes, tmp_path
    ):
        """Killing exactly at a chunk boundary must also resume cleanly.

        The killed campaign runs in chunks of 2, the reference at the
        default chunk size: the chunk size sets only how baselines are
        batched, and a baseline solves bitwise alike in any batch.
        """
        boundary_spec = dataclasses.replace(spec, chunk_size=2)
        out_dir = tmp_path / "boundary"
        CampaignRunner(boundary_spec, out_dir=out_dir).run(max_cells=2)
        resumed = CampaignRunner(boundary_spec, out_dir=out_dir).run()
        assert resumed.complete
        assert (out_dir / AGGREGATE_FILENAME).read_bytes() == reference_bytes
