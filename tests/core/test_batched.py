"""Batched ≡ scalar equivalence for the vectorized solver core.

The contract (ISSUE 4 acceptance): for any batch of configurations, the
batched backend must produce objectives within 1e-9 of the scalar
:class:`~repro.core.quhe.QuHE` solver and select *identical* Stage-2 λ
assignments.  The scalar Stage-3 path runs the same interior-point core
with a batch of one, so these are genuine end-to-end properties of the
shared algorithm, tested across seeds, batch shapes (K = 1, K = 64,
ragged), client counts and mixed topologies.
"""

import dataclasses

import numpy as np
import pytest

from repro.api.service import SolverService
from repro.core.batched import BatchedQuHE
from repro.core.config import paper_config
from repro.core.quhe import QuHE
from repro.experiments.fig3_optimality import _random_start
from repro.quantum.topology import QKDNetwork
from repro.utils.rng import as_generator, spawn_generators
from repro.wireless.pathloss import rayleigh_power_gain

#: Acceptance bound on |F_batched − F_scalar|.
OBJECTIVE_TOL = 1e-9


def solve_batch(configs):
    """One fresh :class:`BatchedQuHE` pass over ``configs``."""
    return BatchedQuHE().solve_batch(configs)


def small_network(num_clients: int) -> QKDNetwork:
    """A line/star network with ``num_clients`` routes (≠ the paper's 6)."""
    if num_clients == 1:
        edges = [("KC", "A", 8.0)]
        clients = ["A"]
    elif num_clients == 3:
        edges = [("KC", "A", 8.0), ("KC", "B", 10.0), ("B", "C", 7.0)]
        clients = ["A", "B", "C"]
    else:
        raise ValueError(num_clients)
    return QKDNetwork.from_edge_list(edges, clients, key_center="KC")


def assert_equivalent(scalar, batched):
    __tracebackhide__ = True
    assert abs(scalar.objective - batched.objective) <= OBJECTIVE_TOL, (
        f"objective diverged: scalar {scalar.objective!r} "
        f"vs batched {batched.objective!r}"
    )
    assert np.array_equal(scalar.allocation.lam, batched.allocation.lam), (
        f"λ diverged: scalar {scalar.allocation.lam} "
        f"vs batched {batched.allocation.lam}"
    )
    for field in ("p", "b", "f_c", "f_s"):
        a = getattr(scalar.allocation, field)
        b = getattr(batched.allocation, field)
        assert np.allclose(a, b, rtol=1e-6, atol=0.0), f"{field} diverged"


class TestSeedSweep:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_batch_of_one_matches_scalar(self, seed):
        cfg = paper_config(seed=seed)
        scalar = QuHE(cfg).solve()
        batched = solve_batch([cfg])[0]
        assert_equivalent(scalar, batched)
        assert batched.converged
        assert batched.stage2_calls == scalar.stage2_calls

    def test_mixed_seed_batch(self):
        cfgs = [paper_config(seed=s) for s in (1, 2, 3, 4, 5)]
        batched = solve_batch(cfgs)
        for cfg, b in zip(cfgs, batched):
            assert_equivalent(QuHE(cfg).solve(), b)


class TestBatchShapes:
    def test_k64_bandwidth_sweep_spot_checked(self, typical_cfg):
        grid = np.linspace(0.5e7, 1.5e7, 64)
        cfgs = [typical_cfg.with_total_bandwidth(float(v)) for v in grid]
        batched = solve_batch(cfgs)
        assert all(r.converged for r in batched)
        # The batch axis must not leak between configs: spot-check scalar
        # equivalence at the edges and interior points.
        for i in (0, 17, 31, 48, 63):
            assert_equivalent(QuHE(cfgs[i]).solve(), batched[i])
        # Objectives respond monotonically-ish to more bandwidth.
        objectives = [r.objective for r in batched]
        assert objectives[-1] > objectives[0]

    def test_batch_order_is_preserved(self, typical_cfg):
        cfgs = [
            typical_cfg.with_total_bandwidth(1.5e7),
            typical_cfg.with_total_bandwidth(0.5e7),
            typical_cfg.with_total_bandwidth(1.0e7),
        ]
        results = solve_batch(cfgs)
        fingerprints = [r.objective for r in results]
        again = solve_batch(list(reversed(cfgs)))
        assert fingerprints == pytest.approx(
            [r.objective for r in reversed(again)], abs=OBJECTIVE_TOL
        )

    def test_k1_equals_k64_member(self, typical_cfg):
        """A config solves bitwise alike alone and inside a large batch:
        objective, every allocation array, T, the objective history and
        the outer iteration count.  Campaign resume byte-identity rests on
        this (``repro.campaign.runner``)."""
        grid = np.linspace(0.5e7, 1.5e7, 64)
        cfgs = [typical_cfg.with_total_bandwidth(float(v)) for v in grid]
        full = solve_batch(cfgs)
        for i in (0, 17, 31, 63):
            lone = solve_batch([cfgs[i]])[0]
            member = full[i]
            assert lone.objective == member.objective, i
            for field in ("phi", "w", "lam", "p", "b", "f_c", "f_s"):
                assert np.array_equal(
                    getattr(lone.allocation, field),
                    getattr(member.allocation, field),
                ), (i, field)
            assert lone.allocation.T == member.allocation.T, i
            assert lone.objective_history == member.objective_history, i
            assert lone.outer_iterations == member.outer_iterations, i


class TestMixedTopologies:
    def test_ragged_batch_groups_by_shape(self):
        cfgs = [
            paper_config(seed=2),
            paper_config(seed=2, network=small_network(3)),
            paper_config(seed=3),
            paper_config(seed=4, network=small_network(1)),
            paper_config(seed=2, network=small_network(3)).with_total_bandwidth(
                0.8e7
            ),
        ]
        batched = solve_batch(cfgs)
        assert [r.allocation.num_clients for r in batched] == [6, 3, 6, 1, 3]
        for cfg, b in zip(cfgs, batched):
            assert_equivalent(QuHE(cfg).solve(), b)

    @pytest.mark.parametrize("perm_seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_ragged_results_follow_submission_order(self, perm_seed):
        """Regression (ISSUE 10): shape-group batching internally reorders a
        mixed-topology batch into per-shape groups; results must come back
        in the caller's submission order, not the grouped order.  Shuffle a
        [6, 3, 6, 1, 3]-client batch many ways and pin each slot to the
        result its config produced in the canonical order."""
        base = [
            paper_config(seed=2),
            paper_config(seed=2, network=small_network(3)),
            paper_config(seed=3),
            paper_config(seed=4, network=small_network(1)),
            paper_config(
                seed=2, network=small_network(3)
            ).with_total_bandwidth(0.8e7),
        ]
        canonical = solve_batch(base)
        order = list(range(len(base)))
        np.random.default_rng(perm_seed).shuffle(order)
        shuffled = solve_batch([base[i] for i in order])
        for slot, src in enumerate(order):
            want, got = canonical[src], shuffled[slot]
            assert got.allocation.num_clients == base[src].num_clients
            assert got.objective == pytest.approx(
                want.objective, abs=OBJECTIVE_TOL
            )
            assert np.array_equal(
                got.allocation.lam, want.allocation.lam
            )

    def test_stage1_shared_across_identical_qkd_blocks(self, typical_cfg):
        """Sweep configs share one Stage-1 solve (the block is decoupled)."""
        cfgs = [
            typical_cfg.with_total_bandwidth(v) for v in (0.5e7, 1.0e7, 1.5e7)
        ]
        results = solve_batch(cfgs)
        assert results[0].stage1 is results[1].stage1 is results[2].stage1


class TestColumnarEntryPoints:
    def test_solve_batch_accepts_config_batch(self, typical_cfg):
        from repro.core.batch import ConfigBatch

        cfgs = [
            typical_cfg.with_total_bandwidth(v) for v in (0.6e7, 1.2e7)
        ]
        from_list = BatchedQuHE().solve_batch(cfgs)
        from_batch = BatchedQuHE().solve_batch(ConfigBatch.from_configs(cfgs))
        for a, b in zip(from_list, from_batch):
            assert a.objective == b.objective
            assert np.array_equal(a.allocation.lam, b.allocation.lam)

    def test_solve_config_batch_returns_solution_batch(self, typical_cfg):
        from repro.core.batch import ConfigBatch, SolutionBatch

        cfgs = [
            typical_cfg.with_total_bandwidth(v) for v in (0.6e7, 1.2e7)
        ]
        solution = BatchedQuHE().solve_config_batch(
            ConfigBatch.from_configs(cfgs)
        )
        assert isinstance(solution, SolutionBatch)
        legacy = BatchedQuHE().solve_batch(cfgs)
        assert [r.objective for r in solution] == [
            r.objective for r in legacy
        ]


class TestWarmStarts:
    def test_initials_match_scalar_warm_start(self, typical_cfg):
        warm_cfg = dataclasses.replace(typical_cfg, alpha_msl=0.05)
        base = QuHE(typical_cfg).solve().allocation.with_updates(T=None)
        scalar = QuHE(warm_cfg).solve(base)
        batched = BatchedQuHE().solve_batch([warm_cfg], initials=[base])[0]
        assert_equivalent(scalar, batched)

    def test_random_box_starts_match_scalar(self):
        """Fig. 3's uniform starts inside the feasible box, not optima."""
        configs, starts = [], []
        for rng in spawn_generators(0, 4):
            cfg = paper_config(seed=rng)
            configs.append(cfg)
            starts.append(_random_start(cfg, rng))
        batched = BatchedQuHE().solve_batch(configs, starts)
        for cfg, start, b in zip(configs, starts, batched):
            assert_equivalent(QuHE(cfg).solve(start), b)

    def test_member_solves_bitwise_as_alone(self):
        """Batch-mates never change a config's result.  A config centered
        at its final barrier weight must sit out while the others climb:
        this draw's fourth epoch moves by ~1e-6 if it keeps iterating."""
        cfg = paper_config(seed=0)
        rng = as_generator(0)
        faded = [
            dataclasses.replace(
                cfg,
                channel_gains=cfg.channel_gains
                * rayleigh_power_gain(rng, size=cfg.num_clients),
            )
            for _ in range(4)
        ]
        warm = solve_batch([cfg])[0].allocation.with_updates(T=None)
        together = BatchedQuHE().solve_batch(faded, [warm] * 4)
        for config, member in zip(faded, together):
            alone = BatchedQuHE().solve_batch([config], [warm])[0]
            assert member.objective == alone.objective
            for field in ("lam", "p", "b", "f_c", "f_s"):
                assert np.array_equal(
                    getattr(member.allocation, field),
                    getattr(alone.allocation, field),
                ), field

    def test_initials_length_mismatch_rejected(self, typical_cfg):
        with pytest.raises(ValueError):
            BatchedQuHE().solve_batch([typical_cfg], initials=[None, None])


class TestService:
    def test_service_matches_scalar(self, typical_cfg):
        cfgs = [
            typical_cfg.with_total_bandwidth(v) for v in (0.6e7, 1.2e7)
        ]
        results = SolverService().solve_many(cfgs, use_cache=False)
        for cfg, batched in zip(cfgs, results):
            assert_equivalent(QuHE(cfg).solve(), batched)

    def test_batched_results_populate_cache(self, typical_cfg):
        service = SolverService()
        first = service.solve_many([typical_cfg])
        again = service.solve(typical_cfg)
        assert again is first[0]
