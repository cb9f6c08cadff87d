"""Columnar ``ConfigBatch`` input and ``SolutionBatch`` output.

The contract: ``batch[i]`` is the i-th source config, a columnar solve
gives the same payloads as the list path, and Stage-1 sharing — the dedup
identity ``results[i].stage1 is results[j].stage1`` — survives the solve.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.api.service import config_fingerprint
from repro.core.batch import ConfigBatch, SolutionBatch
from repro.core.batched import BatchedQuHE
from repro.core.config import paper_config
from repro.compute.cost_models import f_eval_paper
from repro.io import result_from_dict, result_to_dict


@pytest.fixture(scope="module")
def sweep_cfgs():
    base = paper_config(seed=2)
    return [
        base.with_total_bandwidth(float(v))
        for v in np.linspace(0.5e7, 1.5e7, 5)
    ]


@pytest.fixture(scope="module")
def seed_cfgs():
    """Configs that differ in every Stage-3 constant a seed or the
    bandwidth moves (channel gains, upload sizes, ``B``)."""
    return [
        paper_config(seed=2),
        paper_config(seed=3).with_total_bandwidth(1.2e7),
        paper_config(seed=4).with_total_bandwidth(0.8e7),
    ]


@pytest.fixture(scope="module")
def solved(sweep_cfgs):
    return BatchedQuHE().solve_config_batch(ConfigBatch.from_configs(sweep_cfgs))


def strip_runtimes(payload):
    """Drop wall-clock fields so two separate solves compare equal."""
    if isinstance(payload, dict):
        return {
            k: strip_runtimes(v)
            for k, v in payload.items()
            if k != "runtime_s"
        }
    if isinstance(payload, list):
        return [strip_runtimes(v) for v in payload]
    return payload


class TestConfigBatch:
    def test_columns_are_contiguous_float_arrays(self, sweep_cfgs):
        batch = ConfigBatch.from_configs(sweep_cfgs)
        assert len(batch) == 5
        assert batch.num_clients == sweep_cfgs[0].num_clients
        assert batch.min_rates.shape == (5, batch.num_clients)
        assert batch.min_rates.flags["C_CONTIGUOUS"]
        assert batch.b_total.shape == (5,)
        assert batch.b_total[2] == sweep_cfgs[2].server.total_bandwidth_hz

    def test_views_fingerprint_identically(self, sweep_cfgs):
        batch = ConfigBatch.from_configs(sweep_cfgs)
        for i, cfg in enumerate(sweep_cfgs):
            assert config_fingerprint(batch[i]) == config_fingerprint(cfg)

    def test_items_are_the_source_configs(self, sweep_cfgs):
        batch = ConfigBatch.from_configs(sweep_cfgs)
        for i, cfg in enumerate(sweep_cfgs):
            assert batch[i] is cfg
        assert batch[-1] is sweep_cfgs[-1]
        assert all(a is b for a, b in zip(batch, sweep_cfgs))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ConfigBatch.from_configs([])

    def test_mixed_shapes_rejected(self):
        """One batch is one ``(num_clients, len(lambda_set))`` shape; the
        service groups mixed shapes before stacking."""
        base = paper_config(seed=2)
        shorter = dataclasses.replace(
            base,
            cost_model=dataclasses.replace(
                base.cost_model, lambda_set=base.cost_model.lambda_set[:-1]
            ),
        )
        with pytest.raises(ValueError, match="must share"):
            ConfigBatch.from_configs([base, shorter])

    def test_select_gathers_every_column(self, seed_cfgs):
        batch = ConfigBatch.from_configs(seed_cfgs)
        sub = batch.select([2, 0])
        for f in dataclasses.fields(ConfigBatch):
            if f.name.startswith("_"):
                continue
            assert np.array_equal(
                getattr(sub, f.name), getattr(batch, f.name)[[2, 0]]
            ), f.name
        assert sub[0] is seed_cfgs[2] and sub[1] is seed_cfgs[0]

    def test_stage3_constants_are_the_config_values(self, seed_cfgs):
        """The one mapping from a config to its Stage-3 constants: row i
        holds exactly config i's values, for every constant."""
        constants = ConfigBatch.from_configs(seed_cfgs).stage3_constants()
        expected = {
            "d_tr": lambda c: c.upload_bits,
            "gains": lambda c: c.channel_gains,
            "noise_psd": lambda c: [c.noise_psd],
            "kappa_c": lambda c: c.client_capacitance,
            "enc_cycles": lambda c: c.encryption_cycles,
            "kappa_s": lambda c: [c.server.switched_capacitance],
            "p_max": lambda c: c.max_power,
            "fc_max": lambda c: c.client_max_frequency,
            "b_total": lambda c: [c.server.total_bandwidth_hz],
            "fs_total": lambda c: [c.server.total_frequency_hz],
            "alpha_e": lambda c: [c.alpha_e],
            "alpha_t": lambda c: [c.alpha_t],
            "tolerance": lambda c: c.tolerance,
        }
        assert set(expected) == {
            f.name for f in dataclasses.fields(constants)
        }
        for name, value_of in expected.items():
            column = getattr(constants, name)
            assert column.dtype == float, name
            for i, cfg in enumerate(seed_cfgs):
                assert np.array_equal(
                    column[i], np.asarray(value_of(cfg), dtype=float)
                ), (name, i)

    def test_stage3_constants_are_views_of_the_columns(self, seed_cfgs):
        """Building the constants copies nothing: each one reads the
        batch's own column."""
        batch = ConfigBatch.from_configs(seed_cfgs)
        constants = batch.stage3_constants()
        for name, column in [
            ("d_tr", batch.upload_bits), ("gains", batch.channel_gains),
            ("p_max", batch.max_power), ("b_total", batch.b_total),
            ("tolerance", batch.tolerance),
        ]:
            assert np.shares_memory(getattr(constants, name), column), name

    def test_select_preserves_order_and_identity(self, sweep_cfgs):
        batch = ConfigBatch.from_configs(sweep_cfgs)
        sub = batch.select([3, 0, 4])
        assert len(sub) == 3
        assert [config_fingerprint(c) for c in sub] == [
            config_fingerprint(sweep_cfgs[i]) for i in (3, 0, 4)
        ]

    def test_closure_cost_model_is_solvable(self):
        """Stacking must not reject configs that have no stable identity —
        mirroring the FingerprintError contract for the cache."""
        base = paper_config(seed=2)

        def eval_cycles(lam):
            return f_eval_paper(lam)

        cfg = dataclasses.replace(
            base,
            cost_model=dataclasses.replace(
                base.cost_model, eval_cycles=eval_cycles
            ),
        )
        batch = ConfigBatch.from_configs([cfg, base])
        assert batch[0] is cfg
        result = BatchedQuHE().solve_config_batch(batch)[0]
        assert result.converged


class TestSolutionBatch:
    def test_views_serialize_identically_to_list_path(
        self, sweep_cfgs, solved
    ):
        """The columnar solve and the legacy list-of-results path are the
        same computation — payloads match exactly (modulo wall clock)."""
        legacy = BatchedQuHE().solve_batch(sweep_cfgs)
        for i in range(len(sweep_cfgs)):
            a = strip_runtimes(result_to_dict(legacy[i]))
            b = strip_runtimes(result_to_dict(solved[i]))
            assert a == b

    def test_stage1_sharing_survives_the_solve(self, solved):
        """A bandwidth sweep shares one Stage-1 block across its results."""
        assert solved[0].stage1 is solved[-1].stage1

    def test_jsonable_round_trip_is_exact(self, solved):
        """Each result survives its JSON text form (the campaign's chunk
        file) payload-for-payload, floats included."""
        for result in solved:
            payload = result_to_dict(result)
            restored = result_from_dict(json.loads(json.dumps(payload)))
            assert result_to_dict(restored) == payload

    def test_holds_the_results_themselves(self, solved):
        """Indexing and iteration hand out the solver's own objects; the
        batch copies nothing and rebuilds nothing per access."""
        results = list(solved)
        batch = SolutionBatch(results)
        assert len(batch) == len(results) == 5
        for i, result in enumerate(results):
            assert batch[i] is result
        assert batch[-1] is results[-1]
        assert all(a is b for a, b in zip(batch, results))

    def test_is_immutable(self, solved):
        results = list(solved)
        batch = SolutionBatch(results)
        results.pop()
        assert len(batch) == 5
        with pytest.raises(TypeError):
            batch[0] = batch[1]
        with pytest.raises(AttributeError):
            batch.extra = None

    def test_degraded_and_outer_iterations_read_the_results(self, solved):
        flagged = dataclasses.replace(solved[1], degraded=True)
        batch = SolutionBatch([solved[0], flagged, solved[2]])
        assert batch.degraded.dtype == bool
        assert batch.degraded.tolist() == [False, True, False]
        assert batch.outer_iterations.dtype == np.int64
        assert batch.outer_iterations.tolist() == [
            solved[i].outer_iterations for i in range(3)
        ]

    def test_empty_batch_has_empty_arrays(self):
        batch = SolutionBatch([])
        assert len(batch) == 0 and list(batch) == []
        assert batch.degraded.shape == (0,) and batch.degraded.dtype == bool
        assert batch.outer_iterations.shape == (0,)
        assert batch.outer_iterations.dtype == np.int64
