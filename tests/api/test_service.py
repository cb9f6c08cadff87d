"""Tests for SolverService: fingerprinting, caching, batching, artifacts."""

import dataclasses

import numpy as np
import pytest

from repro.api import RunRecord, SolverService, config_fingerprint, run_scenario
from repro.api.service import FingerprintError
from repro.compute.cost_models import CostModel, f_eval_paper
from repro.core.config import paper_config


def _closure_cost_config(seed=2):
    """A config whose cost curve is a local closure (no stable identity)."""
    def eval_cycles(lam):
        return f_eval_paper(lam)

    base = paper_config(seed=seed)
    return dataclasses.replace(
        base, cost_model=dataclasses.replace(base.cost_model, eval_cycles=eval_cycles)
    )


class TestFingerprint:
    def test_stable_across_identical_configs(self):
        assert config_fingerprint(paper_config(seed=3)) == config_fingerprint(
            paper_config(seed=3)
        )

    def test_differs_across_seeds(self):
        assert config_fingerprint(paper_config(seed=3)) != config_fingerprint(
            paper_config(seed=4)
        )

    def test_sensitive_to_modified_budgets(self, typical_cfg):
        modified = typical_cfg.with_total_bandwidth(2e7)
        assert config_fingerprint(typical_cfg) != config_fingerprint(modified)

    def test_closure_cost_curve_refused(self):
        """Closures have no stable identity — never hash a memory address."""
        with pytest.raises(FingerprintError, match="no stable identity"):
            config_fingerprint(_closure_cost_config())

    def test_unserializable_component_raises_fingerprint_error(self):
        """Duck-typed components degrade to FingerprintError, not TypeError."""
        class Duck:
            pass

        with pytest.raises(FingerprintError, match="uncached"):
            config_fingerprint(Duck())


class TestCache:
    def test_cache_hit_returns_identical_object(self, typical_cfg):
        service = SolverService()
        first = service.solve(typical_cfg)
        second = service.solve(typical_cfg)
        assert second is first
        info = service.cache_info()
        assert info["hits"] == 1 and info["misses"] == 1 and info["size"] == 1

    def test_equivalent_config_instance_hits(self):
        """A freshly built but identical config hits the same cache entry."""
        service = SolverService()
        first = service.solve(paper_config(seed=2))
        second = service.solve(paper_config(seed=2))
        assert second is first

    def test_warm_start_bypasses_cache(self, typical_cfg):
        service = SolverService()
        baseline = service.solve(typical_cfg)
        (warm,) = service.solve_many(
            [typical_cfg], initials=[baseline.allocation]
        )
        assert warm is not baseline
        assert service.cache_info()["size"] == 1

    def test_unfingerprintable_config_solved_without_caching(self):
        service = SolverService()
        cfg = _closure_cost_config()
        result = service.solve(cfg)
        assert result.converged
        assert service.cache_info()["size"] == 0
        assert service.solve(cfg) is not result  # re-solved, never cached

    def test_solve_many_mixes_cacheable_and_uncacheable(self):
        service = SolverService()
        configs = [paper_config(seed=2), _closure_cost_config(), paper_config(seed=2)]
        results = service.solve_many(configs)
        assert results[0] is results[2]  # deduplicated via fingerprint
        assert service.cache_info()["size"] == 1  # closure config not cached
        assert results[1].objective == pytest.approx(results[0].objective, rel=1e-6)

    def test_lru_eviction(self):
        service = SolverService(cache_size=1)
        service.solve(paper_config(seed=2))
        service.solve(paper_config(seed=3))
        assert service.cache_info()["size"] == 1
        # seed-2 was evicted: solving it again is a miss.
        before = service.cache_info()["misses"]
        service.solve(paper_config(seed=2))
        assert service.cache_info()["misses"] == before + 1


class TestLRUResultCache:
    def test_eviction_order_is_least_recently_used(self):
        from repro.api.service import LRUResultCache

        cache = LRUResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # bump a: b becomes LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_capacity_zero_stores_nothing(self):
        from repro.api.service import LRUResultCache

        cache = LRUResultCache(capacity=0)
        cache.put("a", 1)
        assert len(cache) == 0 and cache.get("a") is None


class TestPluggableCacheBackend:
    def test_custom_backend_receives_puts_and_serves_gets(self, typical_cfg):
        class DictBackend:
            capacity = 99

            def __init__(self):
                self.store = {}

            def get(self, key):
                return self.store.get(key)

            def put(self, key, result):
                self.store[key] = result

            def clear(self):
                self.store.clear()

            def __len__(self):
                return len(self.store)

        backend = DictBackend()
        service = SolverService(cache=backend)
        assert service.cache_size == 99  # capacity read off the backend
        assert service.cache_backend is backend
        first = service.solve(typical_cfg)
        assert len(backend.store) == 1
        assert service.solve(typical_cfg) is first
        assert service.cache_info()["hits"] == 1

    def test_cache_lookup_counts_hit_and_miss(self, typical_cfg):
        service = SolverService()
        key = config_fingerprint(typical_cfg)
        assert service.cache_lookup(key) is None
        result = service.solve(typical_cfg)
        assert service.cache_lookup(key) is result
        info = service.cache_info()
        assert info["hits"] == 1 and info["misses"] == 2


class TestConcurrencySafety:
    def test_threaded_prime_and_lookup_stay_consistent(self):
        """Hammer the cache from several threads: no exceptions, size
        bounded by capacity, counters sum to the number of operations."""
        import threading

        service = SolverService(cache_size=8)
        errors = []

        def worker(tag):
            try:
                for i in range(200):
                    key = f"{tag}-{i % 16}"
                    service._cache_put(key, object())
                    service._cache_get(key)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        info = service.cache_info()
        assert info["size"] <= 8
        assert info["hits"] + info["misses"] == 4 * 200

    def test_note_coalesced_is_atomic_across_threads(self):
        import threading

        service = SolverService()
        threads = [
            threading.Thread(
                target=lambda: [service.note_coalesced() for _ in range(500)]
            )
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert service.cache_info()["coalesced"] == 2000

    def test_solve_many_duplicates_count_as_coalesced(self):
        service = SolverService()
        cfg = paper_config(seed=2)
        service.solve_many([cfg, cfg, cfg, paper_config(seed=3)])
        assert service.cache_info()["coalesced"] == 2


class TestSolveMany:
    @pytest.fixture(scope="class")
    def configs(self):
        return [paper_config(seed=s) for s in (2, 3, 2)]

    def test_matches_scalar_reference(self, configs):
        from repro.core.quhe import QuHE

        batched = SolverService().solve_many(configs)
        for cfg, result in zip(configs, batched):
            # The batched path shares the scalar core within the 1e-9
            # contract and picks the same λ.
            reference = QuHE(cfg).solve()
            assert abs(reference.objective - result.objective) <= 1e-9
            assert np.array_equal(
                reference.allocation.lam, result.allocation.lam
            )

    def test_duplicates_solved_once_and_shared(self, configs):
        service = SolverService()
        results = service.solve_many(configs)
        assert results[0] is results[2]
        assert service.cache_info()["size"] == 2

    def test_cached_entries_skip_solving(self, configs):
        service = SolverService()
        first = service.solve(configs[0])
        results = service.solve_many(configs)
        assert results[0] is first

    def test_ragged_batch_across_shape_groups(self):
        """A ragged batch spans shape groups; results keep input order."""
        from repro.quantum.topology import QKDNetwork

        small = QKDNetwork.from_edge_list(
            [("KC", "A", 8.0)], ["A"], key_center="KC"
        )
        configs = [
            paper_config(seed=2),
            paper_config(seed=5, network=small),
            paper_config(seed=3),
        ]
        results = SolverService().solve_many(configs)
        assert [r.allocation.num_clients for r in results] == [6, 1, 6]
        assert all(r.converged for r in results)

    def test_initials_must_align_with_configs(self, configs):
        with pytest.raises(ValueError, match="initials must align"):
            SolverService().solve_many(configs, initials=[None])

    def test_warm_started_duplicates_solved_separately(self, typical_cfg):
        """Warm-started entries are never merged or cached; a cold copy of
        the same config in the call still is."""
        initial = SolverService().solve(paper_config(seed=3)).allocation
        service = SolverService()
        results = service.solve_many(
            [typical_cfg, typical_cfg, typical_cfg],
            initials=[initial, initial, None],
        )
        assert len({id(r) for r in results}) == 3
        assert service.cache_info() == {
            "hits": 0, "misses": 1, "coalesced": 0, "size": 1,
        }
        assert service.solve(typical_cfg) is results[2]


class TestSolveBatch:
    """Service-level columnar entry point: ``solve_batch(ConfigBatch)``."""

    def test_matches_solve_many_and_populates_cache(self):
        from repro.core.batch import ConfigBatch, SolutionBatch

        configs = [paper_config(seed=s) for s in (2, 3)]
        reference = SolverService().solve_many(configs, use_cache=False)
        service = SolverService()
        solution = service.solve_batch(ConfigBatch.from_configs(configs))
        assert isinstance(solution, SolutionBatch)
        for view, ref in zip(solution, reference):
            assert view.objective == ref.objective
        # The batch solve primed the scalar cache: solve() now hits.
        assert service.solve(configs[0]).objective == reference[0].objective
        assert service.cache_info()["hits"] == 1

    def test_mixed_cached_and_pending_keeps_submission_order(self):
        from repro.core.batch import ConfigBatch

        service = SolverService()
        a, b, c = (paper_config(seed=s) for s in (2, 3, 4))
        service.solve(b)  # pre-cache the middle config only
        solution = service.solve_batch(ConfigBatch.from_configs([a, b, c]))
        fresh = SolverService().solve_batch(
            ConfigBatch.from_configs([a, b, c]), use_cache=False
        )
        for i in range(3):
            assert solution[i].objective == fresh[i].objective

    def test_duplicates_coalesce(self):
        from repro.core.batch import ConfigBatch

        service = SolverService()
        cfg = paper_config(seed=2)
        service.solve_batch(ConfigBatch.from_configs([cfg, cfg, cfg]))
        info = service.cache_info()
        assert info["coalesced"] == 2
        assert info["misses"] == 1


class TestOnePath:
    """All three entry points reach the same keyed batched solve."""

    def test_entry_points_give_equivalent_payloads(self):
        """A config gets the same answer alone, in a list and in a
        columnar batch (bytes equal modulo wall-clock fields)."""
        from repro import io as repro_io
        from repro.core.batch import ConfigBatch
        from repro.serve.bench import payloads_equivalent

        a, cfg, b = (paper_config(seed=s) for s in (3, 2, 4))
        alone = SolverService().solve(cfg)
        in_list = SolverService().solve_many([a, cfg, b])[1]
        in_batch = SolverService().solve_batch(
            ConfigBatch.from_configs([a, cfg, b])
        )[1]
        reference = repro_io.result_to_dict(alone)
        for other in (in_list, in_batch):
            assert payloads_equivalent(
                reference, repro_io.result_to_dict(other)
            )

    def test_failed_batch_falls_back_per_config(self):
        """A SolverError re-solves the batch config by config: a config
        that fails again alone degrades to SLSQP, the rest finish on the
        primary path."""
        from repro.faults import FaultPlan, FaultRule

        configs = [paper_config(seed=s) for s in (2, 3)]
        # Two Stage-3 failures: the batch of two, then the first config
        # alone; the second config then solves cleanly.
        plan = FaultPlan(rules=(FaultRule(
            seam="solver.stage3", kind="solver_fail", max_fires=2),))
        with plan.activate():
            results = SolverService().solve_many(configs)
        assert [r.degraded for r in results] == [True, False]
        assert all(r.converged for r in results)

    def test_batch_of_one_degrades_directly(self, typical_cfg):
        """A failed batch of one is already a per-config failure: it goes
        straight to SLSQP instead of retrying the same batched solve."""
        from repro.faults import FaultPlan, FaultRule

        plan = FaultPlan(rules=(FaultRule(
            seam="solver.stage3", kind="solver_fail", max_fires=1),))
        with plan.activate():
            result = SolverService().solve(typical_cfg)
        assert result.degraded and result.converged

    def test_transient_batch_failure_degrades_nothing(self):
        """One failed vectorized pass re-solves every config alone on the
        primary path, to the answers a clean batch gives."""
        from repro import io as repro_io
        from repro.faults import FaultPlan, FaultRule
        from repro.serve.bench import payloads_equivalent

        configs = [paper_config(seed=s) for s in (2, 3, 4)]
        plan = FaultPlan(rules=(FaultRule(
            seam="solver.stage3", kind="solver_fail", max_fires=1),))
        with plan.activate():
            recovered = SolverService().solve_many(configs)
        clean = SolverService().solve_many(configs)
        assert not any(r.degraded for r in recovered)
        for got, want in zip(recovered, clean):
            assert payloads_equivalent(
                repro_io.result_to_dict(want), repro_io.result_to_dict(got)
            )

    def test_solve_batch_fallback_keeps_columnar_result(self):
        """The per-config fallback still answers a ConfigBatch with a
        SolutionBatch, degraded flags included, and caches it."""
        from repro.core.batch import ConfigBatch, SolutionBatch
        from repro.faults import FaultPlan, FaultRule

        configs = [paper_config(seed=s) for s in (2, 3)]
        plan = FaultPlan(rules=(FaultRule(
            seam="solver.stage3", kind="solver_fail", max_fires=2),))
        service = SolverService()
        with plan.activate():
            solution = service.solve_batch(ConfigBatch.from_configs(configs))
        assert isinstance(solution, SolutionBatch)
        assert solution.degraded.tolist() == [True, False]
        assert service.solve(configs[0]).degraded
        assert service.cache_info()["hits"] == 1

    @pytest.mark.parametrize("entry", ["solve", "solve_many", "solve_batch"])
    def test_use_cache_false_neither_reads_nor_writes(self, entry):
        """``use_cache=False`` solves past a cached entry and stores
        nothing, on every entry point."""
        from repro.core.batch import ConfigBatch

        cached, fresh = paper_config(seed=2), paper_config(seed=3)
        service = SolverService()
        first = service.solve(cached)
        if entry == "solve":
            results = [service.solve(cached, use_cache=False),
                       service.solve(fresh, use_cache=False)]
        elif entry == "solve_many":
            results = service.solve_many([cached, fresh], use_cache=False)
        else:
            solution = service.solve_batch(
                ConfigBatch.from_configs([cached, fresh]), use_cache=False
            )
            results = [solution[0], solution[1]]
        assert results[0] is not first
        assert results[0].objective == first.objective
        assert service.cache_info() == {
            "hits": 0, "misses": 1, "coalesced": 0, "size": 1,
        }

    @pytest.mark.parametrize("entry", ["solve", "solve_many", "solve_batch"])
    def test_worker_solve_seam_fires_per_solved_config(self, entry):
        """``worker.solve`` fires once per config the service solves, on
        every entry point — never for cache hits or in-batch duplicates."""
        from repro.core.batch import ConfigBatch
        from repro.errors import FaultInjected
        from repro.faults import FaultPlan, FaultRule

        cached, fresh = paper_config(seed=3), paper_config(seed=2)

        def call(service):
            if entry == "solve":
                return [service.solve(cached), service.solve(fresh)]
            if entry == "solve_many":
                return service.solve_many([cached, fresh, fresh])
            return service.solve_batch(
                ConfigBatch.from_configs([cached, fresh, fresh])
            )

        raising = FaultPlan(rules=(
            FaultRule(seam="worker.solve", kind="raise"),))
        with raising.activate(), pytest.raises(FaultInjected):
            call(SolverService())
        service = SolverService()
        service.solve(cached)
        counting = FaultPlan(rules=(
            FaultRule(seam="worker.solve", kind="hang", max_fires=0),))
        with counting.activate() as injector:
            call(service)
        assert injector.fire_counts() == {"worker.solve": 1}


class TestRunRecords:
    def test_record_contains_params_seed_result_timings(self, tmp_path):
        record = run_scenario("fig3", {"samples": 2, "seed": 1})
        assert record.scenario == "fig3"
        assert record.seed == 1
        assert record.params["samples"] == 2
        assert record.runtime_s > 0
        payload = record.to_dict()
        assert payload["result"]["kind"] == "optimality_study"

    def test_save_and_load_roundtrip(self, tmp_path):
        record = run_scenario("fig3", {"samples": 2, "seed": 1})
        target = record.save(tmp_path)
        assert (target / "record.json").exists()
        assert (target / "result.json").exists()
        loaded = RunRecord.load(target)
        assert loaded.scenario == record.scenario
        assert loaded.params == record.params
        assert np.allclose(loaded.result.values, record.result.values)

    def test_load_ignores_legacy_backend_key(self, tmp_path):
        """Records written while runs recorded a solver backend load."""
        import json

        record = run_scenario("fig3", {"samples": 2, "seed": 1})
        target = record.save(tmp_path)
        path = target / "record.json"
        data = json.loads(path.read_text())
        data["backend"] = "batched"
        path.write_text(json.dumps(data))
        loaded = RunRecord.load(target)
        assert loaded.run_id == record.run_id
        assert "backend" not in loaded.to_dict()

    def test_out_dir_plumbing(self, tmp_path):
        record = run_scenario("fig3", {"samples": 2}, out_dir=str(tmp_path))
        assert (tmp_path / record.run_id / "record.json").exists()

    def test_record_carries_cache_stats_delta(self, tmp_path):
        """Scenario runs record the solver-cache activity they caused."""
        from repro.api.scenarios import SERVICE

        SERVICE.clear_cache()
        first = run_scenario("solve", {"seed": 6})
        assert first.cache_stats == {"hits": 0, "misses": 1, "coalesced": 0}
        second = run_scenario("solve", {"seed": 6})
        assert second.cache_stats == {"hits": 1, "misses": 0, "coalesced": 0}
        target = second.save(tmp_path)
        assert RunRecord.load(target).cache_stats == second.cache_stats

    def test_identical_runs_get_distinct_run_ids(self, tmp_path):
        """Same scenario + params within one second must not overwrite."""
        first = run_scenario("fig3", {"samples": 2}, out_dir=str(tmp_path))
        second = run_scenario("fig3", {"samples": 2}, out_dir=str(tmp_path))
        assert first.run_id != second.run_id
        assert len(list(tmp_path.glob("*/record.json"))) == 2
