"""Tests for JSON serialization of allocations and metrics."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.problem import QuHEProblem
from repro.io import (
    allocation_from_dict,
    allocation_to_dict,
    load_allocation,
    load_result,
    metrics_from_dict,
    metrics_to_dict,
    register_codec,
    registered_kinds,
    result_from_dict,
    result_to_dict,
    save_allocation,
    save_result,
)
from repro.serve.cache import SqliteResultCache

CORPUS = Path(__file__).resolve().parent / "golden_codecs"


class TestAllocationRoundtrip:
    def test_dict_roundtrip(self, quhe_result):
        alloc = quhe_result.allocation
        restored = allocation_from_dict(allocation_to_dict(alloc))
        assert np.allclose(restored.phi, alloc.phi)
        assert np.allclose(restored.w, alloc.w)
        assert np.allclose(restored.lam, alloc.lam)
        assert np.allclose(restored.p, alloc.p)
        assert np.allclose(restored.b, alloc.b)
        assert np.allclose(restored.f_c, alloc.f_c)
        assert np.allclose(restored.f_s, alloc.f_s)
        assert restored.T == pytest.approx(alloc.T)

    def test_file_roundtrip(self, quhe_result, tmp_path):
        path = tmp_path / "allocation.json"
        save_allocation(quhe_result.allocation, path)
        restored = load_allocation(path)
        assert np.allclose(restored.phi, quhe_result.allocation.phi)

    def test_restored_allocation_reproduces_objective(
        self, typical_cfg, quhe_result, tmp_path
    ):
        path = tmp_path / "allocation.json"
        save_allocation(quhe_result.allocation, path)
        restored = load_allocation(path)
        problem = QuHEProblem(typical_cfg)
        assert problem.objective(restored) == pytest.approx(quhe_result.objective)

    def test_metrics_embedded(self, quhe_result, tmp_path):
        path = tmp_path / "with_metrics.json"
        save_allocation(quhe_result.allocation, path, metrics=quhe_result.metrics)
        payload = json.loads(path.read_text())
        assert payload["metrics"]["objective"] == pytest.approx(quhe_result.objective)
        assert len(payload["metrics"]["per_node"]["tr_delay"]) == 6

    def test_lam_serialized_as_ints(self, quhe_result):
        data = allocation_to_dict(quhe_result.allocation)
        assert all(isinstance(v, int) for v in data["lam"])


class TestResultCodecs:
    """The generic codec layer added for the scenario registry."""

    def test_every_experiment_kind_registered(self):
        kinds = registered_kinds()
        for expected in (
            "allocation", "metrics", "quhe_result", "stage1_result",
            "stage1_method_comparison", "optimality_study",
            "convergence_traces", "stage_call_report", "method_comparison",
            "fig5_bundle", "sweep_series", "sweep_set", "ablation_suite",
            "dynamic_study", "pipeline_report", "report_bundle",
            "simulation_result", "adaptive_sim_study", "campaign_result",
        ):
            assert expected in kinds

    def test_metrics_roundtrip(self, quhe_result):
        payload = result_to_dict(quhe_result.metrics)
        restored = result_from_dict(payload)
        assert restored.objective == pytest.approx(quhe_result.metrics.objective)
        assert np.allclose(restored.tr_delay, quhe_result.metrics.tr_delay)

    def test_quhe_result_roundtrip(self, quhe_result):
        payload = result_to_dict(quhe_result)
        assert payload["kind"] == "quhe_result"
        restored = result_from_dict(payload)
        assert restored.objective == pytest.approx(quhe_result.objective)
        assert restored.converged == quhe_result.converged
        assert restored.stage2.nodes_explored == quhe_result.stage2.nodes_explored
        assert np.allclose(restored.stage1.phi, quhe_result.stage1.phi)
        assert result_to_dict(restored) == payload

    def test_file_roundtrip(self, quhe_result, tmp_path):
        path = save_result(quhe_result, tmp_path / "result.json")
        restored = load_result(path)
        assert restored.objective == pytest.approx(quhe_result.objective)

    def test_unregistered_type_rejected(self):
        with pytest.raises(TypeError, match="no codec"):
            result_to_dict(object())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown result kind"):
            result_from_dict({"kind": "nonsense", "format_version": 1})

    def test_wrong_version_rejected(self, quhe_result):
        payload = result_to_dict(quhe_result)
        payload["format_version"] = 99
        with pytest.raises(ValueError, match="version"):
            result_from_dict(payload)

    def test_hand_written_pair_still_registers(self):
        class Celsius:
            def __init__(self, degrees):
                self.degrees = degrees

        register_codec(
            "test_celsius", Celsius,
            lambda c: {"deg": c.degrees}, lambda d: Celsius(d["deg"]),
            version=2,
        )
        payload = result_to_dict(Celsius(21.5))
        assert payload == {"deg": 21.5, "kind": "test_celsius",
                           "format_version": 2}
        assert result_from_dict(payload).degrees == 21.5
        with pytest.raises(ValueError, match="malformed test_celsius payload"):
            result_from_dict({"kind": "test_celsius", "format_version": 2})

    def test_field_driven_form_needs_a_dataclass(self):
        class Plain:
            pass

        with pytest.raises(TypeError, match="not a dataclass"):
            register_codec("test_plain", Plain)
        with pytest.raises(ValueError, match="both encode and decode"):
            register_codec("test_plain", Plain, lambda p: {})


class TestValidation:
    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            allocation_from_dict({"kind": "metrics", "format_version": 1})

    def test_wrong_version_rejected(self, quhe_result):
        data = allocation_to_dict(quhe_result.allocation)
        data["format_version"] = 99
        with pytest.raises(ValueError, match="version"):
            allocation_from_dict(data)

    def test_missing_field_rejected(self, quhe_result):
        data = allocation_to_dict(quhe_result.allocation)
        del data["phi"]
        with pytest.raises(ValueError, match="missing"):
            allocation_from_dict(data)

    def test_file_without_allocation_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="no 'allocation'"):
            load_allocation(path)


def _unconverged_stage3(result):
    return dataclasses.replace(
        result, stage3=dataclasses.replace(result.stage3, converged=False)
    )


class TestStage3Converged:
    """A Stage 3 the batched IPM marked non-converged stays non-converged
    through every JSON path (the npz path keeps it in ``s3_converged``)."""

    def test_dict_round_trip(self, quhe_result):
        payload = result_to_dict(_unconverged_stage3(quhe_result))
        restored = result_from_dict(json.loads(json.dumps(payload)))
        assert restored.stage3.converged is False

    def test_file_round_trip(self, quhe_result, tmp_path):
        path = save_result(_unconverged_stage3(quhe_result), tmp_path / "r.json")
        assert load_result(path).stage3.converged is False

    def test_sqlite_cache_round_trip(self, quhe_result, tmp_path):
        cache = SqliteResultCache(str(tmp_path / "results.db"))
        cache.put("k", _unconverged_stage3(quhe_result))
        assert cache.get("k").stage3.converged is False

    def test_payload_without_the_field_decodes_converged(self):
        payload = json.loads((CORPUS / "stage3_result.json").read_text())
        del payload["converged"]
        assert result_from_dict(payload).converged is True

    def test_earlier_cache_row_decodes_as_before(self, tmp_path):
        """A cache row written before the field was encoded decodes to the
        same result, with ``stage3.converged`` read as True."""
        current = json.loads((CORPUS / "quhe_result.json").read_text())
        earlier = json.loads(json.dumps(current))
        del earlier["stage3"]["converged"]
        cache = SqliteResultCache(str(tmp_path / "results.db"))
        cache.put_payload("k", earlier)
        assert result_to_dict(cache.get("k")) == current
