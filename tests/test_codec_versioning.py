"""Codec version gating: every registered kind, both directions.

The contract: a payload whose ``format_version`` differs from the codec's
— older (written by a past release) or newer (written by a future one) —
must raise a clear ``ValueError`` naming the kind and versions, and must
never reach the decoder where it could silently mis-parse.

These tests are *generated over the registry* (``registered_kinds``), so a
newly added codec (e.g. ``campaign_result`` in this PR) is covered the
moment it registers, with no per-kind test to forget.
"""

import json

import pytest

from repro.errors import ArtifactError
from repro.io import (
    _CODECS_BY_KIND,
    load_result,
    registered_kinds,
    result_from_dict,
    result_to_dict,
)

#: Every codec kind the platform ships.
EXPECTED_KINDS = {
    "ablation_suite", "adaptive_sim_study", "allocation", "campaign_result",
    "convergence_traces", "dynamic_study", "fig5_bundle",
    "method_comparison", "metrics", "optimality_study", "pipeline_report",
    "quhe_result", "report_bundle", "simulation_result",
    "stage1_method_comparison", "stage1_result", "stage2_result",
    "stage3_result", "stage_call_report", "sweep_series", "sweep_set",
}


def all_kinds():
    return registered_kinds()


class TestRegistryCoverage:
    def test_expected_kinds_present(self):
        assert EXPECTED_KINDS <= set(all_kinds())

    def test_every_codec_declares_a_positive_version(self):
        registered_kinds()  # force built-in registration
        for kind, codec in _CODECS_BY_KIND.items():
            assert isinstance(codec.version, int) and codec.version >= 1, kind


class TestVersionGating:
    """No codec may decode a payload from a different format version."""

    @pytest.mark.parametrize("kind", all_kinds())
    def test_newer_version_rejected_with_clear_error(self, kind):
        """A v-old reader meeting a v-new payload must fail loudly."""
        codec = _CODECS_BY_KIND[kind]
        payload = {"kind": kind, "format_version": codec.version + 1}
        with pytest.raises(ValueError) as excinfo:
            result_from_dict(payload)
        message = str(excinfo.value)
        assert kind in message
        assert "version" in message
        assert str(codec.version) in message  # says what *is* supported

    @pytest.mark.parametrize("kind", all_kinds())
    def test_older_version_rejected_with_clear_error(self, kind):
        """A v-new reader meeting a v-old payload must fail loudly, never
        guess its way through a stale schema."""
        codec = _CODECS_BY_KIND[kind]
        payload = {"kind": kind, "format_version": codec.version - 1}
        with pytest.raises(ValueError, match="version"):
            result_from_dict(payload)

    @pytest.mark.parametrize("kind", all_kinds())
    def test_missing_version_rejected(self, kind):
        with pytest.raises(ValueError, match="version"):
            result_from_dict({"kind": kind})

    def test_unknown_kind_lists_known_kinds(self):
        with pytest.raises(ValueError, match="campaign_result"):
            result_from_dict({"kind": "no_such_kind", "format_version": 1})

    @pytest.mark.parametrize("kind", ["config_batch", "solution_batch"])
    def test_retired_batch_kind_rejected_naming_the_file(self, kind, tmp_path):
        """The columnar batch kinds are no longer registered: an artifact
        left over from them fails as an unknown kind, with its path named,
        instead of decoding as anything."""
        assert kind not in registered_kinds()
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps({"kind": kind, "format_version": 1}))
        with pytest.raises(ArtifactError, match="unknown result kind") as exc:
            load_result(path)
        assert str(path) in str(exc.value)


class TestRoundTripVersionStamp:
    """Encoded payloads carry the codec's version, and a stamped payload
    with a bumped version no longer round-trips."""

    def test_campaign_result_roundtrip_and_bump(self):
        from repro.campaign.result import CampaignResult, GridPointAggregate

        result = CampaignResult(
            name="t", scenario="sim-keyrate", base={"duration": 4.0},
            axes={"demand_factor": [0.0, 0.5]}, seeds=[1, 2],
            cells_total=4, cells_completed=4,
            points=[GridPointAggregate(
                params={"demand_factor": 0.0},
                metrics={"total_key_bits": {
                    "count": 2, "mean": 10.0, "std": 1.0, "min": 9.0,
                    "max": 11.0, "ci95": 0.5, "p05": 9.1, "p50": 10.0,
                    "p95": 10.9,
                }},
            )],
        )
        payload = result_to_dict(result)
        assert payload["kind"] == "campaign_result"
        assert payload["format_version"] == 1
        restored = result_from_dict(payload)
        assert result_to_dict(restored) == payload
        # Aggregates written before the solver backend selector was removed
        # carry a "backend" key; they still decode.
        legacy = dict(payload, backend="auto")
        assert result_to_dict(result_from_dict(legacy)) == payload

        stale = dict(payload)
        stale["format_version"] = 0  # a past release's artifact
        with pytest.raises(ValueError, match="campaign_result.*version"):
            result_from_dict(stale)
        future = dict(payload)
        future["format_version"] = 2  # a future release's artifact
        with pytest.raises(ValueError, match="campaign_result.*version"):
            result_from_dict(future)

    @pytest.mark.parametrize(
        "kind,builder",
        [
            ("allocation", "alloc"),
            ("metrics", "metrics"),
            ("quhe_result", "quhe"),
            ("simulation_result", "sim"),
        ],
    )
    def test_real_payload_with_bumped_version_rejected(
        self, kind, builder, quhe_result
    ):
        if builder == "alloc":
            obj = quhe_result.allocation
        elif builder == "metrics":
            obj = quhe_result.metrics
        elif builder == "quhe":
            obj = quhe_result
        else:
            from repro.api.service import SolverService
            from repro.experiments.simulation import run_keyrate_sim

            obj = run_keyrate_sim(
                seed=2, duration_s=4.0, service=SolverService()
            )
        payload = result_to_dict(obj)
        assert payload["kind"] == kind
        payload["format_version"] += 1
        with pytest.raises(ValueError, match="version"):
            result_from_dict(payload)
