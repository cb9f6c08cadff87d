"""Tests for the scenario registry and result round-trips.

The headline guarantee: every registered scenario's result object survives
``repro.io`` serialization (`to_dict`/`from_dict`) bit-for-bit at the
payload level.
"""

import pytest

from repro.api import REGISTRY, get_scenario, scenario_names
from repro.api.registry import ParamSpec, Scenario, ScenarioRegistry
from repro.io import result_from_dict, result_to_dict

EXPECTED_SCENARIOS = {
    "solve", "table5", "table6", "fig3", "fig4", "fig5", "fig6",
    "ablations", "dynamic", "pipeline", "report",
}


class TestRegistryContents:
    def test_all_paper_scenarios_registered(self):
        assert EXPECTED_SCENARIOS <= set(scenario_names())

    def test_every_scenario_has_seed_parameter(self):
        """The seed is a per-scenario parameter, recorded with every run."""
        for scenario in REGISTRY:
            assert "seed" in scenario.param_names, scenario.name

    def test_aliases_resolve(self):
        for scenario in REGISTRY:
            for alias in scenario.aliases:
                assert get_scenario(alias) is scenario

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("nonsense")


class TestParamSpec:
    def test_typed_parse(self):
        spec = ParamSpec("samples", int, 10)
        assert spec.parse("42") == 42
        with pytest.raises(ValueError, match="cannot parse"):
            spec.parse("many")

    @pytest.mark.parametrize("text,expected", [
        ("true", True), ("1", True), ("yes", True),
        ("false", False), ("0", False), ("off", False),
    ])
    def test_bool_parse(self, text, expected):
        spec = ParamSpec("flag", bool, True)
        assert spec.parse(text) is expected

    def test_bool_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="boolean"):
            ParamSpec("flag", bool, True).parse("maybe")

    def test_choices_enforced(self):
        spec = ParamSpec("panel", str, "all", choices=("all", "bandwidth"))
        assert spec.parse("bandwidth") == "bandwidth"
        with pytest.raises(ValueError, match="not one of"):
            spec.parse("power")

    def test_default_must_be_a_choice(self):
        with pytest.raises(ValueError, match="not in choices"):
            ParamSpec("panel", str, "nope", choices=("all",))

    def test_reserved_names_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            ParamSpec("json", bool, False)

    def test_validate_rejects_wrongly_typed_values(self):
        with pytest.raises(ValueError, match="expected int"):
            ParamSpec("workers", int, 1).validate(2.5)
        with pytest.raises(ValueError, match="expected bool"):
            ParamSpec("flag", bool, True).validate(1)
        assert ParamSpec("rate", float, 1.0).validate(2) == 2.0


class TestBinding:
    def test_defaults_applied(self):
        scenario = get_scenario("fig3")
        bound = scenario.bind({})
        assert bound["samples"] == 20
        assert bound["seed"] == 2

    def test_override_validated_and_typed(self):
        scenario = get_scenario("fig3")
        bound = scenario.bind({"samples": "7"})
        assert bound["samples"] == 7

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            get_scenario("solve").bind({"bogus": 1})

    def test_wrongly_typed_override_rejected_at_bind(self):
        with pytest.raises(ValueError, match="expected int"):
            get_scenario("fig6").bind({"seed": 2.5})

    def test_registry_rejects_duplicate_names(self):
        registry = ScenarioRegistry()
        scenario = Scenario(
            name="x", help="", run=lambda: None, render=str,
        )
        registry.register(scenario)
        with pytest.raises(ValueError, match="already registered"):
            registry.register(Scenario(name="x", help="", run=lambda: None, render=str))


class TestResultRoundTrips:
    """Every scenario result must survive to_dict → from_dict losslessly."""

    @pytest.mark.parametrize("name", sorted(EXPECTED_SCENARIOS))
    def test_payload_roundtrip(self, name, scenario_result):
        result = scenario_result(name)
        payload = result_to_dict(result)
        assert payload["kind"]
        assert payload["format_version"] == 1
        restored = result_from_dict(payload)
        assert type(restored) is type(result)
        assert result_to_dict(restored) == payload

    @pytest.mark.parametrize("name", sorted(EXPECTED_SCENARIOS))
    def test_render_accepts_result(self, name, scenario_result):
        scenario = get_scenario(name)
        text = scenario.render(scenario_result(name))
        assert isinstance(text, str) and text
