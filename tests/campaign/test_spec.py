"""Campaign spec expansion, validation and (de)serialization."""

import json

import pytest

from repro.campaign import CampaignSpec, demo_spec, load_spec


def keyrate_spec(**overrides):
    kwargs = dict(
        name="t",
        scenario="sim-keyrate",
        base={"duration": 6.0},
        axes={"demand_factor": [0.0, 0.5, 0.9]},
        seeds=(10, 11),
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class TestExpansion:
    def test_grid_times_seeds(self):
        spec = keyrate_spec()
        assert spec.num_points == 3
        assert spec.num_cells == 6
        cells = spec.cells()
        assert [c.index for c in cells] == list(range(6))
        # grid points outer, seeds inner
        assert [c.point for c in cells] == [0, 0, 1, 1, 2, 2]
        assert [c.seed for c in cells] == [10, 11, 10, 11, 10, 11]

    def test_params_fully_bound(self):
        cell = keyrate_spec().cells()[0]
        # defaults applied (sample_dt), base applied, axis applied
        assert cell.params["duration"] == 6.0
        assert cell.params["sample_dt"] == 1.0
        assert cell.params["demand_factor"] == 0.0
        assert cell.params["seed"] == 10

    def test_two_axes_outer_product_order(self):
        spec = keyrate_spec(
            base={}, axes={"demand_factor": [0.0, 0.5], "duration": [4.0, 6.0]}
        )
        points = spec.grid_points()
        assert points == [
            {"demand_factor": 0.0, "duration": 4.0},
            {"demand_factor": 0.0, "duration": 6.0},
            {"demand_factor": 0.5, "duration": 4.0},
            {"demand_factor": 0.5, "duration": 6.0},
        ]

    def test_chunks_cover_manifest(self):
        spec = keyrate_spec(chunk_size=4)
        chunks = spec.chunks()
        assert [len(c) for c in chunks] == [4, 2]
        assert [c.index for chunk in chunks for c in chunk] == list(range(6))


class TestCellIdentity:
    def test_stable_across_expansions(self):
        assert [c.cell_id for c in keyrate_spec().cells()] == [
            c.cell_id for c in keyrate_spec().cells()
        ]

    def test_stable_across_value_spellings(self):
        """String overrides bind through the typed spec before hashing."""
        a = keyrate_spec(base={"duration": 6.0}).cells()[0]
        b = keyrate_spec(base={"duration": "6.0"}).cells()[0]
        assert a.cell_id == b.cell_id

    def test_distinct_per_seed_and_point(self):
        ids = {c.cell_id for c in keyrate_spec().cells()}
        assert len(ids) == 6

    def test_seed_suffix(self):
        assert keyrate_spec().cells()[0].cell_id.endswith("-s10")


class TestValidation:
    def test_unknown_scenario(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            keyrate_spec(scenario="nonsense")

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            keyrate_spec(base={"bogus": 1})

    def test_seed_not_an_axis(self):
        with pytest.raises(ValueError, match="replication axis"):
            keyrate_spec(axes={"seed": [1, 2]})

    def test_base_axis_overlap(self):
        with pytest.raises(ValueError, match="both base and axes"):
            keyrate_spec(axes={"duration": [4.0, 6.0]})

    def test_duplicate_seeds(self):
        with pytest.raises(ValueError, match="duplicate"):
            keyrate_spec(seeds=(1, 1))

    def test_empty_axis(self):
        with pytest.raises(ValueError, match="no values"):
            keyrate_spec(axes={"demand_factor": []})

    def test_bad_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            keyrate_spec(chunk_size=0)

    def test_mistyped_axis_value_rejected_at_construction(self):
        with pytest.raises(ValueError, match="demand_factor"):
            keyrate_spec(axes={"demand_factor": ["lots"]})

    def test_coercion_equal_axis_spellings_rejected(self):
        """'0.5' and 0.5 bind to the same cell identity: refuse the grid
        instead of creating two points that share one artifact directory."""
        with pytest.raises(ValueError, match="duplicate"):
            keyrate_spec(axes={"demand_factor": ["0.5", 0.5]})


class TestSerialization:
    def test_round_trip(self, tmp_path):
        spec = keyrate_spec(chunk_size=5, metrics=("total_key_bits",))
        path = spec.save(tmp_path / "spec.json")
        restored = load_spec(path)
        assert restored == spec

    def test_seed_count_form(self):
        spec = CampaignSpec.from_dict({
            "name": "c", "scenario": "sim-keyrate",
            "seeds": 4, "seed_base": 100,
        })
        assert spec.seeds == (100, 101, 102, 103)

    def test_seed_base_with_explicit_list_rejected(self):
        with pytest.raises(ValueError, match="seed_base"):
            CampaignSpec.from_dict({
                "name": "c", "scenario": "sim-keyrate",
                "seeds": [1, 2], "seed_base": 5,
            })

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign spec field"):
            CampaignSpec.from_dict({
                "name": "c", "scenario": "sim-keyrate", "cells": 5,
            })

    def test_legacy_backend_key_accepted_and_ignored(self):
        """Specs saved while a solver backend was selectable still load,
        to the same spec; saving drops the key."""
        data = keyrate_spec().to_dict()
        assert "backend" not in data
        legacy = CampaignSpec.from_dict({**data, "backend": "pool"})
        assert legacy == keyrate_spec()
        assert legacy.to_dict() == data

    def test_load_from_mapping_or_file(self, tmp_path):
        data = keyrate_spec().to_dict()
        from_map = load_spec(data)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        assert load_spec(path) == from_map


class TestDemoSpec:
    def test_demo_is_small_and_valid(self):
        spec = demo_spec()
        assert spec.scenario == "sim-keyrate"
        assert spec.num_cells <= 8
        assert spec.cells()  # expands cleanly
