"""Campaign runner: persistence, resume, aggregation, byte-identity."""

import dataclasses
import json

import numpy as np
import pytest

from repro.api.service import SolverService
from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    campaign_report,
    campaign_status,
    resume_campaign,
    run_campaign,
)
from repro.campaign.runner import AGGREGATE_FILENAME, MANIFEST_FILENAME
from repro.campaign.spec import DEFAULT_CHUNK_SIZE
from repro.core.config import paper_config
from repro.faults import FaultPlan, FaultRule
from repro.io import result_from_dict, result_to_dict


@pytest.fixture(scope="module")
def spec():
    return CampaignSpec(
        name="runner-t",
        scenario="sim-keyrate",
        base={"duration": 5.0},
        axes={"demand_factor": [0.0, 0.6]},
        seeds=(2, 3),
    )


@pytest.fixture(scope="module")
def completed_dir(spec, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("campaign") / "full"
    CampaignRunner(spec, out_dir=out_dir).run()
    return out_dir


def counting_fires(run, *seams):
    """Call ``run()``; return its result and how often each of ``seams``
    was hit (a no-op ``hang`` rule fires at every hit and changes nothing)."""
    counting = FaultPlan(rules=tuple(
        FaultRule(seam=seam, kind="hang", max_fires=0) for seam in seams))
    with counting.activate() as injector:
        result = run()
    counts = injector.fire_counts()
    return result, [counts.get(seam, 0) for seam in seams]


def halved_rates(result):
    """``result`` with its entanglement rates halved: a wrong baseline that
    changes what a simulation delivers (seeds share φ and w, so another
    seed's result would not)."""
    allocation = result.allocation
    return dataclasses.replace(
        result, allocation=allocation.with_updates(phi=allocation.phi / 2))


def resume_counting_solves(out_dir):
    """Resume ``out_dir``; return the result and how many configs it solved
    (counted by ``worker.solve`` fires)."""
    result, (solved,) = counting_fires(
        lambda: resume_campaign(out_dir), "worker.solve")
    return result, solved


class TestArtifacts:
    def test_layout(self, spec, completed_dir):
        assert sorted(p.name for p in completed_dir.iterdir()) == [
            AGGREGATE_FILENAME, MANIFEST_FILENAME, "cells"]
        for cell in spec.cells():
            cell_dir = completed_dir / "cells" / cell.cell_id
            assert (cell_dir / "record.json").exists()
            assert (cell_dir / "result.json").exists()

    def test_manifest_contents(self, spec, completed_dir):
        manifest = json.loads((completed_dir / MANIFEST_FILENAME).read_text())
        assert manifest["kind"] == "campaign_manifest"
        assert manifest["spec"]["name"] == spec.name
        assert [c["id"] for c in manifest["cells"]] == [
            c.cell_id for c in spec.cells()
        ]

    def test_cell_records_carry_params_and_seed(self, spec, completed_dir):
        cell = spec.cells()[0]
        record = json.loads(
            (completed_dir / "cells" / cell.cell_id / "record.json").read_text()
        )
        assert record["scenario"] == "sim-keyrate"
        assert record["params"] == cell.params
        assert record["seed"] == cell.seed
        assert record["result"]["kind"] == "simulation_result"

    def test_aggregate_is_a_campaign_result_payload(self, completed_dir):
        payload = json.loads((completed_dir / AGGREGATE_FILENAME).read_text())
        assert payload["kind"] == "campaign_result"
        restored = result_from_dict(payload)
        assert restored.complete
        assert result_to_dict(restored) == payload

    def test_mixing_campaigns_in_one_dir_rejected(self, spec, completed_dir):
        other = CampaignSpec(
            name="other", scenario="sim-keyrate", seeds=(2,),
            base={"duration": 4.0},
        )
        with pytest.raises(ValueError, match="different campaign"):
            CampaignRunner(other, out_dir=completed_dir).run()


class TestAggregation:
    def test_grid_and_replication_counts(self, spec, completed_dir):
        result = campaign_report(completed_dir)
        assert result.cells_total == result.cells_completed == 4
        assert len(result.points) == 2
        for point in result.points:
            for stats in point.metrics.values():
                assert stats["count"] == 2

    def test_means_match_cell_metrics(self, spec, completed_dir):
        """The streamed mean equals the plain average of the cell values."""
        from repro.api.artifacts import RunRecord
        from repro.campaign.metrics import scalar_metrics

        result = campaign_report(completed_dir)
        cells = spec.cells()
        point0 = [c for c in cells if c.point == 0]
        values = [
            scalar_metrics(
                RunRecord.load(completed_dir / "cells" / c.cell_id).result
            )["total_key_bits"]
            for c in point0
        ]
        expected = sum(values) / len(values)
        assert result.points[0].metrics["total_key_bits"]["mean"] == pytest.approx(
            expected, rel=1e-12
        )

    def test_wall_clock_metrics_excluded(self, completed_dir):
        result = campaign_report(completed_dir)
        for name in result.metric_names:
            assert "wall" not in name and "runtime" not in name

    def test_metric_filter(self, tmp_path):
        spec = CampaignSpec(
            name="filtered", scenario="sim-keyrate", seeds=(2,),
            base={"duration": 4.0}, metrics=("total_key_bits",),
        )
        result = CampaignRunner(spec, out_dir=tmp_path / "f").run()
        assert result.metric_names == ["total_key_bits"]

    def test_metric_filter_typo_fails_loudly(self, tmp_path):
        """A filter matching nothing must raise (naming what exists), not
        emit a metric-less aggregate after all the cell compute."""
        spec = CampaignSpec(
            name="typo", scenario="sim-keyrate", seeds=(2,),
            base={"duration": 4.0}, metrics=("total_keybits",),
        )
        with pytest.raises(ValueError, match="total_key_bits"):
            CampaignRunner(spec, out_dir=tmp_path / "t").run()

    def test_band_accessors(self, completed_dir):
        point = campaign_report(completed_dir).points[0]
        lo, hi = point.band("total_key_bits")
        mean = point.mean("total_key_bits")
        assert lo <= mean <= hi
        assert hi - mean == pytest.approx(point.ci95("total_key_bits"))


class TestResume:
    def test_kill_and_resume_byte_identical(self, spec, completed_dir, tmp_path):
        """A campaign killed mid-flight and resumed must write the same
        aggregate bytes as an uninterrupted run.  The resume solves the
        2 distinct baselines of its 2 pending cells, and nothing else."""
        killed = tmp_path / "killed"
        partial = CampaignRunner(spec, out_dir=killed).run(max_cells=2)
        assert partial.cells_completed == 2
        assert not partial.complete

        status = campaign_status(killed)
        assert status.cells_completed == 2
        assert len(status.pending_cell_ids) == 2

        resumed, solved = resume_counting_solves(killed)
        assert resumed.complete
        assert solved == 2
        assert (killed / AGGREGATE_FILENAME).read_bytes() == (
            completed_dir / AGGREGATE_FILENAME
        ).read_bytes()

    @pytest.mark.parametrize("chunk_size", [1, 2, 3])
    def test_aggregate_bytes_equal_across_chunk_sizes(
        self, spec, completed_dir, tmp_path, chunk_size
    ):
        """A baseline solves bitwise alike in any batch, so the chunk size
        (which sets the batches) leaves the aggregate bytes as they are at
        the default size."""
        assert spec.chunk_size == DEFAULT_CHUNK_SIZE
        out_dir = tmp_path / f"chunk-{chunk_size}"
        sized = dataclasses.replace(spec, chunk_size=chunk_size)
        assert CampaignRunner(sized, out_dir=out_dir).run().complete
        assert (out_dir / AGGREGATE_FILENAME).read_bytes() == (
            completed_dir / AGGREGATE_FILENAME
        ).read_bytes()

    def test_each_baseline_solved_once_per_run(self, tmp_path):
        """Seeds recur across chunks here (three chunks, two seeds in
        each); every distinct baseline is solved once in the whole run,
        counted by ``worker.solve`` fires."""
        spec = CampaignSpec(
            name="recur", scenario="sim-keyrate", base={"duration": 4.0},
            axes={"demand_factor": [0.0, 0.3, 0.6]}, seeds=(2, 3),
            chunk_size=2,
        )
        assert len(spec.chunks()) == 3
        result, (solved,) = counting_fires(
            CampaignRunner(spec, out_dir=tmp_path / "recur").run,
            "worker.solve")
        assert result.complete
        assert solved == 2

    def test_stale_service_entry_never_reaches_the_aggregate(
        self, spec, completed_dir, tmp_path
    ):
        """The shared scenario service may hold a result from an earlier
        run in this process.  A wrong result primed there for a baseline
        before the run (its rates halved, which the simulation would
        deliver) leaves the aggregate bytes unchanged: the runner solves
        its baselines with the cache disabled."""
        from repro.api.scenarios import SERVICE

        config = paper_config(seed=2)
        SERVICE.prime(config, halved_rates(SolverService().solve(config)))
        try:
            out_dir = tmp_path / "stale"
            assert CampaignRunner(spec, out_dir=out_dir).run().complete
        finally:
            SERVICE.clear_cache()
        assert (out_dir / AGGREGATE_FILENAME).read_bytes() == (
            completed_dir / AGGREGATE_FILENAME
        ).read_bytes()

    def test_directory_of_the_chunk_file_layout_resumes_untouched(
        self, spec, completed_dir, tmp_path
    ):
        """Directories written while the runner kept its baseline solves in
        ``canonical/chunk_NNNNN.json`` files (and, before that, ``.npz``
        files) resume to the reference bytes.  The runner never reads,
        writes or deletes that directory: its chunk file here holds wrong
        baselines, which would change the aggregate if read."""
        out_dir = tmp_path / "chunk-layout"
        CampaignRunner(spec, out_dir=out_dir).run(max_cells=2)
        canonical = out_dir / "canonical"
        canonical.mkdir()
        wrong = SolverService().solve_many(
            [paper_config(seed=seed) for seed in (2, 3)], use_cache=False)
        (canonical / "chunk_00000.json").write_text(json.dumps(
            [result_to_dict(halved_rates(r)) for r in wrong]))
        header = {"kind": "solution_batch", "format_version": 1, "meta": {}}
        np.savez(canonical / "chunk_00000.npz", objective=np.zeros(2),
                 __meta__=np.asarray(json.dumps(header)))
        before = {p.name: p.read_bytes() for p in canonical.iterdir()}
        assert sorted(before) == ["chunk_00000.json", "chunk_00000.npz"]

        resumed = resume_campaign(out_dir)
        assert resumed.complete
        assert {p.name: p.read_bytes() for p in canonical.iterdir()} == before
        assert (out_dir / AGGREGATE_FILENAME).read_bytes() == (
            completed_dir / AGGREGATE_FILENAME
        ).read_bytes()

    def test_resume_legacy_directory_with_backend_keys(
        self, spec, completed_dir, tmp_path
    ):
        """Directories written while specs and records still named a solver
        backend resume without re-running their cells, to the same
        aggregate bytes as an uninterrupted run."""
        legacy = tmp_path / "legacy"
        CampaignRunner(spec, out_dir=legacy).run(max_cells=2)
        manifest_path = legacy / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        manifest["spec"]["backend"] = "auto"
        manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
        records = sorted((legacy / "cells").rglob("record.json"))
        assert len(records) == 2
        for path in records:
            record = json.loads(path.read_text())
            record["backend"] = "batched"
            path.write_text(json.dumps(record, indent=2) + "\n")
        before = {p: p.stat().st_mtime_ns for p in records}

        resumed = resume_campaign(legacy)
        assert resumed.complete
        assert {p: p.stat().st_mtime_ns for p in records} == before
        assert (legacy / AGGREGATE_FILENAME).read_bytes() == (
            completed_dir / AGGREGATE_FILENAME
        ).read_bytes()

    def test_legacy_manifest_of_another_campaign_still_refused(
        self, spec, tmp_path
    ):
        """Ignoring the legacy ``backend`` key does not loosen the
        different-campaign guard: any other spec difference still refuses."""
        out_dir = tmp_path / "legacy-other"
        CampaignRunner(spec, out_dir=out_dir).run(max_cells=1)
        manifest_path = out_dir / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        manifest["spec"]["backend"] = "auto"
        manifest["spec"]["seeds"] = [2, 3, 4]
        manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
        with pytest.raises(ValueError, match="different campaign"):
            CampaignRunner(spec, out_dir=out_dir).run()

    def test_resume_skips_completed_cells(self, spec, completed_dir):
        """Re-running a complete campaign must not re-execute any cell."""
        before = {
            p: p.stat().st_mtime_ns
            for p in (completed_dir / "cells").rglob("record.json")
        }
        result = CampaignRunner(spec, out_dir=completed_dir).run()
        assert result.complete
        after = {
            p: p.stat().st_mtime_ns
            for p in (completed_dir / "cells").rglob("record.json")
        }
        assert before == after

    def test_corrupt_cell_artifact_reruns(self, spec, tmp_path):
        out_dir = tmp_path / "corrupt"
        CampaignRunner(spec, out_dir=out_dir).run()
        victim = spec.cells()[1]
        record = out_dir / "cells" / victim.cell_id / "record.json"
        record.write_text('{"kind": "run_record", "truncated')  # killed mid-write
        runner = CampaignRunner(spec, out_dir=out_dir)
        status = runner.status()
        assert status.pending_cell_ids == [victim.cell_id]
        result = runner.run()
        assert result.complete
        assert json.loads(record.read_text())["scenario"] == "sim-keyrate"

    def test_fresh_reexecutes_everything(self, spec, tmp_path):
        out_dir = tmp_path / "fresh"
        CampaignRunner(spec, out_dir=out_dir).run()
        before = {
            p: p.stat().st_mtime_ns
            for p in (out_dir / "cells").rglob("record.json")
        }
        CampaignRunner(spec, out_dir=out_dir).run(resume=False)
        after = {
            p: p.stat().st_mtime_ns
            for p in (out_dir / "cells").rglob("record.json")
        }
        assert set(before) == set(after)
        assert all(after[p] > before[p] for p in before)


class TestInMemory:
    def test_run_without_out_dir(self):
        spec = CampaignSpec(
            name="mem", scenario="sim-keyrate", seeds=(2,),
            base={"duration": 4.0},
        )
        result = run_campaign(spec)
        assert result.complete
        assert result.cells_total == 1

    def test_progress_callback_counts_cells(self, tmp_path):
        spec = CampaignSpec(
            name="prog", scenario="sim-keyrate", seeds=(2, 3),
            base={"duration": 4.0},
        )
        ticks = []
        run_campaign(spec, out_dir=tmp_path / "p",
                     progress=lambda done, total: ticks.append((done, total)))
        assert ticks == [(1, 2), (2, 2)]
        # resuming ticks through loaded cells too
        ticks.clear()
        run_campaign(spec, out_dir=tmp_path / "p",
                     progress=lambda done, total: ticks.append((done, total)))
        assert ticks == [(1, 2), (2, 2)]


class TestDirectoryHelpers:
    def test_status_on_non_campaign_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="not a campaign"):
            campaign_status(tmp_path)

    def test_render_status(self, completed_dir):
        text = campaign_status(completed_dir).render()
        assert "4/4" in text and "complete" in text

    def test_render_result(self, completed_dir):
        text = campaign_report(completed_dir).render()
        assert "total_key_bits" in text
        assert "ci95" in text
