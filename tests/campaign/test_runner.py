"""Campaign runner: persistence, resume, aggregation, byte-identity."""

import json
import shutil
from pathlib import Path

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
from repro.campaign.runner import (
    AGGREGATE_FILENAME,
    CANONICAL_DIRNAME,
    MANIFEST_FILENAME,
)
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


def resume_counting_solves(out_dir):
    """Resume ``out_dir``; return the result and how many configs it solved
    (counted by ``worker.solve`` fires)."""
    result, (solved,) = counting_fires(
        lambda: resume_campaign(out_dir), "worker.solve")
    return result, solved


def strip_runtimes(payload):
    """Drop wall-clock fields so two separate solves compare equal."""
    if isinstance(payload, dict):
        return {
            k: strip_runtimes(v) for k, v in payload.items() if k != "runtime_s"
        }
    if isinstance(payload, list):
        return [strip_runtimes(v) for v in payload]
    return payload


def chunk_payloads(out_dir):
    """The quhe_result payloads of ``out_dir``'s first canonical chunk."""
    path = out_dir / CANONICAL_DIRNAME / "chunk_00000.json"
    return json.loads(path.read_text())


class TestArtifacts:
    def test_layout(self, spec, completed_dir):
        assert (completed_dir / MANIFEST_FILENAME).exists()
        assert (completed_dir / AGGREGATE_FILENAME).exists()
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

    def test_canonical_chunk_holds_the_baseline_solves(self, completed_dir):
        """The chunk file keeps one quhe_result payload per distinct
        baseline config, in first-use order: the exact results of solving
        those configs together (wall-clock fields aside)."""
        configs = [paper_config(seed=seed) for seed in (2, 3)]
        fresh = SolverService().solve_many(configs, use_cache=False)
        assert [strip_runtimes(p) for p in chunk_payloads(completed_dir)] == [
            strip_runtimes(result_to_dict(r)) for r in fresh
        ]

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
        aggregate bytes as an uninterrupted run, and the resume solves no
        config: it decodes the intact canonical chunk instead."""
        killed = tmp_path / "killed"
        partial = CampaignRunner(spec, out_dir=killed).run(max_cells=2)
        assert partial.cells_completed == 2
        assert not partial.complete
        chunk = json.loads(
            (killed / CANONICAL_DIRNAME / "chunk_00000.json").read_text()
        )
        assert [p["kind"] for p in chunk] == ["quhe_result"] * 2

        status = campaign_status(killed)
        assert status.cells_completed == 2
        assert len(status.pending_cell_ids) == 2

        resumed, solved = resume_counting_solves(killed)
        assert resumed.complete
        assert solved == 0
        assert (killed / AGGREGATE_FILENAME).read_bytes() == (
            completed_dir / AGGREGATE_FILENAME
        ).read_bytes()

    @pytest.mark.parametrize("damage", [
        "npz", "torn", "empty", "object", "short", "wrong_kind",
        "future_version", "malformed",
    ])
    def test_unreadable_chunk_is_solved_again(
        self, spec, completed_dir, tmp_path, damage
    ):
        """A chunk that does not decode to one quhe_result per config is
        ignored: the old npz format, a torn or empty file, a JSON object, too
        few payloads, payloads of another kind or format version, or a
        payload missing a field.  The resume solves the chunk's configs
        again, to the same bytes."""
        out_dir = tmp_path / damage
        CampaignRunner(spec, out_dir=out_dir).run(max_cells=2)
        chunk = out_dir / CANONICAL_DIRNAME / "chunk_00000.json"
        payloads = chunk_payloads(out_dir)
        if damage == "npz":
            chunk.unlink()
            header = {"kind": "solution_batch", "format_version": 1,
                      "meta": {}}
            np.savez(chunk.with_suffix(".npz"), objective=np.zeros(2),
                     __meta__=np.asarray(json.dumps(header)))
        elif damage == "torn":
            text = chunk.read_text()
            chunk.write_text(text[: len(text) // 2])
        elif damage == "empty":
            chunk.write_bytes(b"")
        elif damage == "object":
            chunk.write_text(json.dumps(dict(zip("ab", payloads))))
        elif damage == "short":
            chunk.write_text(json.dumps(payloads[:1]))
        elif damage == "wrong_kind":
            stage1 = [result_to_dict(result_from_dict(p).stage1)
                      for p in payloads]
            chunk.write_text(json.dumps(stage1))
        elif damage == "future_version":
            for p in payloads:
                p["format_version"] += 1
            chunk.write_text(json.dumps(payloads))
        else:
            del payloads[1]["metrics"]
            chunk.write_text(json.dumps(payloads))

        resumed, solved = resume_counting_solves(out_dir)
        assert resumed.complete
        assert solved == 2
        assert (out_dir / AGGREGATE_FILENAME).read_bytes() == (
            completed_dir / AGGREGATE_FILENAME
        ).read_bytes()
        assert len(json.loads(chunk.read_text())) == 2

    def test_chunk_file_draws_no_artifact_write_decision(
        self, spec, completed_dir, tmp_path
    ):
        """Neither writing nor reading the chunk file hits the
        ``artifact.write`` fault seam: a run that finds its chunk on disk
        makes as many seam draws as one that solves and writes it, so a
        fault plan makes the same decisions in both."""
        fresh_dir = tmp_path / "fresh"
        _, (fresh_draws,) = counting_fires(
            CampaignRunner(spec, out_dir=fresh_dir).run, "artifact.write")

        cached_dir = tmp_path / "cached"
        (cached_dir / CANONICAL_DIRNAME).mkdir(parents=True)
        shutil.copy(
            completed_dir / CANONICAL_DIRNAME / "chunk_00000.json",
            cached_dir / CANONICAL_DIRNAME,
        )
        result, (cached_draws, solved) = counting_fires(
            CampaignRunner(spec, out_dir=cached_dir).run,
            "artifact.write", "worker.solve")
        assert result.complete
        assert solved == 0
        assert cached_draws == fresh_draws > 0
        for out_dir in (fresh_dir, cached_dir):
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
