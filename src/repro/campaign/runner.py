"""Campaign execution: chunked, resumable, artifact-first.

The runner turns a :class:`~repro.campaign.spec.CampaignSpec` into work:

* the cell manifest is split into fixed-size **chunks** (manifest order);
* before a chunk's pending cells run, the baseline configurations they
  need and this run has not solved yet are solved in one
  :meth:`~repro.api.service.SolverService.solve_many` call and installed
  into the service cache with
  :meth:`~repro.api.service.SolverService.prime` — one vectorized solve
  per chunk instead of one cold scalar solve per cell (the
  campaign-vs-naive speedup in ``BENCH_campaign.json``);
* each cell is a normal scenario execution recorded as a
  :class:`~repro.api.artifacts.RunRecord` under a **stable** cell id, so a
  killed campaign resumes by skipping every cell whose artifact already
  exists and re-running the rest.

Resume is *byte-exact*: a configuration solves bitwise alike alone and in
any batch, and aggregation folds cells in manifest order, so the
aggregates of a resumed campaign equal an uninterrupted run's bit for bit,
whatever the chunk size.

Artifact layout (``out_dir``)::

    campaign.json            # spec + expanded cell manifest
    cells/<cell_id>/
        record.json          # RunRecord: params + seed + timings + result
        result.json          # bare repro.io payload
    cells_failed/<cell_id>/
        error.json           # exception chain of a quarantined cell
    aggregate.json           # campaign_result payload (rewritten per run)

Failure semantics (``docs/robustness.md``): every cell gets
``spec.max_retries`` attempts (artifact saves additionally retry transient
IO under a short backoff); a cell that exhausts its budget is *quarantined*
— its exception chain lands in ``cells_failed/<cell_id>/error.json``, the
campaign keeps running, and both ``status`` and ``aggregate.json`` report
the hole.  A later resume re-attempts quarantined cells and clears their
quarantine entry on success.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro import faults as _faults
from repro.api.artifacts import RECORD_FILENAME, RunRecord, record_run
from repro.campaign.result import CampaignResult, aggregate_cells
from repro.campaign.spec import (
    LEGACY_SPEC_KEYS,
    CampaignSpec,
    Cell,
    load_spec,
)
from repro.io import atomic_write_text, result_to_dict
from repro.utils.retry import RetryPolicy, retry_call

PathLike = Union[str, Path]

__all__ = [
    "CampaignRunner",
    "CampaignStatus",
    "campaign_report",
    "campaign_status",
    "resume_campaign",
    "run_campaign",
]

MANIFEST_FILENAME = "campaign.json"
AGGREGATE_FILENAME = "aggregate.json"
CELLS_DIRNAME = "cells"
FAILED_DIRNAME = "cells_failed"
ERROR_FILENAME = "error.json"

#: Backoff for artifact writes hit by transient IO errors: short, because a
#: torn write on a local filesystem either clears immediately or never.
_SAVE_RETRY = dict(max_attempts=3, base_s=0.01, cap_s=0.05)

#: Scenarios whose baseline configuration is ``paper_config(seed=seed)``:
#: their cells' solves are primed in one batch per chunk.  Other scenarios
#: run unprimed (still chunked, persisted and resumable).
_CONFIG_BY_SEED = ("solve", "sim-keyrate", "sim-outage", "sim-adaptive")

#: ``progress(done_cells, total_cells)`` as cell results become available.
ProgressCallback = Callable[[int, int], None]


def _baseline_config(scenario: str, params: Dict[str, Any]):
    if scenario in _CONFIG_BY_SEED:
        from repro.core.config import paper_config

        return paper_config(seed=int(params["seed"]))
    return None


def _write_json(path: Path, payload: Dict[str, Any]) -> None:
    """Durable JSON write (tmp + fsync + replace), retried on transient IO."""
    text = json.dumps(payload, indent=2) + "\n"
    retry_call(
        atomic_write_text, path, text,
        policy=RetryPolicy(**_SAVE_RETRY), what=f"write {path.name}",
    )


def _exception_chain(exc: BaseException) -> List[Dict[str, str]]:
    """The ``raise … from …`` chain as JSON-ready ``{type, message}`` rows."""
    chain: List[Dict[str, str]] = []
    seen: set = set()
    current: Optional[BaseException] = exc
    while current is not None and id(current) not in seen:
        seen.add(id(current))
        chain.append(
            {"type": type(current).__name__, "message": str(current)}
        )
        current = current.__cause__ or current.__context__
    return chain


@dataclass(frozen=True)
class CampaignStatus:
    """Where a (possibly interrupted) campaign stands."""

    name: str
    scenario: str
    cells_total: int
    cells_completed: int
    pending_cell_ids: List[str]
    #: pending cells that are additionally quarantined (a subset of
    #: ``pending_cell_ids``: a resume re-attempts them)
    failed_cell_ids: List[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.pending_cell_ids

    def render(self) -> str:
        lines = [
            f"campaign {self.name!r} ({self.scenario}): "
            f"{self.cells_completed}/{self.cells_total} cells complete"
        ]
        if self.failed_cell_ids:
            preview = ", ".join(self.failed_cell_ids[:6])
            if len(self.failed_cell_ids) > 6:
                preview += f", … ({len(self.failed_cell_ids)} quarantined)"
            lines.append(
                f"quarantined ({FAILED_DIRNAME}/<id>/{ERROR_FILENAME}): "
                f"{preview}"
            )
        if self.pending_cell_ids:
            preview = ", ".join(self.pending_cell_ids[:6])
            if len(self.pending_cell_ids) > 6:
                preview += f", … ({len(self.pending_cell_ids)} pending)"
            lines.append(f"pending: {preview}")
        else:
            lines.append("complete")
        return "\n".join(lines) + "\n"


class CampaignRunner:
    """Execute one campaign, resumably, through the scenario layer."""

    def __init__(
        self,
        spec: CampaignSpec,
        *,
        out_dir: Optional[PathLike] = None,
    ) -> None:
        # The cells' run functions solve through the shared scenario-layer
        # service, so that is the cache the baselines are primed into.
        from repro.api.scenarios import SERVICE as service  # noqa: N811

        if service.cache_size < spec.chunk_size:
            raise ValueError(
                f"service cache ({service.cache_size}) smaller than one "
                f"chunk ({spec.chunk_size}): primed baselines would be "
                "evicted before their cells run"
            )
        self.spec = spec
        self.service = service
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.chunks: List[List[Cell]] = spec.chunks()
        self.manifest: List[Cell] = [c for chunk in self.chunks for c in chunk]
        #: baseline results solved this run, keyed by config fingerprint
        self._baselines: Dict[str, Any] = {}
        #: in-memory results of cells executed (or loaded) this run
        self._results: Dict[int, Any] = {}
        #: cells quarantined this run (index -> final exception), for
        #: in-memory campaigns (``out_dir=None``) where no error.json exists
        self._failed: Dict[int, BaseException] = {}

    # -- baselines ------------------------------------------------------------

    def _prime_baselines(self, cells: List[Cell]) -> None:
        """Prime the shared service with the baseline solves of ``cells``.

        Baselines not yet solved this run are solved in one
        ``solve_many`` call with the cache disabled, because the shared
        service may hold an entry from an earlier run in this process (a
        degraded result under a fault plan, say).  The results stay in
        :attr:`_baselines`, so LRU eviction in the shared cache never
        swaps one for a re-solve.  A config solves bitwise alike in any
        batch, so neither the chunk size nor which cells a resume left
        pending changes a result's bits.
        """
        from repro.api.service import config_fingerprint

        configs: Dict[str, Any] = {}
        for cell in cells:
            config = _baseline_config(cell.scenario, cell.params)
            if config is not None:
                configs[config_fingerprint(config)] = config
        unsolved = [fp for fp in configs if fp not in self._baselines]
        if unsolved:
            results = self.service.solve_many(
                [configs[fp] for fp in unsolved], use_cache=False
            )
            self._baselines.update(zip(unsolved, results))
        for fp, config in configs.items():
            self.service.prime(config, self._baselines[fp])

    # -- persistence ----------------------------------------------------------

    def _cell_dir(self, cell: Cell) -> Optional[Path]:
        if self.out_dir is None:
            return None
        return self.out_dir / CELLS_DIRNAME / cell.cell_id

    def load_cell(self, cell: Cell):
        """The persisted result of ``cell``, or None when absent/corrupt.

        A half-written artifact (killed mid-save) simply fails to load and
        the cell re-runs — resume never trusts an unreadable record.
        """
        cell_dir = self._cell_dir(cell)
        if cell_dir is None:
            return None
        try:
            return RunRecord.load(cell_dir).result
        except Exception:
            return None

    def cell_complete(self, cell: Cell) -> bool:
        """Cheap completion probe: the record parses as a run record.

        ``status`` on a large campaign must not pay full codec decoding
        per cell; this only JSON-parses ``record.json``.  ``run`` still
        decodes deeply (via :meth:`load_cell`) before trusting a cell.
        """
        if cell.index in self._results:
            return True
        cell_dir = self._cell_dir(cell)
        if cell_dir is None:
            return False
        try:
            data = json.loads((cell_dir / RECORD_FILENAME).read_text())
        except Exception:
            return False
        return data.get("kind") == "run_record" and "result" in data

    def _save_cell(self, cell: Cell, record: RunRecord) -> None:
        if self.out_dir is not None:
            retry_call(
                record.save, self.out_dir / CELLS_DIRNAME,
                dirname=cell.cell_id,
                policy=RetryPolicy(**_SAVE_RETRY),
                what=f"save cell {cell.cell_id}",
            )

    # -- quarantine -----------------------------------------------------------

    def _quarantine_dir(self, cell: Cell) -> Optional[Path]:
        if self.out_dir is None:
            return None
        return self.out_dir / FAILED_DIRNAME / cell.cell_id

    def _quarantine_cell(
        self, cell: Cell, exc: BaseException, attempts: int
    ) -> None:
        """Record a cell's terminal failure and move on with the campaign."""
        self._failed[cell.index] = exc
        target = self._quarantine_dir(cell)
        if target is None:
            return
        target.mkdir(parents=True, exist_ok=True)
        _write_json(target / ERROR_FILENAME, {
            "kind": "campaign_cell_failure",
            "format_version": 1,
            "cell_id": cell.cell_id,
            "index": cell.index,
            "scenario": cell.scenario,
            "params": cell.params,
            "attempts": attempts,
            "error_chain": _exception_chain(exc),
        })

    def _clear_quarantine(self, cell: Cell) -> None:
        self._failed.pop(cell.index, None)
        target = self._quarantine_dir(cell)
        if target is not None and target.exists():
            shutil.rmtree(target, ignore_errors=True)

    def cell_failed(self, cell: Cell) -> bool:
        """Quarantined (this run, or by a previous run) and not completed."""
        if self.cell_complete(cell):
            return False
        if cell.index in self._failed:
            return True
        target = self._quarantine_dir(cell)
        return target is not None and (target / ERROR_FILENAME).exists()

    def failed_cells(self) -> List[str]:
        """Quarantined-and-incomplete cell ids, manifest order."""
        return [
            cell.cell_id for cell in self.manifest if self.cell_failed(cell)
        ]

    def _write_manifest(self) -> None:
        if self.out_dir is None:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / MANIFEST_FILENAME
        payload = {
            "kind": "campaign_manifest",
            "format_version": 1,
            "spec": self.spec.to_dict(),
            "cells": [
                {"index": c.index, "point": c.point, "id": c.cell_id,
                 "params": c.params}
                for c in self.manifest
            ],
        }
        if path.exists():
            try:
                existing = json.loads(path.read_text())
            except json.JSONDecodeError:
                # A torn manifest (crash mid-write before atomic writes, or
                # an injected fault) carries no identity to compare against;
                # rewriting it is the only way forward.
                existing = {"spec": payload["spec"]}
            spec = existing.get("spec")
            if isinstance(spec, dict):
                spec = {
                    key: value for key, value in spec.items()
                    if key not in LEGACY_SPEC_KEYS
                }
            if spec != payload["spec"]:
                raise ValueError(
                    f"{path}: directory already holds a different campaign "
                    f"({existing.get('spec', {}).get('name')!r}); refusing "
                    "to mix artifacts"
                )
        _write_json(path, payload)

    def _write_aggregate(self, result: CampaignResult) -> None:
        if self.out_dir is None:
            return
        _write_json(self.out_dir / AGGREGATE_FILENAME, result_to_dict(result))

    # -- execution ------------------------------------------------------------

    def status(self) -> CampaignStatus:
        pending = [
            cell.cell_id for cell in self.manifest
            if not self.cell_complete(cell)
        ]
        return CampaignStatus(
            name=self.spec.name,
            scenario=self.spec.scenario,
            cells_total=len(self.manifest),
            cells_completed=len(self.manifest) - len(pending),
            pending_cell_ids=pending,
            failed_cell_ids=self.failed_cells(),
        )

    def _execute_cell(self, cell: Cell) -> RunRecord:
        from repro.api import get_scenario

        scenario = get_scenario(cell.scenario)
        return record_run(scenario.name, dict(cell.params), scenario.run)

    def _attempt_cell(
        self, cell: Cell
    ) -> Tuple[Optional[RunRecord], Optional[BaseException]]:
        """Run + persist one cell under its retry budget.

        Each attempt passes the ``campaign.cell`` fault seam first, then
        executes and saves.  Any exception (a genuine scenario failure, an
        injected fault, a save that exhausted its own IO retries) consumes
        one attempt; after ``spec.max_retries`` failures the final
        exception is returned for quarantine instead of raised.
        """
        last: Optional[BaseException] = None
        for _ in range(self.spec.max_retries):
            try:
                _faults.fire("campaign.cell")
                record = self._execute_cell(cell)
                self._save_cell(cell, record)
                return record, None
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:  # noqa: BLE001 - quarantined with chain
                last = exc
        return None, last

    def run(
        self,
        *,
        resume: bool = True,
        max_cells: Optional[int] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> CampaignResult:
        """Execute (or continue) the campaign and aggregate what exists.

        ``resume=True`` skips cells with a valid persisted artifact;
        ``resume=False`` re-executes everything (overwriting artifacts).
        ``max_cells`` stops after that many *newly executed* cells — the
        test hook that simulates a mid-campaign kill — leaving a partial,
        resumable artifact tree.  The returned aggregate covers every cell
        completed so far, in manifest order.
        """
        self._write_manifest()
        executed = 0
        total = len(self.manifest)
        done = 0
        for chunk in self.chunks:
            pending = []
            for cell in chunk:
                cached = self._results.get(cell.index)
                if cached is None and resume:
                    cached = self.load_cell(cell)
                if cached is not None:
                    self._results[cell.index] = cached
                    done += 1
                    if progress is not None:
                        progress(done, total)
                else:
                    pending.append(cell)
            if max_cells is not None:
                pending = pending[:max(0, max_cells - executed)]
            if pending:
                self._prime_baselines(pending)
            for cell in pending:
                record, failure = self._attempt_cell(cell)
                executed += 1
                if record is None:
                    self._quarantine_cell(cell, failure, self.spec.max_retries)
                    continue
                self._clear_quarantine(cell)
                self._results[cell.index] = record.result
                done += 1
                if progress is not None:
                    progress(done, total)
        result = self.aggregate()
        self._write_aggregate(result)
        return result

    def aggregate(self) -> CampaignResult:
        """Fold every completed cell (memory or disk) in manifest order.

        Quarantined cells are the reported hole: they appear in
        ``cells_failed``/``failed_cell_ids`` on the result, never silently
        vanish from the statistics.
        """
        completed: List[Tuple[Cell, Any]] = []
        for cell in self.manifest:
            result = self._results.get(cell.index)
            if result is None:
                result = self.load_cell(cell)
            if result is not None:
                completed.append((cell, result))
        return aggregate_cells(
            self.spec, completed, failed=self.failed_cells()
        )


# -- directory-level helpers (the CLI verbs) ----------------------------------


def _load_dir(out_dir: PathLike) -> CampaignSpec:
    path = Path(out_dir) / MANIFEST_FILENAME
    if not path.exists():
        raise FileNotFoundError(
            f"{path}: not a campaign directory (no {MANIFEST_FILENAME})"
        )
    data = json.loads(path.read_text())
    if data.get("kind") != "campaign_manifest":
        raise ValueError(f"{path}: kind={data.get('kind')!r} is not a campaign")
    return load_spec(data["spec"])


def run_campaign(
    spec: Optional[CampaignSpec] = None,
    *,
    out_dir: Optional[PathLike] = None,
    resume: bool = True,
    max_cells: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
) -> CampaignResult:
    """Run ``spec`` (default: the built-in demo campaign) to completion."""
    from repro.campaign.spec import demo_spec

    runner = CampaignRunner(
        spec if spec is not None else demo_spec(), out_dir=out_dir
    )
    return runner.run(resume=resume, max_cells=max_cells, progress=progress)


def resume_campaign(
    out_dir: PathLike,
    *,
    progress: Optional[ProgressCallback] = None,
) -> CampaignResult:
    """Continue the campaign persisted under ``out_dir``."""
    spec = _load_dir(out_dir)
    return CampaignRunner(spec, out_dir=out_dir).run(progress=progress)


def campaign_status(out_dir: PathLike) -> CampaignStatus:
    """Completion state of the campaign persisted under ``out_dir``."""
    spec = _load_dir(out_dir)
    return CampaignRunner(spec, out_dir=out_dir).status()


def campaign_report(out_dir: PathLike) -> CampaignResult:
    """(Re)aggregate the cells under ``out_dir`` without running anything."""
    spec = _load_dir(out_dir)
    runner = CampaignRunner(spec, out_dir=out_dir)
    result = runner.aggregate()
    runner._write_aggregate(result)
    return result
