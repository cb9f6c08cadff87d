"""Run artifacts: every scenario execution can leave a durable record.

A :class:`RunRecord` captures everything needed to audit or replay one
scenario run — the scenario name, the fully-bound parameters (seed
included), the result payload (via the :mod:`repro.io` codecs), and wall
timings — and writes it into a run directory::

    runs/fig6-20260728T120000-ab12cd34/
        record.json     # params + seed + timings + embedded result payload
        result.json     # the bare result payload (repro.io schema)

``RunRecord.load`` reverses the process, reconstructing the original result
object, so ``repro run fig6 --out runs/`` followed by offline analysis of
``result.json`` (or ``load``) replaces today's print-and-lose flow.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro import faults as _faults
from repro import io as repro_io
from repro.errors import ArtifactError

PathLike = Union[str, Path]

RECORD_FILENAME = "record.json"
RESULT_FILENAME = "result.json"


def _params_digest(params: Dict[str, Any]) -> str:
    blob = json.dumps(params, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:8]


#: Per-process sequence: keeps run_ids unique even for identical params
#: launched within the same wall-clock second (pid covers concurrent
#: processes writing one run directory).
_RUN_SEQUENCE = count()


@dataclass(frozen=True)
class RunRecord:
    """One scenario execution: parameters, result, and timings.

    Produced by :func:`~repro.api.scenarios.run_scenario` (or
    :func:`record_run`); the fully-bound parameters always include the
    seed, and the result serializes through the :mod:`repro.io` codecs:

    >>> from repro.api import RunRecord, run_scenario
    >>> record = run_scenario("solve", {"seed": 2})
    >>> record.scenario, record.seed, record.params["seed"]
    ('solve', 2, 2)
    >>> record.result_payload()["kind"]
    'quhe_result'

    ``save``/``load`` round-trip the record through a run directory:

    >>> import tempfile
    >>> with tempfile.TemporaryDirectory() as tmp:
    ...     run_dir = record.save(tmp)
    ...     restored = RunRecord.load(run_dir)
    >>> restored.run_id == record.run_id
    True
    >>> restored.result.converged
    True
    """

    scenario: str
    params: Dict[str, Any]
    result: Any
    started_at: str
    runtime_s: float
    run_id: str = ""
    #: Solver-cache activity attributable to this run (hit/miss/coalesced
    #: deltas of :meth:`SolverService.cache_info`), or None when no cache
    #: probe was supplied.
    cache_stats: Optional[Dict[str, int]] = None

    def __post_init__(self) -> None:
        if not self.run_id:
            stamp = self.started_at.replace("-", "").replace(":", "")
            object.__setattr__(
                self,
                "run_id",
                f"{self.scenario}-{stamp}-{_params_digest(self.params)}"
                f"-p{os.getpid()}n{next(_RUN_SEQUENCE)}",
            )

    @property
    def seed(self) -> Optional[int]:
        """The run's seed when the scenario declares one."""
        value = self.params.get("seed")
        return None if value is None else int(value)

    def result_payload(self) -> Dict[str, Any]:
        """The result as its versioned ``repro.io`` payload."""
        return repro_io.result_to_dict(self.result)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format_version": 1,
            "kind": "run_record",
            "run_id": self.run_id,
            "scenario": self.scenario,
            "params": dict(self.params),
            "seed": self.seed,
            "started_at": self.started_at,
            "runtime_s": self.runtime_s,
            "cache_stats": self.cache_stats,
            "result": self.result_payload(),
        }

    def save(self, run_dir: PathLike, *, dirname: Optional[str] = None) -> Path:
        """Write ``record.json`` + ``result.json`` under ``run_dir/<dirname>/``.

        ``dirname`` defaults to :attr:`run_id` (unique per execution).  The
        campaign runner passes a *stable* cell id instead, so a resumed
        campaign finds — and skips — cells a killed run already wrote.

        Returns the created directory.  Parent directories are created as
        needed.

        Both files are written atomically (tmp + fsync + ``os.replace``
        via :func:`repro.io.atomic_write_text`), and ``result.json`` lands
        *before* ``record.json``: ``load`` keys on ``record.json``, so its
        presence must imply a complete run directory — the old order left a
        window where a crash produced a loadable-looking record next to a
        missing result.
        """
        target = Path(run_dir) / (dirname if dirname is not None else self.run_id)
        target.mkdir(parents=True, exist_ok=True)
        payload = self.to_dict()
        repro_io.atomic_write_text(
            target / RESULT_FILENAME, json.dumps(payload["result"], indent=2) + "\n"
        )
        repro_io.atomic_write_text(
            target / RECORD_FILENAME, json.dumps(payload, indent=2) + "\n"
        )
        return target

    @classmethod
    def load(cls, path: PathLike) -> "RunRecord":
        """Read a record back from a run directory (or its ``record.json``).

        Corrupt records — truncated or zero-byte JSON, a payload of the
        wrong kind, an undecodable result — raise
        :class:`~repro.errors.ArtifactError` naming the offending file, so
        one bad cell inside a large campaign is locatable from the message
        alone.  A missing file stays ``FileNotFoundError`` (absence and
        corruption are different failures).
        """
        source = Path(path)
        if source.is_dir():
            source = source / RECORD_FILENAME
        _faults.fire("artifact.read")
        text = source.read_text()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            detail = "zero-byte file" if not text else f"invalid JSON ({exc})"
            raise ArtifactError(
                f"{source}: corrupt run record: {detail}", path=str(source)
            ) from exc
        if not isinstance(data, dict) or data.get("kind") != "run_record":
            kind = data.get("kind") if isinstance(data, dict) else type(data).__name__
            raise ArtifactError(
                f"{source}: not a run record (kind={kind!r})", path=str(source)
            )
        try:
            return cls(
                scenario=data["scenario"],
                params=dict(data["params"]),
                result=repro_io.result_from_dict(data["result"]),
                started_at=data["started_at"],
                runtime_s=float(data["runtime_s"]),
                run_id=data["run_id"],
                cache_stats=data.get("cache_stats"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ArtifactError(
                f"{source}: undecodable run record: {exc!r}", path=str(source)
            ) from exc


def record_run(
    scenario_name: str,
    params: Dict[str, Any],
    run,
    *,
    cache_probe=None,
) -> RunRecord:
    """Execute ``run(**params)`` and wrap the outcome in a :class:`RunRecord`.

    ``cache_probe`` is an optional zero-argument callable returning
    monotonic cache counters (:meth:`SolverService.cache_info`); it is
    sampled before and after the run and the record stores the per-run
    delta.
    """
    started_at = time.strftime("%Y%m%dT%H%M%S")
    cache_before = dict(cache_probe()) if cache_probe is not None else None
    start = time.perf_counter()
    result = run(**params)
    runtime = time.perf_counter() - start
    cache_stats = None
    if cache_probe is not None and cache_before is not None:
        cache_after = cache_probe()
        cache_stats = {
            key: int(cache_after.get(key, 0)) - int(cache_before.get(key, 0))
            for key in ("hits", "misses", "coalesced")
        }
    return RunRecord(
        scenario=scenario_name,
        params=dict(params),
        result=result,
        started_at=started_at,
        runtime_s=runtime,
        cache_stats=cache_stats,
    )
