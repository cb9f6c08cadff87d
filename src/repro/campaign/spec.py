"""Declarative campaign specs and their expansion into work cells.

A :class:`CampaignSpec` names a registered scenario, a base parameter set,
a grid of swept axes, and a replication seed list; :meth:`CampaignSpec.cells`
expands it into the deterministic cell manifest the runner executes::

    spec = CampaignSpec(
        name="keyrate-grid",
        scenario="sim-keyrate",
        base={"duration": 30.0},
        axes={"demand_factor": [0.0, 0.5, 0.9]},
        seeds=[100, 101, 102, 103],
    )
    cells = spec.cells()          # 3 grid points x 4 seeds = 12 cells

Every cell's parameters are bound through the scenario's typed
:class:`~repro.api.registry.ParamSpec` table before anything is hashed, so
a cell's identity (:attr:`Cell.cell_id`) is stable across spellings
(``"0.5"`` vs ``0.5``), processes, and resumes.  Specs load from / save to
plain JSON (``campaign run spec.json``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Any, Dict, List, Mapping, Tuple, Union

PathLike = Union[str, Path]

__all__ = ["CampaignSpec", "Cell", "demo_spec", "load_spec"]

#: Default number of cells per execution chunk (see runner: one chunk is
#: one canonical prefetch batch + its serial cell runs).
DEFAULT_CHUNK_SIZE = 16

#: Keys older specs carry that no longer select anything (``backend`` chose
#: the prefetch solver); loading and resuming accept and ignore them.
LEGACY_SPEC_KEYS = frozenset({"backend"})


def _params_digest(scenario: str, params: Mapping[str, Any]) -> str:
    blob = json.dumps({"scenario": scenario, "params": params},
                      sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class Cell:
    """One unit of campaign work: a fully-bound scenario run at one seed."""

    #: position in the manifest (execution and aggregation order)
    index: int
    #: flat index of the grid point this cell replicates
    point: int
    scenario: str
    #: fully-bound scenario parameters (seed included)
    params: Dict[str, Any]

    @property
    def seed(self) -> int:
        return int(self.params["seed"])

    @property
    def cell_id(self) -> str:
        """Stable artifact-directory name: params digest + seed."""
        digest = _params_digest(self.scenario, self.params)
        return f"{digest[:12]}-s{self.seed}"


@dataclass(frozen=True)
class CampaignSpec:
    """A replicated many-seed study over one scenario's parameter grid."""

    name: str
    scenario: str
    #: parameter overrides shared by every cell
    base: Dict[str, Any] = field(default_factory=dict)
    #: swept parameters: name -> list of values (outer product, in order)
    axes: Dict[str, List[Any]] = field(default_factory=dict)
    #: replication seeds (one cell per grid point per seed)
    seeds: Tuple[int, ...] = (0, 1, 2, 3)
    #: cells per execution chunk (canonical prefetch granularity)
    chunk_size: int = DEFAULT_CHUNK_SIZE
    #: restrict aggregation to these metrics (empty = every scalar metric)
    metrics: Tuple[str, ...] = ()
    #: attempts each cell gets before it is quarantined to ``cells_failed/``
    max_retries: int = 2

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("campaign name must be non-empty")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        if self.max_retries < 1:
            raise ValueError("max_retries must be at least 1")
        if not self.seeds:
            raise ValueError("campaign needs at least one replication seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"duplicate replication seeds in {self.seeds}")
        scenario = self._scenario()
        claimed = set(self.base) | set(self.axes)
        if "seed" in claimed:
            raise ValueError(
                "'seed' is the replication axis; set `seeds`, not a "
                "base/axis parameter"
            )
        unknown = claimed - set(scenario.param_names)
        if unknown:
            raise ValueError(
                f"scenario {self.scenario!r}: unknown parameter(s) "
                f"{sorted(unknown)}; valid: {scenario.param_names}"
            )
        overlap = set(self.base) & set(self.axes)
        if overlap:
            raise ValueError(
                f"parameter(s) {sorted(overlap)} appear in both base and axes"
            )
        for axis, values in self.axes.items():
            if not values:
                raise ValueError(f"axis {axis!r} has no values")
            # Dedupe on *bound* values: cell ids hash registry-bound
            # parameters, so coercion-equal spellings ("0.5" vs 0.5) would
            # otherwise create distinct grid points sharing one artifact
            # directory.  Binding goes through Scenario.bind — the same
            # coercion cells() uses — and also surfaces mistyped axis
            # values at spec construction instead of mid-expansion.
            bound = [scenario.bind({axis: v})[axis] for v in values]
            if len(bound) != len(set(map(repr, bound))):
                raise ValueError(
                    f"axis {axis!r} has duplicate values (after binding)"
                )

    def _scenario(self):
        from repro.api import get_scenario

        return get_scenario(self.scenario)

    # -- expansion ------------------------------------------------------------

    @property
    def num_points(self) -> int:
        points = 1
        for values in self.axes.values():
            points *= len(values)
        return points

    @property
    def num_cells(self) -> int:
        return self.num_points * len(self.seeds)

    def grid_points(self) -> List[Dict[str, Any]]:
        """The swept-axis value combinations, axes-declaration order."""
        names = list(self.axes)
        return [
            dict(zip(names, combo))
            for combo in product(*(self.axes[name] for name in names))
        ]

    def cells(self) -> List[Cell]:
        """The deterministic cell manifest: grid points outer, seeds inner.

        Parameters are bound (defaults applied, values validated and typed)
        through the scenario registry, so two expansions of equivalent
        specs produce identical manifests and cell ids.
        """
        scenario = self._scenario()
        manifest: List[Cell] = []
        for point, axis_values in enumerate(self.grid_points()):
            for seed in self.seeds:
                overrides = {**self.base, **axis_values, "seed": int(seed)}
                manifest.append(Cell(
                    index=len(manifest),
                    point=point,
                    scenario=self.scenario,
                    params=scenario.bind(overrides),
                ))
        return manifest

    def chunks(self) -> List[List[Cell]]:
        """The manifest split into fixed ``chunk_size`` runs of cells."""
        manifest = self.cells()
        return [
            manifest[i:i + self.chunk_size]
            for i in range(0, len(manifest), self.chunk_size)
        ]

    # -- (de)serialization ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "scenario": self.scenario,
            "base": dict(self.base),
            "axes": {name: list(values) for name, values in self.axes.items()},
            "seeds": [int(s) for s in self.seeds],
            "chunk_size": self.chunk_size,
            "metrics": list(self.metrics),
            "max_retries": self.max_retries,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        """Build a spec from its JSON form (``seeds`` may be a count).

        ``{"seeds": 8}`` means eight replications at ``seed_base``,
        ``seed_base + 1``, … (``seed_base`` defaults to 0); an explicit
        list pins the seeds directly.  :data:`LEGACY_SPEC_KEYS` are
        accepted and ignored.
        """
        known = {"name", "scenario", "base", "axes", "seeds", "seed_base",
                 "chunk_size", "metrics", "max_retries", *LEGACY_SPEC_KEYS}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown campaign spec field(s) {sorted(unknown)}; "
                f"valid: {sorted(known)}"
            )
        seeds = data.get("seeds", 4)
        if isinstance(seeds, int):
            base_seed = int(data.get("seed_base", 0))
            seeds = [base_seed + i for i in range(seeds)]
        elif "seed_base" in data:
            raise ValueError("seed_base only applies when seeds is a count")
        return cls(
            name=data.get("name", ""),
            scenario=data.get("scenario", ""),
            base=dict(data.get("base", {})),
            axes={k: list(v) for k, v in data.get("axes", {}).items()},
            seeds=tuple(int(s) for s in seeds),
            chunk_size=int(data.get("chunk_size", DEFAULT_CHUNK_SIZE)),
            metrics=tuple(data.get("metrics", ())),
            max_retries=int(data.get("max_retries", 2)),
        )

    def save(self, path: PathLike) -> Path:
        out = Path(path)
        out.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return out


def load_spec(source: Union[PathLike, Mapping[str, Any]]) -> CampaignSpec:
    """Load a spec from a JSON file path (or an already-parsed mapping)."""
    if isinstance(source, Mapping):
        return CampaignSpec.from_dict(source)
    return CampaignSpec.from_dict(json.loads(Path(source).read_text()))


def demo_spec(*, seed_base: int = 2) -> CampaignSpec:
    """The built-in demonstration campaign (``repro campaign`` with no spec).

    Small on purpose — a 2-point demand grid of short clean-network
    simulations at two seeds — so the zero-argument CLI path and the
    generated smoke tests finish in seconds.
    """
    return CampaignSpec(
        name="demo",
        scenario="sim-keyrate",
        base={"duration": 8.0},
        axes={"demand_factor": [0.0, 0.6]},
        seeds=(seed_base, seed_base + 1),
    )
