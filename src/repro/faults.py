"""Deterministic, seed-driven fault injection (the chaos layer).

A :class:`FaultPlan` names *seams* — fixed hook points the execution layers
call at their failure-prone moments — and attaches :class:`FaultRule`\\ s to
them.  Whether a given hit of a seam fires is decided by a named RNG stream
derived from the plan seed and the rule identity alone (the same
SeedSequence-spawn-key discipline as :class:`repro.sim.engine.RngStreams`),
so a fault schedule is a pure function of ``(plan, per-seam hit sequence)``:
re-running the same code under the same plan injects the same faults at the
same points.  With no plan installed every seam hook is a no-op costing one
dictionary probe.

Seams currently wired (see ``docs/robustness.md`` for the contract each
hardened layer upholds opposite the injector):

==================  ==========================================================
``worker.solve``    once per config :class:`~repro.api.service.SolverService`
                    solves (never for cache hits or in-batch duplicates),
                    in-process or inside a supervised worker
``solver.stage3``   entry of the batched Stage-3 IPM (``solve_stage3_batch``)
``campaign.cell``   around each campaign cell execution (before retry logic)
``artifact.write``  inside :func:`repro.io.atomic_write_text` (torn writes)
``artifact.read``   inside :meth:`repro.api.artifacts.RunRecord.load`
``sim.storm``       start of :meth:`repro.sim.engine.Simulator.run`
``serve.request``   per request in the ``repro.serve`` daemon (via
                    :func:`draw`: the asyncio server interprets every kind
                    itself — exception kinds become taxonomy-coded error
                    responses, ``hang`` delays one request, ``crash`` aborts
                    that client's connection, never the daemon)
``serve.worker``    inside a supervised solver worker subprocess, once per
                    dispatched batch (``crash`` kills the worker process,
                    ``hang`` trips the per-batch deadline — both exercised
                    by the supervisor's respawn/re-dispatch machinery)
``serve.drain``     at the start of the daemon's graceful drain (via
                    :func:`draw`: ``hang`` delays the flush, exception kinds
                    are counted but must never abort the drain)
``cache.put``       inside :meth:`repro.serve.cache.SqliteResultCache.put_payload`,
                    between the row insert and the commit (``crash`` models a
                    writer process dying mid-transaction)
==================  ==========================================================

Rule kinds:

* exception kinds, raised by :func:`fire` itself — ``"raise"``
  (:class:`~repro.errors.FaultInjected`), ``"io_error"``
  (:class:`~repro.errors.TransientIOError`), ``"solver_fail"``
  (:class:`~repro.errors.SolverError`);
* ``"hang"`` — sleep ``delay_s`` seconds (watchdog/timeout fodder);
* ``"crash"`` — ``os._exit`` the process (pool-worker death; never use at a
  seam that runs in the main process);
* data kinds, *returned* to the seam for interpretation — ``"torn_write"``
  / ``"truncate"`` (artifact corruption), ``"nan"`` (solver poison),
  ``"storm"`` (sim event bursts with ``count``/``span_s``).

Plans propagate to subprocess workers through the ``REPRO_FAULTS``
environment variable: :func:`install` exports the plan JSON, and
:func:`active` in a fresh worker process parses it lazily.  Worker-side
fire counters are per process.

Example::

    plan = FaultPlan(seed=7, rules=(
        FaultRule(seam="campaign.cell", kind="raise", probability=0.5,
                  max_fires=3),
    ))
    with plan.activate():
        run_campaign(spec, out_dir=out)   # some cells fail, retry, quarantine
"""

from __future__ import annotations

import json
import os
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.errors import (
    ConfigurationError,
    FaultInjected,
    SolverError,
    TransientIOError,
)

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultRule",
    "FaultInjector",
    "ENV_VAR",
    "active",
    "clear",
    "draw",
    "fire",
    "install",
    "load_plan",
]

#: Environment variable carrying the active plan to subprocess workers.
ENV_VAR = "REPRO_FAULTS"

#: Exit status used by ``kind="crash"`` (distinctive in worker post-mortems).
CRASH_EXIT_STATUS = 173

FAULT_KINDS = (
    "raise", "io_error", "solver_fail", "hang", "crash",
    "torn_write", "truncate", "nan", "storm",
)

#: Rule kinds whose action is performed by :func:`fire` itself; the rest are
#: returned to the seam, which knows how to corrupt its own data.
_EXCEPTION_KINDS = {"raise", "io_error", "solver_fail"}


@dataclass(frozen=True)
class FaultRule:
    """One deterministic fault attached to a named seam."""

    seam: str
    kind: str
    #: chance that an eligible hit fires (drawn from the rule's own stream)
    probability: float = 1.0
    #: total number of times this rule may fire (0 = unlimited)
    max_fires: int = 1
    #: skip the first ``after`` eligible hits entirely (phase the fault in)
    after: int = 0
    #: sleep length for ``kind="hang"`` (seconds)
    delay_s: float = 0.0
    #: event count for ``kind="storm"``
    count: int = 0
    #: time span for ``kind="storm"`` (seconds of simulated time)
    span_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; valid: {FAULT_KINDS}"
            )
        if not self.seam:
            raise ConfigurationError("fault rule needs a non-empty seam")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.max_fires < 0 or self.after < 0:
            raise ConfigurationError("max_fires/after must be non-negative")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seam": self.seam,
            "kind": self.kind,
            "probability": self.probability,
            "max_fires": self.max_fires,
            "after": self.after,
            "delay_s": self.delay_s,
            "count": self.count,
            "span_s": self.span_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultRule":
        unknown = set(data) - {
            "seam", "kind", "probability", "max_fires", "after",
            "delay_s", "count", "span_s",
        }
        if unknown:
            raise ConfigurationError(
                f"unknown fault rule field(s) {sorted(unknown)}"
            )
        return cls(
            seam=str(data.get("seam", "")),
            kind=str(data.get("kind", "")),
            probability=float(data.get("probability", 1.0)),
            max_fires=int(data.get("max_fires", 1)),
            after=int(data.get("after", 0)),
            delay_s=float(data.get("delay_s", 0.0)),
            count=int(data.get("count", 0)),
            span_s=float(data.get("span_s", 0.0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the rules it drives (the ``fault_plan`` codec payload).

    >>> plan = FaultPlan(seed=7, rules=(
    ...     FaultRule(seam="campaign.cell", kind="raise", probability=0.5),))
    >>> restored = FaultPlan.from_dict(plan.to_dict())
    >>> restored == plan
    True
    """

    seed: int = 0
    rules: Tuple[FaultRule, ...] = ()

    def __post_init__(self) -> None:
        # Tolerate list input (JSON round-trips produce lists).
        if not isinstance(self.rules, tuple):
            object.__setattr__(self, "rules", tuple(self.rules))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": int(self.seed),
            "rules": [rule.to_dict() for rule in self.rules],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        unknown = set(data) - {"seed", "rules", "kind", "format_version"}
        if unknown:
            raise ConfigurationError(
                f"unknown fault plan field(s) {sorted(unknown)}"
            )
        return cls(
            seed=int(data.get("seed", 0)),
            rules=tuple(
                FaultRule.from_dict(rule) for rule in data.get("rules", ())
            ),
        )

    def to_json(self) -> str:
        """Compact JSON (the ``REPRO_FAULTS`` wire format)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @contextmanager
    def activate(self) -> Iterator["FaultInjector"]:
        """Install this plan for the dynamic extent of the ``with`` block."""
        injector = install(self)
        try:
            yield injector
        finally:
            clear()


def load_plan(source: Union[str, Path, Mapping[str, Any]]) -> FaultPlan:
    """Load a plan from a mapping, a JSON string, or a JSON file path.

    A string starting with ``{`` parses as inline JSON (the CLI's
    ``--set faults='{"seed": …}'`` form); anything else is a path.
    """
    if isinstance(source, Mapping):
        return FaultPlan.from_dict(source)
    text = str(source)
    if text.lstrip().startswith("{"):
        try:
            return FaultPlan.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid inline fault plan: {exc}") from exc
    path = Path(text)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError as exc:
        raise ConfigurationError(f"fault plan not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid fault plan JSON: {exc}") from exc
    return FaultPlan.from_dict(data)


class FaultInjector:
    """Runtime state of an active plan: per-rule streams and fire counters.

    Each rule draws from its own deterministic stream, keyed by
    ``SeedSequence(plan.seed, spawn_key=(crc32(f"{seam}#{rule_index}"),))``
    — adding or removing other rules never perturbs an existing rule's
    schedule, mirroring the simulator's named-stream discipline.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rules_by_seam: Dict[str, List[Tuple[int, FaultRule]]] = {}
        for index, rule in enumerate(plan.rules):
            self._rules_by_seam.setdefault(rule.seam, []).append((index, rule))
        self._streams: Dict[int, np.random.Generator] = {}
        self._hits: Dict[int, int] = {}
        self._fires: Dict[int, int] = {}

    def _stream(self, index: int, rule: FaultRule) -> np.random.Generator:
        gen = self._streams.get(index)
        if gen is None:
            key = zlib.crc32(f"{rule.seam}#{index}".encode("utf-8"))
            sequence = np.random.SeedSequence(
                entropy=self.plan.seed, spawn_key=(key,)
            )
            gen = np.random.default_rng(sequence)
            self._streams[index] = gen
        return gen

    def draw(self, seam: str) -> Optional[FaultRule]:
        """The rule firing at this hit of ``seam``, or None.

        Every eligible hit consumes exactly one uniform draw per attached
        rule (even when the rule has exhausted ``max_fires``), so the
        decision sequence of one rule never depends on another's state.
        """
        matched: Optional[FaultRule] = None
        for index, rule in self._rules_by_seam.get(seam, ()):
            hit = self._hits.get(index, 0)
            self._hits[index] = hit + 1
            draw = float(self._stream(index, rule).random())
            if hit < rule.after:
                continue
            if rule.max_fires and self._fires.get(index, 0) >= rule.max_fires:
                continue
            if draw < rule.probability and matched is None:
                self._fires[index] = self._fires.get(index, 0) + 1
                matched = rule
        return matched

    def fire_counts(self) -> Dict[str, int]:
        """Total fires per seam so far (diagnostics and tests)."""
        counts: Dict[str, int] = {}
        for index, count in self._fires.items():
            seam = self.plan.rules[index].seam
            counts[seam] = counts.get(seam, 0) + count
        return counts


#: The process-wide injector (None = faults disabled, the production state).
_INJECTOR: Optional[FaultInjector] = None
#: Raw env value already parsed into ``_INJECTOR`` (worker lazy-install).
_ENV_SEEN: Optional[str] = None


def install(plan: FaultPlan, *, export_env: bool = True) -> FaultInjector:
    """Activate ``plan`` process-wide; export to workers via ``REPRO_FAULTS``."""
    global _INJECTOR, _ENV_SEEN
    _INJECTOR = FaultInjector(plan)
    if export_env:
        serialized = plan.to_json()
        os.environ[ENV_VAR] = serialized
        _ENV_SEEN = serialized
    return _INJECTOR


def clear() -> None:
    """Deactivate fault injection and drop the env export."""
    global _INJECTOR, _ENV_SEEN
    _INJECTOR = None
    _ENV_SEEN = None
    os.environ.pop(ENV_VAR, None)


def active() -> Optional[FaultInjector]:
    """The live injector, if any.

    Checks the module state first, then the environment — a pool worker
    forked/spawned under an exported plan installs it lazily on its first
    seam hit (without re-exporting, to avoid feedback loops).
    """
    global _ENV_SEEN
    if _INJECTOR is not None:
        return _INJECTOR
    raw = os.environ.get(ENV_VAR)
    if raw and raw != _ENV_SEEN:
        _ENV_SEEN = raw
        try:
            return install(load_plan(raw), export_env=False)
        except ConfigurationError:
            # A malformed env plan must not take down production code paths;
            # ignore it (tests cover the explicit load path).
            return None
    return None


def draw(seam: str) -> Optional[FaultRule]:
    """The passive seam hook: decide and return the matched rule, act on nothing.

    For seams whose host must interpret *every* kind itself — the asyncio
    serve daemon cannot let :func:`fire` sleep or ``os._exit`` inside the
    shared event-loop process.  Draw discipline (one uniform per attached
    rule per hit) is identical to :func:`fire`, so schedules stay
    deterministic across both hook styles.
    """
    injector = active()
    return injector.draw(seam) if injector is not None else None


def fire(seam: str) -> Optional[FaultRule]:
    """The seam hook: decide, act, and/or return the matched rule.

    No plan → None (one dict probe).  Exception kinds raise here; ``hang``
    sleeps here; ``crash`` exits the process; data kinds (``torn_write``,
    ``truncate``, ``nan``, ``storm``) return the rule for the seam to apply
    to its own data.
    """
    injector = active()
    if injector is None:
        return None
    rule = injector.draw(seam)
    if rule is None:
        return None
    if rule.kind == "raise":
        raise FaultInjected(f"injected fault at seam {seam!r}", seam=seam)
    if rule.kind == "io_error":
        raise TransientIOError(f"injected transient IO error at {seam!r}")
    if rule.kind == "solver_fail":
        raise SolverError(f"injected solver failure at {seam!r}")
    if rule.kind == "hang":
        time.sleep(rule.delay_s)
        return None
    if rule.kind == "crash":  # pragma: no cover - kills the (worker) process
        os._exit(CRASH_EXIT_STATUS)
    return rule
