"""Tiny benchmarking helper emitting machine-readable JSON.

Used by ``scripts/bench.py`` and the ``benchmarks/`` smoke tests to time
hot paths, record them in a stable schema and check them against floors::

    {
      "meta": {"timestamp": ..., "python": ..., "numpy": ...},
      "results": [
        {"op": "ring_mul", "backend": "rns", "params": {"n": 4096, ...},
         "reps": 32, "seconds_per_op": 0.0061, "ops_per_second": 163.9},
        ...
      ]
    }

The files are strict JSON: a row without a timing (a proof or an identity
check) carries ``null`` for both timing fields.

Timing strategy: one warm-up call (to amortise lazy table builds and JIT-ish
caches), then batches of increasing size until ``min_duration`` of total
runtime is accumulated — robust for operations ranging from microseconds to
seconds without configuration.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class BenchResult:
    """One timed operation; ``seconds_per_op`` is ``None`` for a row
    without a timing."""

    op: str
    backend: str
    params: Dict[str, Any] = field(default_factory=dict)
    reps: int = 0
    seconds_per_op: Optional[float] = None

    @property
    def ops_per_second(self) -> Optional[float]:
        return None if self.seconds_per_op is None else 1.0 / self.seconds_per_op

    def to_dict(self) -> Dict[str, Any]:
        return {**asdict(self), "ops_per_second": self.ops_per_second}

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        extras = " ".join(f"{k}={v}" for k, v in self.params.items())
        if self.seconds_per_op is None:
            return f"{self.op:>16s} [{self.backend}] {extras}: no timing"
        return (
            f"{self.op:>16s} [{self.backend}] {extras}: "
            f"{self.seconds_per_op * 1e3:.3f} ms/op "
            f"({self.ops_per_second:.1f} op/s, reps={self.reps})"
        )


def time_op(
    fn: Callable[[], Any],
    *,
    op: str,
    backend: str,
    params: Dict[str, Any] | None = None,
    min_duration: float = 0.2,
    max_reps: int = 10_000,
) -> BenchResult:
    """Time ``fn`` until ``min_duration`` seconds accumulate (≥1 rep)."""
    fn()
    total = 0.0
    reps = 0
    batch = 1
    while total < min_duration and reps < max_reps:
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        total += time.perf_counter() - start
        reps += batch
        batch = min(2 * batch, max_reps - reps) or 1
    return BenchResult(
        op=op,
        backend=backend,
        params=dict(params or {}),
        reps=reps,
        seconds_per_op=total / reps,
    )


def _bench_timestamp() -> str:
    """The report timestamp — honouring ``SOURCE_DATE_EPOCH`` when set.

    Reproducible-build convention: with ``SOURCE_DATE_EPOCH`` in the
    environment the timestamp derives from that epoch (UTC), so a
    ``--check`` rerun produces a byte-identical ``BENCH_*.json`` instead
    of a noisy wall-clock diff.
    """
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        try:
            return time.strftime(
                "%Y-%m-%dT%H:%M:%S+0000", time.gmtime(int(epoch))
            )
        except (ValueError, OverflowError, OSError):
            pass  # malformed epoch: fall through to wall clock
    return time.strftime("%Y-%m-%dT%H:%M:%S%z")


def write_results(
    path: str | Path,
    results: Iterable[BenchResult],
    *,
    meta: Optional[Mapping[str, Any]] = None,
) -> Path:
    """Write a JSON benchmark report; returns the path written.

    ``meta`` adds keys to the report's ``meta`` block.  The report is
    strict JSON: a non-finite number anywhere raises ``ValueError`` and
    nothing is written.
    """
    payload = {
        "meta": {
            "timestamp": _bench_timestamp(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            **(meta or {}),
        },
        "results": [r.to_dict() for r in results],
    }
    out = Path(path)
    out.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")
    return out


# -- floor checking (the ``--check`` mode of scripts/bench.py) -----------------


@dataclass(frozen=True)
class Floor:
    """A floor on one benchmark op.

    ``min_ops_per_second`` guards throughput ops; ``min_ratio`` guards a
    relative speedup: the op must be at least ``min_ratio`` times faster
    (lower ``seconds_per_op``) than op ``min_ratio_vs`` (by default the
    same op) in the same result set.  ``min_param`` is a hard check
    ``(name, minimum)`` on the row's ``params[name]``; a flag that must
    hold takes ``True``.  ``backend`` and ``min_ratio_vs_backend`` narrow
    the match when one op is recorded under several backends.  A row
    without a timing fails every throughput and ratio floor.
    """

    op: str
    backend: str | None = None
    min_ops_per_second: float | None = None
    min_ratio: float | None = None
    min_ratio_vs: str | None = None
    min_ratio_vs_backend: str | None = None
    #: optional params subset a result must carry to be governed/referenced
    #: (e.g. ``{"n": 4096}`` to floor only the paper-sized ring)
    params: Any = None
    min_param: Optional[Tuple[str, Any]] = None
    #: which run records the row: ``"both"``, or ``"full"``/``"quick"``
    #: for a row only that run's grid produces (read by scripts/bench.py)
    mode: str = "both"

    def _rows(
        self, results: List[BenchResult], op: str, backend: str | None
    ) -> List[BenchResult]:
        """The rows of ``op`` (under ``backend``, if given) that carry
        ``params``."""
        return [
            r for r in results
            if r.op == op
            and backend in (None, r.backend)
            and all(r.params.get(k) == v for k, v in (self.params or {}).items())
        ]

    def violations(self, results: List[BenchResult]) -> List[str]:
        mine = self._rows(results, self.op, self.backend)
        if not mine:
            return [f"floor on {self.op!r}: op missing from the results"]
        vs = self.min_ratio_vs or self.op
        reference = [
            r.ops_per_second
            for r in self._rows(results, vs, self.min_ratio_vs_backend)
            if r.seconds_per_op is not None
        ]
        problems: List[str] = []
        for result in mine:
            row = f"{result.op} [{result.backend}]"
            rate = result.ops_per_second or 0.0
            if (
                self.min_ops_per_second is not None
                and rate < self.min_ops_per_second
            ):
                problems.append(
                    f"{row}: {rate:.1f} op/s below the "
                    f"{self.min_ops_per_second:.1f} op/s floor"
                )
            if self.min_param is not None:
                name, minimum = self.min_param
                value = result.params.get(name)
                if value is None or value < minimum:
                    problems.append(
                        f"{row}: {name}={value!r} fails the hard check "
                        f"{name} >= {minimum!r}"
                    )
            if self.min_ratio is not None:
                if not reference:
                    problems.append(
                        f"floor on {self.op!r}: reference op {vs!r} missing"
                    )
                    continue
                ratio = rate / max(reference)
                if ratio < self.min_ratio:
                    problems.append(
                        f"{row}: only {ratio:.2f}x faster than {vs} "
                        f"(floor {self.min_ratio:.2f}x)"
                    )
        return problems


def check_floors(
    results: Iterable[BenchResult], floors: Iterable[Floor]
) -> List[str]:
    """All floor violations over ``results`` (empty list = pass)."""
    result_list = list(results)
    problems: List[str] = []
    for floor in floors:
        problems.extend(floor.violations(result_list))
    return problems
