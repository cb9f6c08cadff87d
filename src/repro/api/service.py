"""`SolverService`: the cached, batched front-door to the QuHE solver.

Every surface (CLI, examples, benchmarks, future RPC layers) goes through
one object instead of constructing :class:`~repro.core.quhe.QuHE` by hand:

* **config-hash caching** — :func:`config_fingerprint` derives a stable
  SHA-256 from every constant of a :class:`~repro.core.config.SystemConfig`
  (nested dataclasses, numpy arrays, and cost-curve callables included), so
  re-solving an identical configuration returns the cached
  :class:`~repro.core.quhe.QuHEResult` object without touching the solver;
* **one solve path** — :meth:`SolverService.solve`,
  :meth:`~SolverService.solve_many` and :meth:`~SolverService.solve_batch`
  all fingerprint, de-duplicate, probe the cache and hand the remaining
  configs to one vectorized :class:`~repro.core.batched.BatchedQuHE` pass
  (a single solve is the batch of one), preserving input order.

Example::

    from repro.api import SolverService
    from repro.core.config import paper_config

    service = SolverService()
    result = service.solve(paper_config(seed=2))      # solved
    again = service.solve(paper_config(seed=2))       # cache hit, same object
    sweep = service.solve_many([paper_config(seed=s) for s in range(8)])
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro import faults as _faults
from repro.core.batch import ConfigBatch, SolutionBatch
from repro.core.batched import BatchedQuHE
from repro.core.config import SystemConfig
from repro.core.quhe import QuHE, QuHEResult
from repro.core.solution import Allocation
from repro.errors import SolverError
from repro.quantum.topology import QKDNetwork

__all__ = [
    "FingerprintError",
    "LRUResultCache",
    "SolverService",
    "config_fingerprint",
    "canonical_config_dict",
]


class FingerprintError(ValueError):
    """The configuration contains something with no stable identity.

    Raised for closure/lambda cost curves: their only runtime identity is a
    memory address, which CPython reuses after garbage collection, so
    hashing it could silently alias two different configurations.  The
    service treats such configs as uncacheable instead.
    """


def _canonical(value: Any) -> Any:
    """Recursively convert ``value`` into a JSON-stable structure."""
    if isinstance(value, QKDNetwork):
        # Not a dataclass; its identity is fully determined by links +
        # routes + key centre.
        return {
            "__type__": "QKDNetwork",
            "links": [_canonical(link) for link in value.links],
            "routes": [_canonical(route) for route in value.routes],
            "key_center": value.key_center,
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__type__": type(value).__qualname__, **fields}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if callable(value):
        # Cost-model curves: module-level functions have a stable qualified
        # name.  Closures and lambdas do not — refuse rather than hash a
        # reusable memory address.
        module = getattr(value, "__module__", None)
        qualname = getattr(value, "__qualname__", None)
        if (
            module and qualname
            and "<locals>" not in qualname and "<lambda>" not in qualname
        ):
            return f"{module}.{qualname}"
        raise FingerprintError(
            f"cannot fingerprint callable {value!r}: closures/lambdas have "
            "no stable identity (use a module-level function to enable "
            "result caching)"
        )
    return value


def canonical_config_dict(config: SystemConfig) -> Dict[str, Any]:
    """A JSON-ready canonical view of every constant in ``config``."""
    return _canonical(config)


def config_fingerprint(config: SystemConfig) -> str:
    """Stable SHA-256 hex digest of a configuration's constants.

    Raises :class:`FingerprintError` when the config holds anything without
    a stable serializable identity (closures, duck-typed components); the
    service then solves it uncached instead of crashing.

    Two structurally identical configurations fingerprint identically;
    any changed constant (here: the channel seed) changes the digest:

    >>> from repro.core.config import paper_config
    >>> config_fingerprint(paper_config(seed=2)) == config_fingerprint(
    ...     paper_config(seed=2))
    True
    >>> config_fingerprint(paper_config(seed=2)) == config_fingerprint(
    ...     paper_config(seed=3))
    False
    >>> len(config_fingerprint(paper_config(seed=2)))
    64
    """
    try:
        blob = json.dumps(canonical_config_dict(config), sort_keys=True)
    except TypeError as exc:
        raise FingerprintError(
            f"cannot fingerprint config: {exc} (custom component without a "
            "JSON-stable identity; the solve will run uncached)"
        ) from exc
    return hashlib.sha256(blob.encode()).hexdigest()


def _degraded_solve(
    config: SystemConfig, initial: Optional[Allocation] = None
) -> QuHEResult:
    """The graceful-degradation path: re-solve with the SLSQP reference.

    Invoked when the primary IPM inner engine raises
    :class:`~repro.errors.SolverError` (singular Newton system, non-finite
    objective, or an injected fault).  The scalar SLSQP formulation is an
    independent implementation of the same convex subproblem, so a sweep
    survives one pathological configuration; the result is marked
    ``degraded=True`` so artifacts and reports show which path produced it.
    """
    from repro.core.stage3 import Stage3Solver

    solver = QuHE(config, stage3_solver=Stage3Solver(config, inner="slsqp"))
    return dataclasses.replace(solver.solve(initial), degraded=True)


class LRUResultCache:
    """The default in-memory result-cache backend: a bounded LRU dict.

    This is the reference implementation of the pluggable cache-backend
    protocol :class:`SolverService` speaks — three methods plus a
    ``capacity`` attribute::

        get(key) -> Optional[QuHEResult]   # None on miss
        put(key, result) -> None           # may evict
        clear() -> None
        len(backend) -> int                # current entry count

    Alternative backends (e.g. the sqlite-backed
    :class:`repro.serve.cache.SqliteResultCache`, shared across worker
    processes) plug into ``SolverService(cache=...)`` unchanged.  Backends
    need not be thread-safe: the service serializes access under its own
    lock.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[str, QuHEResult]" = OrderedDict()

    def get(self, key: str) -> Optional[QuHEResult]:
        result = self._entries.get(key)
        if result is not None:
            self._entries.move_to_end(key)
        return result

    def put(self, key: str, result: QuHEResult) -> None:
        if self.capacity == 0:
            return
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class SolverService:
    """Front-door to QuHE with result caching and batch fan-out.

    ``cache`` swaps the result-cache backend (any object with the
    :class:`LRUResultCache` protocol); by default an in-memory LRU of
    ``cache_size`` entries.  All cache access — :meth:`solve` lookups,
    :meth:`prime`, counter updates — is serialized under one reentrant
    lock, so a service instance may be shared between an event loop and
    pool/executor callbacks (the ``repro serve`` daemon does exactly that).
    """

    def __init__(self, *, cache_size: int = 64, cache: Optional[Any] = None) -> None:
        if cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        self._cache = cache if cache is not None else LRUResultCache(cache_size)
        self.cache_size = int(getattr(self._cache, "capacity", cache_size))
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._coalesced = 0
        # Persistent batch solver: its Stage-1 dedup cache survives across
        # calls, so repeated sweeps over one network skip the convex solve.
        self._batched = BatchedQuHE()

    # -- cache plumbing -----------------------------------------------------

    @property
    def cache_backend(self) -> Any:
        """The live cache backend (default: :class:`LRUResultCache`)."""
        return self._cache

    def cache_info(self) -> Dict[str, int]:
        """``{"hits", "misses", "coalesced", "size"}`` counters.

        ``coalesced`` counts requests that piggy-backed on another identical
        solve instead of running their own: duplicate configs inside one
        :meth:`solve_many` batch, plus any in-flight merges an outer serving
        layer reports via :meth:`note_coalesced`.
        """
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "coalesced": self._coalesced,
                "size": len(self._cache),
            }

    def note_coalesced(self, n: int = 1) -> None:
        """Record ``n`` requests served by piggy-backing on an in-flight solve.

        Called by serving layers (``repro.serve``) that merge concurrent
        identical requests *before* they reach the solver, so the
        ``coalesced`` counter reflects every avoided solve regardless of
        which layer avoided it.
        """
        with self._lock:
            self._coalesced += int(n)

    def clear_cache(self) -> None:
        with self._lock:
            self._cache.clear()

    def prime(self, config: SystemConfig, result: QuHEResult) -> str:
        """Install ``result`` as the cached solve of ``config``.

        The campaign runner solves its cells' baseline configurations in
        *canonical batches* (fixed composition derived from the campaign
        manifest, independent of cache state) so a resumed campaign
        reproduces an uninterrupted run bit for bit; ``prime`` then makes
        those canonical results the ones every subsequent
        :meth:`solve` of the same configuration returns.  Overwrites any
        existing entry and counts as neither hit nor miss.  Returns the
        fingerprint under which the result was cached.

        Raises :class:`FingerprintError` for unfingerprintable configs
        (nothing can be primed for a config the cache cannot key).
        """
        key = config_fingerprint(config)
        with self._lock:
            self._cache.put(key, result)
        return key

    def cache_lookup(self, key: str) -> Optional[QuHEResult]:
        """Probe the result cache by fingerprint (counts a hit or miss).

        The public face of the cache for serving layers that compute the
        fingerprint themselves (the ``repro serve`` daemon resolves specs to
        fingerprints once and reuses them for coalescing, cache probes and
        batching).
        """
        return self._cache_get(key)

    def cache_store_payload(self, key: str, payload: Dict[str, Any]) -> None:
        """Install a raw ``quhe_result`` codec payload under ``key``.

        The write-side counterpart of :meth:`cache_lookup` for serving
        layers whose results arrive as payload dicts (the ``repro serve``
        daemon stores every solved payload this way, whether it was solved
        in an executor thread or in a supervised worker).  A
        payload-capable backend (:class:`~repro.serve.cache.SqliteResultCache`)
        stores the payload verbatim — preserving byte-identity between what
        the daemon answered and what the cache replays; other backends
        decode through the codec first.  Counts as neither hit nor miss.
        """
        backend = self._cache
        put_payload = getattr(backend, "put_payload", None)
        with self._lock:
            if put_payload is not None:
                put_payload(key, payload)
            else:
                from repro import io as repro_io

                backend.put(key, repro_io.result_from_dict(payload))

    def _cache_get(self, key: str) -> Optional[QuHEResult]:
        with self._lock:
            result = self._cache.get(key)
            if result is not None:
                self._hits += 1
            else:
                self._misses += 1
            return result

    def _cache_put(self, key: str, result: QuHEResult) -> None:
        with self._lock:
            self._cache.put(key, result)

    # -- solving ------------------------------------------------------------

    def solve(self, config: SystemConfig, *, use_cache: bool = True) -> QuHEResult:
        """Solve one configuration (cached on the config fingerprint).

        The batch of one: the same path as :meth:`solve_many`, so a config
        gets the same answer alone as inside any batch.  Warm starts go
        through ``solve_many(configs, initials=...)``.

        Re-solving a fingerprint-identical config returns the cached
        result object without touching the solver:

        >>> from repro.core.config import paper_config
        >>> service = SolverService()
        >>> result = service.solve(paper_config(seed=2))
        >>> result.converged
        True
        >>> service.solve(paper_config(seed=2)) is result
        True
        >>> service.cache_info()
        {'hits': 1, 'misses': 1, 'coalesced': 0, 'size': 1}
        """
        return self._solve([config], use_cache=use_cache)[0]

    def solve_many(
        self,
        configs: Sequence[SystemConfig],
        *,
        use_cache: bool = True,
        initials: Optional[Sequence[Optional[Allocation]]] = None,
    ) -> List[QuHEResult]:
        """Solve a list of configurations in one vectorized pass.

        Results come back in input order; configs of different shapes are
        grouped internally.  Fingerprint-identical configs are solved once
        and share one result object; cached entries skip the solve.

        ``initials`` warm-starts configs from the given allocations (None
        entries start cold).  A warm start can change the trajectory, so a
        warm-started config neither reads from nor populates the cache.

        Duplicates in the batch map to one solve and one shared result
        object:

        >>> from repro.core.config import paper_config
        >>> service = SolverService()
        >>> configs = [paper_config(seed=2), paper_config(seed=2),
        ...            paper_config(seed=3)]
        >>> results = service.solve_many(configs)
        >>> len(results), results[0] is results[1]
        (3, True)
        >>> service.cache_info()["coalesced"]
        1
        """
        return self._solve(configs, use_cache=use_cache, initials=initials)

    def solve_batch(
        self,
        batch: ConfigBatch,
        *,
        use_cache: bool = True,
    ) -> SolutionBatch:
        """Solve a columnar :class:`~repro.core.batch.ConfigBatch` natively.

        The zero-copy sibling of :meth:`solve_many`: the batch's columns
        feed :meth:`BatchedQuHE.solve_config_batch` directly — no per-call
        object→array stacking, no shape regrouping — and the results come
        back, in batch order, as a :class:`~repro.core.batch.SolutionBatch`.
        Caching and dedup behave as in :meth:`solve_many`.
        """
        return self._solve(batch, use_cache=use_cache)

    def _solve(
        self,
        configs: Union[Sequence[SystemConfig], ConfigBatch],
        *,
        use_cache: bool,
        initials: Optional[Sequence[Optional[Allocation]]] = None,
    ) -> Union[List[QuHEResult], SolutionBatch]:
        """The one solve path behind every entry point.

        Each input gets a key: its fingerprint, or a unique per-index key
        when it is warm-started or unfingerprintable (solved, but never
        cached or merged).  Duplicate keys share one solve and one result
        object; cache hits skip the solve.  The remaining configs fire the
        ``worker.solve`` fault seam once each and run as one
        :class:`BatchedQuHE` pass — ``solve_config_batch`` for a
        :class:`ConfigBatch`, the shape-grouped ``solve_batch`` for a list.

        Returns one result per input, in input order: a list, or a
        :class:`SolutionBatch` for a :class:`ConfigBatch`.
        """
        k = len(configs)
        if initials is None:
            initials = [None] * k
        elif len(initials) != k:
            raise ValueError("initials must align with configs")
        keys: List[str] = []
        cacheable: List[bool] = []
        for i in range(k):
            if initials[i] is not None:
                keys.append(f"__warm_{i}__")
                cacheable.append(False)
                continue
            try:
                keys.append(config_fingerprint(configs[i]))
                cacheable.append(True)
            except FingerprintError:
                keys.append(f"__uncacheable_{i}__")
                cacheable.append(False)
        # Duplicate fingerprints inside one batch share a single solve; count
        # them as coalesced requests (the serve daemon adds its own in-flight
        # merges on top via note_coalesced).
        duplicates = k - len(set(keys))
        if duplicates:
            self.note_coalesced(duplicates)
        results: Dict[str, QuHEResult] = {}
        pending: List[int] = []  # first input index of each unsolved key
        queued = set()
        for i, key in enumerate(keys):
            if key in results or key in queued:
                continue
            cached = self._cache_get(key) if use_cache and cacheable[i] else None
            if cached is not None:
                results[key] = cached
            else:
                queued.add(key)
                pending.append(i)
        if pending:
            for _ in pending:
                _faults.fire("worker.solve")
            starts = [initials[i] for i in pending]
            try:
                if isinstance(configs, ConfigBatch):
                    sub = (
                        configs if len(pending) == k
                        else configs.select(pending)
                    )
                    solved = self._batched.solve_config_batch(sub, starts)
                else:
                    solved = self._batched.solve_batch(
                        [configs[i] for i in pending], starts
                    )
            except SolverError:
                # One pathological config poisons the whole vectorized pass:
                # re-solve per config so healthy members complete on the
                # primary path and only a failing one degrades.  A batch of
                # one has already failed on its own and degrades directly.
                solved = [
                    self._solve_alone(configs[i], initials[i])
                    if len(pending) > 1
                    else _degraded_solve(configs[i], initials[i])
                    for i in pending
                ]
            for i, result in zip(pending, solved):
                results[keys[i]] = result
                if use_cache and cacheable[i]:
                    self._cache_put(keys[i], result)
        ordered = [results[key] for key in keys]
        if isinstance(configs, ConfigBatch):
            return SolutionBatch(ordered)
        return ordered

    def _solve_alone(
        self, config: SystemConfig, initial: Optional[Allocation]
    ) -> QuHEResult:
        """Batched K=1, degrading to the SLSQP path on a SolverError."""
        try:
            return self._batched.solve_batch([config], [initial])[0]
        except SolverError:
            return _degraded_solve(config, initial)
