"""In-memory spans around the program's layer boundaries, from outside.

:func:`install` wraps public functions of ``repro.core``, ``repro.api``,
``repro.serve``, ``repro.io`` and ``repro.sim`` -- each patched where it is
looked up -- so that every call records a span ``(name, start, end, id,
parent, request id, attrs)`` on the shared monotonic clock.  Parents come
from a context variable, so spans nest across ``await`` and follow
``asyncio.to_thread`` into the solver thread.  Nothing here changes what
the wrapped functions compute.

Three seams have no public boundary and are wrapped by their private names:
``AllocationServer._handle_line`` (one request, where its wire id becomes
known), ``AllocationServer._resolve_spec`` (spec → config memo) and
``QuantumNetworkSimulation._reoptimize`` (one re-optimization).  A missing
name fails the traced run instead of silently reporting zeros.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from perfbench.common import mean

#: (name, start_ns, end_ns, span id, parent id, request id, attrs)
Span = Tuple[str, int, int, int, Optional[int], str, Dict]

#: top-level solve spans of the core, bucketed into core.ms_per_config.*
CORE_SOLVE = "core.solve"


class Tracer:
    """Collects spans in memory; :meth:`install` patches the program."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)
        self._rid: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_rid", default="")
        self._undo: List[Callable[[], None]] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap_fn(self, fn: Callable, name: str,
                 attrs: Optional[Callable] = None,
                 rid_from: Optional[Callable] = None) -> Callable:
        spans, ids, current, rid_var = (
            self.spans, self._ids, self._current, self._rid)

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                sid = next(ids)
                parent = current.get()
                token = current.set(sid)
                rid_token = (rid_var.set(rid_from(args))
                             if rid_from is not None else None)
                start = time.monotonic_ns()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = time.monotonic_ns()
                    spans.append((name, start, end, sid, parent, rid_var.get(),
                                  {}))
                    if rid_token is not None:
                        rid_var.reset(rid_token)
                    current.reset(token)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = current.get()
            token = current.set(sid)
            start = time.monotonic_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic_ns()
                current.reset(token)
                extra = attrs(args, result) if attrs is not None and result is not None else {}
                spans.append((name, start, end, sid, parent, rid_var.get(),
                              extra))

        return wrapper

    def wrap(self, owner, attr: str, name: str, *,
             attrs: Optional[Callable] = None,
             rid_from: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (module function, method or classmethod)."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            patched = classmethod(
                self._wrap_fn(raw.__func__, name, attrs, rid_from))
        elif isinstance(raw, staticmethod):
            patched = staticmethod(
                self._wrap_fn(raw.__func__, name, attrs, rid_from))
        else:
            patched = self._wrap_fn(raw, name, attrs, rid_from)
        setattr(owner, attr, patched)
        self._undo.append(lambda: setattr(owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def install(self) -> "Tracer":
        """Wrap every layer boundary the per-layer metrics read."""
        import repro.api.service as api_service
        import repro.core.batched as core_batched
        import repro.core.stage3_ipm as stage3_ipm
        import repro.io as repro_io
        import repro.serve.server as serve_server
        from repro.api.service import SolverService
        from repro.core.batch import ConfigBatch
        from repro.core.batched import BatchedQuHE
        from repro.core.quhe import QuHE
        from repro.core.stage1 import Stage1Solver
        from repro.serve.cache import SqliteResultCache
        from repro.serve.protocol import ConfigSpec, ServeRequest
        from repro.serve.server import AllocationServer
        from repro.sim.qnetwork import QuantumNetworkSimulation
        from repro.sim.routing import RouteController

        w = self.wrap
        # repro.core
        w(Stage1Solver, "solve", "core.stage1")
        for module in (core_batched, stage3_ipm):
            w(module, "solve_stage3_batch", "core.stage3", attrs=_stage3_attrs)
        w(ConfigBatch, "from_configs", "core.construct")
        w(QuHE, "solve", CORE_SOLVE, attrs=_solve_attrs)
        w(BatchedQuHE, "solve_batch", CORE_SOLVE, attrs=_solve_attrs)
        w(BatchedQuHE, "solve_config_batch", CORE_SOLVE, attrs=_solve_attrs)
        # repro.api
        for entry in ("solve", "solve_many", "solve_batch"):
            w(SolverService, entry, f"api.{entry}", attrs=_solve_attrs)
        for module in (api_service, serve_server):
            w(module, "config_fingerprint", "api.fingerprint")
        # repro.serve
        w(AllocationServer, "_handle_line", "serve.request",
          rid_from=_request_id)
        w(serve_server, "decode_line", "serve.parse")
        w(ServeRequest, "from_dict", "serve.parse")
        w(AllocationServer, "_resolve_spec", "serve.resolve")
        w(ConfigSpec, "build", "serve.spec_build")
        w(SqliteResultCache, "get", "serve.cache_read")
        w(SqliteResultCache, "put", "serve.cache_write")
        # repro.io
        w(repro_io, "result_from_dict", "io.decode")
        w(repro_io, "result_to_dict", "io.encode")
        w(serve_server, "encode_line", "io.encode_line")
        # repro.sim
        w(QuantumNetworkSimulation, "run", "sim.run")
        w(QuantumNetworkSimulation, "_reoptimize", "sim.reopt")
        w(RouteController, "routes_for", "sim.route")
        return self

    # -- output --------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def load_spans(path) -> List[Span]:
    with open(path) as fh:
        return [tuple(s) for s in json.load(fh)]


def _request_id(args) -> str:
    """The wire id of the line ``_handle_line(self, line, ...)`` handles."""
    try:
        return str(json.loads(args[1]).get("id", ""))
    except (ValueError, AttributeError):
        return ""


def _stage3_attrs(args, result) -> Dict:
    return {"k": int(args[1].shape[0])}


def _solve_attrs(args, result) -> Dict:
    """Configs, shapes, outer iterations and degraded results of a solve."""
    from repro.core.batch import ConfigBatch, SolutionBatch

    configs = args[1] if len(args) > 1 else None
    if isinstance(result, SolutionBatch):
        iters = [int(v) for v in result.outer_iterations]
        degraded = int(result.degraded.sum())
    elif isinstance(result, list):
        iters = [int(r.outer_iterations) for r in result]
        degraded = sum(bool(r.degraded) for r in result)
    else:  # one QuHEResult
        iters = [int(result.outer_iterations)]
        degraded = int(bool(result.degraded))
    if isinstance(configs, ConfigBatch):
        shapes = 1
    elif isinstance(configs, (list, tuple)):
        shapes = len({(c.num_clients, len(c.cost_model.lambda_set))
                      for c in configs})
    else:  # QuHE.solve(initial) or SolverService.solve(config)
        shapes = 1
    return {"k": len(iters), "shapes": shapes, "iters": iters,
            "degraded": degraded}


# -- reduction ---------------------------------------------------------------------


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id → seconds of its interval not covered by its children."""
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for name, start, end, sid, parent, rid, attrs in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for name, start, end, sid, parent, rid, attrs in spans:
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start - covered) / 1e9
    return out


def within(spans: Iterable[Span], t0_ns: int, t1_ns: int) -> List[Span]:
    """Spans that start inside the window ``[t0_ns, t1_ns]``."""
    return [s for s in spans if t0_ns <= s[1] <= t1_ns]


def layer_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-layer times and counts read from spans (see README)."""
    selfs = self_times(spans)
    by_id = {s[3]: s for s in spans}
    # A span directly inside a span of the same name (the codecs recurse
    # into nested payloads) is part of its parent's work, not another call.
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        parent = by_id.get(span[4])
        if parent is None or parent[0] != span[0]:
            by_name[span[0]].append(span)

    def total(name: str) -> float:
        return sum(s[2] - s[1] for s in by_name[name]) / 1e9

    def self_total(name: str) -> float:
        """Self time of ``name`` spans, same-name recursion included."""
        return sum(selfs[s[3]] for s in spans if s[0] == name)

    def count(name: str) -> int:
        return len(by_name[name])

    out: Dict[str, float] = {
        "core.stage1_s": total("core.stage1"),
        "core.stage1_calls": count("core.stage1"),
        "core.stage3_s": total("core.stage3"),
        "core.stage3_calls": count("core.stage3"),
        "core.stage3_k_mean": mean(
            [s[6]["k"] for s in by_name["core.stage3"] if s[6]]),
        "core.construct_s": total("core.construct"),
        "core.other_s": self_total(CORE_SOLVE),
        "api.solve_s.solve": total("api.solve"),
        "api.solve_s.solve_many": total("api.solve_many"),
        "api.solve_s.solve_batch": total("api.solve_batch"),
        "api.fingerprint_s": total("api.fingerprint"),
        "api.fingerprints": count("api.fingerprint"),
        "serve.parse_s": total("serve.parse"),
        "serve.resolve_s": total("serve.resolve"),
        "serve.spec_builds": count("serve.spec_build"),
        "serve.cache_read_s": self_total("serve.cache_read"),
        "serve.cache_reads": count("serve.cache_read"),
        "serve.cache_write_s": self_total("serve.cache_write"),
        "serve.cache_writes": count("serve.cache_write"),
        "io.decode_s": total("io.decode"),
        "io.decodes": count("io.decode"),
        "io.encode_s": total("io.encode") + total("io.encode_line"),
        "io.encodes": count("io.encode"),
        "sim.run_s": total("sim.run"),
        "sim.kernel_s": self_total("sim.run"),
        "sim.reopt_s": total("sim.reopt"),
        "sim.reopt_calls": count("sim.reopt"),
        "sim.reopt_configs": sum(
            s[6].get("k", 0) for s in by_name["api.solve_many"]
            if s[4] in by_id and by_id[s[4]][0] == "sim.reopt"),
        "sim.route_s": total("sim.route"),
        "sim.route_calls": count("sim.route"),
    }
    # Top-level core solves: not nested inside another core solve.
    top = [s for s in by_name[CORE_SOLVE]
           if not (s[4] in by_id and by_id[s[4]][0] == CORE_SOLVE)]
    buckets: Dict[str, List[float]] = {b: [0.0, 0] for b in
                                       ("k1", "k16", "k64", "mixed")}
    ratios, iterations = [], 0
    for s in top:
        if not s[6]:  # the solve raised; nothing to bucket
            continue
        k, iters = s[6]["k"], s[6]["iters"]
        bucket = ("mixed" if s[6]["shapes"] > 1 else "k1" if k == 1
                  else "k16" if k <= 16 else "k64")
        buckets[bucket][0] += (s[2] - s[1]) / 1e6
        buckets[bucket][1] += k
        iterations += sum(iters)
        if k > 1:
            ratios.append(max(iters) / mean(iters))
    for bucket, (ms, configs) in buckets.items():
        out[f"core.ms_per_config.{bucket}"] = ms / configs if configs else 0.0
    out["core.outer_iterations"] = iterations
    out["core.straggler_ratio"] = mean(ratios) if ratios else 1.0
    # Degraded results as delivered by the service layer (outermost calls).
    api_top = [s for s in spans if s[0].startswith("api.solve")
               and not (s[4] in by_id and by_id[s[4]][0].startswith("api.solve"))]
    out["core.degraded"] = sum(s[6].get("degraded", 0) for s in api_top)
    return out
