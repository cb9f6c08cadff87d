"""JSON (de)serialization for allocations and every experiment result.

A downstream user wants to solve once, persist the result, and replay or
audit it later; the experiment harness wants machine-readable outputs next
to the printed tables.  Formats are plain JSON with explicit versioning,
written durably by :func:`atomic_write_text`.

Two layers:

* the original allocation/metrics helpers (:func:`allocation_to_dict`,
  :func:`save_allocation`, …), kept verbatim for compatibility;
* a **codec registry** covering every scenario result type.  Each registered
  codec owns a ``kind`` tag and a ``format_version``;
  :func:`result_to_dict` dispatches on the object's type and
  :func:`result_from_dict` on the payload's ``kind``, so any registered
  experiment result — :class:`~repro.core.quhe.QuHEResult`, a Fig.-6
  :class:`~repro.experiments.fig6_sweeps.SweepSet`, a full
  :class:`~repro.experiments.report.ReportBundle` — round-trips losslessly::

      payload = result_to_dict(SolverService().solve(cfg))
      restored = result_from_dict(payload)        # a QuHEResult again

  A result dataclass is its own schema: ``register_codec("my_result",
  MyResult)`` derives the codec from its fields and type hints, and the
  few wire-format departures sit in one table here.  Only formats the
  fields do not describe (allocation, metrics, the fault plan, the serve
  wire messages) keep hand-written codecs.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import tempfile
import typing
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Type, Union

import numpy as np

from repro import faults as _faults
from repro.core.solution import Allocation, Metrics
from repro.errors import ArtifactError, TransientIOError

FORMAT_VERSION = 1

PathLike = Union[str, Path]


def atomic_write_text(path: PathLike, text: str) -> Path:
    """Durably write ``text`` to ``path`` as UTF-8: tmp, fsync, ``os.replace``.

    The temp file lives in the target's directory so the final rename is a
    same-filesystem atomic replace — a reader never observes a partial file,
    and a crash mid-write leaves the previous content (or nothing) intact.

    Every durable write passes the ``artifact.write`` fault seam: under an
    active :mod:`repro.faults` plan a ``torn_write``/``truncate`` rule
    deliberately leaves a corrupt file at ``path`` (bypassing the atomic
    dance, the way a legacy non-atomic writer would after a crash) and
    raises :class:`~repro.errors.TransientIOError` so hardened callers
    retry.
    """
    target = Path(path)
    data = text.encode("utf-8")
    rule = _faults.fire("artifact.write")
    if rule is not None and rule.kind in ("torn_write", "truncate"):
        torn = b"" if rule.kind == "truncate" else data[: max(1, len(data) // 2)]
        target.write_bytes(torn)
        raise TransientIOError(
            f"injected {rule.kind} while writing {target}"
        )
    fd, tmp_name = tempfile.mkstemp(
        dir=str(target.parent), prefix=f".{target.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return target


def allocation_to_dict(alloc: Allocation) -> Dict:
    """Allocation as a JSON-ready dictionary."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": "allocation",
        "phi": alloc.phi.tolist(),
        "w": alloc.w.tolist(),
        "lam": [int(v) for v in alloc.lam],
        "p": alloc.p.tolist(),
        "b": alloc.b.tolist(),
        "f_c": alloc.f_c.tolist(),
        "f_s": alloc.f_s.tolist(),
        "T": None if alloc.T is None else float(alloc.T),
    }


def allocation_from_dict(data: Dict) -> Allocation:
    """Inverse of :func:`allocation_to_dict`, with format validation."""
    if data.get("kind") != "allocation":
        raise ValueError(f"not an allocation payload: kind={data.get('kind')!r}")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported format version {version!r} (supported: {FORMAT_VERSION})"
        )
    required = ("phi", "w", "lam", "p", "b", "f_c", "f_s")
    missing = [key for key in required if key not in data]
    if missing:
        raise ValueError(f"allocation payload missing fields: {missing}")
    return Allocation(
        **{key: np.asarray(data[key], dtype=float) for key in required},
        T=data.get("T"),
    )


#: Per-client metric arrays, nested under ``per_node`` in the payload.
_PER_NODE = (
    "enc_delay", "tr_delay", "cmp_delay", "enc_energy", "tr_energy", "cmp_energy",
)


def metrics_to_dict(metrics: Metrics) -> Dict:
    """Metrics as a JSON-ready dictionary (per-node arrays included)."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": "metrics",
        "u_qkd": metrics.u_qkd,
        "u_msl": metrics.u_msl,
        "total_delay_s": metrics.total_delay,
        "total_energy_j": metrics.total_energy,
        "objective": metrics.objective,
        "per_node": {key: getattr(metrics, key).tolist() for key in _PER_NODE},
    }


def metrics_from_dict(data: Dict) -> Metrics:
    """Inverse of :func:`metrics_to_dict`."""
    per_node = data["per_node"]
    return Metrics(
        u_qkd=float(data["u_qkd"]),
        u_msl=float(data["u_msl"]),
        **{key: np.asarray(per_node[key], dtype=float) for key in _PER_NODE},
        total_delay=float(data["total_delay_s"]),
        total_energy=float(data["total_energy_j"]),
        objective=float(data["objective"]),
    )


def save_allocation(alloc: Allocation, path: PathLike, *, metrics: Optional[Metrics] = None) -> None:
    """Write an allocation (and optionally its metrics) to a JSON file."""
    payload: Dict = {"allocation": allocation_to_dict(alloc)}
    if metrics is not None:
        payload["metrics"] = metrics_to_dict(metrics)
    Path(path).write_text(json.dumps(payload, indent=2))


def load_allocation(path: PathLike) -> Allocation:
    """Read an allocation back from :func:`save_allocation` output."""
    payload = json.loads(Path(path).read_text())
    if "allocation" not in payload:
        raise ValueError(f"{path}: no 'allocation' object in file")
    return allocation_from_dict(payload["allocation"])


# ---------------------------------------------------------------------------
# Codec registry: one versioned schema per experiment result type.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ResultCodec:
    """Serialization rules for one result type."""

    kind: str
    cls: Type
    encode: Callable[[Any], Dict]
    decode: Callable[[Dict], Any]
    version: int = 1


_CODECS_BY_KIND: Dict[str, ResultCodec] = {}
_CODECS_BY_TYPE: Dict[Type, ResultCodec] = {}
_BUILTINS_REGISTERED = False


def register_codec(
    kind: str,
    cls: Type,
    encode: Optional[Callable[[Any], Dict]] = None,
    decode: Optional[Callable[[Dict], Any]] = None,
    *,
    version: int = 1,
) -> ResultCodec:
    """Register a (de)serializer for ``cls`` under the ``kind`` tag.

    Without ``encode``/``decode`` a dataclass's fields are the schema:
    ``np.ndarray`` travels as a float list, ``float``/``int``/``bool``/
    ``str`` are coerced on encode and checked on decode, ``List``,
    ``Tuple``, ``Dict`` and ``Optional`` recurse, and a nested dataclass
    travels as its own tagged payload if it has a codec, else as a plain
    field dict.  A missing field is a ``ValueError`` naming the kind and
    field path.  Each ``kind`` and each type registers once per process:

    >>> from dataclasses import dataclass
    >>> @dataclass
    ... class DemoPoint:
    ...     x: float
    ...     tags: List[str]
    >>> codec = register_codec("demo_point", DemoPoint)
    >>> payload = result_to_dict(DemoPoint(x=1, tags=["a"]))
    >>> payload
    {'x': 1.0, 'tags': ['a'], 'kind': 'demo_point', 'format_version': 1}
    >>> result_from_dict(payload)
    DemoPoint(x=1.0, tags=['a'])
    >>> result_from_dict({"kind": "demo_point", "format_version": 1, "x": 2.0})
    Traceback (most recent call last):
        ...
    ValueError: demo_point.tags: missing field

    A format the fields do not describe passes both hooks instead:
    ``encode`` returns the body fields only (``kind`` and
    ``format_version`` are stamped on by :func:`result_to_dict`), and
    ``decode`` receives the full payload (version already validated) and
    returns an instance of ``cls``.
    """
    if (encode is None) != (decode is None):
        raise ValueError(f"codec {kind!r}: pass both encode and decode, or neither")
    if encode is None:
        if not dataclasses.is_dataclass(cls):
            raise TypeError(
                f"codec {kind!r}: {cls.__name__} is not a dataclass; "
                "pass encode and decode"
            )
        encode, decode = _plan(cls).encode, _plan(cls).decode
    if kind in _CODECS_BY_KIND:
        raise ValueError(f"codec kind {kind!r} already registered")
    if cls in _CODECS_BY_TYPE:
        raise ValueError(f"codec for type {cls.__name__} already registered")
    codec = ResultCodec(kind=kind, cls=cls, encode=encode, decode=decode, version=version)
    _CODECS_BY_KIND[kind] = codec
    _CODECS_BY_TYPE[cls] = codec
    return codec


def registered_kinds() -> List[str]:
    """All codec kinds (built-ins registered on demand)."""
    _ensure_builtin_codecs()
    return sorted(_CODECS_BY_KIND)


def result_to_dict(obj: Any) -> Dict:
    """Serialize any registered result object to a JSON-ready payload.

    Dispatch is on the object's type; the payload carries the codec's
    ``kind`` tag and ``format_version`` so :func:`result_from_dict` can
    reverse it:

    >>> import numpy as np
    >>> from repro.core.solution import Allocation
    >>> alloc = Allocation(
    ...     phi=np.ones(2), w=np.ones(3), lam=np.array([1024.0, 2048.0]),
    ...     p=np.ones(2), b=np.ones(2), f_c=np.ones(2), f_s=np.ones(2), T=1.0)
    >>> payload = result_to_dict(alloc)
    >>> payload["kind"], payload["format_version"], payload["lam"]
    ('allocation', 1, [1024, 2048])
    >>> restored = result_from_dict(payload)
    >>> np.array_equal(restored.phi, alloc.phi)
    True
    """
    _ensure_builtin_codecs()
    codec = _CODECS_BY_TYPE.get(type(obj))
    if codec is None:
        raise TypeError(
            f"no codec registered for {type(obj).__name__}; "
            f"known kinds: {registered_kinds()}"
        )
    return _encode(codec, obj)


def _encode(codec: ResultCodec, obj: Any) -> Dict:
    payload = codec.encode(obj)
    payload["kind"] = codec.kind
    payload["format_version"] = codec.version
    return payload


def result_from_dict(data: Dict) -> Any:
    """Inverse of :func:`result_to_dict`, dispatching on ``kind``.

    Unknown kinds, version mismatches and payloads that do not fit their
    kind are explicit errors, never silent misdecodes:

    >>> result_from_dict({"kind": "no_such_kind"})
    Traceback (most recent call last):
        ...
    ValueError: unknown result kind 'no_such_kind'; known kinds: [...]
    """
    _ensure_builtin_codecs()
    if not isinstance(data, dict):
        raise ValueError(
            f"expected a result payload object, got {type(data).__name__}"
        )
    kind = data.get("kind")
    codec = _CODECS_BY_KIND.get(kind)
    if codec is None:
        raise ValueError(
            f"unknown result kind {kind!r}; known kinds: {registered_kinds()}"
        )
    try:
        return _decode(codec, data)
    except _Malformed as exc:
        where = f"{kind}{''.join(reversed(exc.path))}: " if exc.path else ""
        raise ValueError(f"{where}{exc}") from exc.__cause__


def _decode(codec: ResultCodec, data: Any) -> Any:
    """``data`` decoded as a ``codec.kind`` payload (errors: ``_Malformed``)."""
    if not isinstance(data, dict):
        raise _not_a(f"a {codec.kind} payload", data)
    if data.get("kind") != codec.kind:
        raise _Malformed(f"expected a {codec.kind} payload, "
                         f"got kind {data.get('kind')!r}")
    version = data.get("format_version")
    if version != codec.version:
        raise _Malformed(
            f"{codec.kind}: unsupported format version {version!r} "
            f"(supported: {codec.version})"
        )
    try:
        return codec.decode(data)
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        # hand-written decoders index the payload directly
        raise _Malformed(f"malformed {codec.kind} payload: {exc!r}") from exc


def save_result(obj: Any, path: PathLike) -> Path:
    """Write any registered result object to a JSON file (atomically)."""
    return atomic_write_text(path, json.dumps(result_to_dict(obj), indent=2) + "\n")


def load_result(path: PathLike) -> Any:
    """Read back a result written by :func:`save_result`.

    Corrupt artifacts (truncated JSON, zero-byte files, wrong-kind or
    malformed payloads) raise :class:`~repro.errors.ArtifactError` naming
    the offending path.
    """
    source = Path(path)
    try:
        text = source.read_text()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise ArtifactError(
            f"{source}: unreadable result artifact: {exc}", path=str(source)
        ) from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        detail = "zero-byte file" if not text else f"invalid JSON ({exc})"
        raise ArtifactError(
            f"{source}: corrupt result artifact: {detail}", path=str(source)
        ) from exc
    try:
        return result_from_dict(payload)
    except ValueError as exc:
        raise ArtifactError(
            f"{source}: {exc}", path=str(source)
        ) from exc


# -- field-driven codecs -------------------------------------------------------
#
# A dataclass registered without encode/decode is written field by field, in
# field order, by a plan compiled from its type hints on first use.  The wire
# format departs from that derivation only where the tables below say so;
# those decisions live here, not as codec metadata on the dataclasses.


class _IntArray:
    """Wire type of λ slot counts: a float array held, an int list written."""


#: Fields whose wire form is not their annotation, mapped to the annotation
#: the wire follows (keys are ``<module>.<Class>.<field>``).
_WIRE_TYPES: Dict[str, Any] = {
    "repro.core.stage2.Stage2Result.lam": _IntArray,
    "repro.experiments.ablations.WeightPoint.lam": _IntArray,
    # The stats hold an int ``count``: coercing by the Dict[str, float]
    # annotation would rewrite 3 as 3.0 in every campaign aggregate.json.
    "repro.campaign.result.GridPointAggregate.metrics": Dict[str, Dict[str, Any]],
}

#: Fields a payload may omit because older artifacts predate them; an absent
#: one takes its dataclass default.  A default alone never makes a field
#: optional on the wire.
_WIRE_OPTIONAL: Dict[str, Tuple[str, ...]] = {
    "repro.core.quhe.QuHEResult": ("degraded",),
    "repro.core.stage3.Stage3Result": ("converged",),
    "repro.campaign.result.CampaignResult": ("cells_failed", "failed_cell_ids"),
    "repro.sim.result.SimulationResult": (
        "reroutes", "pairs_flushed", "final_route_links"),
    "repro.serve.bench.ServeBenchResult": (
        "workers", "crash_rate", "hang_rate", "retry_enabled",
        "availability", "worker_restarts"),
}

#: Registered types nested through their public helper, header first.
_NESTED_ENCODERS = {Allocation: allocation_to_dict, Metrics: metrics_to_dict}


class _Malformed(ValueError):
    """A payload that does not fit its codec; ``path`` gathers the field
    names and item keys, innermost first, as the error unwinds."""

    def __init__(self, problem: str) -> None:
        super().__init__(problem)
        self.path: List[str] = []

    def at(self, segment: str) -> "_Malformed":
        self.path.append(segment)
        return self


class _FieldPlan:
    """Encode/decode of one dataclass, compiled from its fields on first use."""

    def __init__(self, cls: Type) -> None:
        self.cls = cls

    @functools.cached_property
    def rules(self) -> List[Tuple[str, Callable, Callable, bool]]:
        owner = f"{self.cls.__module__}.{self.cls.__qualname__}"
        hints = typing.get_type_hints(self.cls)
        optional = _WIRE_OPTIONAL.get(owner, ())
        return [
            (f.name,
             *_converter(_WIRE_TYPES.get(f"{owner}.{f.name}", hints[f.name])),
             f.name in optional)
            for f in dataclasses.fields(self.cls)
        ]

    def encode(self, obj: Any) -> Dict:
        return {name: encode(getattr(obj, name))
                for name, encode, _, _ in self.rules}

    def decode(self, data: Any) -> Any:
        if not isinstance(data, dict):
            raise _not_a("an object", data)
        kwargs = {}
        for name, _, decode, optional in self.rules:
            if name in data:
                try:
                    kwargs[name] = decode(data[name])
                except _Malformed as exc:
                    raise exc.at(f".{name}")
            elif not optional:
                raise _Malformed("missing field").at(f".{name}")
        return self.cls(**kwargs)


@functools.lru_cache(maxsize=None)
def _plan(cls: Type) -> _FieldPlan:
    return _FieldPlan(cls)


def _converter(hint: Any) -> Tuple[Callable[[Any], Any], Callable[[Any], Any]]:
    """The (encode, decode) pair for values annotated ``hint``."""
    if hint is Any:
        return _same, _same
    if hint in _SCALARS:
        return hint, _SCALARS[hint]
    if hint is np.ndarray:
        return lambda v: np.asarray(v, dtype=float).tolist(), _float_array
    if hint is _IntArray:
        return lambda v: [int(x) for x in v], _float_array
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union and len(args) == 2 and type(None) in args:
        encode, decode = _converter(next(a for a in args if a is not type(None)))
        return (lambda v: None if v is None else encode(v),
                lambda v: None if v is None else decode(v))
    if origin in (list, tuple) and len(set(args) - {Ellipsis}) == 1:
        # List[X], Tuple[X, ...] and fixed-length Tuple[X, X]
        size = len(args) if origin is tuple and Ellipsis not in args else None
        encode, decode = _converter(args[0])
        return lambda v: list(map(encode, v)), _sequence(decode, origin, size)
    if origin is dict:
        encode, decode = _converter(args[1])
        return lambda v: {k: encode(x) for k, x in v.items()}, _mapping(decode)
    if dataclasses.is_dataclass(hint):
        codec = _CODECS_BY_TYPE.get(hint)
        if codec is None:
            return _plan(hint).encode, _plan(hint).decode
        return (_NESTED_ENCODERS.get(hint, functools.partial(_encode, codec)),
                functools.partial(_decode, codec))
    raise TypeError(f"no field-driven wire form for annotation {hint!r}")


def _same(value: Any) -> Any:
    return value


def _scalar(kind: Type, *accepted: Type) -> Callable[[Any], Any]:
    """Decode-side check of a scalar annotation (the type itself encodes)."""
    def decode(value: Any) -> Any:
        if type(value) not in accepted:
            raise _not_a(kind.__name__, value)
        return kind(value)

    return decode


_SCALARS = {
    float: _scalar(float, float, int),
    int: _scalar(int, int),
    bool: _scalar(bool, bool),
    str: _scalar(str, str),
}


def _float_array(value: Any) -> np.ndarray:
    if not isinstance(value, list):
        raise _not_a("a list", value)
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise _Malformed(f"not a numeric array ({exc})") from None


def _sequence(decode_item: Callable[[Any], Any], build: Type,
              size: Optional[int]) -> Callable[[Any], Any]:
    def decode(value: Any) -> Any:
        if not isinstance(value, list):
            raise _not_a("a list", value)
        if size is not None and len(value) != size:
            raise _Malformed(f"expected {size} items, got {len(value)}")
        try:
            items = [decode_item(item) for item in value]
        except _Malformed as exc:
            raise exc.at(f"[{_misfit(decode_item, enumerate(value))}]")
        return items if build is list else build(items)

    return decode


def _mapping(decode_value: Callable[[Any], Any]) -> Callable[[Any], Any]:
    def decode(value: Any) -> Dict:
        if not isinstance(value, dict):
            raise _not_a("an object", value)
        try:
            return {key: decode_value(item) for key, item in value.items()}
        except _Malformed as exc:
            raise exc.at(f"[{_misfit(decode_value, value.items())!r}]")

    return decode


def _misfit(decode: Callable[[Any], Any], entries: Iterable[Tuple[Any, Any]]) -> Any:
    """Key of the first ``(key, value)`` entry that ``decode`` rejects."""
    for key, value in entries:
        try:
            decode(value)
        except _Malformed:
            return key


def _not_a(what: str, value: Any) -> _Malformed:
    return _Malformed(f"expected {what}, got {type(value).__name__}")


# -- built-in codecs ---------------------------------------------------------
#
# Registered lazily on first use: the experiment modules import solvers
# (scipy etc.) and some of them import repro.io themselves, so eager
# registration at module import time would create cycles.


def _ensure_builtin_codecs() -> None:
    global _BUILTINS_REGISTERED
    if _BUILTINS_REGISTERED:
        return
    before = set(_CODECS_BY_KIND)
    try:
        _register_builtin_codecs()
    except BaseException:
        # Roll back this call's partial registrations so the next caller
        # retries from a clean slate and sees the real import error, not a
        # misleading "no codec registered" message.
        for kind in set(_CODECS_BY_KIND) - before:
            codec = _CODECS_BY_KIND.pop(kind)
            _CODECS_BY_TYPE.pop(codec.cls, None)
        raise
    _BUILTINS_REGISTERED = True


def _without_header(to_dict: Callable[[Any], Dict]) -> Callable[[Any], Dict]:
    """A public helper's payload minus the header :func:`result_to_dict`
    stamps on last."""
    return lambda obj: {k: v for k, v in to_dict(obj).items()
                        if k not in ("kind", "format_version")}


def _register_builtin_codecs() -> None:
    from repro.campaign.result import CampaignResult
    from repro.core.quhe import QuHEResult
    from repro.core.stage1 import Stage1Result
    from repro.core.stage2 import Stage2Result
    from repro.core.stage3 import Stage3Result
    from repro.experiments.ablations import AblationSuite
    from repro.experiments.dynamic import DynamicStudy
    from repro.experiments.fig3_optimality import OptimalityStudy
    from repro.experiments.fig4_convergence import ConvergenceTraces
    from repro.experiments.fig5_comparison import (
        Fig5Bundle,
        MethodComparison,
        StageCallReport,
    )
    from repro.experiments.fig6_sweeps import SweepSeries, SweepSet
    from repro.experiments.report import ReportBundle
    from repro.experiments.tables import Stage1MethodComparison
    from repro.pipeline import PipelineReport
    from repro.serve.bench import ServeBenchResult
    from repro.serve.protocol import ServeRequest, ServeResponse
    from repro.sim.result import (
        AdaptiveSimStudy,
        RoutingCompareStudy,
        SimulationResult,
    )

    # Formats the fields do not describe.
    register_codec("allocation", Allocation,
                   _without_header(allocation_to_dict), allocation_from_dict)
    register_codec("metrics", Metrics,
                   _without_header(metrics_to_dict), metrics_from_dict)
    register_codec("fault_plan", _faults.FaultPlan,
                   _faults.FaultPlan.to_dict, _faults.FaultPlan.from_dict)
    register_codec("serve_request", ServeRequest,
                   ServeRequest.to_dict, ServeRequest.from_dict)
    register_codec("serve_response", ServeResponse,
                   ServeResponse.to_dict, ServeResponse.from_dict)

    # Everything else is its fields.
    for kind, cls in (
        ("stage1_result", Stage1Result),
        ("stage2_result", Stage2Result),
        ("stage3_result", Stage3Result),
        ("quhe_result", QuHEResult),
        ("stage1_method_comparison", Stage1MethodComparison),
        ("optimality_study", OptimalityStudy),
        ("convergence_traces", ConvergenceTraces),
        ("stage_call_report", StageCallReport),
        ("method_comparison", MethodComparison),
        ("fig5_bundle", Fig5Bundle),
        ("sweep_series", SweepSeries),
        ("sweep_set", SweepSet),
        ("ablation_suite", AblationSuite),
        ("dynamic_study", DynamicStudy),
        ("pipeline_report", PipelineReport),
        ("simulation_result", SimulationResult),
        ("adaptive_sim_study", AdaptiveSimStudy),
        ("routing_compare_study", RoutingCompareStudy),
        ("campaign_result", CampaignResult),
        ("report_bundle", ReportBundle),
        ("serve_bench_result", ServeBenchResult),
    ):
        register_codec(kind, cls)
