"""Fuzzed JSON round trips over every field-driven codec kind.

Strategies are derived from the same type hints the codecs are: finite
floats, bounded ints, short strings, JSON scalars for ``Any``, 1-4-entry
float arrays (one length per instance, as the allocation invariants
require), and integral values for the λ (``lam``) fields, which travel as
integers.  Every kind must come back from
``result_from_dict(json.loads(json.dumps(result_to_dict(x))))`` equal to
``x`` field by field, types included.
"""

import dataclasses
import json
import typing

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import io as repro_io
from repro.io import registered_kinds, result_from_dict, result_to_dict

#: Kinds with a hand-written format; they are fuzzed only where nested.
HAND_WRITTEN = {
    "allocation", "metrics", "fault_plan", "serve_request", "serve_response",
}
FIELD_DRIVEN = [k for k in registered_kinds() if k not in HAND_WRITTEN]

FINITE = st.floats(allow_nan=False, allow_infinity=False)
INTS = st.integers(-(2**31), 2**31)
LAMBDAS = st.integers(0, 2**20).map(float)
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), INTS, FINITE, st.text(max_size=5)
)


def strategy(hint, name, size):
    """Values of annotation ``hint`` for field ``name``; arrays get ``size``."""
    if hint is typing.Any:
        return JSON_SCALARS
    if hint in (float, int, bool, str):
        return {float: FINITE, int: INTS, bool: st.booleans(),
                str: st.text(max_size=6)}[hint]
    if hint is np.ndarray:
        items = LAMBDAS if name == "lam" else FINITE
        return st.lists(items, min_size=size, max_size=size).map(np.array)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        inner = next(arg for arg in args if arg is not type(None))
        return st.none() | strategy(inner, name, size)
    if origin is list or (origin is tuple and args[1:] == (Ellipsis,)):
        items = st.lists(strategy(args[0], name, size), max_size=3)
        return items if origin is list else items.map(tuple)
    if origin is tuple:
        return st.tuples(*(strategy(arg, name, size) for arg in args))
    if origin is dict:
        return st.dictionaries(
            st.text(max_size=5), strategy(args[1], name, size), max_size=3
        )
    if dataclasses.is_dataclass(hint):
        return instances(hint)
    raise TypeError(f"no strategy for {hint!r}")


@st.composite
def instances(draw, cls):
    size = draw(st.integers(1, 4))
    hints = typing.get_type_hints(cls)
    return cls(**{
        f.name: draw(strategy(hints[f.name], f.name, size))
        for f in dataclasses.fields(cls)
    })


def assert_same(a, b, path):
    assert type(a) is type(b), path
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name),
                        f"{path}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b), path
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{path}[{i}]")
    elif isinstance(a, dict):
        assert list(a) == list(b), path
        for key in a:
            assert_same(a[key], b[key], f"{path}[{key!r}]")
    else:
        assert a == b, path


@pytest.mark.parametrize("kind", FIELD_DRIVEN)
def test_json_round_trip_is_lossless(kind):
    cls = repro_io._CODECS_BY_KIND[kind].cls

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(instances(cls))
    def round_trip(obj):
        text = json.dumps(result_to_dict(obj))
        assert_same(result_from_dict(json.loads(text)), obj, kind)

    round_trip()
