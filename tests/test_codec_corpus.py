"""Golden codec corpus: the payload bytes of every registered kind are pinned.

``tests/golden_codecs/<kind>.json`` holds one payload per codec kind,
written by ``scripts/gen_codec_corpus.py`` exactly as
:func:`repro.io.save_result` writes it.  Run artifacts, sqlite cache rows
and campaign ``aggregate.json`` files depend on the key order and number
formatting the codecs emit, so decoding a corpus file and re-encoding it
must reproduce its bytes.  The tests read only the committed files and do
not depend on the solver's floating point.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ArtifactError
from repro.io import load_result, result_from_dict, save_result
from repro.serve.cache import SqliteResultCache

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS = REPO_ROOT / "tests" / "golden_codecs"
FILES = sorted(CORPUS.glob("*.json"))


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.stem)
def test_reencode_is_byte_identical(path, tmp_path):
    restored = save_result(load_result(path), tmp_path / path.name)
    assert restored.read_bytes() == path.read_bytes()


def test_every_kind_has_one_corpus_file_at_its_version():
    """A new codec cannot land without a corpus file (nor a version bump
    without a regenerated one).  The registry is read in a fresh
    interpreter so codecs that other tests register do not count."""
    script = (
        "import json, repro.io as io\n"
        "io.registered_kinds()\n"
        "print(json.dumps({k: c.version for k, c in io._CODECS_BY_KIND.items()}))"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    versions = json.loads(out)
    assert sorted(versions) == [path.stem for path in FILES]
    for path in FILES:
        payload = json.loads(path.read_text())
        assert payload["kind"] == path.stem
        assert payload["format_version"] == versions[path.stem]


# -- malformed payloads --------------------------------------------------------

#: Kinds with a hand-written format (and their own validation).
HAND_WRITTEN = {
    "allocation", "metrics", "fault_plan", "serve_request", "serve_response",
}
#: The only fields a payload may omit: older artifacts predate them.
WIRE_OPTIONAL = {
    "quhe_result": {"degraded"},
    "stage3_result": {"converged"},
    "campaign_result": {"cells_failed", "failed_cell_ids"},
    "simulation_result": {"reroutes", "pairs_flushed", "final_route_links"},
    "serve_bench_result": {
        "workers", "crash_rate", "hang_rate", "retry_enabled",
        "availability", "worker_restarts",
    },
}
FIELD_DRIVEN = [path.stem for path in FILES if path.stem not in HAND_WRITTEN]


def _corpus(kind):
    return json.loads((CORPUS / f"{kind}.json").read_text())


def _body_fields(payload):
    return [key for key in payload if key not in ("kind", "format_version")]


def _error(payload):
    with pytest.raises(ValueError) as info:
        result_from_dict(payload)
    return str(info.value)


def _default(cls, name):
    field = {f.name: f for f in dataclasses.fields(cls)}[name]
    if field.default is not dataclasses.MISSING:
        return field.default
    return field.default_factory()


@pytest.mark.parametrize("kind", FIELD_DRIVEN)
def test_dropped_field_is_rejected_unless_wire_optional(kind):
    for name in _body_fields(_corpus(kind)):
        payload = _corpus(kind)
        del payload[name]
        if name in WIRE_OPTIONAL.get(kind, ()):
            restored = result_from_dict(payload)
            assert getattr(restored, name) == _default(type(restored), name)
        else:
            assert _error(payload) == f"{kind}.{name}: missing field"


@pytest.mark.parametrize("kind", FIELD_DRIVEN)
def test_object_replaced_by_list_is_rejected(kind):
    objects = [name for name, value in _corpus(kind).items()
               if isinstance(value, dict)]
    for name in objects:
        payload = _corpus(kind)
        payload[name] = []
        assert _error(payload).startswith(f"{kind}.{name}: expected ")


def test_nested_paths_are_named():
    payload = _corpus("quhe_result")
    del payload["stage1"]["converged"]  # a default alone is not optional
    assert _error(payload) == "quhe_result.stage1.converged: missing field"

    payload = _corpus("ablation_suite")
    payload["weights"][1] = []
    assert _error(payload) == (
        "ablation_suite.weights[1]: expected an object, got list")

    payload = _corpus("sweep_set")
    del payload["panels"]["server_cpu"]["x_values"]
    assert _error(payload) == (
        "sweep_set.panels['server_cpu'].x_values: missing field")

    payload = _corpus("quhe_result")
    payload["stage1_calls"] = "3"
    assert _error(payload) == (
        "quhe_result.stage1_calls: expected int, got str")


def test_nested_payload_of_the_wrong_kind_is_rejected():
    payload = _corpus("quhe_result")
    payload["stage1"] = payload["stage2"]
    assert _error(payload) == (
        "quhe_result.stage1: expected a stage1_result payload, "
        "got kind 'stage2_result'")


def test_malformed_hand_written_payload_is_a_value_error():
    payload = _corpus("quhe_result")
    del payload["metrics"]["per_node"]
    assert _error(payload) == (
        "quhe_result.metrics: malformed metrics payload: KeyError('per_node')")


def test_payload_that_is_not_an_object_is_rejected():
    assert _error([]) == "expected a result payload object, got list"


def test_malformed_artifact_and_cache_row_raise_artifact_error(tmp_path):
    payload = _corpus("quhe_result")
    del payload["stage3"]["value"]
    path = tmp_path / "result.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ArtifactError) as info:
        load_result(path)
    assert str(info.value) == f"{path}: quhe_result.stage3.value: missing field"
    assert info.value.path == str(path)

    cache = SqliteResultCache(str(tmp_path / "results.db"))
    cache.put_payload("k", payload)
    with pytest.raises(ArtifactError, match=r"quhe_result\.stage3\.value: missing field"):
        cache.get("k")
