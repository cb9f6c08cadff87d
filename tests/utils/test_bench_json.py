"""Benchmark reports are strict JSON.

A row without a timing (a proof or an identity check) writes ``null``, not
``NaN``/``Infinity``, which JSON parsers outside Python reject; any other
non-finite number makes ``write_results`` raise instead of writing it.
"""

import json

import pytest

from repro.utils.bench import BenchResult, write_results


def _strict_load(path):
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


def test_row_without_timing_writes_null(tmp_path):
    proof = BenchResult(op="proof", backend="daemon", params={"proven": True})
    timed = BenchResult(op="timed", backend="x", reps=4, seconds_per_op=0.25)
    assert proof.ops_per_second is None
    path = write_results(
        tmp_path / "r.json", [proof, timed], meta={"calibration": {"py_loop_ms": 40.0}}
    )
    payload = _strict_load(path)
    untimed, row = payload["results"]
    assert untimed["seconds_per_op"] is None and untimed["ops_per_second"] is None
    assert row["seconds_per_op"] == 0.25 and row["ops_per_second"] == 4.0
    assert payload["meta"]["calibration"] == {"py_loop_ms": 40.0}


@pytest.mark.parametrize(
    "result",
    [
        BenchResult(op="t", backend="x", seconds_per_op=float("nan")),
        BenchResult(op="t", backend="x", seconds_per_op=0.1,
                    params={"speedup": float("inf")}),
    ],
)
def test_non_finite_numbers_are_refused(tmp_path, result):
    with pytest.raises(ValueError):
        write_results(tmp_path / "r.json", [result])
    assert not (tmp_path / "r.json").exists()
