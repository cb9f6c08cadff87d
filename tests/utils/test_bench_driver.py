"""The benchmark driver ``scripts/bench.py``: its floor table and ``--check``.

The committed ``BENCH_<suite>.json`` snapshots must be strict JSON, carry
the machine calibration, and hold every full-mode floor of their suite.
The check itself is fed synthetic rows through a stubbed suite, so no
measurement runs here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.utils.bench import BenchResult, check_floors

REPO_ROOT = Path(__file__).resolve().parents[2]
SCRIPT = REPO_ROOT / "scripts" / "bench.py"
SUITE_NAMES = ["solver", "batch", "sim", "routing", "campaign", "serve", "crypto"]


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_driver", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _committed_rows(name):
    payload = json.loads(
        (REPO_ROOT / f"BENCH_{name}.json").read_text(),
        parse_constant=_reject_constant,
    )
    rows = [
        BenchResult(
            op=row["op"], backend=row["backend"], params=row["params"],
            reps=row["reps"], seconds_per_op=row["seconds_per_op"],
        )
        for row in payload["results"]
    ]
    return payload["meta"], rows


def test_table_has_one_entry_per_suite(bench):
    assert list(bench.SUITES) == SUITE_NAMES


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_every_floor_names_an_op_of_its_committed_file(bench, name):
    _, rows = _committed_rows(name)
    ops = {row.op for row in rows}
    _, floors = bench.SUITES[name]
    assert floors
    for floor in floors:
        assert floor.mode in ("both", "full", "quick")
        assert floor.op in ops
        if floor.min_ratio is not None:
            assert (floor.min_ratio_vs or floor.op) in ops


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_committed_file_is_strict_json_and_meets_full_floors(bench, name):
    meta, rows = _committed_rows(name)
    assert meta["quick"] is False
    assert meta["calibration"]["py_loop_ms"] > 0
    assert check_floors(rows, bench.floors_for(name, quick=False)) == []


def _serve_rows(**changes):
    """Synthetic serve rows far above every serve floor; ``changes`` maps an
    op to a replacement row (or ``None`` to drop it)."""
    rows = {
        "serve_sustained": BenchResult(
            "serve_sustained", "daemon", {"byte_identical": True},
            reps=1, seconds_per_op=1e-6,
        ),
        "serve_coalesce_on": BenchResult(
            "serve_coalesce", "coalesce-on", {}, reps=1, seconds_per_op=1e-6
        ),
        "serve_coalesce_off": BenchResult(
            "serve_coalesce", "coalesce-off", {}, reps=1, seconds_per_op=1.0
        ),
        "serve_coalesce_proof": BenchResult(
            "serve_coalesce_proof", "daemon", {"proven": True}, reps=1
        ),
        "serve_identity": BenchResult(
            "serve_identity", "daemon", {"identical": True}, reps=1
        ),
        "serve_availability": BenchResult(
            "serve_availability", "supervised",
            {"availability": 1.0, "worker_restarts": 1000},
            reps=1, seconds_per_op=1e-3,
        ),
    }
    rows.update(changes)
    return [row for row in rows.values() if row is not None]


def _check_serve(bench, monkeypatch, tmp_path, rows):
    _, floors = bench.SUITES["serve"]
    monkeypatch.setitem(bench.SUITES, "serve", (lambda quick: rows, floors))
    return bench.run_suite("serve", True, True, tmp_path)


def test_synthetic_rows_that_hold_every_floor_pass(bench, monkeypatch, tmp_path):
    assert _check_serve(bench, monkeypatch, tmp_path, _serve_rows()) == 0
    written = json.loads(
        (tmp_path / "BENCH_serve.json").read_text(),
        parse_constant=_reject_constant,
    )
    assert written["meta"]["quick"] is True
    proof = next(r for r in written["results"] if r["op"] == "serve_coalesce_proof")
    assert proof["seconds_per_op"] is None and proof["ops_per_second"] is None


@pytest.mark.parametrize(
    "changes, message",
    [
        (  # throughput floor: 1 req/s
            {"serve_sustained": BenchResult(
                "serve_sustained", "daemon", {"byte_identical": True},
                reps=1, seconds_per_op=1.0)},
            "below the",
        ),
        (  # ratio floor: coalescing on no faster than off
            {"serve_coalesce_on": BenchResult(
                "serve_coalesce", "coalesce-on", {}, reps=1,
                seconds_per_op=1.0)},
            "faster than",
        ),
        (  # a throughput row without a timing
            {"serve_sustained": BenchResult(
                "serve_sustained", "daemon", {"byte_identical": True}, reps=1)},
            "below the",
        ),
        (  # hard check: the coalesce proof failed
            {"serve_coalesce_proof": BenchResult(
                "serve_coalesce_proof", "daemon", {"proven": False}, reps=1)},
            "hard check proven",
        ),
        (  # hard check: the crash storm never fired
            {"serve_availability": BenchResult(
                "serve_availability", "supervised",
                {"availability": 1.0, "worker_restarts": 0},
                reps=1, seconds_per_op=1e-3)},
            "hard check worker_restarts",
        ),
        ({"serve_identity": None}, "missing"),
    ],
)
def test_check_fails_on_each_kind_of_violation(
    bench, monkeypatch, tmp_path, capsys, changes, message
):
    rc = _check_serve(bench, monkeypatch, tmp_path, _serve_rows(**changes))
    out = capsys.readouterr().out
    assert rc == 1
    violations = [line for line in out.splitlines() if "FLOOR VIOLATION" in line]
    assert len(violations) == 1 and message in violations[0]


def test_quick_run_refuses_to_overwrite_the_committed_snapshots(bench):
    before = (REPO_ROOT / "BENCH_sim.json").read_bytes()
    with pytest.raises(SystemExit) as exc:
        bench.main(["sim", "--quick"])
    assert exc.value.code == 2
    assert (REPO_ROOT / "BENCH_sim.json").read_bytes() == before
