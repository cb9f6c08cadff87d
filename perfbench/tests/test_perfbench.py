"""The benchmark's own tests: contract, smoke runs and output-check self-tests.

Run from the checkout root::

    python3 -m pytest perfbench/tests -q

The smoke runs start real interpreters (and, for ``serve_mixed``, a real
``repro serve`` daemon) on tiny inputs, so the module takes a few minutes.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench.common import import_repro  # noqa: E402

import_repro()

from perfbench import serve_mixed, sim_routed, sweep  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402
from perfbench.tracing import layer_metrics, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


# -- BENCHMARK.json --------------------------------------------------------------


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(entry["name"]), entry
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    # Each step of the serve rate ladder stays below the largest bound
    # (0.25); serve.max_rate_rps itself is reported, not gated.
    step = serve_mixed.LADDER[1] / serve_mixed.LADDER[0] - 1
    assert step < 0.25
    assert "serve.max_rate_rps" in [m["name"] for m in SPEC["per_layer"]]


# -- smoke runs ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def smoke_results():
    """Every workload, untraced at two seeds and traced at one."""
    out = {}
    for workload in WORKLOADS:
        for seed, trace in ((3, 0), (4, 0), (3, 1)):
            proc = run_bench(workload, seed, trace)
            assert proc.returncode == 0, proc.stderr[-2000:]
            out[workload, seed, trace] = json.loads(
                proc.stdout.strip().splitlines()[-1])
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_emits_every_metric_with_its_unit(smoke_results, workload,
                                                    trace):
    result = smoke_results[workload, 3, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_the_metric_values_not_the_metric_set(smoke_results,
                                                          workload):
    a, b = smoke_results[workload, 3, 0], smoke_results[workload, 4, 0]
    assert list(a["metrics"]) == list(b["metrics"])
    assert a["metrics"] != b["metrics"]


def test_seed_changes_the_inputs():
    def fingerprints(sets):
        from repro.api.service import config_fingerprint

        return [config_fingerprint(c) for calls in sets for call in calls
                for c in call.configs]

    assert fingerprints(sweep.make_inputs(3, smoke=True)) != fingerprints(
        sweep.make_inputs(4, smoke=True))
    assert fingerprints(sweep.make_inputs(3, smoke=True)) == fingerprints(
        sweep.make_inputs(3, smoke=True))
    a, b = (serve_mixed.make_plan(s, 5.0, smoke=True) for s in (3, 4))
    assert a.working_set != b.working_set and a.nominal != b.nominal
    assert serve_mixed.make_plan(3, 5.0, smoke=True).nominal == a.nominal
    assert (sim_routed.case_pins(3, smoke=False)
            != sim_routed.case_pins(4, smoke=False))


def test_missing_source_tree_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("sweep", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- output checks fire on tampered outputs ---------------------------------------


@pytest.fixture(scope="module")
def sweep_round():
    calls = sweep.make_round(5, 0, smoke=True)
    return calls, sweep.run_round(calls).results


def test_sweep_checks_pass_on_real_output(sweep_round):
    calls, results = sweep_round
    assert sweep.check_results(calls, results) == []
    picks = sweep.sample_indices(calls, 5)
    refs = sweep.scalar_references(calls, picks)
    assert sweep.check_against_scalar(calls, results, picks, refs) == []


def _replace_result(results, ci, j, result):
    tampered = [list(out) for out in results]
    tampered[ci][j] = result
    return tampered


def test_sweep_checks_fire_on_tampered_output(sweep_round):
    import dataclasses

    calls, results = sweep_round
    res = results[0][0]
    alloc = res.allocation
    cases = {
        "non-finite": dataclasses.replace(
            res, allocation=alloc.with_updates(p=alloc.p * np.nan)),
        "not converged": dataclasses.replace(res, converged=False),
        "violates": dataclasses.replace(
            res, allocation=alloc.with_updates(b=alloc.b * 2.0)),
    }
    for expected, bad in cases.items():
        failures = sweep.check_results(calls, _replace_result(results, 0, 0, bad))
        assert len(failures) == 1 and expected in failures[0], failures
    assert sweep.check_results(calls, [out[:-1] for out in results])
    picks = [(0, 0)]
    refs = {(0, 0): res}
    off = dataclasses.replace(
        res, metrics=dataclasses.replace(res.metrics,
                                         objective=res.objective + 1e-6))
    assert sweep.check_against_scalar(
        calls, _replace_result(results, 0, 0, off), picks, refs)
    lam = alloc.lam.copy()
    lam[0] = lam[0] + 1.0
    other_lam = dataclasses.replace(res, allocation=alloc.with_updates(lam=lam))
    assert sweep.check_against_scalar(
        calls, _replace_result(results, 0, 0, other_lam), picks, refs)


def test_serve_checks_fire_on_tampered_output(tmp_path):
    from repro.api.service import SolverService
    from repro.io import result_to_dict
    from repro.serve.cache import SqliteResultCache

    plan = serve_mixed.make_plan(6, 1.0, smoke=True)
    plan.nominal = [(0.0, 0)]
    db = tmp_path / "cache.db"
    with SqliteResultCache(db) as cache:
        payload = result_to_dict(
            SolverService(cache=cache).solve(plan.spec(0).build()))
    refs = serve_mixed.independent_solves(plan, ("n0",))
    assert serve_mixed.check_samples(plan, {"n0": payload}, str(db), refs) == []
    tampered = json.loads(json.dumps(payload))
    tampered["metrics"]["objective"] += 1e-3
    failures = serve_mixed.check_samples(plan, {"n0": tampered}, str(db), refs)
    assert any("payload differs" in f for f in failures)
    assert any("objective" in f for f in failures)
    assert serve_mixed.check_samples(plan, {"n0": None}, str(db), refs)

    ok = serve_mixed.Record(due=0.0, sent=0.0, recv=0.01, ok=True)
    shed = serve_mixed.Record(due=0.0, sent=0.0, recv=0.01, ok=False,
                              error="ServerOverloaded")
    lost = serve_mixed.Record(due=0.0, sent=0.0)
    window = serve_mixed.Window([ok, shed, lost], [])
    failures = serve_mixed.check_window(window)
    assert len(failures) == 2
    assert "ServerOverloaded" in failures[0] and "timeout" in failures[1]
    assert math.isinf(serve_mixed.percentile(window.latencies, 99))
    assert not window.passes()


def test_sim_check_fires_on_tampered_output():
    @dataclass
    class Fake:
        trace_digest: str
        events_processed: int

    pin = sim_routed.case_pins(0, smoke=True)[0]
    assert sim_routed.check_run(Fake(pin["digest"], pin["events"]), pin) == []
    assert len(sim_routed.check_run(Fake("0" * 64, pin["events"]), pin)) == 1
    assert len(sim_routed.check_run(Fake(pin["digest"], 1), pin)) == 1


def test_pinned_smoke_case_reproduces():
    pin = sim_routed.case_pins(2, smoke=True)[1]
    case = sim_routed.make_case(sim_routed.SMOKE_SHAPE)
    result, _, _ = sim_routed.simulate(case, pin["seed"])
    assert sim_routed.check_run(result, pin) == []


# -- span reduction -------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("core.solve", 0, 100, 1, None, "", {"k": 2, "shapes": 1,
                                             "iters": [1, 3], "degraded": 0}),
        ("core.stage3", 10, 40, 2, 1, "", {"k": 2}),
        ("core.stage3", 30, 50, 3, 1, "", {"k": 2}),
        ("io.decode", 200, 300, 4, None, "", {}),
        ("io.decode", 210, 220, 5, 4, "", {}),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(60e-9)
    metrics = layer_metrics(spans)
    assert metrics["core.other_s"] == pytest.approx(60e-9)
    assert metrics["core.stage3_s"] == pytest.approx(50e-9)
    assert metrics["io.decodes"] == 1  # the nested call is part of its parent
    assert metrics["io.decode_s"] == pytest.approx(100e-9)
    assert metrics["core.straggler_ratio"] == pytest.approx(1.5)
    assert metrics["core.ms_per_config.k16"] == pytest.approx(100e-6 / 2)
