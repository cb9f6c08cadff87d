"""WorkerSupervisor: payload fidelity, poison isolation, crash/hang recovery.

Subprocess-spawning tests use a single worker with tight settings so the
whole file stays tier-1 fast (two only where the pool's hand-out order is
the point); the circuit-breaker state machine is driven with a fake clock
and no processes at all.

Fault determinism: a respawned worker forks with fresh seam counters, so a
``serve.worker`` rule with ``after=1`` makes each *fresh* worker's first
batch safe — that is what guarantees recovery in the crash/hang tests.
"""

import asyncio
import json

import pytest

from repro import faults
from repro.errors import (
    ConfigurationError,
    DeadlineExceeded,
    FaultInjected,
    ServerOverloaded,
    WorkerCrashed,
)
from repro.faults import CRASH_EXIT_STATUS, FaultPlan, FaultRule
from repro.serve.protocol import ConfigSpec
from repro.serve.supervisor import SupervisorSettings, WorkerSupervisor


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    faults.clear()
    yield
    faults.clear()


#: Test pool: one worker, no respawn backoff (recovery paths stay fast).
def _settings(**overrides) -> SupervisorSettings:
    base = dict(
        workers=1,
        batch_deadline_s=20.0,
        respawn_backoff_base_s=0.0,
        max_restarts=1000,
    )
    base.update(overrides)
    return SupervisorSettings(**base)


def _specs(n: int):
    return [
        ConfigSpec(seed=2, total_bandwidth_hz=1e6 + i * 2.5e5).to_dict()
        for i in range(n)
    ]


def _scrub(payload):
    """Drop wall-clock fields: everything else is bit-deterministic."""
    clean = {}
    for key, value in payload.items():
        if key == "runtime_s":
            continue
        if isinstance(value, dict):
            value = _scrub(value)
        clean[key] = value
    return clean


async def _with_pool(settings, body, plan=None):
    """Run ``body(supervisor)`` on a started pool.

    ``plan`` is installed *before* the workers spawn: children pick the
    plan up at fork/spawn time, so activating it later would be invisible
    to them.
    """
    if plan is not None:
        with plan.activate():
            return await _with_pool(settings, body)
    supervisor = WorkerSupervisor(settings)
    await supervisor.start()
    try:
        return await body(supervisor)
    finally:
        await supervisor.stop(drain_timeout_s=5.0)


def _worker_plan(kind: str, **kwargs) -> FaultPlan:
    return FaultPlan(seed=11, rules=(
        FaultRule(seam="serve.worker", kind=kind, probability=1.0, **kwargs),
    ))


class TestSettings:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SupervisorSettings(workers=0)
        with pytest.raises(ConfigurationError):
            SupervisorSettings(batch_deadline_s=0.0)
        with pytest.raises(ConfigurationError):
            SupervisorSettings(max_attempts=0)
        with pytest.raises(ConfigurationError):
            SupervisorSettings(max_restarts=0)
        with pytest.raises(ConfigurationError):
            SupervisorSettings(restart_window_s=0.0)


class TestHappyPath:
    def test_worker_payloads_match_direct_batched_solve(self):
        """Worker output == in-process solve_many modulo runtime fields."""
        from repro import io as repro_io
        from repro.api.service import SolverService

        spec_dicts = _specs(2)

        async def body(supervisor):
            return await supervisor.solve_specs(spec_dicts)

        outcomes = asyncio.run(_with_pool(_settings(), body))
        assert len(outcomes) == 2
        configs = [ConfigSpec.from_dict(d).build() for d in spec_dicts]
        direct = SolverService(cache_size=0).solve_many(
            configs, use_cache=False
        )
        for outcome, result in zip(outcomes, direct):
            assert not isinstance(outcome, BaseException)
            expected = repro_io.result_to_dict(result)
            assert json.dumps(_scrub(outcome), sort_keys=True) == json.dumps(
                _scrub(expected), sort_keys=True
            )

    def test_empty_batch_is_a_noop(self):
        async def body(supervisor):
            assert await supervisor.solve_specs([]) == []
            assert supervisor.stats["dispatched_batches"] == 0

        asyncio.run(_with_pool(_settings(), body))

    def test_health_snapshot_shape(self):
        async def body(supervisor):
            await supervisor.solve_specs(_specs(1))
            return supervisor.health_snapshot()

        health = asyncio.run(_with_pool(_settings(), body))
        assert health["breaker"] == "closed"
        assert health["worker_restarts"] == 0
        (worker,) = health["workers"]
        assert worker["alive"] is True
        assert worker["state"] == "idle"
        assert isinstance(worker["pid"], int)


class TestPoisonIsolation:
    def test_one_poisoned_spec_fails_alone(self):
        """Batch fault + one retry fault: exactly one item pays for it.

        ``raise`` with ``max_fires=2`` on one worker: the batch attempt
        burns fire 1, the first individual re-dispatch burns fire 2, the
        second individual re-dispatch runs clean — so the batch-mate of a
        poisoned config still gets its payload.
        """
        plan = _worker_plan("raise", max_fires=2)

        async def body(supervisor):
            return await supervisor.solve_specs(_specs(2)), dict(
                supervisor.stats
            )

        outcomes, stats = asyncio.run(_with_pool(_settings(), body, plan))
        assert isinstance(outcomes[0], FaultInjected)
        assert not isinstance(outcomes[1], BaseException)
        assert outcomes[1]["kind"] == "quhe_result"
        assert stats["redispatched"] == 2
        # A `raise` fault is an in-worker exception, not a death: the
        # worker survives and no respawn happens.
        assert stats["worker_restarts"] == 0


class TestSolveSeam:
    """``worker.solve`` fires inside the worker's own solve, per config."""

    def test_raise_fails_the_batch_and_redispatch_recovers(self):
        """The one-shot fault fails the batch's solve; the individual
        re-dispatches solve cleanly in the same, surviving worker."""
        plan = FaultPlan(seed=11, rules=(
            FaultRule(seam="worker.solve", kind="raise"),))

        async def body(supervisor):
            return await supervisor.solve_specs(_specs(2)), dict(
                supervisor.stats
            )

        outcomes, stats = asyncio.run(_with_pool(_settings(), body, plan))
        assert [o["kind"] for o in outcomes] == ["quhe_result"] * 2
        assert stats["redispatched"] == 2
        assert stats["worker_restarts"] == 0

    def test_crash_respawns_and_redispatch_recovers(self):
        """after=1 crash at the solve seam: the second batch kills the
        worker and the respawned worker carries it."""
        plan = FaultPlan(seed=11, rules=(
            FaultRule(seam="worker.solve", kind="crash", after=1),))

        async def body(supervisor):
            first = await supervisor.solve_specs(_specs(1))
            second = await supervisor.solve_specs(_specs(1))
            return first, second, dict(supervisor.stats)

        first, second, stats = asyncio.run(
            _with_pool(_settings(), body, plan)
        )
        assert not isinstance(first[0], BaseException)
        assert not isinstance(second[0], BaseException)
        assert stats["worker_crashes"] == 1
        assert stats["worker_restarts"] == 1
        assert stats["redispatched"] == 1


class TestCrashRecovery:
    def test_crash_surfaces_worker_crashed_with_exit_status(self):
        """max_attempts=1: the injected crash comes back as the outcome."""
        plan = _worker_plan("crash")

        async def body(supervisor):
            return await supervisor.solve_specs(_specs(1)), dict(
                supervisor.stats
            )

        outcomes, stats = asyncio.run(
            _with_pool(_settings(max_attempts=1), body, plan)
        )
        (outcome,) = outcomes
        assert isinstance(outcome, WorkerCrashed)
        assert outcome.exit_status == CRASH_EXIT_STATUS
        assert outcome.exit_code == 5
        assert stats["worker_crashes"] == 1
        assert stats["worker_restarts"] == 1

    def test_respawn_and_individual_redispatch_recover(self):
        """after=1 crash: batch dies, the respawned worker carries it.

        Each fresh worker forks with zeroed seam counters, so the first
        eligible hit is always skipped: the second batch on the original
        worker crashes, and the replacement's re-dispatch succeeds.
        """
        plan = _worker_plan("crash", after=1)

        async def body(supervisor):
            first = await supervisor.solve_specs(_specs(1))
            second = await supervisor.solve_specs(_specs(1))
            return first, second, dict(supervisor.stats)

        first, second, stats = asyncio.run(
            _with_pool(_settings(), body, plan)
        )
        assert not isinstance(first[0], BaseException)
        assert not isinstance(second[0], BaseException)
        assert stats["worker_crashes"] == 1
        assert stats["worker_restarts"] == 1
        assert stats["redispatched"] == 1

    def test_redispatch_lands_on_the_respawned_worker(self):
        """Two workers, and every fresh worker's second batch crashes.

        Each faulted batch is re-dispatched to the worker respawned for it
        (the last one released), whose first batch is safe, never to the
        other worker's faulted second batch, so every solve is answered.
        """
        plan = _worker_plan("crash", after=1)

        async def body(supervisor):
            outcomes = [
                await supervisor.solve_specs(_specs(1)) for _ in range(3)
            ]
            return outcomes, dict(supervisor.stats)

        outcomes, stats = asyncio.run(
            _with_pool(_settings(workers=2), body, plan)
        )
        for (outcome,) in outcomes:
            assert not isinstance(outcome, BaseException)
        assert stats["worker_crashes"] == 2
        assert stats["redispatched"] == 2


class TestHangRecovery:
    def test_missed_deadline_kills_and_redispatches(self):
        plan = _worker_plan("hang", after=1, delay_s=60.0)

        async def body(supervisor):
            first = await supervisor.solve_specs(_specs(1))
            second = await supervisor.solve_specs(_specs(1))
            return first, second, dict(supervisor.stats)

        first, second, stats = asyncio.run(
            _with_pool(_settings(batch_deadline_s=1.0), body, plan)
        )
        assert not isinstance(first[0], BaseException)
        assert not isinstance(second[0], BaseException)
        assert stats["deadline_timeouts"] == 1
        assert stats["worker_restarts"] == 1

    def test_hang_with_single_attempt_surfaces_deadline_exceeded(self):
        plan = _worker_plan("hang", delay_s=60.0)

        async def body(supervisor):
            return await supervisor.solve_specs(_specs(1))

        outcomes = asyncio.run(
            _with_pool(
                _settings(batch_deadline_s=0.5, max_attempts=1), body, plan
            )
        )
        assert isinstance(outcomes[0], DeadlineExceeded)


class _FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class TestCircuitBreaker:
    """Pure state-machine tests: fake clock, no subprocesses."""

    def _supervisor(self, clock):
        return WorkerSupervisor(SupervisorSettings(
            workers=1, max_restarts=2, restart_window_s=60.0,
            breaker_cooldown_s=5.0, clock=clock,
        ))

    def test_restart_storm_opens_then_cooldown_half_opens(self):
        clock = _FakeClock()
        supervisor = self._supervisor(clock)
        supervisor._note_restart()
        supervisor._note_restart()
        assert supervisor.breaker_state() == "closed"
        supervisor._note_restart()  # 3 > max_restarts=2: storm
        assert supervisor.breaker_state() == "open"
        assert supervisor.stats["breaker_opens"] == 1
        with pytest.raises(ServerOverloaded) as excinfo:
            supervisor.check_breaker()
        assert 0.0 < excinfo.value.retry_after_ms <= 5000.0
        assert supervisor.stats["breaker_shed"] == 1
        clock.now += 5.1
        assert supervisor.breaker_state() == "half-open"
        supervisor.check_breaker()  # half-open admits the probe

    def test_half_open_probe_success_closes(self):
        clock = _FakeClock()
        supervisor = self._supervisor(clock)
        for _ in range(3):
            supervisor._note_restart()
        clock.now += 5.1
        assert supervisor.breaker_state() == "half-open"
        supervisor._note_success()
        assert supervisor.breaker_state() == "closed"
        assert supervisor.health_snapshot()["restarts_in_window"] == 0

    def test_half_open_probe_failure_reopens(self):
        clock = _FakeClock()
        supervisor = self._supervisor(clock)
        for _ in range(3):
            supervisor._note_restart()
        clock.now += 5.1
        assert supervisor.breaker_state() == "half-open"
        supervisor._note_restart()  # the probe crashed too
        assert supervisor.breaker_state() == "open"
        assert supervisor.stats["breaker_opens"] == 2

    def test_restarts_age_out_of_the_window(self):
        clock = _FakeClock()
        supervisor = self._supervisor(clock)
        supervisor._note_restart()
        supervisor._note_restart()
        clock.now += 61.0  # both fall out of the 60s window
        supervisor._note_restart()
        assert supervisor.breaker_state() == "closed"
        assert supervisor.health_snapshot()["restarts_in_window"] == 1
