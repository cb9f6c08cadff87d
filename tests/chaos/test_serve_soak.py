"""Self-healing serving soak: crash/hang storms, drain, no lost results.

Claims, per docs/serving.md:

* a seeded ``serve.worker`` crash/hang storm against supervised workers,
  driven by retrying clients, never wedges the daemon and keeps
  availability at the floor — the supervisor respawns workers and
  re-dispatches their batches (``after=1`` makes each fresh worker's
  first batch safe, so recovery is deterministic, not luck);
* payloads produced by supervised workers under the storm are
  byte-identical to a direct ``SolverService`` solve through the shared
  sqlite cache;
* the ``serve.drain`` seam can delay a graceful drain but never abort
  it — adversarial plans included;
* SIGTERM against the real ``repro serve`` process drains gracefully:
  every in-flight request is answered, the daemon exits 0, and the
  results survive in the cache.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import faults
from repro.faults import FaultPlan, FaultRule

pytestmark = pytest.mark.chaos

SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    faults.clear()
    yield
    faults.clear()


class TestCrashStormSoak:
    @pytest.mark.parametrize(
        "fault_seed, first_fire", [(3, "crash"), (31, "hang")],
        ids=["crash", "hang"],
    )
    def test_mixed_storm_keeps_availability_and_heals(
        self, monkeypatch, fault_seed, first_fire
    ):
        """Crash+hang storm with retrying clients: nothing is lost.

        ``distinct=1, coalesce=False, use_cache=False`` forces every
        request through the worker pool.

        The storm fires on a fixed batch, not within a time window: each
        seed's plan spares a fresh worker's first batch and fires on its
        second, one seed with a crash and one with a hang.  The warm-up
        batch is some worker's first, so the storm fires on the first drive
        batch that worker takes.  A faulted batch is re-dispatched to the
        worker respawned for it, whose first batch is safe, rather than to
        the other worker's faulted second batch.
        """
        from repro.serve.bench import run_serve_bench

        installed = []
        install = faults.install

        def recording_install(plan, **kwargs):
            installed.append(plan)
            return install(plan, **kwargs)

        monkeypatch.setattr(faults, "install", recording_install)
        result = run_serve_bench(
            clients=8, duration=1.5, distinct=1, seed=2,
            use_cache=False, coalesce=False, max_queue=4096,
            workers=2, batch_deadline_s=1.0, max_restarts=10_000,
            crash_rate=0.4, hang_rate=0.15, retry=True,
            fault_seed=fault_seed,
        )
        # Pin the schedule on the plan the run installed, so a change to
        # how fault streams are derived cannot silently disable the storm.
        (plan,) = installed
        injector = faults.FaultInjector(plan)
        fired = [injector.draw("serve.worker") for _ in range(2)]
        assert [rule and rule.kind for rule in fired] == [None, first_fire]
        assert result.worker_restarts >= 1, "the storm never fired"
        assert result.availability >= 0.99
        assert result.byte_identical
        assert result.requests > 0


class TestByteIdentityUnderFaults:
    def test_supervised_payloads_survive_a_crash_byte_for_byte(self, tmp_path):
        """A worker crash mid-batch costs a retry, never result fidelity.

        The second solve's batch kills its worker (``after=1`` spares the
        first); the supervisor's respawn + individual re-dispatch answers
        it anyway, and both payloads must come back byte-identical from a
        direct service sharing the daemon's sqlite cache.
        """
        from repro import io as repro_io
        from repro.api.service import SolverService
        from repro.serve import (
            AllocationServer,
            ConfigSpec,
            ServeClient,
            ServeSettings,
            SqliteResultCache,
        )

        db = str(tmp_path / "cache.db")
        specs = [
            ConfigSpec(seed=2),
            ConfigSpec(seed=2, total_bandwidth_hz=1.25e6),
        ]
        plan = FaultPlan(seed=5, rules=(
            FaultRule(seam="serve.worker", kind="crash", probability=1.0,
                      after=1, max_fires=1),
        ))

        async def main():
            server = AllocationServer(ServeSettings(
                socket_path=str(tmp_path / "soak.sock"), cache_db=db,
                workers=1,
            ))
            await server.start()
            try:
                client = await ServeClient.connect(
                    socket_path=server.settings.socket_path
                )
                try:
                    payloads = []
                    for spec in specs:
                        response = await client.solve(spec)
                        response.raise_for_error()
                        payloads.append(response.result)
                    health = await client.health()
                finally:
                    await client.close()
                return payloads, health
            finally:
                await server.stop()

        with plan.activate():  # before start(): workers inherit at fork
            payloads, health = asyncio.run(main())
        assert health["supervisor"]["worker_restarts"] == 1
        direct = SolverService(cache=SqliteResultCache(db))
        for spec, payload in zip(specs, payloads):
            expected = repro_io.result_to_dict(direct.solve(spec.build()))
            assert json.dumps(payload, sort_keys=True) == json.dumps(
                expected, sort_keys=True
            )


class TestPostStormCleanRun:
    def test_clean_run_after_the_storm_matches_golden_digest(self, tmp_path):
        """A spent storm leaves no residue in the serving numerics.

        After a crash storm (budget exhausted, plan cleared), a clean
        daemon solve must hash to the same golden digest as a never-faulted
        direct batched solve — wall-clock fields excluded, everything else
        bit-for-bit.
        """
        import hashlib

        from repro import io as repro_io
        from repro.api.service import SolverService
        from repro.serve import (
            AllocationServer,
            ConfigSpec,
            ServeClient,
            ServeSettings,
        )

        spec = ConfigSpec(seed=2)

        def scrub(payload):
            return {
                key: scrub(value) if isinstance(value, dict) else value
                for key, value in payload.items()
                if key != "runtime_s"
            }

        def digest(payload):
            return hashlib.sha256(
                json.dumps(scrub(payload), sort_keys=True).encode()
            ).hexdigest()

        plan = FaultPlan(seed=5, rules=(
            FaultRule(seam="serve.worker", kind="crash", probability=1.0,
                      after=1, max_fires=1),
        ))

        async def storm_then_clean():
            server = AllocationServer(ServeSettings(
                socket_path=str(tmp_path / "clean.sock"), workers=1,
            ))
            await server.start()
            try:
                client = await ServeClient.connect(
                    socket_path=server.settings.socket_path
                )
                try:
                    warm = await client.solve(spec, use_cache=False)
                    warm.raise_for_error()           # hit 1: skipped
                    stormed = await client.solve(spec, use_cache=False)
                    stormed.raise_for_error()        # hit 2: crash + heal
                    health = await client.health()
                finally:
                    await client.close()
                return stormed.result, health
            finally:
                await server.stop()

        with plan.activate():
            stormed_payload, health = asyncio.run(storm_then_clean())
        assert health["supervisor"]["worker_restarts"] == 1
        assert faults.active() is None  # no leaked plan after the storm

        golden = repro_io.result_to_dict(
            SolverService(cache_size=0).solve_many(
                [spec.build()], use_cache=False
            )[0]
        )
        assert digest(stormed_payload) == digest(golden)


class TestDrainSeam:
    def _settings(self, tmp_path, **overrides):
        from repro.serve import ServeSettings

        base = dict(socket_path=str(tmp_path / "drain.sock"))
        base.update(overrides)
        return ServeSettings(**base)

    def test_exception_kinds_cannot_abort_the_drain(self, tmp_path):
        from repro.serve import AllocationServer

        plan = FaultPlan(seed=5, rules=(
            FaultRule(seam="serve.drain", kind="raise", probability=1.0),
        ))

        async def main():
            server = AllocationServer(self._settings(tmp_path))
            await server.start()
            with plan.activate():
                await asyncio.wait_for(server.drain(), timeout=15)
            return server

        server = asyncio.run(main())
        assert server.stats["faults_injected"] == 1
        assert server._terminated.is_set()

    def test_hang_delay_is_bounded_by_the_drain_timeout(self, tmp_path):
        from repro.serve import AllocationServer

        plan = FaultPlan(seed=5, rules=(
            FaultRule(seam="serve.drain", kind="hang", probability=1.0,
                      delay_s=60.0),
        ))

        async def main():
            server = AllocationServer(
                self._settings(tmp_path, drain_timeout_s=0.5)
            )
            await server.start()
            loop = asyncio.get_running_loop()
            started = loop.time()
            with plan.activate():
                await asyncio.wait_for(server.drain(), timeout=15)
            return loop.time() - started

        elapsed = asyncio.run(main())
        # The 60s hang was clipped to the 0.5s drain budget.
        assert elapsed < 10.0


class TestSigtermDrain:
    def test_real_daemon_answers_inflight_work_then_exits_zero(self, tmp_path):
        """SIGTERM mid-load against the actual CLI process.

        Requests already on the wire when the signal lands must all be
        answered (none shed, none dropped), the process must exit 0, and
        the solved payloads must survive in the sqlite cache.
        """
        from repro.serve import ConfigSpec, ServeClient, SqliteResultCache

        sock = str(tmp_path / "daemon.sock")
        db = str(tmp_path / "daemon.db")
        env = dict(os.environ, PYTHONPATH=SRC)
        env.pop(faults.ENV_VAR, None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", sock,
             "--cache-db", db, "--workers", "1", "--max-wait-ms", "100"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 60
            while not os.path.exists(sock):
                assert proc.poll() is None, proc.communicate()[1]
                assert time.monotonic() < deadline, "daemon never bound"
                time.sleep(0.05)

            specs = [
                ConfigSpec(seed=2, total_bandwidth_hz=1e6 + i * 2.5e5)
                for i in range(4)
            ]

            async def drive():
                client = await ServeClient.connect(socket_path=sock)
                try:
                    solves = [
                        asyncio.ensure_future(client.solve(spec))
                        for spec in specs
                    ]
                    await asyncio.sleep(0.05)  # requests are now in flight
                    proc.send_signal(signal.SIGTERM)
                    return await asyncio.gather(*solves)
                finally:
                    await client.close()

            responses = asyncio.run(drive())
            for response in responses:
                response.raise_for_error()
            _, stderr = proc.communicate(timeout=60)
            assert proc.returncode == 0, stderr
            assert "drained, shut down" in stderr
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

        cache = SqliteResultCache(db)
        assert len(cache) == len(specs)
