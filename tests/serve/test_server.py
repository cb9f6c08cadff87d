"""AllocationServer tier-1 tests: smoke, coalescing, batching, shedding.

Each test runs an embedded daemon on a private unix socket inside one
``asyncio.run``.  The headline smoke test is the acceptance criterion:
a solve through the daemon must be *identical* to a direct
``SolverService.solve`` of the same configuration.  Tests marked
``both_modes`` hold the same contract in-process (``workers=0``) and with
one supervised worker subprocess (``workers=1``).
"""

import asyncio
import json
from pathlib import Path

import pytest

from repro import io as repro_io
from repro.api.service import SolverService, config_fingerprint
from repro.serve import (
    AllocationServer,
    ConfigSpec,
    ServeClient,
    ServeRequest,
    ServeSettings,
    SqliteResultCache,
)
from repro.serve.bench import payloads_equivalent
from repro.serve.protocol import encode_line


both_modes = pytest.mark.parametrize(
    "workers", [0, 1], ids=["workers=0", "workers=1"]
)


def _sock(tmp_path) -> str:
    return str(tmp_path / "serve.sock")


async def _with_server(settings, body):
    """Start a server, run ``body(server, client)``, always stop cleanly."""
    server = AllocationServer(settings)
    await server.start()
    try:
        client = await ServeClient.connect(
            socket_path=settings.socket_path or "",
            host=settings.host,
            port=0 if settings.socket_path else server.address[1],
        )
        try:
            return await body(server, client)
        finally:
            await client.close()
    finally:
        await server.stop()


class TestSmoke:
    @both_modes
    def test_daemon_solve_identical_to_direct_service_solve(
        self, tmp_path, workers
    ):
        """Unix-socket daemon result == direct SolverService.solve (bytes)."""
        db = str(tmp_path / "cache.db")
        spec = ConfigSpec(seed=2)

        async def body(server, client):
            response = await client.solve(spec)
            response.raise_for_error()
            return response

        response = asyncio.run(_with_server(
            ServeSettings(socket_path=_sock(tmp_path), cache_db=db,
                          workers=workers),
            body,
        ))
        assert response.meta["cache"] == "solved"
        assert response.meta.get("workers", False) is bool(workers)
        # A direct service sharing the daemon's sqlite cache returns the
        # stored payload — byte-identical, the acceptance criterion.
        direct = SolverService(cache=SqliteResultCache(db))
        direct_payload = repro_io.result_to_dict(direct.solve(spec.build()))
        assert json.dumps(response.result, sort_keys=True) == json.dumps(
            direct_payload, sort_keys=True
        )
        # One solve path: the daemon's miss answer is also what a fresh,
        # cache-less service computes for the same config.
        fresh = repro_io.result_to_dict(SolverService().solve(spec.build()))
        assert payloads_equivalent(response.result, fresh)

    def test_ping_and_stats_ops(self, tmp_path):
        async def body(server, client):
            assert await client.ping()
            stats = await client.stats()
            assert stats["requests"] >= 1
            assert set(stats["cache"]) == {
                "hits", "misses", "coalesced", "size",
            }
            assert stats["coalesce_enabled"] is True
            return stats

        asyncio.run(_with_server(
            ServeSettings(socket_path=_sock(tmp_path)), body
        ))

    def test_tcp_mode(self, tmp_path):
        async def body(server, client):
            response = await client.solve(ConfigSpec(seed=2))
            response.raise_for_error()
            assert response.result["kind"] == "quhe_result"

        asyncio.run(_with_server(ServeSettings(host="127.0.0.1", port=0), body))

    @both_modes
    def test_second_solve_hits_cache_with_identical_payload(
        self, tmp_path, workers
    ):
        spec = ConfigSpec(seed=2)

        async def body(server, client):
            first = await client.solve(spec)
            second = await client.solve(spec)
            assert second.meta["cache"] == "hit"
            assert json.dumps(first.result, sort_keys=True) == json.dumps(
                second.result, sort_keys=True
            )

        asyncio.run(_with_server(
            ServeSettings(socket_path=_sock(tmp_path), workers=workers), body
        ))


class TestCoalescing:
    @both_modes
    def test_concurrent_identical_requests_reach_backend_once(
        self, tmp_path, workers
    ):
        spec = ConfigSpec(seed=2)

        async def body(server, client):
            responses = await asyncio.gather(*(
                client.solve(spec, use_cache=False) for _ in range(12)
            ))
            for response in responses:
                response.raise_for_error()
            payloads = {
                json.dumps(r.result, sort_keys=True) for r in responses
            }
            assert len(payloads) == 1  # every waiter got the same result
            assert server.stats["backend_solves"] == 1
            assert server.stats["coalesced"] == 11
            dispositions = sorted(r.meta["cache"] for r in responses)
            assert dispositions.count("coalesced") == 11

        asyncio.run(_with_server(
            ServeSettings(socket_path=_sock(tmp_path), workers=workers), body
        ))

    @both_modes
    def test_coalesce_off_still_dedups_within_a_batch(self, tmp_path, workers):
        spec = ConfigSpec(seed=2)

        async def body(server, client):
            responses = await asyncio.gather(*(
                client.solve(spec, use_cache=False) for _ in range(6)
            ))
            for response in responses:
                response.raise_for_error()
            assert server.stats["coalesced"] == 0
            # The dispatch dedups identical fingerprints inside each batch:
            # every batch of this single-spec burst costs exactly one solve.
            assert server.stats["backend_solves"] == server.stats[
                "backend_batches"
            ]

        asyncio.run(_with_server(
            ServeSettings(socket_path=_sock(tmp_path), coalesce=False,
                          max_batch=8, max_wait_ms=50.0, workers=workers),
            body,
        ))


class TestMicroBatching:
    @both_modes
    def test_distinct_specs_share_a_backend_batch(self, tmp_path, workers):
        specs = [
            ConfigSpec(seed=2, total_bandwidth_hz=1e6 + i * 2.5e5)
            for i in range(4)
        ]

        async def body(server, client):
            responses = await asyncio.gather(*(
                client.solve(spec, use_cache=False) for spec in specs
            ))
            for response in responses:
                response.raise_for_error()
            assert server.stats["backend_solves"] == len(specs)
            # The linger window is generous enough that the concurrent burst
            # lands in fewer dispatches than requests.
            assert server.stats["backend_batches"] < len(specs)
            assert any(r.meta["batch_size"] > 1 for r in responses)
            for r in responses:
                assert r.meta["queue_ms"] >= 0.0
                assert r.meta["solve_ms"] > 0.0

        asyncio.run(_with_server(
            ServeSettings(socket_path=_sock(tmp_path), max_batch=8,
                          max_wait_ms=200.0, workers=workers),
            body,
        ))


class TestLoadShedding:
    def test_overflow_is_shed_with_structured_503(self, tmp_path):
        specs = [
            ConfigSpec(seed=2, total_bandwidth_hz=1e6 + i * 1e5)
            for i in range(8)
        ]

        async def body(server, client):
            responses = await asyncio.gather(*(
                client.solve(spec, use_cache=False) for spec in specs
            ))
            ok = [r for r in responses if r.ok]
            shed = [r for r in responses if not r.ok]
            assert ok, "some requests must be admitted"
            assert shed, "a 1-deep queue must shed part of a burst of 8"
            for r in shed:
                assert r.error["type"] == "ServerOverloaded"
                assert r.error["exit_code"] == 10
                assert r.error["retry_after_ms"] > 0
            assert server.stats["shed"] == len(shed)
            # The daemon is not wedged: a clean request still succeeds.
            retry = await client.solve(specs[0])
            retry.raise_for_error()

        asyncio.run(_with_server(
            ServeSettings(socket_path=_sock(tmp_path), coalesce=False,
                          max_batch=1, max_queue=1, max_wait_ms=0.0),
            body,
        ))


class TestProtocolErrors:
    def test_malformed_line_yields_error_response_and_connection_survives(
        self, tmp_path
    ):
        async def body(server, client):
            # Inject a malformed line under the client's write lock, then
            # prove the same connection still serves clean requests.
            async with client._write_lock:
                client._writer.write(b"{not json}\n")
                await client._writer.drain()
            assert await client.ping()
            assert server.stats["errors"] >= 1

        asyncio.run(_with_server(
            ServeSettings(socket_path=_sock(tmp_path)), body
        ))

    def test_unknown_op_yields_configuration_error(self, tmp_path):
        async def body(server, client):
            response = await client.request(ServeRequest(id="x1", op="ping"))
            assert response.ok
            # Hand-craft an unknown-op line (ServeRequest refuses locally).
            future = asyncio.get_running_loop().create_future()
            client._pending["x2"] = future
            async with client._write_lock:
                client._writer.write(
                    encode_line({"id": "x2", "op": "explode"})
                )
                await client._writer.drain()
            bad = await future
            assert not bad.ok
            assert bad.error["type"] == "ConfigurationError"
            assert bad.error["exit_code"] == 2

        asyncio.run(_with_server(
            ServeSettings(socket_path=_sock(tmp_path)), body
        ))

    def test_undecodable_cache_row_yields_artifact_error(self, tmp_path):
        """A cache hit on a row missing a field is answered with a typed
        ArtifactError naming the field path, not a raw KeyError."""
        db = str(tmp_path / "cache.db")
        spec = ConfigSpec(seed=2)
        golden = Path(__file__).resolve().parents[1] / "golden_codecs"
        row = json.loads((golden / "quhe_result.json").read_text())
        del row["stage3"]["value"]
        SqliteResultCache(db).put_payload(config_fingerprint(spec.build()), row)

        async def body(server, client):
            return await client.solve(spec)

        response = asyncio.run(_with_server(
            ServeSettings(socket_path=_sock(tmp_path), cache_db=db), body
        ))
        assert not response.ok
        assert response.error["type"] == "ArtifactError"
        assert "quhe_result.stage3.value: missing field" in (
            response.error["message"]
        )


class TestSolveSeam:
    def test_in_process_solve_fault_is_answered_not_cached(self, tmp_path):
        """``worker.solve`` fires in the in-process daemon's solve: the
        request gets a FaultInjected response, nothing is cached, and the
        next request solves cleanly."""
        from repro.faults import FaultPlan, FaultRule

        spec = ConfigSpec(seed=2)

        async def body(server, client):
            faulted = await client.solve(spec)
            clean = await client.solve(spec)
            return faulted, clean

        plan = FaultPlan(seed=11, rules=(
            FaultRule(seam="worker.solve", kind="raise"),))
        with plan.activate():
            faulted, clean = asyncio.run(_with_server(
                ServeSettings(socket_path=_sock(tmp_path)), body
            ))
        assert not faulted.ok
        assert faulted.error["type"] == "FaultInjected"
        assert faulted.error["exit_code"] == 9
        clean.raise_for_error()
        assert clean.meta["cache"] == "solved"


class TestHealthAndDrain:
    def test_health_op_reports_ok_and_queue_state(self, tmp_path):
        async def body(server, client):
            health = await client.health()
            assert health["status"] == "ok"
            assert health["queue_depth"] == 0
            assert health["active_requests"] >= 1  # the health call itself
            assert health["workers"] == 0
            assert "supervisor" not in health  # inline mode

        asyncio.run(_with_server(
            ServeSettings(socket_path=_sock(tmp_path)), body
        ))

    def test_drain_op_flushes_inflight_then_terminates(self, tmp_path):
        specs = [
            ConfigSpec(seed=2, total_bandwidth_hz=1e6 + i * 2.5e5)
            for i in range(3)
        ]

        async def main():
            server = AllocationServer(ServeSettings(
                socket_path=_sock(tmp_path), max_wait_ms=100.0, max_batch=8,
            ))
            await server.start()
            client = await ServeClient.connect(
                socket_path=server.settings.socket_path
            )
            try:
                solves = [
                    asyncio.ensure_future(
                        client.solve(spec, use_cache=False)
                    )
                    for spec in specs
                ]
                await asyncio.sleep(0)  # let the requests hit the wire
                assert await client.drain()
                # Every admitted request is answered before shutdown.
                responses = await asyncio.gather(*solves)
                for response in responses:
                    response.raise_for_error()
                await asyncio.wait_for(server.wait_terminated(), timeout=15)
            finally:
                await client.close()
                await server.stop()  # idempotent
            # The listener is gone: fresh connections are refused.
            with pytest.raises((ConnectionError, FileNotFoundError)):
                await ServeClient.connect(
                    socket_path=server.settings.socket_path
                )

        asyncio.run(main())

    def test_draining_server_sheds_new_solves(self, tmp_path):
        from repro.errors import ServerOverloaded

        async def main():
            server = AllocationServer(
                ServeSettings(socket_path=_sock(tmp_path))
            )
            await server.start()
            try:
                server._draining = True
                with pytest.raises(ServerOverloaded) as excinfo:
                    await server._dispatch_solve(ServeRequest(
                        id="r", op="solve", spec=ConfigSpec(seed=2)
                    ))
                assert excinfo.value.retry_after_ms == 500.0
            finally:
                server._draining = False
                await server.stop()

        asyncio.run(main())


class TestSupervised:
    """The workers>0 path: same contract, solves in subprocesses."""

    def test_supervised_solve_then_cache_hit_is_byte_identical(self, tmp_path):
        spec = ConfigSpec(seed=2)

        async def body(server, client):
            first = await client.solve(spec)
            first.raise_for_error()
            assert first.meta["cache"] == "solved"
            assert first.meta["workers"] is True
            second = await client.solve(spec)
            assert second.meta["cache"] == "hit"
            assert json.dumps(first.result, sort_keys=True) == json.dumps(
                second.result, sort_keys=True
            )
            health = await client.health()
            assert health["supervisor"]["breaker"] == "closed"
            assert health["supervisor"]["worker_restarts"] == 0

        asyncio.run(_with_server(
            ServeSettings(socket_path=_sock(tmp_path), workers=1), body
        ))


class TestCacheOwnership:
    """The daemon owns the result cache in both modes: it probes once per
    request at dispatch and stores each solved payload before fan-out."""

    @both_modes
    def test_result_cached_even_when_client_disconnects(
        self, tmp_path, workers
    ):
        """Drop-on-disconnect regression: a dead waiter loses nothing.

        The first client vanishes after its request is admitted but before
        the batch completes; the solved payload must still land in the
        result cache, so the client's retry (here: a second client) is a
        cache hit instead of a second backend solve.
        """
        spec = ConfigSpec(seed=2)

        async def main():
            server = AllocationServer(ServeSettings(
                socket_path=_sock(tmp_path), workers=workers,
                max_wait_ms=150.0,
            ))
            await server.start()
            try:
                first = await ServeClient.connect(
                    socket_path=server.settings.socket_path
                )
                doomed = asyncio.ensure_future(first.solve(spec))
                # Wait for admission (the batcher is lingering), then yank
                # the connection out from under the in-flight solve.
                for _ in range(200):
                    if server.stats["requests"] >= 1:
                        break
                    await asyncio.sleep(0.005)
                assert server.stats["requests"] >= 1
                await first.close()
                with pytest.raises((ConnectionError, asyncio.CancelledError)):
                    await doomed
                # The batch still runs to completion and caches its result.
                for _ in range(600):
                    if server.stats["backend_solves"] >= 1:
                        break
                    await asyncio.sleep(0.01)
                assert server.stats["backend_solves"] == 1

                second = await ServeClient.connect(
                    socket_path=server.settings.socket_path
                )
                try:
                    retry = await second.solve(spec)
                    retry.raise_for_error()
                    assert retry.meta["cache"] == "hit"
                finally:
                    await second.close()
                assert server.stats["backend_solves"] == 1  # no re-solve
            finally:
                await server.stop()

        asyncio.run(main())

    @both_modes
    def test_failed_cache_write_still_answers_the_solve(
        self, tmp_path, workers
    ):
        """Cache loss is not reply loss: a sqlite write that fails once
        leaves the solved request answered ``ok``.  The row never
        committed, so the next request solves again and stores it."""
        from repro.faults import FaultPlan, FaultRule

        spec = ConfigSpec(seed=2)

        async def body(server, client):
            replies = [await client.solve(spec) for _ in range(3)]
            return replies, dict(server.stats)

        plan = FaultPlan(rules=(FaultRule(seam="cache.put", kind="raise"),))
        with plan.activate():
            replies, stats = asyncio.run(_with_server(
                ServeSettings(socket_path=_sock(tmp_path),
                              cache_db=str(tmp_path / "cache.db"),
                              workers=workers),
                body,
            ))
        for reply in replies:
            reply.raise_for_error()
        assert [r.meta["cache"] for r in replies] == ["solved", "solved", "hit"]
        assert stats["errors"] == 0

    @both_modes
    def test_every_request_is_booked_once(self, tmp_path, workers):
        """Each request lands in ``cache_info()`` exactly once: a hit or a
        miss at dispatch unless it coalesced, and then as ``coalesced``.
        The solve itself never probes the cache a second time."""
        burst = [ConfigSpec(seed=2)] * 6 + [
            ConfigSpec(seed=2, total_bandwidth_hz=1e6 + i * 2.5e5)
            for i in range(3)
        ]

        async def body(server, client):
            for _ in range(2):  # a cold burst, then the same burst again
                responses = await asyncio.gather(*(
                    client.solve(spec) for spec in burst
                ))
                for response in responses:
                    response.raise_for_error()
            return server.stats_snapshot()

        stats = asyncio.run(_with_server(
            ServeSettings(socket_path=_sock(tmp_path), workers=workers), body
        ))
        info = stats["cache"]
        assert stats["coalesced"] > 0
        assert info["hits"] + info["misses"] == (
            2 * len(burst) - stats["coalesced"]
        )
        assert info["hits"] == stats["cache_hits"]
        assert info["coalesced"] == stats["coalesced"]

    def test_miss_behind_a_solving_batch_is_solved_again(
        self, tmp_path, monkeypatch
    ):
        """With coalescing off, a request that missed at dispatch while
        the same key was still solving is solved again in the next batch:
        the solve never re-probes the cache the first batch stored into."""
        import threading

        from repro.serve import server as server_module

        spec = ConfigSpec(seed=2)
        started, release = threading.Event(), threading.Event()
        solve_payloads = server_module.solve_payloads
        solved = []

        def gated(service, configs):
            started.set()
            release.wait(timeout=30)
            solved.append(len(configs))
            return solve_payloads(service, configs)

        monkeypatch.setattr(server_module, "solve_payloads", gated)

        async def body(server, client):
            try:
                first = asyncio.ensure_future(client.solve(spec))
                assert await asyncio.to_thread(started.wait, 30)
                second = asyncio.ensure_future(client.solve(spec))
                for _ in range(600):
                    if server.stats_snapshot()["queue_depth"] == 1:
                        break
                    await asyncio.sleep(0.005)
                assert server.stats_snapshot()["queue_depth"] == 1
            finally:
                release.set()
            replies = [await first, await second, await client.solve(spec)]
            return replies, server.stats_snapshot()

        replies, stats = asyncio.run(_with_server(
            ServeSettings(socket_path=_sock(tmp_path), coalesce=False), body
        ))
        for reply in replies:
            reply.raise_for_error()
        assert [r.meta["cache"] for r in replies] == ["solved", "solved", "hit"]
        assert solved == [1, 1]
        assert stats["backend_batches"] == 2
        assert stats["backend_solves"] == 2
        assert (stats["cache"]["hits"], stats["cache"]["misses"]) == (1, 2)


class TestLifecycle:
    def test_stop_fails_stranded_requests_not_hangs(self, tmp_path):
        async def main():
            server = AllocationServer(
                ServeSettings(socket_path=_sock(tmp_path))
            )
            await server.start()
            await server.stop()
            with pytest.raises(Exception):
                await server._dispatch_solve(
                    ServeRequest(id="r", op="solve", spec=ConfigSpec(seed=2))
                )

        asyncio.run(main())

    def test_double_start_rejected(self, tmp_path):
        async def main():
            server = AllocationServer(
                ServeSettings(socket_path=_sock(tmp_path))
            )
            await server.start()
            try:
                with pytest.raises(RuntimeError, match="already started"):
                    await server.start()
            finally:
                await server.stop()

        asyncio.run(main())

    def test_settings_validation(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ServeSettings(max_batch=0)
        with pytest.raises(ConfigurationError):
            ServeSettings(max_queue=0)
        with pytest.raises(ConfigurationError):
            ServeSettings(max_wait_ms=-1.0)
