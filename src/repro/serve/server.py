"""The allocation daemon: an asyncio server over the batched QuHE solver.

Request lifecycle (op ``solve``)::

    line in ──► fault seam ──► spec → (config, fingerprint)   [memoized]
                  │
                  ├─ in-flight fingerprint match? ──► await that solve (coalesced)
                  ├─ result-cache hit?            ──► immediate response (hit)
                  └─ admission queue
                        │  bounded: overflow → structured 503 (ServerOverloaded)
                        ▼
                  micro-batcher: a free solve slot, then the first entry +
                  up to ``max_batch-1`` more within ``max_wait_ms``
                        ▼
                  one dispatch: one solve per unique fingerprint ──► store
                  in the result cache ──► fan out to every waiter

There is one dispatch (:meth:`AllocationServer._solve_batch`), and
``workers = 0`` is its zero-worker case: one solve slot and
:func:`~repro.serve.supervisor.solve_payloads` in an executor thread.
``workers = N`` gives N slots, solved by :mod:`repro.serve.supervisor`
subprocesses.  Either way the daemon owns the result cache: it probes at
dispatch and stores each solved payload before fan-out, so a failed write
costs the row, never the reply.

Every stage updates counters surfaced by the ``stats`` op and the
``repro serve --status`` CLI.  The ``serve.request`` fault seam draws from
the active :mod:`repro.faults` plan per request; exception kinds become
taxonomy-coded error *responses* (the daemon never dies with a request),
``hang`` delays only the affected request, and ``crash`` aborts that
client's connection — the asyncio analogue of a killed worker.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro import faults as _faults
from repro import io as repro_io
from repro.api.service import SolverService, config_fingerprint
from repro.core.config import SystemConfig
from repro.errors import (
    ConfigurationError,
    FaultInjected,
    ServerOverloaded,
    SolverError,
    TransientIOError,
)
from repro.serve.protocol import (
    ConfigSpec,
    ServeRequest,
    ServeResponse,
    decode_line,
    encode_line,
    error_payload,
)
from repro.serve.supervisor import (
    SupervisorSettings,
    WorkerSupervisor,
    solve_payloads,
)

__all__ = ["AllocationServer", "ServeSettings"]

#: Sentinel telling the batcher loop to exit.
_STOP = object()

#: Bound on the spec → (config, fingerprint) memo (specs are tiny; configs
#: hold numpy arrays, so the memo must not grow with client churn).
_SPEC_MEMO_CAPACITY = 4096


class _ConnectionAbort(Exception):
    """Internal: a ``crash`` fault rule asked us to drop this connection."""


@dataclass(frozen=True)
class ServeSettings:
    """Operational knobs of one :class:`AllocationServer`.

    ``socket_path`` non-empty selects a unix socket; otherwise TCP on
    ``host:port`` (port 0 = ephemeral).  ``max_batch``/``max_wait_ms`` trade
    latency for throughput: the batcher dispatches as soon as it holds
    ``max_batch`` configs *or* ``max_wait_ms`` has passed since the first.
    ``max_queue`` bounds admitted-but-unsolved requests; overflow is shed.
    ``cache_db`` non-empty replaces the in-memory LRU with the sqlite
    cross-process cache at that path.

    ``workers`` sets how many micro-batches may solve at once.
    ``workers = 0`` is the zero-worker case of the one dispatch: a single
    solve slot, with each batch solved in an executor thread of the daemon
    process.  ``workers > 0`` gives that many slots and solves in that many
    *supervised subprocesses* (see
    :class:`~repro.serve.supervisor.WorkerSupervisor`): a crash or hang
    then costs one batch attempt instead of the daemon, at the price of a
    pipe round-trip per batch.  The remaining knobs tune the supervisor's
    deadline, restart budget, and circuit breaker, and ``drain_timeout_s``
    bounds how long a graceful drain waits for in-flight work.
    """

    host: str = "127.0.0.1"
    port: int = 0
    socket_path: str = ""
    max_batch: int = 16
    max_wait_ms: float = 2.0
    max_queue: int = 256
    coalesce: bool = True
    cache_db: str = ""
    cache_capacity: int = 256
    workers: int = 0
    batch_deadline_s: float = 30.0
    max_restarts: int = 5
    restart_window_s: float = 30.0
    breaker_cooldown_s: float = 1.0
    drain_timeout_s: float = 10.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        if self.max_wait_ms < 0:
            raise ConfigurationError("max_wait_ms must be non-negative")
        if self.max_queue < 1:
            raise ConfigurationError("max_queue must be >= 1")
        if self.workers < 0:
            raise ConfigurationError("workers must be non-negative")
        if self.drain_timeout_s <= 0:
            raise ConfigurationError("drain_timeout_s must be positive")


@dataclass
class _Pending:
    """One admitted solve waiting for the micro-batcher."""

    key: str
    config: SystemConfig
    spec: ConfigSpec
    use_cache: bool
    future: "asyncio.Future[Tuple[Dict[str, Any], Dict[str, Any]]]"
    enqueued_at: float


class AllocationServer:
    """The long-lived allocation daemon (see module docstring).

    Typical embedded use (tests, benchmarks)::

        server = AllocationServer(ServeSettings(socket_path=path))
        await server.start()
        try:
            ...  # clients connect and solve
        finally:
            await server.stop()
    """

    def __init__(
        self,
        settings: ServeSettings = ServeSettings(),
        *,
        service: Optional[SolverService] = None,
    ) -> None:
        self.settings = settings
        if service is not None:
            self.service = service
        elif settings.cache_db:
            from repro.serve.cache import SqliteResultCache

            self.service = SolverService(
                cache=SqliteResultCache(
                    settings.cache_db, capacity=settings.cache_capacity
                )
            )
        else:
            self.service = SolverService(cache_size=settings.cache_capacity)
        self._supervisor: Optional[WorkerSupervisor] = None
        if settings.workers > 0:
            self._supervisor = WorkerSupervisor(
                SupervisorSettings(
                    workers=settings.workers,
                    batch_deadline_s=settings.batch_deadline_s,
                    max_restarts=settings.max_restarts,
                    restart_window_s=settings.restart_window_s,
                    breaker_cooldown_s=settings.breaker_cooldown_s,
                )
            )
        self._server: Optional[asyncio.AbstractServer] = None
        self._queue: Optional["asyncio.Queue[Any]"] = None
        self._slots: Optional[asyncio.Semaphore] = None
        self._batcher: Optional["asyncio.Task[None]"] = None
        self._inflight: Dict[str, "asyncio.Future[Any]"] = {}
        self._spec_memo: "OrderedDict[str, Tuple[str, SystemConfig]]" = (
            OrderedDict()
        )
        self._started_at = 0.0
        self._draining = False
        self._drain_task: Optional["asyncio.Task[None]"] = None
        self._terminated = asyncio.Event()
        self._active_requests = 0
        self._batch_tasks: set = set()
        self.stats: Dict[str, int] = {
            "requests": 0,
            "responses": 0,
            "cache_hits": 0,
            "coalesced": 0,
            "backend_batches": 0,
            "backend_solves": 0,
            "shed": 0,
            "errors": 0,
            "faults_injected": 0,
            "connections": 0,
            "orphaned_results": 0,
        }

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound (TCP mode, after :meth:`start`)."""
        if self._server is None or self.settings.socket_path:
            raise RuntimeError("server not started in TCP mode")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> None:
        """Bind the socket and start the micro-batcher (and worker pool)."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._draining = False
        self._terminated.clear()
        if self._supervisor is not None:
            await self._supervisor.start()
        self._queue = asyncio.Queue(maxsize=self.settings.max_queue)
        self._slots = asyncio.Semaphore(max(1, self.settings.workers))
        self._batcher = asyncio.create_task(self._batch_loop())
        if self.settings.socket_path:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.settings.socket_path
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, self.settings.host, self.settings.port
            )
        self._started_at = time.monotonic()

    async def stop(self) -> None:
        """Stop accepting, wind down the batcher, fail any stranded waiters."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._queue is not None and self._batcher is not None:
            await self._queue.put(_STOP)
            await self._batcher
            self._batcher = None
            if self._batch_tasks:
                await asyncio.gather(
                    *tuple(self._batch_tasks), return_exceptions=True
                )
            # Entries admitted after the sentinel never reach the solver.
            while not self._queue.empty():
                entry = self._queue.get_nowait()
                if entry is _STOP:
                    continue
                if not entry.future.done():
                    entry.future.set_exception(
                        ServerOverloaded("server shutting down")
                    )
            self._queue = None
        if self._supervisor is not None:
            await self._supervisor.stop()
        self._inflight.clear()
        self._terminated.set()

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, flush in-flight, then stop.

        The sequence behind ``SIGTERM`` and the ``drain`` wire op:

        1. flip the draining flag — new solves are shed with a structured
           :class:`ServerOverloaded` ("draining") response;
        2. close the listener (no new connections);
        3. wait (bounded by ``drain_timeout_s``) until every admitted
           request has been answered — in-flight batches complete and their
           results land in the result cache as usual, so nothing acked or
           solvable is lost;
        4. run :meth:`stop` to wind down the batcher and worker pool.

        Idempotent: concurrent calls await the same completion.  The
        ``serve.drain`` fault seam is drawn (not fired) at step 1: ``hang``
        delays the flush by the rule's ``delay_s`` (bounded by the drain
        timeout), exception kinds are *counted but never abort the drain* —
        shutdown must make progress even under an adversarial plan.
        """
        if self._draining:
            await self._terminated.wait()
            return
        self._draining = True
        rule = _faults.draw("serve.drain")
        if rule is not None:
            self.stats["faults_injected"] += 1
            if rule.kind == "hang":
                await asyncio.sleep(
                    min(rule.delay_s, self.settings.drain_timeout_s)
                )
            # Exception kinds: counted above, deliberately not raised.
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.settings.drain_timeout_s
        while loop.time() < deadline:
            queue_empty = self._queue is None or self._queue.empty()
            if queue_empty and self._active_requests == 0:
                break
            await asyncio.sleep(0.02)
        await self.stop()

    async def wait_terminated(self) -> None:
        """Block until a drain (or stop) has fully completed."""
        await self._terminated.wait()

    async def serve_forever(self) -> None:
        """Run until drained or cancelled (the ``repro serve`` CLI wraps this)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            # A drain closed the listener under us; that is a clean exit.
            if not self._terminated.is_set() and not self._draining:
                raise

    # -- connection / request handling ---------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats["connections"] += 1
        write_lock = asyncio.Lock()
        tasks: set = set()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.create_task(
                    self._handle_line(line, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_line(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        self.stats["requests"] += 1
        # Counted across dispatch *and* response write so a graceful drain
        # only completes once every admitted request has been answered (or
        # its client provably went away).
        self._active_requests += 1
        request_id = ""
        try:
            try:
                payload = decode_line(line)
                request_id = str(payload.get("id", ""))
                request = ServeRequest.from_dict(payload)
                response = await self._dispatch(request)
            except _ConnectionAbort:
                # The `crash` fault kind: this client's connection dies
                # abruptly, the daemon (and every other connection) lives on.
                writer.transport.abort()
                return
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - becomes a typed reply
                self.stats["errors"] += 1
                response = ServeResponse(
                    id=request_id, ok=False, error=error_payload(exc)
                )
            self.stats["responses"] += 1
            try:
                async with write_lock:
                    writer.write(encode_line(response.to_dict()))
                    await writer.drain()
            except (ConnectionError, RuntimeError, OSError):
                # Client went away before its answer.  Its *result* is not
                # lost: solved payloads are already persisted to the result
                # cache before fan-out, so the client's retry on a fresh
                # connection is a cache hit (see ``_solve_batch``).
                self.stats["orphaned_results"] += 1
        finally:
            self._active_requests -= 1

    async def _dispatch(self, request: ServeRequest) -> ServeResponse:
        await self._fire_request_seam()
        if request.op == "ping":
            return ServeResponse(id=request.id, ok=True, meta={"pong": True})
        if request.op == "stats":
            return ServeResponse(
                id=request.id, ok=True, stats=self.stats_snapshot()
            )
        if request.op == "health":
            return ServeResponse(
                id=request.id, ok=True, stats=self.health_snapshot()
            )
        if request.op == "drain":
            # Reply immediately (the drain must not wait on its own
            # response); the actual wind-down runs as a background task.
            if self._drain_task is None:
                self._drain_task = asyncio.create_task(self.drain())
            return ServeResponse(
                id=request.id, ok=True, meta={"draining": True}
            )
        return await self._dispatch_solve(request)

    async def _fire_request_seam(self) -> None:
        """The ``serve.request`` fault seam, interpreted asyncio-safely.

        :func:`repro.faults.fire` would sleep or ``os._exit`` in the shared
        event-loop process, so the daemon draws the rule passively and maps
        each kind itself: exception kinds surface as error responses,
        ``hang`` delays only this request, ``crash`` aborts this connection.
        """
        rule = _faults.draw("serve.request")
        if rule is None:
            return
        self.stats["faults_injected"] += 1
        if rule.kind == "raise":
            raise FaultInjected(
                "injected fault at seam 'serve.request'", seam="serve.request"
            )
        if rule.kind == "io_error":
            raise TransientIOError(
                "injected transient IO error at 'serve.request'"
            )
        if rule.kind == "solver_fail":
            raise SolverError("injected solver failure at 'serve.request'")
        if rule.kind == "hang":
            await asyncio.sleep(rule.delay_s)
            return
        if rule.kind == "crash":
            raise _ConnectionAbort()
        # Data kinds (torn_write/nan/storm) have no meaning at this seam.

    # -- the solve path ------------------------------------------------------

    def _resolve_spec(self, spec: ConfigSpec) -> Tuple[str, SystemConfig]:
        """Spec → (fingerprint, config), memoized.

        Building the paper config and hashing it dominates protocol cost at
        high request rates; specs are deterministic, so the memo is safe and
        turns repeat traffic into a dict probe.
        """
        memo_key = repr(sorted(spec.to_dict().items()))
        hit = self._spec_memo.get(memo_key)
        if hit is not None:
            self._spec_memo.move_to_end(memo_key)
            return hit
        config = spec.build()
        entry = (config_fingerprint(config), config)
        self._spec_memo[memo_key] = entry
        while len(self._spec_memo) > _SPEC_MEMO_CAPACITY:
            self._spec_memo.popitem(last=False)
        return entry

    async def _dispatch_solve(self, request: ServeRequest) -> ServeResponse:
        assert request.spec is not None  # enforced by ServeRequest validation
        if self._draining:
            raise ServerOverloaded(
                "server is draining; connect to another instance",
                retry_after_ms=500.0,
            )
        if self._supervisor is not None:
            # Breaker-open sheds at admission: fail fast with the breaker's
            # retry_after hint instead of occupying a queue slot.
            self._supervisor.check_breaker()
        key, config = self._resolve_spec(request.spec)
        loop = asyncio.get_running_loop()

        if self.settings.coalesce:
            pending = self._inflight.get(key)
            if pending is not None:
                self.stats["coalesced"] += 1
                self.service.note_coalesced()
                payload, meta = await pending
                return ServeResponse(
                    id=request.id, ok=True, result=payload,
                    meta={**meta, "cache": "coalesced"},
                )

        if request.use_cache:
            cached = self.service.cache_lookup(key)
            if cached is not None:
                self.stats["cache_hits"] += 1
                return ServeResponse(
                    id=request.id, ok=True,
                    result=repro_io.result_to_dict(cached),
                    meta={"cache": "hit"},
                )

        if self._queue is None:
            raise ServerOverloaded("server not accepting work (stopped)")
        future: "asyncio.Future[Any]" = loop.create_future()
        entry = _Pending(
            key=key, config=config, spec=request.spec,
            use_cache=request.use_cache, future=future,
            enqueued_at=loop.time(),
        )
        try:
            self._queue.put_nowait(entry)
        except asyncio.QueueFull:
            self.stats["shed"] += 1
            raise ServerOverloaded(
                f"admission queue full ({self.settings.max_queue} pending); "
                "retry after backoff",
                retry_after_ms=2.0 * self.settings.max_queue,
            ) from None
        if self.settings.coalesce:
            self._inflight[key] = future
        payload, meta = await future
        return ServeResponse(
            id=request.id, ok=True, result=payload,
            meta={**meta, "cache": "solved"},
        )

    async def _batch_loop(self) -> None:
        """Form a micro-batch once a solve slot is free; solve it as a task.

        With one slot (zero workers) the next batch forms when the previous
        solve returns; with N slots up to N batches solve at once.
        """
        assert self._queue is not None and self._slots is not None
        loop = asyncio.get_running_loop()
        while True:
            await self._slots.acquire()
            entry = await self._queue.get()
            if entry is _STOP:
                return
            batch: List[_Pending] = [entry]
            deadline = loop.time() + self.settings.max_wait_ms / 1000.0
            stop_after = False
            while len(batch) < self.settings.max_batch:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    nxt = await asyncio.wait_for(
                        self._queue.get(), timeout=remaining
                    )
                except asyncio.TimeoutError:
                    break
                if nxt is _STOP:
                    stop_after = True
                    break
                batch.append(nxt)
            task = asyncio.create_task(self._solve_batch(batch))
            self._batch_tasks.add(task)
            task.add_done_callback(self._batch_tasks.discard)
            if stop_after:
                return

    async def _solve_batch(self, batch: List[_Pending]) -> None:
        """Solve a micro-batch's unique keys, store, fan out (both modes).

        Outcomes come back per key as payload dicts or taxonomy exceptions
        (the supervisor has already respawned crashed or hung workers and
        retried items one by one).  Cacheable payloads are stored *before*
        fan-out, whether or not any waiter is still connected, so a client
        that died waiting gets a cache hit when it retries.  Releases the
        solve slot the batcher took.
        """
        loop = asyncio.get_running_loop()
        start = loop.time()
        try:
            by_key: "OrderedDict[str, List[_Pending]]" = OrderedDict()
            for entry in batch:
                by_key.setdefault(entry.key, []).append(entry)
            heads = [group[0] for group in by_key.values()]
            if self._supervisor is None:
                solving = asyncio.to_thread(
                    solve_payloads, self.service, [e.config for e in heads]
                )
            else:
                solving = self._supervisor.solve_specs(
                    [e.spec.to_dict() for e in heads]
                )
            try:
                outcomes = await solving
            except Exception as exc:  # noqa: BLE001 - fanned out per waiter
                outcomes = [exc] * len(heads)
            solve_ms = round((loop.time() - start) * 1000.0, 3)
            supervised = {} if self._supervisor is None else {"workers": True}
            solved_keys = 0
            for (key, group), outcome in zip(by_key.items(), outcomes):
                self._inflight.pop(key, None)
                if isinstance(outcome, BaseException):
                    for e in group:
                        if not e.future.done():
                            e.future.set_exception(outcome)
                    continue
                solved_keys += 1
                if any(e.use_cache for e in group):
                    try:
                        self.service.cache_store_payload(key, outcome)
                    except Exception:  # noqa: BLE001 - cache loss ≠ reply loss
                        pass
                for e in group:
                    meta = {
                        "batch_size": len(batch),
                        "queue_ms": round(
                            (start - e.enqueued_at) * 1000.0, 3
                        ),
                        "solve_ms": solve_ms,
                        **supervised,
                    }
                    if not e.future.done():
                        e.future.set_result((outcome, meta))
            if solved_keys:
                self.stats["backend_batches"] += 1
                self.stats["backend_solves"] += solved_keys
        finally:
            self._slots.release()

    # -- stats ---------------------------------------------------------------

    def stats_snapshot(self) -> Dict[str, Any]:
        """Counters + cache info + queue state (the ``stats`` op body)."""
        snapshot: Dict[str, Any] = dict(self.stats)
        snapshot["cache"] = self.service.cache_info()
        snapshot["queue_depth"] = self._queue.qsize() if self._queue else 0
        snapshot["inflight"] = len(self._inflight)
        snapshot["max_batch"] = self.settings.max_batch
        snapshot["max_wait_ms"] = self.settings.max_wait_ms
        snapshot["max_queue"] = self.settings.max_queue
        snapshot["coalesce_enabled"] = self.settings.coalesce
        snapshot["draining"] = self._draining
        snapshot["workers"] = self.settings.workers
        if self._supervisor is not None:
            snapshot["supervisor"] = self._supervisor.health_snapshot()
        snapshot["uptime_s"] = (
            round(time.monotonic() - self._started_at, 3)
            if self._started_at
            else 0.0
        )
        return snapshot

    def health_snapshot(self) -> Dict[str, Any]:
        """Readiness detail (the ``health`` op body).

        Queue and request pressure, drain state, cache counters, and — in
        supervised mode — per-worker states plus the circuit breaker, so an
        operator (or orchestrator probe) can tell "slow" from "sick"
        without parsing logs.
        """
        body: Dict[str, Any] = {
            "status": "draining" if self._draining else "ok",
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "max_queue": self.settings.max_queue,
            "active_requests": self._active_requests,
            "inflight_keys": len(self._inflight),
            "cache": self.service.cache_info(),
            "workers": self.settings.workers,
            "uptime_s": (
                round(time.monotonic() - self._started_at, 3)
                if self._started_at
                else 0.0
            ),
        }
        if self._supervisor is not None:
            supervisor = self._supervisor.health_snapshot()
            body["supervisor"] = supervisor
            if supervisor["breaker"] != "closed":
                body["status"] = "degraded" if not self._draining else "draining"
        return body
