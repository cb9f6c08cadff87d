"""Supervised solver workers: crash and hang isolation for the daemon.

:func:`solve_payloads` is the solve step of the allocation daemon's one
dispatch.  With zero workers the daemon runs it in an executor thread of
its own process, where a solver that segfaults, leaks until the OOM killer
fires, or never returns takes the daemon with it.  With ``workers > 0``
the same dispatch awaits :meth:`WorkerSupervisor.solve_specs` instead,
which runs that function in *subprocess* workers and turns those three
failure modes into named, recoverable events:

* **crash** — the worker process dies mid-batch (pipe hits EOF).  The
  supervisor raises :class:`~repro.errors.WorkerCrashed` (transient),
  respawns the worker with bounded backoff, and re-dispatches the batch's
  requests *individually* so one poisoned configuration fails alone.
  Idle workers are handed out last-released first, so the re-dispatch
  lands on the worker just respawned for it, not on another worker;
* **hang** — the worker misses the per-batch deadline.  The supervisor
  kills it, raises :class:`~repro.errors.DeadlineExceeded`, and recovers
  the same way;
* **restart storm** — too many respawns inside a sliding window open a
  circuit breaker: new work is shed with
  :class:`~repro.errors.ServerOverloaded` (carrying ``retry_after_ms``)
  until a cooldown passes, after which a half-open probe decides whether
  to close the breaker or re-open it.

Workers are deliberately cache-free (``SolverService(cache_size=0)``): the
daemon owns the result cache in both modes, so a respawned worker needs no
warm-up and a crashed one loses nothing that was acked.  Each worker fires
the ``serve.worker`` fault seam once per dispatched batch, which is how
chaos tests script crash/hang storms deterministically (see
:mod:`repro.faults` — a respawned worker replays the same draw sequence,
so ``after=1`` rules make the first batch on a fresh worker safe).
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence

from repro import io as repro_io
from repro.api.service import SolverService
from repro.core.config import SystemConfig
from repro.errors import (
    ConfigurationError,
    DeadlineExceeded,
    ServerOverloaded,
    WorkerCrashed,
)
from repro.serve.protocol import error_payload, exception_from_payload

__all__ = ["SupervisorSettings", "WorkerSupervisor", "solve_payloads"]

#: How long a freshly started worker may take to report ``ready`` (covers a
#: cold ``spawn``-context interpreter importing numpy/scipy).
_SPAWN_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class SupervisorSettings:
    """Tuning knobs of the worker pool (validated at construction).

    >>> SupervisorSettings(workers=2).workers
    2
    >>> SupervisorSettings(workers=0)
    Traceback (most recent call last):
        ...
    repro.errors.ConfigurationError: workers must be >= 1
    """

    #: Number of solver subprocesses.
    workers: int = 1
    #: Per-batch wall-clock deadline; a worker that misses it is killed.
    batch_deadline_s: float = 30.0
    #: Total attempts per item: 1 batched + (max_attempts - 1) individual.
    max_attempts: int = 2
    #: Respawn backoff: ``min(cap, base * 2**recent_restarts)`` seconds.
    respawn_backoff_base_s: float = 0.02
    respawn_backoff_cap_s: float = 1.0
    #: More than this many restarts inside ``restart_window_s`` opens the
    #: circuit breaker.
    max_restarts: int = 5
    restart_window_s: float = 30.0
    #: How long the breaker sheds load before probing half-open.
    breaker_cooldown_s: float = 1.0
    #: Injectable monotonic clock (tests drive breaker time by hand).
    clock: Callable[[], float] = time.monotonic

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.batch_deadline_s <= 0:
            raise ConfigurationError("batch_deadline_s must be positive")
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.respawn_backoff_base_s < 0 or self.respawn_backoff_cap_s < 0:
            raise ConfigurationError("respawn backoff must be non-negative")
        if self.max_restarts < 1:
            raise ConfigurationError("max_restarts must be >= 1")
        if self.restart_window_s <= 0 or self.breaker_cooldown_s <= 0:
            raise ConfigurationError(
                "restart_window_s and breaker_cooldown_s must be positive"
            )


def solve_payloads(
    service: SolverService, configs: Sequence[SystemConfig]
) -> List[Dict[str, Any]]:
    """Solve ``configs`` in one batched pass; one codec payload each.

    The solve step of both serving modes: the in-process daemon runs it in
    an executor thread, each supervised worker once per batch.  The daemon
    owns the result cache, so the solve neither reads nor writes it.
    """
    results = service.solve_many(configs, use_cache=False)
    return [repro_io.result_to_dict(result) for result in results]


def _worker_main(conn) -> None:
    """Body of one solver subprocess: recv spec batches, send payloads.

    Module-level (picklable under the ``spawn`` start method).  The fault
    plan travels via the ``REPRO_FAULTS`` environment variable, which
    :mod:`repro.faults` reads lazily in each new process — ``fire`` here
    may therefore sleep (hang fault) or ``os._exit`` (crash fault), and
    the *parent* turns the resulting silence/EOF into taxonomy errors.
    """
    from repro import faults as _faults
    from repro.serve.protocol import ConfigSpec

    service = SolverService(cache_size=0)
    try:
        conn.send(("ready", os.getpid()))
        while True:
            message = conn.recv()
            if message[0] == "stop":
                return
            _, job_id, spec_dicts = message
            try:
                _faults.fire("serve.worker")
                configs = [ConfigSpec.from_dict(d).build() for d in spec_dicts]
                conn.send(("ok", job_id, solve_payloads(service, configs)))
            except Exception as exc:  # noqa: BLE001 — forwarded, not dropped
                conn.send(("err", job_id, error_payload(exc)))
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # parent went away (drain or daemon death): just exit
    finally:
        try:
            conn.close()
        except OSError:
            pass


class _Worker:
    """Parent-side handle of one solver subprocess."""

    __slots__ = ("index", "process", "conn", "state", "pid", "restarts")

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.conn = None
        self.state = "stopped"  # stopped|starting|idle|busy|respawning|failed
        self.pid: Optional[int] = None
        self.restarts = 0


class WorkerSupervisor:
    """A pool of supervised solver subprocesses behind an async facade.

    ``await solve_specs(spec_dicts)`` returns one outcome per spec: a raw
    ``quhe_result`` payload dict on success, or the taxonomy exception
    instance that finally claimed the item.  The call itself raises only
    :class:`~repro.errors.ServerOverloaded` (breaker open / pool starved) —
    per-item failures come back in the list so the caller can fan them out
    to the right response futures.
    """

    def __init__(self, settings: Optional[SupervisorSettings] = None) -> None:
        self.settings = settings or SupervisorSettings()
        methods = multiprocessing.get_all_start_methods()
        # fork is much cheaper here (the parent already paid the numpy/scipy
        # import) and the child execs no threads-sensitive code before solve.
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._workers = [_Worker(i) for i in range(self.settings.workers)]
        self._idle: Optional[asyncio.Queue] = None
        self._jobs = itertools.count(1)
        self._restart_times: Deque[float] = deque()
        self._breaker = "closed"  # closed | open | half-open
        self._breaker_until = 0.0
        self._stopping = False
        self._started = False
        self.stats: Dict[str, int] = {
            "dispatched_batches": 0,
            "redispatched": 0,
            "worker_restarts": 0,
            "deadline_timeouts": 0,
            "worker_crashes": 0,
            "breaker_opens": 0,
            "breaker_shed": 0,
        }

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Spawn the pool; raises if an initial worker fails to come up."""
        if self._started:
            return
        # LIFO: a faulted batch's re-dispatch takes its respawned worker.
        self._idle = asyncio.LifoQueue()
        self._stopping = False
        for worker in self._workers:
            await self._spawn(worker)
        self._started = True

    async def stop(self, *, drain_timeout_s: float = 10.0) -> None:
        """Stop all workers: polite ``stop`` to idle ones, kill stragglers."""
        self._stopping = True
        self._started = False
        for worker in self._workers:
            proc, conn = worker.process, worker.conn
            if conn is not None and proc is not None and proc.is_alive():
                try:
                    conn.send(("stop",))
                except (OSError, BrokenPipeError):
                    pass
        deadline = time.monotonic() + max(0.1, drain_timeout_s)
        for worker in self._workers:
            proc = worker.process
            if proc is not None:
                remaining = max(0.05, deadline - time.monotonic())
                await asyncio.to_thread(proc.join, remaining)
                if proc.is_alive():
                    proc.kill()
                    await asyncio.to_thread(proc.join, 5.0)
            self._close_worker(worker)
            worker.state = "stopped"

    # -- solving -------------------------------------------------------------

    async def solve_specs(self, spec_dicts: Sequence[Dict[str, Any]]) -> List[Any]:
        """One outcome per spec: a payload dict or a taxonomy exception.

        Attempt 1 runs the whole batch on one worker.  If that fails with a
        transient/worker fault, every item is re-dispatched *individually*
        (attempts 2..max_attempts), so a single poisoned config cannot sink
        its batch-mates.  Raises :class:`ServerOverloaded` when the breaker
        is open or no worker becomes available.
        """
        if not spec_dicts:
            return []
        self.check_breaker()
        try:
            payloads = await self._attempt(list(spec_dicts))
            self._note_success()
            return list(payloads)
        except ServerOverloaded:
            raise
        except Exception as exc:  # noqa: BLE001 — isolated per item below
            first_error = exc
        if self.settings.max_attempts <= 1:
            return [first_error] * len(spec_dicts)
        self.stats["redispatched"] += len(spec_dicts)
        outcomes: List[Any] = []
        for spec in spec_dicts:
            outcome: Any = first_error
            for _ in range(self.settings.max_attempts - 1):
                try:
                    outcome = (await self._attempt([spec]))[0]
                    self._note_success()
                    break
                except ServerOverloaded as shed:
                    outcome = shed
                    break
                except Exception as exc:  # noqa: BLE001
                    outcome = exc
            outcomes.append(outcome)
        return outcomes

    async def _attempt(self, spec_dicts: List[Dict[str, Any]]) -> List[Dict]:
        worker = await self._acquire()
        job_id = next(self._jobs)
        self.stats["dispatched_batches"] += 1
        worker.state = "busy"
        try:
            await asyncio.to_thread(worker.conn.send, ("solve", job_id, spec_dicts))
        except (OSError, BrokenPipeError):
            raise await self._on_crash(worker, "while being dispatched to")
        return await self._await_reply(worker, job_id)

    async def _await_reply(self, worker: _Worker, job_id: int) -> List[Dict]:
        deadline = self.settings.batch_deadline_s
        try:
            ready = await asyncio.to_thread(worker.conn.poll, deadline)
        except (OSError, EOFError):
            raise await self._on_crash(worker, "mid-batch on")
        if not ready:
            self.stats["deadline_timeouts"] += 1
            index = worker.index
            await self._respawn(worker)
            raise DeadlineExceeded(
                f"solver batch exceeded its {deadline:g}s deadline on worker"
                f" {index} (worker killed and respawned)"
            )
        try:
            kind, got_id, body = await asyncio.to_thread(worker.conn.recv)
        except (EOFError, OSError):
            raise await self._on_crash(worker, "mid-batch on")
        if got_id != job_id:
            # Cannot happen with one-batch-per-worker pipes; treat a stale
            # reply as corruption and recycle the worker defensively.
            raise await self._on_crash(worker, "with a stale reply from")
        self._release_worker(worker)
        if kind == "ok":
            return body
        raise exception_from_payload(body)

    async def _on_crash(self, worker: _Worker, how: str) -> WorkerCrashed:
        self.stats["worker_crashes"] += 1
        index = worker.index
        status = None
        if worker.process is not None:
            # The pipe hits EOF slightly before the child is reapable; a
            # short join lets ``exitcode`` settle (173 = injected crash).
            await asyncio.to_thread(worker.process.join, 1.0)
            status = worker.process.exitcode
        await self._respawn(worker)
        return WorkerCrashed(
            f"solver worker {index} died {how} it"
            f" (exit status {status})",
            index=index,
            exit_status=status,
        )

    # -- worker pool plumbing ------------------------------------------------

    async def _acquire(self) -> _Worker:
        assert self._idle is not None, "supervisor not started"
        if not self._idle.empty():  # no yield: respawned worker stays on top
            return self._idle.get_nowait()
        # Generous bound: a full batch deadline plus respawn headroom.  If no
        # worker frees up by then the pool is wedged/dead — shed, not wait.
        timeout = self.settings.batch_deadline_s + _SPAWN_TIMEOUT_S
        try:
            return await asyncio.wait_for(self._idle.get(), timeout)
        except asyncio.TimeoutError:
            self.stats["breaker_shed"] += 1
            raise ServerOverloaded(
                "no solver worker became available in time",
                retry_after_ms=1000.0,
            ) from None

    def _release_worker(self, worker: _Worker) -> None:
        worker.state = "idle"
        if not self._stopping and self._idle is not None:
            self._idle.put_nowait(worker)

    async def _spawn(self, worker: _Worker) -> None:
        worker.state = "starting"
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn,),
            daemon=True,
            name=f"repro-serve-worker-{worker.index}",
        )
        process.start()
        child_conn.close()
        worker.process, worker.conn = process, parent_conn
        try:
            ready = await asyncio.to_thread(parent_conn.poll, _SPAWN_TIMEOUT_S)
            if ready:
                message = parent_conn.recv()
                if message[0] == "ready":
                    worker.pid = message[1]
                    self._release_worker(worker)
                    return
        except (EOFError, OSError):
            pass
        self._close_worker(worker)
        worker.state = "failed"
        raise WorkerCrashed(
            f"solver worker {worker.index} failed to start", index=worker.index
        )

    async def _respawn(self, worker: _Worker) -> None:
        """Kill ``worker`` and bring up a replacement (with backoff)."""
        self._close_worker(worker)
        worker.state = "respawning"
        worker.restarts += 1
        recent = self._note_restart()
        if self._stopping:
            worker.state = "stopped"
            return
        backoff = min(
            self.settings.respawn_backoff_cap_s,
            self.settings.respawn_backoff_base_s * (2 ** min(recent, 8)),
        )
        if backoff > 0:
            await asyncio.sleep(backoff)
        for attempt in range(3):
            if self._stopping:
                worker.state = "stopped"
                return
            try:
                await self._spawn(worker)
                return
            except WorkerCrashed:
                if attempt == 2:
                    # Leave the worker down; the pool shrinks and, if every
                    # worker ends up here, _acquire times out into shedding.
                    worker.state = "failed"
                    return
                await asyncio.sleep(
                    min(self.settings.respawn_backoff_cap_s, 0.1 * (attempt + 1))
                )

    def _close_worker(self, worker: _Worker) -> None:
        proc, conn = worker.process, worker.conn
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join(timeout=5.0)
        worker.conn = None

    # -- circuit breaker -----------------------------------------------------

    def _note_restart(self) -> int:
        """Record a restart; open the breaker on a storm.  Returns the
        number of restarts currently inside the window (backoff input)."""
        now = self.settings.clock()
        self.stats["worker_restarts"] += 1
        self._restart_times.append(now)
        window = self.settings.restart_window_s
        while self._restart_times and now - self._restart_times[0] > window:
            self._restart_times.popleft()
        if self._breaker == "half-open":
            self._open_breaker(now)  # the probe crashed: straight back open
        elif (
            self._breaker == "closed"
            and len(self._restart_times) > self.settings.max_restarts
        ):
            self._open_breaker(now)
        return len(self._restart_times)

    def _open_breaker(self, now: float) -> None:
        self._breaker = "open"
        self._breaker_until = now + self.settings.breaker_cooldown_s
        self.stats["breaker_opens"] += 1

    def _note_success(self) -> None:
        if self._breaker == "half-open":
            self._breaker = "closed"
            self._restart_times.clear()

    def breaker_state(self) -> str:
        """Current breaker state (advances ``open`` → ``half-open`` lazily)."""
        if (
            self._breaker == "open"
            and self.settings.clock() >= self._breaker_until
        ):
            self._breaker = "half-open"
        return self._breaker

    def check_breaker(self) -> None:
        """Raise :class:`ServerOverloaded` if the breaker is shedding.

        Also used by the daemon at *admission* so breaker-shed requests
        fail fast instead of occupying queue slots.
        """
        if self.breaker_state() == "open":
            remaining = max(0.0, self._breaker_until - self.settings.clock())
            self.stats["breaker_shed"] += 1
            raise ServerOverloaded(
                "solver worker pool circuit breaker is open (restart storm);"
                " shedding until the cooldown passes",
                retry_after_ms=max(1.0, remaining * 1000.0),
            )

    # -- introspection -------------------------------------------------------

    def health_snapshot(self) -> Dict[str, Any]:
        """Worker states, breaker state, and counters (the ``health`` op)."""
        return {
            "breaker": self.breaker_state(),
            "restarts_in_window": len(self._restart_times),
            "workers": [
                {
                    "index": w.index,
                    "pid": w.pid,
                    "state": w.state,
                    "restarts": w.restarts,
                    "alive": bool(w.process is not None and w.process.is_alive()),
                }
                for w in self._workers
            ],
            **self.stats,
        }
