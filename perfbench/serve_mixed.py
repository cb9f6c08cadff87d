"""``serve_mixed``: an open loop against ``repro serve`` over its NDJSON wire.

The daemon runs as ``python -m repro serve --socket … --cache-db …`` at its
other CLI defaults (in the traced run, through ``serve_launcher.py``).  One
generator process sends over two connections with no extra threads;
arrivals follow a seeded Poisson schedule at a nominal 100 req/s:

* 98% of requests draw from 64 working-set specs, pre-warmed during set-up
  and well inside the daemon's 256-entry cache -- the hit path (protocol →
  spec memo → sqlite read → decode/encode);
* 2% are fresh specs (misses); a quarter of them are sent twice 1 ms apart,
  so that in-flight coalescing runs.  Misses queue behind micro-batched
  small-K solves that hold the event loop.

Each request is timed from its due time, so a stall also delays the
requests scheduled behind it.  Traced runs also search for the maximum
rate: a binary search over a geometric ladder of rates, where a step passes
when p99 ≤ 1000 ms and no backlog remains when it ends.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench.common import (
    ROOT,
    BenchError,
    child_env,
    emit,
    percentile,
    pid_peak_rss_mb,
)

NOMINAL_RPS = 100.0
MISS_SHARE = 0.02
DOUBLE_SHARE = 0.25
DOUBLE_GAP_S = 0.001
WORKING_SET = 64
#: the latency limit behind max_rate_rps: a cold small-batch solve costs
#: 0.25-0.4 s on a 2-core box, so a miss may wait behind about two others
LIMIT_MS = 1000.0
#: geometric rate ladder; each step (15%) is smaller than a 0.25 bound
LADDER = tuple(NOMINAL_RPS * 1.15 ** i for i in range(-2, 14))
PROBE_REQUESTS = 800
#: a response not seen after this long counts as timed out
REQUEST_TIMEOUT_S = 30.0


@dataclass
class Plan:
    """Everything the generator sends, derived from the seed alone."""

    working_set: list          # ConfigSpec
    fresh: list                # ConfigSpec, each used at most once per run
    nominal: List[Tuple[float, int]]  # (due offset s, spec index)
    probe_seed: int
    probe_requests: int = 800
    next_fresh: int = 0

    def spec(self, index: int):
        if index < WORKING_SET:
            return self.working_set[index]
        return self.fresh[index - WORKING_SET]


def make_plan(seed: int, window_s: float, smoke: bool = False) -> Plan:
    from repro.serve.protocol import ConfigSpec

    rng = np.random.default_rng([seed, 0x5E7E])
    ws_size = 8 if smoke else WORKING_SET
    # Working set: 8 channel realizations x 8 bandwidth budgets (the Fig.-6
    # bandwidth range); fresh specs use realizations from a disjoint range.
    realizations = rng.choice(1 << 30, size=max(1, ws_size // 8), replace=False)
    bandwidths = np.linspace(0.5e7, 1.5e7, min(8, ws_size))
    working = [
        ConfigSpec(seed=int(r), total_bandwidth_hz=float(b))
        for r in realizations for b in bandwidths
    ]
    fresh = [
        ConfigSpec(seed=int(s))
        for s in (1 << 30) + rng.choice(1 << 30, size=4096, replace=False)
    ]
    plan = Plan(working, fresh, [], probe_seed=int(rng.integers(1 << 31)),
                probe_requests=100 if smoke else PROBE_REQUESTS)
    plan.nominal = schedule(plan, rng, NOMINAL_RPS, window_s=window_s)
    return plan


def schedule(plan: Plan, rng, rate: float, *, window_s: float = 0.0,
             count: int = 0) -> List[Tuple[float, int]]:
    """Poisson arrivals at ``rate`` for ``window_s`` seconds or ``count``
    requests; 2% fresh specs, a quarter of those doubled 1 ms apart."""
    out: List[Tuple[float, int]] = []
    t = 0.0
    ws = len(plan.working_set)
    while True:
        t += rng.exponential(1.0 / rate)
        if (window_s and t > window_s) or (count and len(out) >= count):
            return sorted(out)
        if rng.random() < MISS_SHARE:
            index = WORKING_SET + plan.next_fresh
            plan.next_fresh += 1
            out.append((t, index))
            if rng.random() < DOUBLE_SHARE:
                out.append((t + DOUBLE_GAP_S, index))
        else:
            out.append((t, int(rng.integers(ws))))


# -- the daemon ----------------------------------------------------------------------


class Daemon:
    """One ``repro serve`` subprocess on a unix socket with a sqlite cache."""

    def __init__(self, workdir: Path, *, traced: bool = False) -> None:
        self.socket = str(workdir / "d.sock")
        self.cache_db = str(workdir / "cache.db")
        self.spans = str(workdir / "spans.json")
        self.traced = traced
        if traced:
            cmd = [sys.executable, "perfbench/serve_launcher.py",
                   "--spans", self.spans]
        else:
            cmd = [sys.executable, "-m", "repro"]
        cmd += ["serve", "--socket", self.socket, "--cache-db", self.cache_db]
        self.log = open(ROOT / workdir / "daemon.log", "wb")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=self.log, stderr=subprocess.STDOUT,
        )

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"daemon exited with {self.proc.returncode}")
            if os.path.exists(self.socket):
                try:
                    asyncio.run(_request_once(self.socket, {"id": "ping",
                                                            "op": "ping"}))
                    return
                except OSError:
                    pass
            time.sleep(0.02)
        raise BenchError("daemon did not become ready")

    def stats(self) -> Dict:
        reply = asyncio.run(_request_once(self.socket, {"id": "stats",
                                                        "op": "stats"}))
        return reply["stats"]

    def peak_rss_mb(self) -> float:
        return pid_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Drain (traced launcher writes its spans) or interrupt, then reap."""
        try:
            if self.proc.poll() is None:
                if self.traced:
                    asyncio.run(_request_once(self.socket, {"id": "drain",
                                                            "op": "drain"}))
                else:
                    self.proc.send_signal(signal.SIGINT)
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.log.close()
        if self.proc.returncode != 0:
            raise BenchError(f"daemon exited with {self.proc.returncode}")


async def _request_once(socket_path: str, body: Dict) -> Dict:
    reader, writer = await asyncio.open_unix_connection(
        socket_path, limit=1 << 24
    )
    try:
        writer.write((json.dumps(body, sort_keys=True) + "\n").encode())
        await writer.drain()
        return json.loads(await reader.readline())
    finally:
        writer.close()
        await writer.wait_closed()


# -- the open-loop generator -----------------------------------------------------------


@dataclass
class Record:
    due: float
    sent: float = 0.0
    recv: float = 0.0
    ok: bool = False
    error: str = ""
    cache: str = ""
    meta: Dict = field(default_factory=dict)

    @property
    def latency_ms(self) -> float:
        """Due → answer; failed or unanswered requests are infinitely late."""
        if not self.ok or not self.recv:
            return float("inf")
        return 1000.0 * (self.recv - self.due)


class Generator:
    """Two connections, one event loop, id-matched out-of-order replies."""

    def __init__(self, socket_path: str, plan: Plan,
                 keep_payloads: Tuple[str, ...] = ()) -> None:
        self.socket_path = socket_path
        self.plan = plan
        self.keep = set(keep_payloads)
        self.payloads: Dict[str, Dict] = {}
        self.records: Dict[str, Record] = {}
        self._waiting: Dict[str, asyncio.Future] = {}

    async def __aenter__(self) -> "Generator":
        self.conns = [
            await asyncio.open_unix_connection(
                self.socket_path, limit=1 << 24
            )
            for _ in range(2)
        ]
        self.readers = [asyncio.create_task(self._read(r))
                        for r, _ in self.conns]
        return self

    async def __aexit__(self, *exc) -> None:
        for _, writer in self.conns:
            writer.close()
        for task in self.readers:
            task.cancel()
        await asyncio.gather(*self.readers, return_exceptions=True)
        for _, writer in self.conns:
            try:
                await writer.wait_closed()
            except OSError:
                pass

    async def _read(self, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            now = time.monotonic()
            if not line:
                return
            reply = json.loads(line)
            rid = reply.get("id", "")
            record = self.records.get(rid)
            if record is None:
                continue
            record.recv = now
            record.ok = bool(reply.get("ok"))
            record.meta = reply.get("meta") or {}
            record.cache = str(record.meta.get("cache", ""))
            if not record.ok:
                record.error = str((reply.get("error") or {}).get("type", "?"))
            if rid in self.keep:
                self.payloads[rid] = reply.get("result")
            waiter = self._waiting.pop(rid, None)
            if waiter is not None and not waiter.done():
                waiter.set_result(None)

    async def send(self, prefix: str, arrivals: List[Tuple[float, int]],
                   *, abort_after: int = 0,
                   drain_grace_s: Optional[float] = None) -> List[Record]:
        """Send ``arrivals`` on schedule; wait for the replies.

        Returns the records in schedule order.  With ``drain_grace_s`` the
        call waits only that long after the last due time before returning
        (a step's backlog check); the caller then waits out the rest with
        :meth:`settle`.  ``abort_after`` > 0 stops sending once that many
        requests are overdue by more than the latency limit.
        """
        from repro.serve.protocol import ServeRequest, encode_line

        lines = [
            encode_line(ServeRequest(id=f"{prefix}{i}", op="solve",
                                     spec=self.plan.spec(index)).to_dict())
            for i, (_, index) in enumerate(arrivals)
        ]
        loop = asyncio.get_running_loop()
        start = time.monotonic() + 0.02
        records = []
        for i, ((offset, _), line) in enumerate(zip(arrivals, lines)):
            due = start + offset
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            rid = f"{prefix}{i}"
            record = Record(due=due)
            self.records[rid] = record
            self._waiting[rid] = loop.create_future()
            _, writer = self.conns[i % 2]
            record.sent = time.monotonic()
            writer.write(line)
            if writer.transport.get_write_buffer_size() > 1 << 16:
                await writer.drain()
            records.append(record)
            if abort_after and i % 16 == 0:
                overdue = record.sent - LIMIT_MS / 1000.0
                late = sum(1 for r in records if not r.recv and r.due < overdue)
                if late > abort_after:
                    break
        wait = REQUEST_TIMEOUT_S if drain_grace_s is None else drain_grace_s
        await self._wait(records[-1].due + wait)
        return records

    async def settle(self) -> None:
        """Wait until every request sent is answered or has timed out."""
        await self._wait(time.monotonic() + REQUEST_TIMEOUT_S)

    async def _wait(self, until: float) -> None:
        pending = list(self._waiting.values())
        if pending:
            await asyncio.wait(pending, timeout=max(0.0, until - time.monotonic()))


# -- phases ---------------------------------------------------------------------------


def warm_up(daemon: Daemon, plan: Plan) -> None:
    """Solve the working set through the daemon (fills its cache)."""
    async def main() -> List[Record]:
        async with Generator(daemon.socket, plan) as gen:
            arrivals = [(0.0, i) for i in range(len(plan.working_set))]
            return await gen.send("w", arrivals)

    records = asyncio.run(main())
    bad = [r for r in records if not r.ok]
    if bad:
        raise BenchError(f"{len(bad)} warm-up requests failed")


@dataclass
class Window:
    """The records of one schedule (the nominal window or a ladder step)."""

    records: List[Record]
    late_ms: List[float]
    no_backlog: bool = True

    @property
    def latencies(self) -> List[float]:
        return [r.latency_ms for r in self.records]

    def passes(self) -> bool:
        return percentile(self.latencies, 99) <= LIMIT_MS and self.no_backlog

    def answered_rate(self) -> float:
        """Successful answers per second, first due time to last answer."""
        ok = [r for r in self.records if r.ok]
        if not ok:
            return 0.0
        span = max(r.recv for r in ok) - min(r.due for r in self.records if r.sent)
        return len(ok) / span


def nominal_window(daemon: Daemon, plan: Plan,
                   keep: Tuple[str, ...] = ()) -> Tuple[Window, Dict]:
    async def main():
        async with Generator(daemon.socket, plan, keep) as gen:
            records = await gen.send("n", plan.nominal)
            return records, gen.payloads

    records, payloads = asyncio.run(main())
    late = [1000.0 * (r.sent - r.due) for r in records]
    return Window(records, late), payloads


def probe(daemon: Daemon, plan: Plan, step: int, rng) -> Window:
    """One ladder step: ``plan.probe_requests`` arrivals at LADDER[step]."""
    arrivals = schedule(plan, rng, LADDER[step], count=plan.probe_requests)

    async def main():
        async with Generator(daemon.socket, plan) as gen:
            records = await gen.send(
                f"p{step}-", arrivals, abort_after=len(arrivals) // 100,
                drain_grace_s=LIMIT_MS / 1000.0,
            )
            backlog = any(not r.recv for r in records) or (
                len(records) < len(arrivals))
            await gen.settle()
            return records, backlog

    records, backlog = asyncio.run(main())
    missing = len(arrivals) - len(records)
    # Requests never sent because the step aborted count as failures.
    records = records + [Record(due=0.0) for _ in range(missing)]
    return Window(records, [1000.0 * (r.sent - r.due) for r in records if r.sent],
                  no_backlog=not backlog)


def max_rate(daemon: Daemon, plan: Plan, nominal: Window) -> Tuple[float, List]:
    """Binary search for the highest passing ladder step."""
    rng = np.random.default_rng([plan.probe_seed, 0x1ADD])
    nominal_step = LADDER.index(NOMINAL_RPS)
    steps: Dict[int, Window] = {}
    if nominal.passes():
        lo, hi, steps[nominal_step] = nominal_step, len(LADDER), nominal
    else:
        lo, hi = -1, nominal_step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        steps[mid] = probe(daemon, plan, mid, rng)
        if steps[mid].passes():
            lo = mid
        else:
            hi = mid
    log = [(LADDER[s], w.passes(), percentile(w.latencies, 99))
           for s, w in sorted(steps.items())]
    if lo < 0:
        return 0.0, log
    return steps[lo].answered_rate(), log


def end_to_end(window: Window) -> Dict[str, float]:
    """Answered configs (= answered requests) per second, from the first
    due time to the last answer."""
    answered = window.answered_rate()
    return {"configs_per_s": answered, "events_per_s": answered}


# -- output checks --------------------------------------------------------------------


def check_window(window: Window) -> List[str]:
    """Shed, error and timed-out requests fail."""
    failures = []
    for i, r in enumerate(window.records):
        if not r.ok:
            failures.append(
                f"request {i}: {r.error or 'no answer within timeout'}"
            )
    return failures


def sample_ids(plan: Plan, seed: int) -> Tuple[str, ...]:
    """Seeded sample of nominal requests: two hits and two misses."""
    rng = np.random.default_rng([seed, 0xC4EC])
    hits = [i for i, (_, s) in enumerate(plan.nominal) if s < WORKING_SET]
    misses = [i for i, (_, s) in enumerate(plan.nominal) if s >= WORKING_SET]
    picks = list(rng.choice(hits, size=min(2, len(hits)), replace=False))
    if misses:
        picks += list(rng.choice(misses, size=min(2, len(misses)), replace=False))
    return tuple(f"n{int(i)}" for i in sorted(picks))


def check_samples(plan: Plan, payloads: Dict[str, Dict], cache_db: str,
                  references: Dict[str, object]) -> List[str]:
    """Sampled daemon answers against direct solves of the same spec.

    * payload equivalence (modulo wall-clock fields) with a direct
      ``SolverService`` solve through the daemon's own sqlite cache -- the
      daemon ≡ direct contract of ``docs/serving.md``;
    * objective within 1e-9 and identical λ against an independent solve on
      a fresh, cache-less ``SolverService`` (``references``).
    """
    from repro.api.service import SolverService
    from repro.io import result_to_dict
    from repro.serve.bench import payloads_equivalent
    from repro.serve.cache import SqliteResultCache

    failures = []
    with SqliteResultCache(ROOT / cache_db) as cache:
        shared = SolverService(cache=cache)
        for rid, payload in payloads.items():
            spec = plan.spec(plan.nominal[int(rid[1:])][1])
            if payload is None:
                failures.append(f"{rid}: no result payload")
                continue
            direct = result_to_dict(shared.solve(spec.build()))
            if not payloads_equivalent(payload, direct):
                failures.append(f"{rid}: payload differs from direct solve")
            ref = references[rid]
            objective = payload["metrics"]["objective"]
            if abs(objective - ref.objective) > 1e-9 * max(1.0, abs(ref.objective)):
                failures.append(f"{rid}: objective {objective!r} != "
                                f"independent {ref.objective!r}")
            lam = payload["allocation"]["lam"]
            if list(map(float, lam)) != [float(v) for v in ref.allocation.lam]:
                failures.append(f"{rid}: λ differs from independent solve")
    return failures


def independent_solves(plan: Plan, ids: Tuple[str, ...]) -> Dict[str, object]:
    from repro.api.service import SolverService

    return {
        rid: SolverService().solve(plan.spec(plan.nominal[int(rid[1:])][1]).build())
        for rid in ids
    }


# -- phases (called by run.py in a fresh interpreter) ---------------------------------


def nominal_window_s(seconds: float, smoke: bool) -> float:
    """Half of the run's measuring time; ≥ 1000 requests from 20 s up."""
    return 1.0 if smoke else seconds / 2.0


def setup(seed: int, seconds: float, smoke: bool) -> Dict:
    from perfbench.common import run_dir

    plan = make_plan(seed, nominal_window_s(seconds, smoke), smoke)
    daemon = Daemon(run_dir("serve"))
    try:
        daemon.wait_ready()
        warm_up(daemon, plan)
    except BaseException:
        daemon.proc.kill()
        raise
    return {"seed": seed, "plan": plan, "daemon": daemon, "smoke": smoke}


def teardown(state: Dict) -> None:
    daemon = state["daemon"]
    if daemon.proc.poll() is None:
        daemon.stop()


def measure(state: Dict, seconds: float):
    plan, daemon = state["plan"], state["daemon"]
    ids = sample_ids(plan, state["seed"])
    window, payloads = nominal_window(daemon, plan, keep=ids)
    metrics = end_to_end(window)
    metrics["peak_rss_mb"] = daemon.peak_rss_mb()
    stats = daemon.stats()
    daemon.stop()
    failures = check_window(window)
    failures += check_samples(plan, payloads, daemon.cache_db,
                              independent_solves(plan, ids))
    info = {"requests": len(window.records),
            "p50_ms": percentile(window.latencies, 50),
            "p99_ms": percentile(window.latencies, 99),
            "late_ms_p99": percentile(window.late_ms, 99),
            "hits": stats["cache_hits"], "coalesced": stats["coalesced"],
            "backend_batches": stats["backend_batches"]}
    return metrics, len(window.records) + len(ids), failures, info


def traced(state: Dict, seconds: float):
    """Nominal window and rate ladder on the plain daemon, then the nominal
    window again on a traced daemon."""
    from perfbench.common import run_dir
    from perfbench.tracing import layer_metrics, load_spans, within

    plan, plain = state["plan"], state["daemon"]
    base, _ = nominal_window(plain, plan)
    rate, ladder = max_rate(plain, plan, base)
    emit("ladder", ladder)
    plain.stop()
    daemon = Daemon(run_dir("serve-traced"), traced=True)
    try:
        daemon.wait_ready()
        warm_up(daemon, plan)
        before = daemon.stats()
        t0 = time.monotonic_ns()
        window, _ = nominal_window(daemon, plan)
        t1 = time.monotonic_ns()
        after = daemon.stats()
    finally:
        daemon.stop()
    spans = within(load_spans(ROOT / daemon.spans), t0, t1)
    metrics = layer_metrics(spans)
    delta = {k: after[k] - before[k] for k in
             ("cache_hits", "coalesced", "shed", "errors", "backend_batches",
              "backend_solves")}
    metrics["api.cache_hits"] = after["cache"]["hits"] - before["cache"]["hits"]
    metrics["api.cache_misses"] = (after["cache"]["misses"]
                                   - before["cache"]["misses"])
    metrics["serve.hits"] = delta["cache_hits"]
    metrics["serve.misses"] = metrics["api.cache_misses"]
    metrics["serve.coalesced"] = delta["coalesced"]
    metrics["serve.shed"] = delta["shed"]
    metrics["serve.errors"] = delta["errors"]
    metrics["serve.batches"] = delta["backend_batches"]
    metrics["serve.batch_size_mean"] = (
        delta["backend_solves"] / delta["backend_batches"]
        if delta["backend_batches"] else 0.0)
    solved = [r.meta for r in window.records if r.cache in ("solved", "coalesced")]
    for key in ("queue_ms", "solve_ms"):
        values = [m[key] for m in solved if key in m]
        metrics[f"serve.{key}_p50"] = percentile(values, 50)
        metrics[f"serve.{key}_p99"] = percentile(values, 99)
    metrics["serve.gen_late_ms_p99"] = percentile(window.late_ms, 99)
    metrics["serve.p50_ms"] = percentile(base.latencies, 50)
    metrics["serve.p99_ms"] = percentile(base.latencies, 99)
    metrics["serve.max_rate_rps"] = rate
    metrics["bench.trace_overhead"] = (
        percentile(window.latencies, 50) / percentile(base.latencies, 50) - 1.0)
    failures = check_window(base) + check_window(window)
    return metrics, len(base.records) + len(window.records), failures, spans
