"""Discrete-event simulation core: clock, event heap, entities, RNG streams.

The optimization layer (:mod:`repro.core`) treats the system as a static
snapshot; this engine adds *time*.  It is a classic discrete-event kernel in
the SimQN/SeQUeNCe mould — a binary heap of timestamped events, a simulation
clock that jumps from event to event, and self-scheduling processes — kept
deliberately small so a single event costs microseconds (see
``benchmarks/test_sim_throughput.py``).

Determinism contract
--------------------
Runs are reproducible bit for bit given a seed:

* **Ordering** — events are totally ordered by ``(time, priority, seq)``
  where ``seq`` is the scheduling sequence number, so simultaneous events
  fire in a deterministic order (FIFO among equals) independent of hash
  seeds or dict iteration.
* **Randomness** — every stochastic process draws from a *named* stream
  (:meth:`Simulator.stream`).  Streams are derived from the simulation seed
  and the stream name only (via :class:`numpy.random.SeedSequence` spawn
  keys), so adding a new process or reordering start-up cannot perturb the
  draws of existing processes.
* **Audit** — with ``record_trace=True`` the simulator keeps an event trace
  and a SHA-256 :meth:`~Simulator.trace_digest` over ``(time, tag)`` pairs;
  two runs are identical iff their digests match (asserted in
  ``tests/sim/test_engine.py``).

Hot path
--------
A heap entry is the tuple ``(time, priority, seq, event)``.  ``seq`` is
unique, so :mod:`heapq` orders entries in C on exactly the key above and
never compares two :class:`Event` objects.  A :class:`Process` re-arms
through the same push as :meth:`Simulator.schedule`, reusing one
:class:`Event` per process for all of its step events.  Processes too
numerous and too frequent for a heap entry per step live in a :class:`Bank`
(the entanglement sources' :class:`repro.sim.bank.SourceBank`): before
each pop the run loop hands it a :class:`Window`, and the bank fires, in one
vectorized block, every event of its chains ordered before the heap's next
entry; the simulator orders, sequences, counts and traces the block
(:meth:`Simulator.fire_block`) as the heap would have.  The trace is
kept in chunks of ``TRACE_CHUNK`` events: the open chunk holds times in an
``array('d')`` and tags as integer codes into the simulator's tag table;
when it fills, it is folded into the digest and stored.  SHA-256 is
streaming, so the digest equals the per-event
``pack("<d", time) + tag.encode()`` formula byte for byte.

See ``docs/simulation.md`` for the event model and a worked example of
adding a process.
"""

from __future__ import annotations

import hashlib
import zlib
from array import array
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import faults as _faults

__all__ = ["Bank", "Event", "Entity", "Process", "RngStreams", "Simulator", "Window"]

#: Events per trace chunk: the open chunk is hashed and coded when it fills.
TRACE_CHUNK = 1 << 13


def _inert() -> None:
    """Body of events that fire but do nothing (storms, paused processes)."""


def _is_nan(value: Any) -> bool:
    return value != value


def _delay_error(delay: Any, tag: str) -> ValueError:
    if _is_nan(delay):
        return ValueError(f"delay of event {tag!r} is NaN")
    return ValueError(f"delay must be non-negative, got {delay} (event {tag!r})")


def _time_error(time: Any, now: float, tag: str) -> ValueError:
    if _is_nan(time):
        return ValueError(f"cannot schedule event {tag!r} at NaN time")
    return ValueError(f"cannot schedule at {time} < now={now} (event {tag!r})")


class Event:
    """One scheduled callback.

    Events are created through :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at`, never directly.  The event's time,
    priority and sequence number live in its heap entry.  :meth:`cancel`
    marks the event dead; the run loop skips cancelled events on pop (lazy
    deletion).
    """

    __slots__ = ("fn", "tag", "cancelled")

    def __init__(self, fn: Callable[[], None], tag: str) -> None:
        self.fn = fn
        self.tag = tag
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event dead; it will be skipped when popped."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = " cancelled" if self.cancelled else ""
        return f"Event(tag={self.tag!r}{state})"


class RngStreams:
    """Named deterministic random streams derived from one seed.

    Each stream is an independent :class:`numpy.random.Generator` seeded by
    ``SeedSequence(seed, spawn_key=(crc32(name),))`` — a pure function of
    ``(seed, name)``.  Two simulations with the same seed give every
    like-named process identical randomness regardless of how many *other*
    streams exist or the order they were first touched.
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """The generator for ``name`` (created on first use, then cached)."""
        gen = self._streams.get(name)
        if gen is None:
            key = zlib.crc32(name.encode("utf-8"))
            sequence = np.random.SeedSequence(entropy=self.seed, spawn_key=(key,))
            gen = np.random.default_rng(sequence)
            self._streams[name] = gen
        return gen


class Entity:
    """Anything that lives inside a simulation (a link, a buffer, a monitor).

    Entities are attached with :meth:`Simulator.add`, which sets
    :attr:`sim`; :meth:`start` fires once when the simulation first runs.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.sim: "Simulator" = None  # type: ignore[assignment]  # set by Simulator.add

    def start(self) -> None:
        """Hook called once at simulation start (override as needed)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"


class Process(Entity):
    """An entity that drives itself: schedule next step, fire, repeat.

    Subclasses implement :meth:`next_delay` (seconds until the next step, or
    ``None`` to stop) and :meth:`step` (the action).  :meth:`pause` /
    :meth:`resume` model service interruptions — e.g. a link outage stops an
    entanglement source — so that events scheduled before the pause become
    inert instead of firing stale work.

    All step events armed between a resume and the next pause share one
    :class:`Event`, tagged with the process's ``name``.  Pausing swaps its
    callback for a no-op, so pending step events still fire (and enter the
    trace) but do nothing; resuming starts a fresh :class:`Event`.
    """

    #: Heap priority of the process's own step events (lower fires first
    #: among same-time events); subclasses override to order phases within
    #: a timestamp (e.g. adapt < physics < demand < monitor).
    priority = 0

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.active = True
        self._event = Event(self._fire, name)

    # -- subclass API ---------------------------------------------------------

    def next_delay(self) -> Optional[float]:
        """Seconds until the next :meth:`step`; ``None`` ends the process."""
        raise NotImplementedError

    def step(self) -> None:
        """One unit of work at the scheduled time."""
        raise NotImplementedError

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        self._arm()

    def pause(self) -> None:
        """Suspend the process; pending events become inert."""
        if self.active:
            self.active = False
            self._event.fn = _inert

    def resume(self) -> None:
        """Reactivate a paused process and schedule its next step."""
        if not self.active:
            self.active = True
            self._event = Event(self._fire, self.name)
            self._arm()

    def _arm(self) -> None:
        delay = self.next_delay()
        if delay is None:
            return
        if not delay >= 0:  # also rejects NaN
            raise _delay_error(delay, self.name)
        sim = self.sim
        sim._push(sim._now + delay, self.priority, self._event)

    def _fire(self) -> None:
        self.step()
        self._arm()


#: The seq to give :meth:`Window.count_due` for an event armed in the window.
ARMED = np.iinfo(np.int64).max


class Window:
    """The off-heap events that fire before the run loop's next heap pop.

    An event belongs to the window iff it is ordered before ``head``, the
    ``(time, priority, seq)`` key of the heap's first entry, and lies at or
    before the run horizon ``until``.  ``limit`` is the latest time an event
    of the window can have.
    """

    __slots__ = ("head", "until", "limit")

    def __init__(self, head: Tuple[float, float, int], until: float) -> None:
        self.head = head
        self.until = until
        self.limit = min(head[0], until)

    def before(self, time: float) -> "Window":
        """This window cut to the events strictly before ``time``."""
        return Window((time, -np.inf, 0), self.until)

    def count_due(
        self, chains: np.ndarray, priority: int, seqs: np.ndarray
    ) -> np.ndarray:
        """How many leading events of each chain are in the window.

        ``chains[i]`` holds chain i's next event times, non-decreasing.  The
        event in column 0 has seq ``seqs[i]``; every later one is armed
        inside the window, after every entry on the heap, so it follows any
        heap entry at its time and priority.  Pass :data:`ARMED` as the seq
        of a column-0 event that was armed inside the window too.
        """
        ht, hp, hq = self.head
        if ht > self.until:
            due = chains <= self.until
        else:
            due = chains < ht
            if hp > priority:
                due |= chains == ht
            elif hp == priority:
                due[:, 0] |= (chains[:, 0] == ht) & (seqs < hq)
        return due.sum(axis=1)


class Bank:
    """Chains of same-priority events kept off the heap, fired in blocks.

    A bank stands in for many processes that would each keep one pending
    step event on the heap and re-arm after every step: each chain has one
    pending event, armed with a seq from :meth:`Simulator.reserve_seq` or
    :meth:`Simulator.fire_block`.  Only heap events can change what a chain
    does, so before each heap pop the run loop calls :meth:`advance` with
    the :class:`Window` of events that fire first, and the bank fires them
    all through :meth:`Simulator.fire_block`: same order, seqs, counters and
    trace as one heap event per step.  A simulator holds at most one bank
    (:attr:`Simulator.bank`).
    """

    #: the heap priority of every event of the bank
    priority = 0
    #: the earliest pending event (a lower bound will do); inf when none
    next_time = np.inf

    def advance(self, window: Window) -> None:
        """Fire every pending event of the bank in ``window``."""
        raise NotImplementedError

    def release(self) -> None:
        """Drop the buffers of a finished run (:meth:`Simulator.release`)."""


def _tie_order(times: np.ndarray, chains: np.ndarray, seqs: np.ndarray,
               seq0: int) -> np.ndarray:
    """The heap's order of a block with tied times: pop by ``(time, seq)``,
    each event arming its chain's next with the next free seq from
    ``seq0``."""
    by_chain = np.argsort(chains, kind="stable")  # each chain's, in order
    successor = np.full(len(times), -1, np.intp)
    same = chains[by_chain[1:]] == chains[by_chain[:-1]]
    successor[by_chain[:-1][same]] = by_chain[1:][same]
    heap = [(float(times[e]), int(seqs[chains[e]]), int(e))
            for e in by_chain[np.r_[True, ~same]]]
    heapify(heap)
    order = []
    while heap:
        _, _, event = heappop(heap)
        after = successor[event]
        if after >= 0:
            heappush(heap, (float(times[after]), seq0 + len(order), int(after)))
        order.append(event)
    return np.array(order, np.intp)


class Simulator:
    """The discrete-event kernel: clock + heap + entities + RNG streams.

    Typical use::

        sim = Simulator(seed=7)
        sim.add(MyProcess("source"))
        sim.schedule(10.0, lambda: print("one-shot at t=10"), tag="demo")
        sim.run(until=60.0)

    ``run`` may be called repeatedly with increasing horizons; the clock
    never moves backwards.
    """

    def __init__(
        self, *, seed: int = 0, start_time: float = 0.0, record_trace: bool = False
    ) -> None:
        self.seed = int(seed)
        self.streams = RngStreams(seed)
        self._now = float(start_time)
        #: entries ``(time, priority, seq, event)``; see the module docstring
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._seq = 0
        self._entities: List[Entity] = []
        self._started = 0  # entities already start()ed
        #: the off-heap events' bank, attached by its first user (a source)
        self.bank: Optional[Bank] = None
        self.events_processed = 0
        # Chunked trace: full chunks as (times, tag codes) pairs, already in
        # the digest; the open chunk's times and tag codes; the tag table
        # and, for hashing, its names as a zero-padded byte matrix with
        # each row's mask of real bytes.
        self._trace_hash = hashlib.sha256() if record_trace else None
        self._trace_chunks: List[Tuple[array, array]] = []
        self._open_times = array("d")
        self._open_codes = array("L")
        self._tag_codes: Dict[str, int] = {}
        self._tag_names: List[str] = []
        self._tag_bytes: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # -- clock & randomness ---------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_scheduled(self) -> int:
        """Events scheduled so far (the next event's ``seq``)."""
        return self._seq

    def stream(self, name: str) -> np.random.Generator:
        """The named deterministic random stream (see :class:`RngStreams`)."""
        return self.streams.stream(name)

    # -- entities -------------------------------------------------------------

    def add(self, entity: Entity) -> Any:
        """Attach an entity; its :meth:`~Entity.start` runs at next ``run``."""
        entity.sim = self
        self._entities.append(entity)
        return entity

    # -- scheduling -----------------------------------------------------------

    def schedule(
        self, delay: float, fn: Callable[[], None], *, priority: int = 0, tag: str = ""
    ) -> Event:
        """Schedule ``fn`` to fire ``delay`` seconds from now."""
        if not delay >= 0:  # also rejects NaN
            raise _delay_error(delay, tag)
        return self._push(self._now + delay, priority, Event(fn, tag))

    def schedule_at(
        self, time: float, fn: Callable[[], None], *, priority: int = 0, tag: str = ""
    ) -> Event:
        """Schedule ``fn`` at absolute simulation time ``time``."""
        return self._push(time, priority, Event(fn, tag))

    def _push(self, time: float, priority: int, event: Event) -> Event:
        """The one way onto the heap (``schedule*`` and process re-arms)."""
        if not time >= self._now:  # also rejects NaN
            raise _time_error(time, self._now, event.tag)
        entry = (float(time), int(priority), self._seq, event)
        self._seq += 1
        heappush(self._heap, entry)
        return event

    def reserve_seq(self) -> int:
        """Take the next seq for an event armed off the heap (in a bank)."""
        seq = self._seq
        self._seq += 1
        return seq

    def push_inert(self, time: float, priority: int, seq: int, tag: str) -> None:
        """Hand an off-heap pending event to the heap under its own key.

        The event still fires at its time, traced under ``tag``, and does
        nothing (a paused bank chain).  ``seq`` is the one it was armed with.
        """
        heappush(self._heap, (float(time), int(priority), int(seq),
                              Event(_inert, tag)))

    # -- execution ------------------------------------------------------------

    def run(self, until: float) -> int:
        """Process every event with ``time <= until``; returns the count.

        The clock finishes exactly at ``until`` (even if the last event was
        earlier), so periodic monitors see a full final interval.  If a
        handler raises, the exception propagates with the clock at that
        event's time, and the counters and trace cover every event fired up
        to and including it.

        Before each heap entry is popped, the :attr:`bank` (if any) fires
        every event of its :class:`Window`: those ordered before that
        entry's ``(time, priority, seq)`` key and at or before ``until``.
        """
        if not until >= self._now:
            if _is_nan(until):
                raise ValueError("cannot run to a NaN horizon")
            raise ValueError(f"cannot run to {until} < now={self._now}")
        self._inject_storm(until)
        while self._started < len(self._entities):
            entity = self._entities[self._started]
            self._started += 1
            entity.start()
        heap = self._heap
        pop = heappop
        bank = self.bank
        idle = (np.inf, 0, 0)  # the head of an empty heap
        tracing = self._trace_hash is not None
        if tracing:
            log_time = self._open_times.append
            log_code = self._open_codes.append
            codes = self._tag_codes
            room = TRACE_CHUNK - len(self._open_codes)
        before = self.events_processed
        processed = 0
        try:
            while True:
                if bank is not None and bank.next_time <= until and (
                    not heap or bank.next_time <= heap[0][0]
                ):
                    bank.advance(Window(heap[0][:3] if heap else idle, until))
                    if tracing:
                        room = TRACE_CHUNK - len(self._open_codes)
                if not heap or heap[0][0] > until:
                    break
                time, _, _, event = pop(heap)
                if event.cancelled:
                    continue
                self._now = time
                processed += 1
                if tracing:
                    log_time(time)
                    code = codes.get(event.tag)
                    log_code(self.tag_code(event.tag) if code is None else code)
                    room -= 1
                    if not room:
                        self._close_chunk()
                        room = TRACE_CHUNK
                event.fn()
        finally:
            self.events_processed += processed
        self._now = float(until)
        return self.events_processed - before

    def fire_block(
        self,
        times: np.ndarray,
        chains: np.ndarray,
        seqs: np.ndarray,
        codes: np.ndarray,
        actions: List[Tuple[int, Callable[..., None], tuple]],
    ) -> np.ndarray:
        """Process a bank's block of events in the heap's order.

        ``times[i]`` is event i's time and ``chains[i]`` its chain; a
        chain's events are listed in firing order, the first being its
        pending event, armed with seq ``seqs[chain]``.  They share one
        priority, so the heap would pop them by ``(time, seq)``, each one
        arming its chain's next event with the next free seq.  In that order
        the events are counted and traced (tag code ``codes[chain]``), then
        each ``(event, fn, args)`` of ``actions`` calls ``fn(*args)`` in
        event order with the clock at its event's time; the clock ends at
        the last event.

        Returns each event's armed seq: the one its chain's next event got.
        """
        n = len(times)
        seq0 = self._seq
        order = np.argsort(times)
        ordered = times[order]
        if (ordered[1:] == ordered[:-1]).any():
            order = _tie_order(times, chains, seqs, seq0)
            ordered = times[order]
        armed = np.empty(n, np.int64)
        armed[order] = np.arange(seq0, seq0 + n)
        self._seq = seq0 + n
        if self._trace_hash is not None:
            self._log_block(ordered, codes[chains[order]])
        self.events_processed += n
        for event, fn, args in sorted(actions, key=lambda a: armed[a[0]]):
            self._now = float(times[event])
            fn(*args)
        if n:
            self._now = float(ordered[-1])
        return armed

    def release(self) -> None:
        """Drop the pending events and the entities of a finished run.

        Every entity points back at the simulator (``entity.sim``) and every
        process's step event at its process, so while the simulator holds
        them they form reference cycles that only the cyclic garbage
        collector frees.  After ``release`` the clock, the counters and the
        trace stay readable, and the last reference to the simulator frees
        it and its trace at once.  Pending events are discarded, the
        processes' step events made inert and the bank's buffers dropped.
        """
        for entity in self._entities:
            if isinstance(entity, Process):
                entity._event.fn = _inert
        if self.bank is not None:
            self.bank.release()
        self._heap.clear()
        self._entities.clear()
        self._started = 0

    def _inject_storm(self, until: float) -> None:
        """The ``sim.storm`` fault seam: a deterministic no-op event burst.

        A ``storm`` rule floods the heap with ``count`` inert events spread
        over ``span_s`` seconds (default: the whole run window), drawn from
        the dedicated ``faults.storm`` named stream — so the burst is
        reproducible under the plan and, by the named-stream discipline,
        cannot perturb any model process's own draws.  The storm *does*
        enter the event trace (tag ``fault.storm``): digests under a plan
        differ from clean digests, equally deterministically.
        """
        rule = _faults.fire("sim.storm")
        if rule is None or rule.kind != "storm" or rule.count <= 0:
            return
        span = rule.span_s if rule.span_s > 0 else max(until - self._now, 0.0)
        offsets = np.sort(self.stream("faults.storm").random(rule.count))
        for offset in offsets:
            self.schedule_at(
                self._now + float(offset) * span, _inert, tag="fault.storm"
            )

    # -- audit ----------------------------------------------------------------

    def tag_code(self, tag: str) -> int:
        """The trace's integer code for ``tag`` (the next free one if new)."""
        code = self._tag_codes.get(tag)
        if code is None:
            code = self._tag_codes[tag] = len(self._tag_names)
            self._tag_names.append(tag)
        return code

    def _log_block(self, times: np.ndarray, codes: np.ndarray) -> None:
        """Append a run of processed events to the trace, in order.

        ``times`` is float64 and ``codes`` holds :meth:`tag_code` values;
        the open chunk is closed each time it fills.
        """
        open_times, open_codes = self._open_times, self._open_codes
        codes = codes.astype("L", copy=False)
        start = 0
        while start < len(times):
            stop = min(len(times), start + TRACE_CHUNK - len(open_codes))
            open_times.frombytes(times[start:stop].tobytes())
            open_codes.frombytes(codes[start:stop].tobytes())
            if len(open_codes) == TRACE_CHUNK:
                self._close_chunk()
            start = stop

    def _close_chunk(self) -> None:
        """Fold the full open chunk into the digest, store it, empty it.

        Hashing chunk by chunk gives the same SHA-256 as hashing event by
        event.  The stored codes are ``'H'`` while the tag table fits 16
        bits and ``'L'`` past that.
        """
        times, codes = self._open_times, self._open_codes
        self._trace_hash.update(self._chunk_bytes(times, codes))
        code = "H" if len(self._tag_names) <= 1 << 16 else "L"
        stored = array(code)
        stored.frombytes(np.frombuffer(codes, dtype="L").astype(code).tobytes())
        self._trace_chunks.append((times[:], stored))
        del times[:]
        del codes[:]

    def _chunk_bytes(self, times: array, codes: array) -> bytes:
        """The digest input of a run of events: ``pack("<d", t) + tag`` each.

        Built in one pass: a row per event holding the time's eight
        little-endian bytes and the tag's zero-padded UTF-8 bytes, then the
        padding dropped with a mask.
        """
        if not codes:
            return b""
        names = self._tag_names
        if self._tag_bytes is None or len(self._tag_bytes[0]) != len(names):
            encoded = [name.encode("utf-8") for name in names]
            width = max(map(len, encoded))
            table = np.frombuffer(
                b"".join(raw.ljust(width, b"\0") for raw in encoded), np.uint8
            ).reshape(len(encoded), width)
            lengths = np.fromiter(map(len, encoded), np.intp, len(encoded))
            keep = np.arange(8 + width) < (lengths + 8)[:, None]
            self._tag_bytes = (table, keep)
        table, keep = self._tag_bytes
        index = np.frombuffer(codes, dtype=codes.typecode)
        rows = np.empty((len(index), keep.shape[1]), np.uint8)
        rows[:, :8] = (
            np.frombuffer(times, dtype=np.float64).astype("<f8").view(np.uint8)
            .reshape(-1, 8)
        )
        rows[:, 8:] = table.take(index, axis=0)
        return rows[keep.take(index, axis=0)].tobytes()

    @property
    def trace(self) -> List[Tuple[float, str]]:
        """``(time, tag)`` pairs of processed events (``record_trace`` only)."""
        if self._trace_hash is None:
            raise RuntimeError("trace recording is off; pass record_trace=True")
        name = self._tag_names.__getitem__
        pairs: List[Tuple[float, str]] = []
        for times, codes in (*self._trace_chunks,
                             (self._open_times, self._open_codes)):
            pairs.extend(zip(times, map(name, codes)))
        return pairs

    def trace_digest(self) -> str:
        """SHA-256 over the processed-event trace; '' when tracing is off.

        Two runs of the same simulation are identical iff their digests
        match — the determinism tests rely on exactly this.  The open chunk
        is hashed into a copy, so the trace can keep growing.
        """
        if self._trace_hash is None:
            return ""
        digest = self._trace_hash.copy()
        digest.update(self._chunk_bytes(self._open_times, self._open_codes))
        return digest.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Simulator(t={self._now:.6g}, pending={len(self._heap)}, "
            f"processed={self.events_processed})"
        )
