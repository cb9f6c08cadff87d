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
:class:`Event` per process for all of its step events.  The trace is kept
in chunks of ``TRACE_CHUNK`` events: the open chunk holds times in an
``array('d')`` and tags as shared string references; when it fills, it is
folded into the digest and its tags become integer codes into the
simulator's tag table.  SHA-256 is streaming, so the digest equals the
per-event ``pack("<d", time) + tag.encode()`` formula byte for byte.

See ``docs/simulation.md`` for the event model and a worked example of
adding a process.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from array import array
from heapq import heappop, heappush
from itertools import chain
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import faults as _faults

__all__ = ["Event", "Entity", "Process", "RngStreams", "Simulator"]

#: Events per trace chunk: the open chunk is hashed and coded when it fills.
TRACE_CHUNK = 1 << 13

_pack_time = struct.Struct("<d").pack


def _chunk_bytes(times: array, tags: List[str]) -> bytes:
    """The digest input of a run of events: ``pack("<d", t) + tag`` each."""
    encoded = {tag: tag.encode("utf-8") for tag in set(tags)}
    return b"".join(chain.from_iterable(zip(
        map(_pack_time, times), map(encoded.__getitem__, tags)
    )))


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
        self.events_processed = 0
        # Chunked trace: full chunks as (times, tag codes) pairs, already in
        # the digest; the open chunk's times and tag strings; the tag table.
        self._trace_hash = hashlib.sha256() if record_trace else None
        self._trace_chunks: List[Tuple[array, array]] = []
        self._open_times = array("d")
        self._open_tags: List[str] = []
        self._tag_codes: Dict[str, int] = {}
        self._tag_names: List[str] = []

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

    # -- execution ------------------------------------------------------------

    def run(self, until: float) -> int:
        """Process every event with ``time <= until``; returns the count.

        The clock finishes exactly at ``until`` (even if the last event was
        earlier), so periodic monitors see a full final interval.  If a
        handler raises, the exception propagates with the clock at that
        event's time, and the counters and trace cover every event fired up
        to and including it.
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
        tracing = self._trace_hash is not None
        if tracing:
            log_time = self._open_times.append
            log_tag = self._open_tags.append
            # the value of ``processed`` at which the open chunk is full
            close_at = TRACE_CHUNK - len(self._open_tags)
        processed = 0
        try:
            while heap and heap[0][0] <= until:
                time, _, _, event = pop(heap)
                if event.cancelled:
                    continue
                self._now = time
                processed += 1
                if tracing:
                    log_time(time)
                    log_tag(event.tag)
                    if processed == close_at:
                        self._close_chunk()
                        close_at += TRACE_CHUNK
                event.fn()
        finally:
            self.events_processed += processed
        self._now = float(until)
        return processed

    def release(self) -> None:
        """Drop the pending events and the entities of a finished run.

        Every entity points back at the simulator (``entity.sim``) and every
        process's step event at its process, so while the simulator holds
        them they form reference cycles that only the cyclic garbage
        collector frees.  After ``release`` the clock, the counters and the
        trace stay readable, and the last reference to the simulator frees
        it and its trace at once.  Pending events are discarded and the
        processes' step events made inert.
        """
        for entity in self._entities:
            if isinstance(entity, Process):
                entity._event.fn = _inert
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

    def _close_chunk(self) -> None:
        """Fold the full open chunk into the digest, store it coded, empty it.

        Hashing chunk by chunk gives the same SHA-256 as hashing event by
        event.  Tags new to the table get the next codes; the codes are
        ``'H'`` while the table fits 16 bits and ``'L'`` past that.
        """
        times, tags = self._open_times, self._open_tags
        codes, names = self._tag_codes, self._tag_names
        for tag in set(tags).difference(codes):
            codes[tag] = len(names)
            names.append(tag)
        self._trace_hash.update(_chunk_bytes(times, tags))
        code = "H" if len(names) <= 1 << 16 else "L"
        self._trace_chunks.append(
            (times[:], array(code, map(codes.__getitem__, tags)))
        )
        del times[:]
        tags.clear()

    @property
    def trace(self) -> List[Tuple[float, str]]:
        """``(time, tag)`` pairs of processed events (``record_trace`` only)."""
        if self._trace_hash is None:
            raise RuntimeError("trace recording is off; pass record_trace=True")
        name = self._tag_names.__getitem__
        pairs: List[Tuple[float, str]] = []
        for times, codes in self._trace_chunks:
            pairs.extend(zip(times, map(name, codes)))
        pairs.extend(zip(self._open_times, self._open_tags))
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
        digest.update(_chunk_bytes(self._open_times, self._open_tags))
        return digest.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Simulator(t={self._now:.6g}, pending={len(self._heap)}, "
            f"processed={self.events_processed})"
        )
