"""Property tests: the event kernel and the source bank against references.

The reference model is the simplest kernel that could work: pending events
in a list, the next one chosen with ``min`` over ``(time, priority, seq)``,
processes paused and resumed through an epoch token, and a trace digest fed
one event at a time with ``struct.pack("<d", t)`` then ``tag.encode("utf-8")``
(the formula every pinned digest was recorded with).  Hypothesis draws
random programs — schedules with tied times and mixed priorities,
cancellations, events scheduled from inside handlers, process pause/resume
and several ``run(until)`` calls — and runs each program on both kernels.
Fired order, trace, digest, clock and counters must agree after every run.
The property runs with the trace chunk size patched to 1 and 3 as well as
the default, so chunks fill both mid-run and between runs.

The second half checks :class:`~repro.sim.bank.SourceBank` against
:class:`ReferenceSource`, the per-event entanglement source it replaced
(one heap event per attempt, ``step`` then re-arm), on the same kernel.
Sources draw from scripted streams: delays on the quarter-second grid
(ties with each other and with heap events) including zeros, uniforms and
success tables that force second-uniform draws, refill sizes down to one
draw so refills fall inside attempts, time slices down to one attempt so
windows split across ties, zero delays, refills and pauses, pause/resume
inside and outside a window, allocation changes from heap events and
repeated ``run(until)``.
Fired order (heap handlers and ``on_pair`` calls, with the clock), trace,
digest, ``events_scheduled``, counters and every stream call must agree.
"""

import hashlib
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import bank as sourcebank
from repro.sim import engine
from repro.sim.engine import Process, Simulator
from repro.sim.processes import PRIORITY_PHYSICS, EntanglementSource


def reference_digest(trace):
    digest = hashlib.sha256()
    for time, tag in trace:
        digest.update(struct.pack("<d", time))
        digest.update(tag.encode("utf-8"))
    return digest.hexdigest()


class ReferenceKernel:
    """Pending list + ``min``: obviously ordered by (time, priority, seq)."""

    def __init__(self):
        self.now = 0.0
        self.pending = []  # [time, priority, seq, fn, tag, cancelled]
        self.seq = 0
        self.processed = 0
        self.trace = []
        self.processes = []
        self.started = 0

    def schedule(self, delay, fn, priority, tag):
        entry = [float(self.now + delay), int(priority), self.seq, fn, tag, False]
        self.seq += 1
        self.pending.append(entry)
        return entry

    def run(self, until):
        while self.started < len(self.processes):
            self.started += 1
            self.processes[self.started - 1].arm()
        processed = 0
        while True:
            due = [e for e in self.pending if e[0] <= until]
            if not due:
                break
            entry = min(due, key=lambda e: (e[0], e[1], e[2]))
            self.pending.remove(entry)
            if entry[5]:
                continue
            self.now = entry[0]
            processed += 1
            self.trace.append((entry[0], entry[4]))
            entry[3]()
        self.processed += processed
        self.now = float(until)
        return processed


class ReferenceProcess:
    """A process whose stale events are recognised by an epoch token."""

    def __init__(self, kernel, name, priority, delays, on_step):
        self.kernel = kernel
        self.name = name
        self.priority = priority
        self.delays = list(delays)
        self.on_step = on_step
        self.active = True
        self.epoch = 0

    def arm(self):
        if not self.delays:
            return
        epoch = self.epoch
        self.kernel.schedule(
            self.delays.pop(0), lambda: self.fire(epoch), self.priority, self.name
        )

    def fire(self, epoch):
        if epoch != self.epoch or not self.active:
            return
        self.on_step()
        self.arm()

    def pause(self):
        if self.active:
            self.active = False
            self.epoch += 1

    def resume(self):
        if not self.active:
            self.active = True
            self.epoch += 1
            self.arm()


class ScriptedProcess(Process):
    """A real :class:`Process` stepping through a fixed list of delays."""

    def __init__(self, name, priority, delays, on_step):
        super().__init__(name)
        self.priority = priority
        self.delays = list(delays)
        self.on_step = on_step

    def next_delay(self):
        return self.delays.pop(0) if self.delays else None

    def step(self):
        self.on_step()


class RealAdapter:
    def __init__(self):
        self.sim = Simulator(record_trace=True)
        self.processes = []

    now = property(lambda self: self.sim.now)

    def schedule(self, delay, fn, priority, tag):
        return self.sim.schedule(delay, fn, priority=priority, tag=tag)

    def cancel(self, handle):
        handle.cancel()

    def add_process(self, name, priority, delays, on_step):
        self.processes.append(
            self.sim.add(ScriptedProcess(name, priority, delays, on_step))
        )

    def run(self, until):
        count = self.sim.run(until=until)
        # Every stored chunk is full and the open one never is.
        assert len(self.sim._open_codes) < engine.TRACE_CHUNK
        assert all(len(times) == len(codes) == engine.TRACE_CHUNK
                   for times, codes in self.sim._trace_chunks)
        return count

    def state(self):
        sim = self.sim
        return (sim.now, sim.events_processed, sim.events_scheduled, sim.trace,
                sim.trace_digest())


class ReferenceAdapter:
    def __init__(self):
        self.kernel = ReferenceKernel()
        self.processes = self.kernel.processes

    now = property(lambda self: self.kernel.now)

    def schedule(self, delay, fn, priority, tag):
        return self.kernel.schedule(delay, fn, priority, tag)

    def cancel(self, handle):
        handle[5] = True

    def add_process(self, name, priority, delays, on_step):
        self.processes.append(
            ReferenceProcess(self.kernel, name, priority, delays, on_step)
        )

    def run(self, until):
        return self.kernel.run(until)

    def state(self):
        k = self.kernel
        return (k.now, k.processed, k.seq, list(k.trace),
                reference_digest(k.trace))


class ProgramRunner:
    """Runs one program against one kernel adapter, logging what fires."""

    def __init__(self, adapter):
        self.kernel = adapter
        self.handles = []
        self.fired = []

    def execute(self, actions):
        k = self.kernel
        for action in actions:
            kind = action[0]
            if kind == "schedule":
                _, delay, priority, tag, children = action
                self.handles.append(k.schedule(
                    delay,
                    lambda tag=tag, children=children: self.fire(tag, children),
                    priority,
                    tag,
                ))
            elif kind == "cancel" and self.handles:
                k.cancel(self.handles[action[1] % len(self.handles)])
            elif kind in ("pause", "resume") and k.processes:
                getattr(k.processes[action[1] % len(k.processes)], kind)()

    def fire(self, tag, children):
        self.fired.append((self.kernel.now, tag))
        self.execute(children)

    def play(self, program):
        """Yield the kernel state after each ``run(until)`` of the program."""
        procs, phases = program
        until = 0.0
        for phase, (ops, advance) in enumerate(phases):
            for index, (priority, delays, actions, start_phase) in enumerate(procs):
                if start_phase == phase:
                    name = f"proc{index}"
                    self.kernel.add_process(
                        name, priority, delays,
                        lambda name=name, actions=actions: self.fire(name, actions),
                    )
            self.execute(ops)
            until += advance
            count = self.kernel.run(until)
            yield count, list(self.fired), self.kernel.state()


# Quarter-second grid: sums stay exact, so equal times (ties) are common.
TIMES = st.integers(0, 8).map(lambda k: k * 0.25)
PRIORITIES = st.sampled_from((-1, 0, 0, 1))
TAGS = st.sampled_from(("a", "b", "gen.link1", "ü-tag", ""))


def _actions(children):
    return st.lists(
        st.one_of(
            st.tuples(st.just("schedule"), TIMES, PRIORITIES, TAGS, children),
            st.tuples(st.just("cancel"), st.integers(0, 64)),
            st.tuples(st.sampled_from(("pause", "resume")), st.integers(0, 3)),
        ),
        max_size=4,
    )


ACTIONS = st.recursive(st.just([]), _actions, max_leaves=12)
PROGRAMS = st.tuples(
    st.lists(
        st.tuples(PRIORITIES, st.lists(TIMES, max_size=6), ACTIONS,
                  st.integers(0, 2)),
        max_size=3,
    ),
    st.lists(st.tuples(ACTIONS, TIMES), min_size=1, max_size=4),
)


@pytest.mark.parametrize("chunk", [1, 3, engine.TRACE_CHUNK])
@settings(max_examples=300, deadline=None)
@given(program=PROGRAMS)
def test_kernel_matches_reference_model(chunk, program):
    with mock.patch.object(engine, "TRACE_CHUNK", chunk):
        real = ProgramRunner(RealAdapter())
        reference = ProgramRunner(ReferenceAdapter())
        for got, want in zip(real.play(program), reference.play(program)):
            assert got == want


def test_reference_model_covers_inert_process_events():
    """A paused process's pending step still fires (traced, but inert)."""
    program = (
        [(0, [1.0, 1.0, 1.0], [], 0)],
        [([("schedule", 1.5, 0, "a", [("pause", 0)])], 2.0),
         ([("resume", 0)], 2.0)],
    )
    real = ProgramRunner(RealAdapter())
    reference = ProgramRunner(ReferenceAdapter())
    states = list(zip(real.play(program), reference.play(program)))
    for got, want in states:
        assert got == want
    _, fired, (now, processed, _, trace, _) = states[-1][0]
    assert fired == [(1.0, "proc0"), (1.5, "a"), (3.0, "proc0")]
    # The step armed for t=2 before the pause is processed but does nothing.
    assert trace == [(1.0, "proc0"), (1.5, "a"), (2.0, "proc0"), (3.0, "proc0")]
    assert (now, processed) == (4.0, 4)


# -- the source bank against the per-event source ------------------------------


class ReferenceSource(Process):
    """The per-event entanglement source the bank replaced.

    One heap event per attempt: ``step`` draws a uniform (and a second one
    for the route when a success lands on a routed link), then the process
    re-arms with the next exponential delay.  Both buffers refill
    ``RNG_CHUNK`` draws at a time from the source's named stream.
    """

    priority = PRIORITY_PHYSICS

    def __init__(self, link_index, beta, state, buffers):
        super().__init__(f"gen.link{link_index + 1}")
        self.link_index = link_index
        self.beta = float(beta)
        self.state = state
        self.buffers = buffers
        self.attempts = 0
        self.pairs_generated = 0

    def start(self):
        self._rng = self.sim.stream(self.name)
        self._delays = np.empty(0)
        self._delay_next = 0
        self._uniforms = np.empty(0)
        self._uniform_next = 0
        super().start()

    def _next_interarrival(self):
        if self._delay_next >= len(self._delays):
            self._delays = self._rng.exponential(
                1.0 / self.beta, size=sourcebank.RNG_CHUNK
            )
            self._delay_next = 0
        value = self._delays[self._delay_next]
        self._delay_next += 1
        return float(value)

    def _next_uniform(self):
        if self._uniform_next >= len(self._uniforms):
            self._uniforms = self._rng.random(size=sourcebank.RNG_CHUNK)
            self._uniform_next = 0
        value = self._uniforms[self._uniform_next]
        self._uniform_next += 1
        return float(value)

    def next_delay(self):
        return self._next_interarrival()

    def step(self):
        self.attempts += 1
        l = self.link_index
        if self._next_uniform() >= self.state.success_prob[l]:
            return
        self.pairs_generated += 1
        thresholds, targets = self.state.assignment[l]
        if not thresholds:
            return
        u = self._next_uniform()
        for threshold, (route_index, slot) in zip(thresholds, targets):
            if u < threshold:
                self.buffers.on_pair(route_index, slot)
                return


class ScriptedStream:
    """A stand-in generator that cycles scripted values and logs each call."""

    def __init__(self, delays, uniforms):
        self.script = {"exponential": list(delays), "random": list(uniforms)}
        self.next = {"exponential": 0, "random": 0}
        self.calls = []

    def _take(self, kind, size):
        values, start = self.script[kind], self.next[kind]
        self.next[kind] = start + size
        return np.array([values[(start + i) % len(values)] for i in range(size)])

    def exponential(self, scale, size):
        self.calls.append(("exponential", scale, size))
        return self._take("exponential", size)

    def random(self, size):
        self.calls.append(("random", size))
        return self._take("random", size)


#: success tables a source's link can be tuned to: (success probability,
#: cumulative route thresholds); targets are (route, position) pairs.
TABLES = (
    (0.0, []),
    (0.5, []),
    (0.5, [0.5]),
    (1.0, [0.25, 0.75]),
    (1.0, [1.0]),
)
TARGETS = [(0, 0), (1, 1)]


class ScriptedState:
    """The allocation fields a source reads, tunable from handlers."""

    def __init__(self, links):
        self.success_prob = [0.0] * links
        self.assignment = [([], []) for _ in range(links)]
        self.version = 0

    def tune(self, link, table):
        prob, thresholds = TABLES[table]
        self.success_prob[link] = prob
        self.assignment[link] = (list(thresholds), TARGETS[:len(thresholds)])
        self.version += 1


class RecordingBuffers:
    def __init__(self, sim, fired):
        self.sim = sim
        self.fired = fired

    def on_pair(self, route_index, slot):
        self.fired.append((self.sim.now, "pair", route_index, slot))


class SourceRunner:
    """Runs one source program on one kind of source, logging what fires."""

    def __init__(self, source_class):
        self.source_class = source_class
        self.sim = Simulator(record_trace=True)
        self.fired = []
        self.handles = []
        self.sources = []
        self.started = 0  # sources already started by a run
        self.state = ScriptedState(links=4)
        self.buffers = RecordingBuffers(self.sim, self.fired)

    def execute(self, actions):
        for action in actions:
            kind = action[0]
            if kind == "schedule":
                _, delay, priority, tag, children = action
                self.handles.append(self.sim.schedule(
                    delay,
                    lambda tag=tag, children=children: self.fire(tag, children),
                    priority=priority,
                    tag=tag,
                ))
            elif kind == "cancel" and self.handles:
                self.handles[action[1] % len(self.handles)].cancel()
            elif kind == "tune" and self.sources:
                self.state.tune(action[1] % len(self.sources), action[2])
            elif kind == "pause" and self.sources:
                self.sources[action[1] % len(self.sources)].pause()
            elif kind == "resume" and self.started:
                # (a source resumed before it ever started has no buffers
                # in the per-event model)
                self.sources[action[1] % self.started].resume()

    def fire(self, tag, children):
        self.fired.append((self.sim.now, tag))
        self.execute(children)

    def play(self, program):
        """Yield the observable state after each ``run(until)``."""
        specs, phases = program
        until = 0.0
        for phase, (ops, advance) in enumerate(phases):
            for link, (delays, uniforms, table, start_phase) in enumerate(specs):
                if start_phase == phase:
                    source = self.source_class(link, 4.0, self.state, self.buffers)
                    self.sim.streams._streams[source.name] = ScriptedStream(
                        delays, uniforms
                    )
                    self.sources.append(self.sim.add(source))
                    self.state.tune(link, table)
            self.execute(ops)
            until += advance
            count = self.sim.run(until)
            self.started = len(self.sources)
            sim = self.sim
            yield (
                count, list(self.fired), sim.now, sim.events_processed,
                sim.events_scheduled, sim.trace, sim.trace_digest(),
                [(s.attempts, s.pairs_generated) for s in self.sources],
                [list(sim.streams._streams[s.name].calls)
                 for s in self.sources],
            )


def _source_actions(children):
    return st.lists(
        st.one_of(
            st.tuples(st.just("schedule"), TIMES, PRIORITIES, TAGS, children),
            st.tuples(st.just("cancel"), st.integers(0, 64)),
            st.tuples(st.sampled_from(("pause", "resume")), st.integers(0, 3)),
            st.tuples(st.just("tune"), st.integers(0, 3),
                      st.integers(0, len(TABLES) - 1)),
        ),
        max_size=4,
    )


SOURCE_ACTIONS = st.recursive(st.just([]), _source_actions, max_leaves=12)
SOURCE_PROGRAMS = st.tuples(
    st.lists(
        st.tuples(
            # zeros tie an attempt with its successor; the positive last
            # delay keeps every cycle of the script moving the clock
            st.tuples(st.lists(TIMES.map(lambda t: t / 2), max_size=4),
                      TIMES.filter(bool)).map(lambda d: [*d[0], d[1]]),
            st.lists(st.sampled_from((0.1, 0.3, 0.6, 0.9)), min_size=1,
                     max_size=5),
            st.integers(0, len(TABLES) - 1),
            st.integers(0, 2),
        ),
        min_size=1,
        max_size=3,
    ),
    st.lists(st.tuples(SOURCE_ACTIONS, TIMES), min_size=1, max_size=4),
)


@pytest.mark.parametrize("chunk", [1, 3, engine.TRACE_CHUNK])
@settings(max_examples=200, deadline=None)
@given(program=SOURCE_PROGRAMS, draws=st.sampled_from((1, 2, 3, 5)),
       slices=st.sampled_from((1, 2, 7, sourcebank.SLICE_ATTEMPTS)))
def test_source_bank_matches_per_event_sources(chunk, program, draws, slices):
    with mock.patch.object(engine, "TRACE_CHUNK", chunk), \
            mock.patch.object(sourcebank, "RNG_CHUNK", draws), \
            mock.patch.object(sourcebank, "SLICE_ATTEMPTS", slices):
        bank = SourceRunner(EntanglementSource)
        reference = SourceRunner(ReferenceSource)
        for got, want in zip(bank.play(program), reference.play(program)):
            assert got == want


def counting_slices():
    """Patch :meth:`Window.before` to count the time slices it cuts."""
    cuts = []
    before = engine.Window.before

    def counted(window, time):
        cuts.append(time)
        return before(window, time)

    return cuts, mock.patch.object(engine.Window, "before", counted)


@pytest.mark.parametrize("slices", [1, 2, 7, sourcebank.SLICE_ATTEMPTS])
def test_second_uniform_carried_across_a_refill(slices):
    """One draw per refill: every routed success reads its second uniform
    from a fresh buffer, and a zero delay ties an attempt with its own
    successor; with small slices the windows split there too."""
    program = (
        [([0.0, 0.25, 0.5], [0.1, 0.6, 0.3], 3, 0),
         ([0.25], [0.9, 0.1], 2, 0)],
        [([("schedule", 0.5, 0, "a", [("pause", 0)])], 1.0),
         ([("resume", 0), ("tune", 1, 4)], 2.0)],
    )
    cuts, counting = counting_slices()
    with mock.patch.object(sourcebank, "RNG_CHUNK", 1), \
            mock.patch.object(sourcebank, "SLICE_ATTEMPTS", slices), counting:
        bank = SourceRunner(EntanglementSource)
        reference = SourceRunner(ReferenceSource)
        states = list(zip(bank.play(program), reference.play(program)))
    for got, want in states:
        assert got == want
    fired = states[-1][0][1]
    assert sum(1 for event in fired if event[1] == "pair") >= 4
    assert bool(cuts) == (slices != sourcebank.SLICE_ATTEMPTS)


@pytest.mark.parametrize("slices", [2, 3])
def test_time_slices_split_tied_attempts(slices):
    """Slices end on the quarter-second grid, where attempts of several
    sources, zero-delay successors and heap events all tie (each source
    runs at β = 4, so ``slices`` attempts span a multiple of 1/4 s)."""
    program = (
        [([0.25, 0.0, 0.25, 0.0], [0.1, 0.6], 3, 0),
         ([0.0, 0.25], [0.1, 0.9], 4, 0),
         ([0.25], [0.3], 2, 1)],
        [([("schedule", 1.0, 0, "a", [("tune", 0, 2)]),
           ("schedule", 1.5, 1, "b", [("pause", 1)])], 2.0),
         ([("resume", 1), ("schedule", 0.25, -1, "c", [])], 3.0)],
    )
    cuts, counting = counting_slices()
    with mock.patch.object(sourcebank, "RNG_CHUNK", 2), \
            mock.patch.object(sourcebank, "SLICE_ATTEMPTS", slices), counting:
        bank = SourceRunner(EntanglementSource)
        reference = SourceRunner(ReferenceSource)
        for got, want in zip(bank.play(program), reference.play(program)):
            assert got == want
    assert len(cuts) > 10
    # some slice ends where an attempt falls: it fires in the next slice
    assert any(time % 0.25 == 0 for time in cuts)


def test_bank_matches_per_event_sources_on_the_paper_network():
    """Real streams, continuous times: a disrupted paper-topology run."""
    from repro.core.config import paper_config
    from repro.sim.processes import (
        AllocationState,
        DemandProcess,
        DisruptionProcess,
        MonitorProcess,
        RouteBuffers,
    )

    config = paper_config(seed=2)
    network = config.network
    phi = np.full(network.num_routes, 2.0)
    w = np.full(network.num_links, 0.3)

    def run(source_class):
        sim = Simulator(seed=11, record_trace=True)
        state = AllocationState(network, phi, w)
        buffers = sim.add(RouteBuffers(state, pending_cap=3))
        sources = [sim.add(source_class(l, link.beta, state, buffers))
                   for l, link in enumerate(network.links)]
        sim.add(DemandProcess(buffers, [1.0] * network.num_routes))
        sim.add(DisruptionProcess(sources, state, outage_rate=0.3,
                                  mean_outage_s=2.0, strike="any"))
        sim.add(MonitorProcess(buffers, sample_dt=1.0))
        sim.run(until=7.5)
        state.update(phi * 1.5, w * 0.5)
        sim.run(until=15.0)
        return (sim.trace_digest(), sim.events_processed, sim.events_scheduled,
                [(s.attempts, s.pairs_generated) for s in sources],
                buffers.pairs_delivered, buffers.pairs_dropped,
                buffers.delivered_bits, buffers.pending,
                [sim.stream(s.name).bit_generator.state for s in sources])

    got, want = run(EntanglementSource), run(ReferenceSource)
    assert got == want
    assert sum(got[4]) > 0 and sum(got[5]) > 0  # deliveries and cap drops
