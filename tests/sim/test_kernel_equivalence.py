"""Property test: the event kernel against a plain reference model.

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
"""

import hashlib
import struct
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import engine
from repro.sim.engine import Process, Simulator


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
        assert len(self.sim._open_tags) < engine.TRACE_CHUNK
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
