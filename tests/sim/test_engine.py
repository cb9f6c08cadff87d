"""The discrete-event kernel: ordering, processes, RNG streams."""

import gc
import hashlib
import os
import struct
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from repro.sim import engine
from repro.sim.engine import Process, RngStreams, Simulator


def reference_digest(trace):
    """The trace digest formula: per event, the packed time then the tag."""
    digest = hashlib.sha256()
    for time, tag in trace:
        digest.update(struct.pack("<d", time))
        digest.update(tag.encode("utf-8"))
    return digest.hexdigest()


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run(until=10.0)
        assert fired == ["a", "b", "c"]
        assert sim.now == 10.0
        assert sim.events_processed == 3

    def test_simultaneous_events_fifo_within_priority(self):
        sim = Simulator()
        fired = []
        for name in "abc":
            sim.schedule(1.0, lambda n=name: fired.append(n))
        sim.run(until=1.0)
        assert fired == ["a", "b", "c"]

    def test_priority_orders_same_time_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("late"), priority=10)
        sim.schedule(1.0, lambda: fired.append("early"), priority=-10)
        sim.schedule(1.0, lambda: fired.append("mid"))
        sim.run(until=1.0)
        assert fired == ["early", "mid", "late"]

    def test_events_beyond_horizon_stay_pending(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append("x"))
        sim.run(until=4.0)
        assert fired == []
        sim.run(until=6.0)
        assert fired == ["x"]

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("x"))
        event.cancel()
        sim.run(until=2.0)
        assert fired == []
        assert sim.events_processed == 0

    def test_events_scheduled_during_run_are_processed(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if len(fired) < 3:
                sim.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run(until=10.0)
        assert fired == [1.0, 2.0, 3.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="non-negative"):
            sim.schedule(-1.0, lambda: None)

    def test_past_schedule_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(until=5.0)
        with pytest.raises(ValueError, match="cannot schedule"):
            sim.schedule_at(2.0, lambda: None)

    def test_clock_never_runs_backwards(self):
        sim = Simulator()
        sim.run(until=5.0)
        with pytest.raises(ValueError, match="cannot run"):
            sim.run(until=3.0)


NAN = float("nan")
INF = float("inf")


class TestNonFiniteTimes:
    def test_nan_delay_rejected_and_order_kept(self):
        sim = Simulator()
        fired = []
        for delay in (3.0, NAN, 1.0, 2.0, 0.5):
            def fire(d=delay):
                fired.append(d)
            if delay != delay:
                with pytest.raises(ValueError, match="'probe'.*NaN"):
                    sim.schedule(delay, fire, tag="probe")
            else:
                sim.schedule(delay, fire, tag=f"t{delay}")
        sim.run(until=10.0)
        assert fired == [0.5, 1.0, 2.0, 3.0]
        assert sim.events_scheduled == 4

    def test_nan_time_rejected_by_schedule_at(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="'probe'.*NaN"):
            sim.schedule_at(NAN, lambda: None, tag="probe")
        assert sim.events_scheduled == 0

    def test_nan_delay_from_a_process_names_it(self):
        class Broken(_Ticker):
            def next_delay(self):
                return NAN if self.steps else 1.0

        sim = Simulator()
        sim.add(Broken(name="gen.link7"))
        with pytest.raises(ValueError, match="'gen.link7'.*NaN"):
            sim.run(until=5.0)

    def test_negative_delay_from_a_process_rejected(self):
        sim = Simulator()
        sim.add(_Ticker(name="backwards", interval=-1.0))
        with pytest.raises(ValueError, match="non-negative.*'backwards'"):
            sim.run(until=5.0)

    def test_nan_horizon_rejected_and_clock_kept(self):
        sim = Simulator()
        sim.run(until=2.0)
        with pytest.raises(ValueError, match="NaN"):
            sim.run(until=NAN)
        assert sim.now == 2.0

    def test_infinite_time_allowed_but_never_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(INF, lambda: fired.append("delay"))
        sim.schedule_at(INF, lambda: fired.append("at"))
        sim.schedule(1.0, lambda: fired.append("finite"))
        sim.run(until=1e12)
        assert fired == ["finite"]
        assert sim.events_scheduled == 3


class TestHandlerRaisesMidRun:
    def _sim(self):
        sim = Simulator(record_trace=True)
        fired = []

        def boom():
            fired.append("boom")
            raise RuntimeError("handler failed")

        sim.schedule(1.0, lambda: fired.append("a"), tag="a")
        sim.schedule(2.0, lambda: fired.append("b"), tag="b")
        sim.schedule(3.0, boom, tag="boom")
        sim.schedule(4.0, lambda: fired.append("d"), tag="d")
        return sim, fired

    def test_state_covers_events_up_to_the_raising_one(self):
        sim, fired = self._sim()
        with pytest.raises(RuntimeError, match="handler failed"):
            sim.run(until=10.0)
        expected = [(1.0, "a"), (2.0, "b"), (3.0, "boom")]
        assert fired == ["a", "b", "boom"]
        assert sim.events_processed == 3
        assert sim.now == 3.0
        assert sim.trace == expected
        assert sim.trace_digest() == reference_digest(expected)

    def test_later_run_continues_consistently(self):
        sim, fired = self._sim()
        with pytest.raises(RuntimeError):
            sim.run(until=10.0)
        assert sim.run(until=10.0) == 1
        expected = [(1.0, "a"), (2.0, "b"), (3.0, "boom"), (4.0, "d")]
        assert fired == ["a", "b", "boom", "d"]
        assert sim.events_processed == 4
        assert sim.now == 10.0
        assert sim.trace == expected
        assert sim.trace_digest() == reference_digest(expected)
        # ... and ends where an uninterrupted run of the same events ends.
        clean = Simulator(record_trace=True)
        for time, tag in expected:
            clean.schedule(time, lambda: None, tag=tag)
        clean.run(until=10.0)
        assert clean.trace_digest() == sim.trace_digest()


class _Ticker(Process):
    """Fixed-interval process counting its own steps."""

    def __init__(self, name="ticker", interval=1.0):
        super().__init__(name)
        self.interval = interval
        self.steps = []

    def next_delay(self):
        return self.interval

    def step(self):
        self.steps.append(self.sim.now)


class TestProcess:
    def test_process_self_schedules(self):
        sim = Simulator()
        ticker = sim.add(_Ticker(interval=2.0))
        sim.run(until=7.0)
        assert ticker.steps == [2.0, 4.0, 6.0]

    def test_pause_makes_pending_events_inert(self):
        sim = Simulator()
        ticker = sim.add(_Ticker(interval=2.0))
        sim.run(until=3.0)          # stepped at t=2, next armed for t=4
        ticker.pause()
        sim.run(until=10.0)
        assert ticker.steps == [2.0]

    def test_resume_rearms_from_now(self):
        sim = Simulator()
        ticker = sim.add(_Ticker(interval=2.0))
        sim.run(until=3.0)
        ticker.pause()
        sim.run(until=5.0)
        ticker.resume()
        sim.run(until=8.0)
        assert ticker.steps == [2.0, 7.0]   # resumed at t=5, interval 2

    def test_none_delay_ends_process(self):
        class OneShot(Process):
            def __init__(self):
                super().__init__("oneshot")
                self.count = 0

            def next_delay(self):
                return 1.0 if self.count == 0 else None

            def step(self):
                self.count += 1

        sim = Simulator()
        proc = sim.add(OneShot())
        sim.run(until=10.0)
        assert proc.count == 1

    def test_entities_added_after_run_start_on_next_run(self):
        sim = Simulator()
        sim.run(until=1.0)
        ticker = sim.add(_Ticker(interval=1.0))
        sim.run(until=3.5)
        assert ticker.steps == [2.0, 3.0]


class TestRngStreams:
    def test_same_seed_same_name_same_draws(self):
        a = RngStreams(7).stream("gen.link1")
        b = RngStreams(7).stream("gen.link1")
        assert a.random(5).tolist() == b.random(5).tolist()

    def test_different_names_independent(self):
        streams = RngStreams(7)
        a = streams.stream("gen.link1").random(5)
        b = streams.stream("gen.link2").random(5)
        assert a.tolist() != b.tolist()

    def test_different_seeds_differ(self):
        a = RngStreams(7).stream("fading").random(5)
        b = RngStreams(8).stream("fading").random(5)
        assert a.tolist() != b.tolist()

    def test_stream_isolation_from_creation_order(self):
        """Touching extra streams must not perturb an existing stream."""
        lone = RngStreams(3)
        crowded = RngStreams(3)
        for name in ("a", "b", "c"):
            crowded.stream(name)
        assert (
            lone.stream("disruption").random(8).tolist()
            == crowded.stream("disruption").random(8).tolist()
        )

    def test_stream_cached(self):
        streams = RngStreams(1)
        assert streams.stream("x") is streams.stream("x")


class TestTrace:
    def test_trace_records_time_and_tag(self):
        sim = Simulator(record_trace=True)
        sim.schedule(1.0, lambda: None, tag="one")
        sim.schedule(2.0, lambda: None, tag="two")
        sim.run(until=5.0)
        assert sim.trace == [(1.0, "one"), (2.0, "two")]
        assert sim.trace_digest() == reference_digest(sim.trace)

    def test_trace_off_by_default(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(until=2.0)
        assert sim.trace_digest() == ""
        with pytest.raises(RuntimeError, match="trace recording is off"):
            sim.trace

    def test_tag_table_past_16_bits(self):
        """Chunks that bring the tag table past 65 536 tags still code."""
        count = (1 << 16) + 2 * engine.TRACE_CHUNK
        sim = Simulator(record_trace=True)
        for i in range(count):
            sim.schedule(i * 1e-3, lambda: None, tag=f"t{i}")
        sim.run(until=float(count))
        want = [(i * 1e-3, f"t{i}") for i in range(count)]
        assert sim.trace == want
        assert sim.trace_digest() == reference_digest(want)


class TestRelease:
    def _finished(self):
        sim = Simulator(record_trace=True)
        ticker = sim.add(_Ticker(interval=1.0))
        sim.schedule(9.0, lambda: None, tag="late")
        sim.run(until=2.5)
        return sim, ticker

    def test_trace_clock_and_counters_stay_readable(self):
        sim, _ = self._finished()
        before = (sim.now, sim.events_processed, sim.trace, sim.trace_digest())
        sim.release()
        assert (sim.now, sim.events_processed, sim.trace,
                sim.trace_digest()) == before
        assert sim.run(until=10.0) == 0  # the pending events are gone

    def test_last_reference_frees_the_simulator_without_gc(self):
        sim, ticker = self._finished()
        sim.release()
        ref = weakref.ref(sim)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del sim, ticker
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


class TestPackageImports:
    def test_a_submodule_loads_without_the_simulator(self):
        """A topology sweep imports ``routing`` and ``topology`` and does
        not compile the kernel; the codec registry loads the processes but
        not the bank, which the first source a simulation starts imports."""
        src = Path(__file__).resolve().parents[2] / "src"
        script = (
            "import sys\n"
            "def loaded():\n"
            "    return [m for m in ('repro.sim.engine', 'repro.sim.processes',"
            " 'repro.sim.qnetwork', 'repro.sim.bank') if m in sys.modules]\n"
            "import repro.sim.routing, repro.sim.topology\n"
            "print(loaded())\n"
            "import repro.io\n"
            "repro.io.registered_kinds()\n"
            "print(loaded())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=str(src)),
            check=True, capture_output=True, text=True,
        ).stdout
        assert out.splitlines() == [
            "[]", "['repro.sim.engine', 'repro.sim.processes', 'repro.sim.qnetwork']"
        ]

    def test_package_names_resolve_to_their_submodules(self):
        import repro.sim
        from repro.sim import qnetwork, result, routing, topology

        homes = {"engine": engine, "qnetwork": qnetwork, "result": result,
                 "routing": routing, "topology": topology}
        assert len(repro.sim.__all__) == 15
        for name in repro.sim.__all__:
            assert getattr(repro.sim, name) is getattr(
                homes[repro.sim._HOMES[name]], name)
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            repro.sim.nope
