"""Discrete-event engine throughput guards.

The simulator's value rests on cheap events: `docs/simulation.md` promises
a kernel that sustains tens of thousands of events per wall-clock second.
The smoke guards enforce the ≥10k events/sec floor on the standard
``sim-keyrate`` smoke workload and keep trace recording at ≥0.5× the
untraced throughput of the same config, and check that a finished
simulation does not outlive its last reference; the full bench prints the
throughput profile across workloads (clean, demand-loaded, disrupted,
adaptive).

Run: ``pytest benchmarks/test_sim_throughput.py -m smoke -s``
"""

import gc
import tracemalloc

import pytest

from repro.core.config import paper_config
from repro.sim import QuantumNetworkSimulation, SimParams

#: CI floor: the engine must clear this on the smoke workload.
MIN_EVENTS_PER_SECOND = 10_000

#: Traced throughput as a share of untraced throughput, same config and
#: process: the determinism audit must not halve the kernel's speed.
MIN_TRACED_SHARE = 0.5

#: Of two traced simulations run back to back with the cyclic garbage
#: collector off, the second's tracemalloc peak over the first's: a
#: finished simulation still alive during the next one (~1.08) fails it.
MAX_SECOND_PEAK_RATIO = 1.04


@pytest.fixture(scope="module")
def config():
    return paper_config(seed=2)


@pytest.mark.smoke
def test_engine_clears_10k_events_per_second(config, service):
    result = QuantumNetworkSimulation(
        config, SimParams(duration_s=30.0, record_trace=False), seed=2,
        service=service,
    ).run()
    assert result.events_processed > 10_000
    assert result.events_per_second >= MIN_EVENTS_PER_SECOND, (
        f"engine throughput regressed: {result.events_per_second:,.0f} "
        f"events/s < {MIN_EVENTS_PER_SECOND:,}"
    )


@pytest.mark.smoke
def test_trace_recording_overhead_tolerable(config, service):
    """The determinism audit must not halve throughput.

    Traced and untraced runs of the same config alternate in this process;
    each side keeps its best of two, so one noisy run cannot decide.
    """
    best = {True: 0.0, False: 0.0}
    for record_trace in (False, True, False, True):
        result = QuantumNetworkSimulation(
            config, SimParams(duration_s=30.0, record_trace=record_trace),
            seed=2, service=service,
        ).run()
        best[record_trace] = max(best[record_trace], result.events_per_second)
    share = best[True] / best[False]
    assert share >= MIN_TRACED_SHARE, (
        f"trace recording costs too much: traced {best[True]:,.0f} events/s "
        f"is {share:.2f}x untraced {best[False]:,.0f} (< {MIN_TRACED_SHARE}x)"
    )


@pytest.mark.smoke
def test_finished_simulation_freed_before_the_next(config, service):
    """A dropped simulation frees its trace by reference counting.

    Two traced simulations run back to back, neither kept, with the cyclic
    collector off: the second's allocation peak must not stack on the
    first's retained trace and entities.
    """
    params = SimParams(duration_s=30.0, record_trace=True)
    peaks = []
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        for _ in range(2):
            tracemalloc.reset_peak()
            QuantumNetworkSimulation(config, params, seed=2, service=service).run()
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    ratio = peaks[1] / peaks[0]
    assert ratio <= MAX_SECOND_PEAK_RATIO, (
        f"second simulation peaked at {peaks[1] / 2**20:.2f} MB, {ratio:.3f}x "
        f"the first's {peaks[0] / 2**20:.2f} MB (> {MAX_SECOND_PEAK_RATIO}x): "
        "the finished first simulation was still alive"
    )


@pytest.mark.bench
def test_throughput_profile(config, service, capsys):
    workloads = {
        "clean": SimParams(duration_s=120.0, record_trace=False),
        "demand": SimParams(
            duration_s=120.0, demand_factor=0.9, record_trace=False
        ),
        "disrupted": SimParams(
            duration_s=120.0, demand_factor=0.9, outage_rate=0.05,
            outage_duration_s=20.0, record_trace=False,
        ),
        "adaptive": SimParams(
            duration_s=120.0, demand_factor=0.9, outage_rate=0.05,
            outage_duration_s=20.0, fading_interval_s=30.0,
            reopt_interval_s=30.0, record_trace=False,
        ),
    }
    with capsys.disabled():
        print()
        for name, params in workloads.items():
            result = QuantumNetworkSimulation(
                config, params, seed=2, service=service
            ).run()
            print(
                f"{name:>10s}: {result.events_processed:>7d} events "
                f"in {result.wall_time_s:6.2f}s -> "
                f"{result.events_per_second:>9,.0f} events/s"
            )
            assert result.events_per_second >= MIN_EVENTS_PER_SECOND
