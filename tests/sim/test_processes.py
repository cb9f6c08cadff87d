"""The quantum-network process layer against the analytic models."""

import numpy as np
import pytest

from repro.api.service import SolverService, config_fingerprint
from repro.core.config import paper_config
from repro.errors import ConfigurationError, SolverError
from repro.sim import QuantumNetworkSimulation, SimParams
from repro.sim.engine import Simulator
from repro.sim.processes import (
    AllocationState,
    DemandProcess,
    EntanglementSource,
    RouteBuffers,
)


@pytest.fixture(scope="module")
def config():
    return paper_config(seed=2)


@pytest.fixture(scope="module")
def service():
    return SolverService()


@pytest.fixture(scope="module")
def allocation(config, service):
    return service.solve(config).allocation


class _FailingService:
    """Solves the baseline; every re-optimization solve raises ``error``."""

    def __init__(self, service, error):
        self.service = service
        self.error = error
        self.calls = 0

    def solve(self, config):
        return self.service.solve(config)

    def solve_many(self, configs, initials=None):
        self.calls += 1
        raise self.error


class _RecordingService:
    """Delegates to ``service``; records each re-optimization batch as the
    fingerprints of its configs."""

    def __init__(self, service):
        self.service = service
        self.batches = []

    def solve(self, config):
        return self.service.solve(config)

    def solve_many(self, configs, initials=None):
        self.batches.append([config_fingerprint(c) for c in configs])
        return self.service.solve_many(configs, initials=initials)


class TestAllocationState:
    def test_success_prob_is_one_minus_w(self, config, allocation):
        state = AllocationState(config.network, allocation.phi, allocation.w)
        assert state.success_prob == pytest.approx(
            (1.0 - allocation.w).tolist()
        )

    def test_key_rates_match_analytic_formula(self, config, allocation):
        from repro.quantum.werner import end_to_end_werner, secret_key_fraction

        state = AllocationState(config.network, allocation.phi, allocation.w)
        for n, route in enumerate(config.network.routes):
            varpi = end_to_end_werner(allocation.w, route.link_indices)
            assert state.key_rates()[n] == pytest.approx(
                allocation.phi[n] * secret_key_fraction(varpi)
            )

    def test_assignment_shares_sum_to_load_fraction(self, config, allocation):
        state = AllocationState(config.network, allocation.phi, allocation.w)
        capacities = config.network.betas * (1.0 - allocation.w)
        loads = config.network.incidence @ allocation.phi
        for l in range(config.network.num_links):
            thresholds, _ = state.assignment[l]
            if loads[l] > 0:
                assert thresholds[-1] == pytest.approx(
                    min(1.0, loads[l] / capacities[l]), abs=1e-9
                )
            else:
                assert thresholds == []

    def test_update_rejects_wrong_shapes(self, config, allocation):
        state = AllocationState(config.network, allocation.phi, allocation.w)
        with pytest.raises(ValueError, match="do not match the"):
            state.update(allocation.phi[:-1], allocation.w)

    @pytest.mark.parametrize("field", ["phi", "w"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_update_rejects_non_finite_allocation(
        self, config, allocation, field, bad
    ):
        """A NaN w would read as success probability 1 and F_skf = 1; a NaN
        φ would hand every pair on its links to one route."""
        state = AllocationState(config.network, allocation.phi, allocation.w)
        tables = (list(state.success_prob), list(state.assignment),
                  list(state.skf))
        phi, w = allocation.phi.copy(), allocation.w.copy()
        (phi if field == "phi" else w)[1] = bad
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            state.update(phi, w)
        assert (list(state.success_prob), list(state.assignment),
                list(state.skf)) == tables
        with pytest.raises(ValueError, match="at index 1"):
            AllocationState(config.network, phi, w)


class TestRouteBuffers:
    def _tiny_state(self, config, allocation):
        return AllocationState(config.network, allocation.phi, allocation.w)

    def test_delivery_requires_all_slots(self, config, allocation):
        state = self._tiny_state(config, allocation)
        buffers = RouteBuffers(state)
        route = config.network.routes[1]   # multi-hop
        assert route.hop_count >= 2
        buffers.on_pair(1, 0)
        assert buffers.pairs_delivered[1] == 0
        for slot in range(1, route.hop_count):
            buffers.on_pair(1, slot)
        assert buffers.pairs_delivered[1] == 1
        assert buffers.key_bits[1] == pytest.approx(state.skf[1])
        assert all(count == 0 for count in buffers.pending[1])

    def test_pending_cap_drops_surplus(self, config, allocation):
        state = self._tiny_state(config, allocation)
        buffers = RouteBuffers(state, pending_cap=2)
        for _ in range(5):
            buffers.on_pair(0, 0)
        assert buffers.pending[0][0] == 2
        assert buffers.pairs_dropped[0] == 3

    def test_consume_accounts_shortfall(self, config, allocation):
        state = self._tiny_state(config, allocation)
        buffers = RouteBuffers(state)
        buffers.key_bits[0] = 3.0
        served = buffers.consume(0, 5.0)
        assert served == 3.0
        assert buffers.key_bits[0] == 0.0
        assert buffers.demand_bits[0] == 5.0
        assert buffers.served_bits[0] == 3.0
        assert buffers.shortfall_bits[0] == 2.0


class TestEntanglementSource:
    def test_success_rate_concentrates_on_capacity(self, config, allocation):
        """Successful generations per link ≈ β_l (1 - w_l) · duration."""
        state = AllocationState(config.network, allocation.phi, allocation.w)
        buffers = RouteBuffers(state)
        sim = Simulator(seed=3)
        sim.add(buffers)
        link = config.network.links[0]
        source = sim.add(EntanglementSource(0, link.beta, state, buffers))
        duration = 200.0
        sim.run(until=duration)
        expected_attempts = link.beta * duration
        assert source.attempts == pytest.approx(expected_attempts, rel=0.1)
        expected_pairs = link.beta * (1 - allocation.w[0]) * duration
        assert source.pairs_generated == pytest.approx(expected_pairs, rel=0.25)

    @pytest.mark.parametrize("beta", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_a_rate_that_is_not_positive_and_finite(
        self, config, allocation, beta
    ):
        """A NaN rate draws NaN delays and an infinite one zero delays,
        which would fire attempts at one instant forever."""
        state = AllocationState(config.network, allocation.phi, allocation.w)
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            EntanglementSource(0, beta, state, RouteBuffers(state))


class TestDemandProcess:
    def test_demand_drains_at_configured_rate(self):
        config = paper_config(seed=2)
        state = AllocationState(
            config.network,
            np.zeros(config.network.num_routes),
            np.ones(config.network.num_links),
        )
        buffers = RouteBuffers(state)
        buffers.key_bits[0] = 100.0
        sim = Simulator()
        sim.add(buffers)
        rates = [2.0] + [0.0] * (config.network.num_routes - 1)
        sim.add(DemandProcess(buffers, rates, interval_s=0.5))
        sim.run(until=10.0)
        assert buffers.demand_bits[0] == pytest.approx(20.0)
        assert buffers.key_bits[0] == pytest.approx(80.0)
        assert buffers.shortfall_bits[0] == 0.0


class TestSimulatedAgainstAnalytic:
    def test_delivered_rates_track_allocation(self, config, service):
        """End-to-end: per-route delivered key rate ≈ φ_n F_skf(ϖ_n)."""
        result = QuantumNetworkSimulation(
            config, SimParams(duration_s=400.0), seed=5, service=service
        ).run()
        simulated = np.asarray(result.delivered_key_rate)
        analytic = np.asarray(result.allocated_key_rate)
        # Swapping alignment and the pending cap shave a few percent; the
        # simulator should still track the analytic rate closely.
        assert np.all(simulated > 0.6 * analytic)
        assert np.all(simulated < 1.2 * analytic)
        assert abs(simulated.sum() / analytic.sum() - 1.0) < 0.2

    def test_expected_key_bits_matches_clean_network_integral(
        self, config, service
    ):
        result = QuantumNetworkSimulation(
            config, SimParams(duration_s=50.0), seed=5, service=service
        ).run()
        assert result.expected_key_bits == pytest.approx(
            sum(result.allocated_key_rate) * 50.0
        )


class TestDisruption:
    def test_outage_silences_link_generation(self, config, service):
        params = SimParams(
            duration_s=120.0, outage_rate=0.05, outage_duration_s=30.0
        )
        result = QuantumNetworkSimulation(
            config, params, seed=11, service=service
        ).run()
        assert result.outage_count >= 1
        # Links that were down part of the horizon generate fewer pairs
        # than their clean-network expectation.
        down_time = {}
        for link_id, t_down, t_up in result.outages:
            down_time[int(link_id)] = down_time.get(int(link_id), 0.0) + (
                t_up - t_down
            )
        for link_id, down in down_time.items():
            if down < 20.0:
                continue
            link = config.network.links[link_id - 1]
            w = service.solve(config).allocation.w[link_id - 1]
            clean_expectation = link.beta * (1 - w) * result.duration_s
            generated = result.pairs_generated[link_id - 1]
            assert generated < clean_expectation

    def test_outage_causes_shortfall_under_demand(self, config, service):
        quiet = QuantumNetworkSimulation(
            config,
            SimParams(duration_s=200.0, demand_factor=0.9),
            seed=11,
            service=service,
        ).run()
        stormy = QuantumNetworkSimulation(
            config,
            SimParams(
                duration_s=200.0,
                demand_factor=0.9,
                outage_rate=0.05,
                outage_duration_s=40.0,
            ),
            seed=11,
            service=service,
        ).run()
        assert stormy.outage_count >= 2
        assert stormy.total_shortfall_bits > quiet.total_shortfall_bits
        assert stormy.served_fraction < quiet.served_fraction


class TestAdaptation:
    def test_reopt_updates_allocation_during_outage(self, config, service):
        params = SimParams(
            duration_s=100.0,
            outage_rate=0.05,
            outage_duration_s=40.0,
            reopt_interval_s=25.0,
        )
        simulation = QuantumNetworkSimulation(
            config, params, seed=11, service=service
        )
        result = simulation.run()
        assert result.outage_count >= 1
        assert len(result.reopt_times) >= 4   # periodic + outage-triggered
        assert result.reopt_failures == 0

    def test_reopt_failure_keeps_allocation(self, config, service):
        """A typed solver failure keeps the allocation in force and counts
        one failure per re-optimization; the run completes."""
        failing = _FailingService(service, SolverError("singular"))
        result = QuantumNetworkSimulation(
            config, SimParams(duration_s=10.0, reopt_interval_s=6.0),
            seed=1, service=failing,
        ).run()
        assert result.reopt_times == [6.0]
        assert result.reopt_failures == 1
        assert failing.calls == 2  # the batch, then the current world alone

    def test_programming_error_in_solver_propagates(self, config, service):
        failing = _FailingService(service, TypeError("bug"))
        simulation = QuantumNetworkSimulation(
            config, SimParams(duration_s=10.0, reopt_interval_s=6.0),
            seed=1, service=failing,
        )
        with pytest.raises(TypeError, match="bug"):
            simulation.run()

    def test_infeasible_world_counts_as_failure(self, config, service):
        """Down links cut to 1% of their rate leave φ_min infeasible: Stage
        1 raises a typed error, which the re-optimizer counts."""
        result = QuantumNetworkSimulation(
            config,
            SimParams(duration_s=30.0, outage_rate=0.3, outage_duration_s=20.0,
                      reopt_interval_s=5.0, outage_beta_factor=0.01,
                      record_trace=False),
            seed=1, service=service,
        ).run()
        assert result.outage_count >= 1
        assert result.reopt_failures >= 1

    def test_recovery_is_answered_from_the_prefetched_memo(
        self, config, service
    ):
        """A re-optimization while links are down also solves the worlds in
        which they recover; when one of those worlds comes about, its
        re-optimization reads the memo and calls no solver."""
        recording = _RecordingService(service)
        simulation = QuantumNetworkSimulation(
            config,
            SimParams(duration_s=120.0, outage_rate=0.05,
                      reopt_interval_s=30.0, record_trace=False),
            seed=2, service=recording,
        )
        reoptimize = simulation.adaptation.reoptimize
        applied, prefetched = set(), set()
        answered = []  # (all links up, solver calls) per prefetched world

        def logged_reoptimize():
            world = config_fingerprint(simulation.current_config())
            before = len(recording.batches)
            reoptimize()
            if world in prefetched and world not in applied:
                answered.append((all(simulation.disruption.link_up),
                                 len(recording.batches) - before))
            applied.add(world)
            prefetched.update(key for batch in recording.batches[before:]
                              for key in batch if key != world)

        simulation.adaptation.reoptimize = logged_reoptimize
        simulation.run()
        assert (True, 0) in answered  # a recovery to zero links down
        assert [calls for _, calls in answered] == [0] * len(answered)

    def test_monitor_sampling_grid(self, config, service):
        result = QuantumNetworkSimulation(
            config, SimParams(duration_s=10.0, sample_dt=2.0), seed=1,
            service=service,
        ).run()
        assert result.sample_times == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
        assert len(result.buffer_bits) == 6
        assert len(result.buffer_bits[0]) == config.network.num_routes
