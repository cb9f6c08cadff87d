"""Orchestrator: wire a :class:`~repro.core.config.SystemConfig` into the
discrete-event engine and run it.

:class:`QuantumNetworkSimulation` solves the static problem once through
:class:`~repro.api.service.SolverService` (sharing its fingerprint cache),
installs the resulting ``(φ, w)`` allocation into the process layer, and
simulates the network in time: per-link entanglement generation, swapping
into per-route key buffers, transciphering demand, scheduled disruptions
and — optionally — mid-simulation re-optimization.

The adaptive re-optimization path models the operational loop the paper's
static formulation cannot: on every re-optimization the orchestrator builds
a :class:`SystemConfig` reflecting the *current* world (fading multipliers
on the channel gains; down links with their ``β`` collapsed by
``outage_beta_factor``) and re-invokes the solver, so routes crossing a dead
link fall back to their minimum rates and the freed shared-link capacity is
re-spent on healthy routes.

:func:`run_adaptive_study` runs the adaptive and frozen policies over
byte-identical randomness (same seed, same named RNG streams) and returns
an :class:`~repro.sim.result.AdaptiveSimStudy`.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.config import SystemConfig
from repro.errors import ReproError
from repro.quantum.topology import QKDNetwork
from repro.sim.engine import Simulator
from repro.sim.processes import (
    AdaptationProcess,
    AllocationState,
    DemandProcess,
    DisruptionProcess,
    EntanglementSource,
    FadingProcess,
    MonitorProcess,
    RouteBuffers,
    swap_credit,
)
from repro.sim.result import AdaptiveSimStudy, SimulationResult

__all__ = ["QuantumNetworkSimulation", "SimParams", "run_adaptive_study"]


@dataclass(frozen=True)
class SimParams:
    """Knobs of one simulation run (all times in simulated seconds)."""

    #: simulated horizon
    duration_s: float = 60.0
    #: time-series sampling interval
    sample_dt: float = 1.0
    #: offered key demand as a fraction of each route's allocated key rate
    #: (0 disables the demand model)
    demand_factor: float = 0.0
    #: demand draw interval
    demand_dt: float = 0.5
    #: network-wide link outage rate (outages per second; 0 disables)
    outage_rate: float = 0.0
    #: mean outage holding time
    outage_duration_s: float = 20.0
    #: block-fading epoch length (0 disables fading)
    fading_interval_s: float = 0.0
    #: re-optimization cadence (0 = static policy, never re-solve); an
    #: adaptive run also re-optimizes at once on every outage, recovery and
    #: fading epoch
    reopt_interval_s: float = 0.0
    #: per-(route, link) pending-pair memory (finite quantum memory)
    pending_cap: int = 32
    #: β multiplier applied to down links in the re-optimization config;
    #: small but non-zero so the minimum-rate and fidelity constraints stay
    #: feasible (0.15 is the empirical single-outage feasibility floor on
    #: the SURFnet topology; solver failures fall back to the previous
    #: allocation either way)
    outage_beta_factor: float = 0.25
    #: record the event trace (enables ``trace_digest``; cheap)
    record_trace: bool = True
    #: entanglement-swapping completion policy along multi-hop routes
    #: (see :class:`~repro.sim.processes.RouteBuffers`)
    swap_policy: str = "atomic"
    #: per-swap success probability, applied in expectation as
    #: ``swap_success**(hops-1)`` bits-per-delivery yield (1.0 = ideal)
    swap_success: float = 1.0
    #: outage target pool: "loaded" (links carrying routes at t=0) or
    #: "any" (all links — required for fair cross-policy routing studies,
    #: see :class:`~repro.sim.processes.DisruptionProcess`)
    strike: str = "loaded"

    def __post_init__(self) -> None:
        from repro.sim.processes import STRIKE_MODES, SWAP_POLICIES

        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.sample_dt <= 0:
            raise ValueError("sample_dt must be positive")
        if self.demand_factor < 0:
            raise ValueError("demand_factor must be non-negative")
        if not 0 < self.outage_beta_factor <= 1:
            raise ValueError("outage_beta_factor must be in (0, 1]")
        if self.swap_policy not in SWAP_POLICIES:
            raise ValueError(
                f"unknown swap policy {self.swap_policy!r}; "
                f"choose from {SWAP_POLICIES}"
            )
        if not 0 < self.swap_success <= 1:
            raise ValueError("swap_success must be in (0, 1]")
        if self.strike not in STRIKE_MODES:
            raise ValueError(
                f"unknown strike mode {self.strike!r}; choose from {STRIKE_MODES}"
            )


class QuantumNetworkSimulation:
    """One configured simulation, ready to :meth:`run`."""

    def __init__(
        self,
        config: SystemConfig,
        params: SimParams = SimParams(),
        *,
        seed: int = 0,
        service: Optional["SolverService"] = None,
        router: Optional["RouteController"] = None,
    ) -> None:
        from repro.api.service import SolverService

        self.config = config
        self.params = params
        self.seed = int(seed)
        self.service = service if service is not None else SolverService()
        self.router = router
        if router is not None:
            if router.topology.num_links != config.network.num_links:
                raise ValueError(
                    "router topology and config network disagree on the "
                    f"link set ({router.topology.num_links} vs "
                    f"{config.network.num_links} links)"
                )
            if len(router.topology.clients) != config.network.num_routes:
                raise ValueError(
                    "router topology and config network disagree on the "
                    f"client count ({len(router.topology.clients)} vs "
                    f"{config.network.num_routes} routes)"
                )
        #: reroute log: [t, routes_changed, clients_on_dead_fallback]
        self.reroutes: List[List[float]] = []

        baseline = self.service.solve(config)
        phi0 = np.asarray(baseline.allocation.phi, dtype=float)
        w0 = np.asarray(baseline.allocation.w, dtype=float)
        #: fixed warm start for every re-optimization solve: the baseline
        #: optimum (the alternation re-converges in a couple of rounds from
        #: it), kept constant so each solve is a pure function of its config
        self._warm_start = baseline.allocation.with_updates(T=None)
        #: per-simulation memo of re-optimization results by config
        #: fingerprint (see _reoptimize for the determinism rationale)
        self._reopt_memo = {}

        self.sim = Simulator(seed=self.seed, record_trace=params.record_trace)
        self.state = AllocationState(config.network, phi0, w0)
        self.buffers = self.sim.add(
            RouteBuffers(
                self.state,
                pending_cap=params.pending_cap,
                swap_policy=params.swap_policy,
                swap_success=params.swap_success,
            )
        )
        self.sources: List[EntanglementSource] = [
            self.sim.add(
                EntanglementSource(l, link.beta, self.state, self.buffers)
            )
            for l, link in enumerate(config.network.links)
        ]

        self._initial_phi = [float(v) for v in phi0]
        self._initial_key_rate = self.state.key_rates()
        self._demand_rate = [
            params.demand_factor * rate for rate in self._initial_key_rate
        ]
        self.demand: Optional[DemandProcess] = None
        if params.demand_factor > 0:
            self.demand = self.sim.add(
                DemandProcess(
                    self.buffers, self._demand_rate, interval_s=params.demand_dt
                )
            )

        self.adaptation: Optional[AdaptationProcess] = None
        if params.reopt_interval_s > 0:
            self.adaptation = self.sim.add(
                AdaptationProcess(
                    self._reoptimize, interval_s=params.reopt_interval_s
                )
            )

        self.disruption: Optional[DisruptionProcess] = None
        if params.outage_rate > 0:
            self.disruption = self.sim.add(
                DisruptionProcess(
                    self.sources,
                    self.state,
                    outage_rate=params.outage_rate,
                    mean_outage_s=params.outage_duration_s,
                    on_change=self._on_link_change,
                    strike=params.strike,
                )
            )

        self.fading: Optional[FadingProcess] = None
        if params.fading_interval_s > 0:
            self.fading = self.sim.add(
                FadingProcess(
                    config.num_clients,
                    interval_s=params.fading_interval_s,
                    demand=self.demand,
                    on_change=self._on_fading_change,
                )
            )

        self.monitor = self.sim.add(
            MonitorProcess(self.buffers, sample_dt=params.sample_dt)
        )
        self.reopt_failures = 0

        # Expected-key-bits integral: ∫ Σ_{alive routes} φ_n F_skf(ϖ_n) dt,
        # accrued piecewise at every allocation / link-state change.  It is
        # the Poisson-noise-free view of the same quantity the event loop
        # samples, so adaptive-vs-static deltas are exact, not ±√N noisy.
        self._route_links = [r.link_indices for r in config.network.routes]
        self._swap_credit = [
            swap_credit(r.hop_count, params.swap_success)
            for r in config.network.routes
        ]
        self._link_up = [True] * config.network.num_links
        self._expected_bits = 0.0
        self._expected_last_t = 0.0

    # -- adaptation plumbing --------------------------------------------------

    def _accrue_expected(self) -> None:
        """Integrate the analytic key rate up to now with the current state."""
        now = self.sim.now
        if now > self._expected_last_t:
            rate = 0.0
            for n, link_indices in enumerate(self._route_links):
                if all(self._link_up[l] for l in link_indices):
                    rate += (
                        float(self.state.phi[n])
                        * self.state.skf[n]
                        * self._swap_credit[n]
                    )
            self._expected_bits += rate * (now - self._expected_last_t)
        self._expected_last_t = now

    def _on_link_change(self, link_index: int, is_up: bool) -> None:
        self._accrue_expected()
        self._link_up[link_index] = is_up
        if self.router is not None:
            self._apply_routing()
        if self.adaptation is not None:
            self.adaptation.request()

    def _apply_routing(self) -> None:
        """Re-route every client against the current link state.

        Asks the :class:`~repro.sim.routing.RouteController` for the route
        set under ``self._link_up``; if it differs from the routes in
        force, swaps the new network into the config (so every later
        re-optimization solves for the new routes), retargets the
        allocation state and swap buffers, and logs the reroute — both in
        :attr:`reroutes` and as a ``reroute`` trace event, so routing
        decisions are digest-visible.
        """
        routes, fallback = self.router.routes_for(self._link_up)
        old_ids = [r.link_ids for r in self.config.network.routes]
        new_ids = [r.link_ids for r in routes]
        if new_ids == old_ids:
            return
        self._accrue_expected()
        network = QKDNetwork(
            self.config.network.links,
            routes,
            key_center=self.config.network.key_center,
        )
        self.config = dataclasses.replace(self.config, network=network)
        self.state.retarget(network, self.state.phi, self.state.w)
        self.buffers.retarget()
        self._route_links = [r.link_indices for r in routes]
        self._swap_credit = [
            swap_credit(r.hop_count, self.params.swap_success) for r in routes
        ]
        changed = sum(1 for o, n in zip(old_ids, new_ids) if o != n)
        self.reroutes.append(
            [float(self.sim.now), float(changed), float(sum(fallback))]
        )
        self.sim.schedule(0.0, lambda: None, tag="reroute")

    def _on_fading_change(self) -> None:
        if self.adaptation is not None:
            self.adaptation.request()

    def current_config(self, link_up: Optional[List[bool]] = None) -> SystemConfig:
        """The world as the solver should see it *now*.

        Channel gains carry the current fading multipliers; links that are
        down keep ``β · outage_beta_factor`` — collapsed capacity rather
        than zero, so the minimum-rate constraints stay feasible and the
        solver parks affected routes at ``φ_min`` instead of failing.
        ``link_up`` overrides the live link state (used to construct the
        candidate worlds the re-optimizer prefetches).
        """
        config = self.config
        gains = np.asarray(config.channel_gains, dtype=float)
        if self.fading is not None:
            gains = gains * np.asarray(self.fading.multiplier, dtype=float)
        network = config.network
        if link_up is None:
            link_up = list(self.disruption.link_up) if self.disruption else []
        if link_up and not all(link_up):
            links = [
                link
                if link_up[l]
                else dataclasses.replace(
                    link, beta=link.beta * self.params.outage_beta_factor
                )
                for l, link in enumerate(network.links)
            ]
            network = QKDNetwork(
                links, network.routes, key_center=network.key_center
            )
        return dataclasses.replace(config, network=network, channel_gains=gains)

    def _candidate_configs(self) -> List[SystemConfig]:
        """The current world plus its most likely successors.

        The first candidate is always the world to apply.  When links are
        down, the worlds in which one of them has recovered (and the all-up
        world) ride along in the same batch: they share the vectorized
        solve and land in this simulation's re-optimization memo, turning
        the next recovery-triggered re-optimization into a lookup.
        """
        candidates = [self.current_config()]
        if (
            self.router is None  # a recovery would reroute first, so
            # the prefetched world's routes would not match; skip the
            # speculation rather than solve configs that can never apply
            and self.disruption is not None
            and not all(self.disruption.link_up)
        ):
            link_up = list(self.disruption.link_up)
            down = [l for l, up in enumerate(link_up) if not up]
            for l in down[:3]:  # bound the prefetch cost on outage storms
                restored = list(link_up)
                restored[l] = True
                candidates.append(self.current_config(link_up=restored))
            if len(down) > 1:
                candidates.append(
                    self.current_config(link_up=[True] * len(link_up))
                )
        return candidates

    def _reoptimize(self) -> None:
        from repro.api.service import FingerprintError, config_fingerprint

        candidates = self._candidate_configs()
        # Every re-optimization solve warm-starts from the *baseline*
        # allocation (a couple of alternation rounds instead of a cold
        # solve) and is memoized per simulation instance.  Each memo entry
        # is therefore a pure function of its config — independent of the
        # shared service cache and of other runs — so same-seed runs stay
        # byte-identical even when they share a SolverService.  Prefetched
        # recovery candidates ride in the same batch and turn the next
        # recovery-triggered re-optimization into a memo lookup.
        keys = []
        for cfg in candidates:
            try:
                keys.append(config_fingerprint(cfg))
            except FingerprintError:
                keys.append(None)
        pending = [
            i
            for i, key in enumerate(keys)
            if key is None or key not in self._reopt_memo
        ]
        if pending:
            try:
                solved = self.service.solve_many(
                    [candidates[i] for i in pending],
                    initials=[self._warm_start] * len(pending),
                )
            except ReproError:
                # A batch can die on a speculative candidate; the current
                # world alone decides whether this re-optimization counts
                # as failed.
                if keys[0] is None or keys[0] not in self._reopt_memo:
                    try:
                        solved_current = self.service.solve_many(
                            candidates[:1], initials=[self._warm_start]
                        )
                    except ReproError:
                        # A transient world (e.g. heavily degraded network)
                        # the solver cannot handle keeps the previous
                        # allocation in force.  Only typed failures count:
                        # config construction stays outside the catch and a
                        # programming error in the solver propagates.
                        self.reopt_failures += 1
                        return
                    if keys[0] is not None:
                        self._reopt_memo[keys[0]] = solved_current[0]
                    result = solved_current[0]
                    self._apply_reopt(result)
                    return
            else:
                for i, res in zip(pending, solved):
                    if keys[i] is not None:
                        self._reopt_memo[keys[i]] = res
        result = (
            self._reopt_memo[keys[0]]
            if keys[0] is not None
            else solved[pending.index(0)]
        )
        self._apply_reopt(result)

    def _apply_reopt(self, result) -> None:
        self._accrue_expected()
        self.state.update(result.allocation.phi, result.allocation.w)

    # -- execution ------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Simulate the configured horizon and assemble the result."""
        params = self.params
        start = time.perf_counter()
        self.sim.run(until=params.duration_s)
        wall = time.perf_counter() - start
        self._accrue_expected()  # close the final segment at t = duration
        monitor = self.monitor
        buffers = self.buffers
        outages = []
        if self.disruption is not None:
            outages = [
                [l, t_down, min(t_up, params.duration_s)]
                for l, t_down, t_up in self.disruption.outages
            ]
        reopt_times = (
            list(self.adaptation.reopt_times) if self.adaptation is not None else []
        )
        result = SimulationResult(
            duration_s=params.duration_s,
            seed=self.seed,
            allocated_phi=list(self._initial_phi),
            allocated_key_rate=list(self._initial_key_rate),
            demand_rate=list(self._demand_rate),
            sample_times=list(monitor.sample_times),
            buffer_bits=[list(row) for row in monitor.buffer_series],
            delivered_bits_series=[list(row) for row in monitor.delivered_series],
            shortfall_bits_series=[list(row) for row in monitor.shortfall_series],
            pairs_generated=[s.pairs_generated for s in self.sources],
            pairs_delivered=list(buffers.pairs_delivered),
            pairs_dropped=list(buffers.pairs_dropped),
            delivered_bits=list(buffers.delivered_bits),
            demand_bits=list(buffers.demand_bits),
            served_bits=list(buffers.served_bits),
            shortfall_bits=list(buffers.shortfall_bits),
            expected_key_bits=self._expected_bits,
            outages=outages,
            reopt_times=reopt_times,
            reopt_failures=self.reopt_failures,
            events_processed=self.sim.events_processed,
            wall_time_s=wall,
            trace_digest=self.sim.trace_digest(),
            reroutes=[list(row) for row in self.reroutes],
            pairs_flushed=list(buffers.pairs_flushed),
            final_route_links=[
                list(r.link_ids) for r in self.config.network.routes
            ],
        )
        # Drop the references that close the finished object graph into
        # cycles (the simulator's entities and pending events, the
        # processes' callbacks into this orchestrator), so the caller's last
        # reference frees the simulation and its trace at once instead of
        # at the next full garbage collection.
        self.sim.release()
        if self.adaptation is not None:
            self.adaptation.reoptimize = None
        if self.disruption is not None:
            self.disruption.on_change = None
        if self.fading is not None:
            self.fading.on_change = None
        return result


def run_adaptive_study(
    config: SystemConfig,
    params: SimParams,
    *,
    seed: int = 0,
    service: Optional["SolverService"] = None,
) -> AdaptiveSimStudy:
    """Adaptive vs static policy over a shared disruption trajectory.

    Both runs use the same seed, so the policy-independent streams —
    outage schedule and fading epochs — are identical draw for draw; only
    the policy differs (the static run never re-solves).  Generation noise
    diverges once the adaptive policy changes an allocation, so compare
    policies on ``expected_gain_bits`` (exact) rather than the empirical
    delivered-bits delta (±√N Poisson noise).
    """
    if params.reopt_interval_s <= 0:
        raise ValueError("adaptive study needs reopt_interval_s > 0")
    from repro.api.service import SolverService

    service = service if service is not None else SolverService()
    adaptive = QuantumNetworkSimulation(
        config, params, seed=seed, service=service
    ).run()
    static_params = dataclasses.replace(params, reopt_interval_s=0.0)
    static = QuantumNetworkSimulation(
        config, static_params, seed=seed, service=service
    ).run()
    return AdaptiveSimStudy(adaptive=adaptive, static=static)
