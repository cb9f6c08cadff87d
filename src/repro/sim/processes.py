"""Quantum-network processes layered on the discrete-event engine.

Each class models one physical or operational mechanism of the paper's
QKD/HE co-design, time-resolved:

* :class:`EntanglementSource` — per-link generation attempts at rate
  ``β_l`` succeeding with probability ``1 - w_l`` (so successes form the
  Poisson process of capacity ``c_l = β_l (1 - w_l)``, paper Eq. 3), all
  fired by one :class:`~repro.sim.bank.SourceBank` in vectorized windows
  between heap events;
* :class:`RouteBuffers` — entanglement swapping along the Table-III routes
  (one pair from every constituent link per end-to-end pair) feeding
  per-route secret-key buffers at ``F_skf(ϖ_n)`` bits per delivered pair
  (paper Eqs. 4-5);
* :class:`DemandProcess` — transciphering key demand draining the buffers,
  with unmet demand recorded as shortfall;
* :class:`DisruptionProcess` / :class:`FadingProcess` — link outages with
  exponential holding times, and block-fading epochs re-drawing the
  per-client channel multipliers;
* :class:`AdaptationProcess` — periodic (and disruption-triggered)
  re-optimization hook, used by the orchestrator to re-invoke
  :class:`~repro.api.service.SolverService` mid-simulation;
* :class:`MonitorProcess` — fixed-interval time-series sampling.

All processes draw from named :class:`~repro.sim.engine.RngStreams`.  The
``disruption`` and ``fading`` streams never depend on the allocation, so
two same-seed simulations see the identical outage schedule and fading
epochs even when their *policies* differ — the basis for fair
adaptive-vs-static comparisons.  (Generation streams do diverge once a
re-optimization changes ``w_l``: the same uniform draw crosses different
success thresholds; that residual Poisson noise is why the orchestrator
also integrates the analytic ``expected_key_bits``.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.quantum.topology import QKDNetwork
from repro.quantum.werner import end_to_end_werner, secret_key_fraction
from repro.sim.engine import Entity, Process
from repro.wireless.pathloss import rayleigh_power_gain

if TYPE_CHECKING:
    from repro.sim.bank import SourceBank

__all__ = [
    "AdaptationProcess",
    "AllocationState",
    "DemandProcess",
    "DisruptionProcess",
    "EntanglementSource",
    "FadingProcess",
    "MonitorProcess",
    "RouteBuffers",
    "STRIKE_MODES",
    "SWAP_POLICIES",
    "swap_credit",
]

#: Event priorities: within one timestamp, re-optimization applies first,
#: then physical events, then demand draws, then monitoring samples.
PRIORITY_ADAPT = -10
PRIORITY_PHYSICS = 0
PRIORITY_DEMAND = 10
PRIORITY_MONITOR = 20


def swap_credit(hop_count: int, swap_success: float) -> float:
    """Expected delivery yield of an ``hop_count``-hop swap chain.

    ``hop_count - 1`` swap operations each succeed with probability
    ``swap_success``; at 1.0 this is exactly 1.0, preserving the original
    bit-for-bit accounting.
    """
    if swap_success == 1.0:
        return 1.0
    return float(swap_success) ** max(0, hop_count - 1)


class AllocationState:
    """The live resource allocation the processes read (and adaptation writes).

    Derived, per link ``l``: the success probability ``1 - w_l`` of a
    generation attempt and the conditional probability that a successful
    pair is assigned to each route crossing the link (``φ_n / c_l``, the
    route's share of the link's capacity).  Per route ``n``: the secret-key
    fraction ``F_skf(ϖ_n)`` credited per delivered end-to-end pair.
    """

    def __init__(self, network: QKDNetwork, phi: Sequence[float], w: Sequence[float]):
        self.network = network
        num_links = network.num_links
        #: routes crossing each link, as (route_index, slot_on_route) pairs.
        self._link_routes: List[List[Tuple[int, int]]] = [[] for _ in range(num_links)]
        for n, route in enumerate(network.routes):
            for slot, link_index in enumerate(route.link_indices):
                self._link_routes[link_index].append((n, slot))
        self.phi = np.zeros(network.num_routes)
        self.w = np.ones(num_links)
        self.success_prob: List[float] = [0.0] * num_links
        #: per link: parallel lists (cumulative thresholds, (route, slot)).
        self.assignment: List[Tuple[List[float], List[Tuple[int, int]]]] = [
            ([], []) for _ in range(num_links)
        ]
        self.skf: List[float] = [0.0] * network.num_routes
        #: bumped by every update, so readers can cache the derived tables
        self.version = 0
        self.update(phi, w)

    def retarget(
        self, network: QKDNetwork, phi: Sequence[float], w: Sequence[float]
    ) -> None:
        """Swap in a new route set (same link set, same route count).

        The rerouting layer (:mod:`repro.sim.routing`) changes *routes*,
        not links or clients: the link-route crossing table is rebuilt for
        the new network and all derived tables recomputed under the
        current allocation.  The subsequent re-optimization then re-solves
        for the new routes properly; this keeps the state consistent in
        the meantime.
        """
        old = self.network
        if network.num_links != old.num_links:
            raise ValueError(
                f"retarget cannot change the link set "
                f"({old.num_links} -> {network.num_links} links)"
            )
        if network.num_routes != old.num_routes:
            raise ValueError(
                f"retarget cannot change the route count "
                f"({old.num_routes} -> {network.num_routes} routes)"
            )
        self.network = network
        self._link_routes = [[] for _ in range(network.num_links)]
        for n, route in enumerate(network.routes):
            for slot, link_index in enumerate(route.link_indices):
                self._link_routes[link_index].append((n, slot))
        self.update(phi, w)

    def update(self, phi: Sequence[float], w: Sequence[float]) -> None:
        """Install a new allocation; recomputes all derived tables.

        A non-finite ``φ`` or ``w`` raises :class:`ConfigurationError`: a
        NaN would read as success probability 1 and ``F_skf = 1`` and hand
        every pair on the route's links to that route.
        """
        phi = np.asarray(phi, dtype=float)
        w = np.asarray(w, dtype=float)
        net = self.network
        if phi.shape != (net.num_routes,) or w.shape != (net.num_links,):
            raise ValueError(
                f"allocation shapes {phi.shape}/{w.shape} do not match the "
                f"network ({net.num_routes} routes, {net.num_links} links)"
            )
        for name, values in (("phi", phi), ("w", w)):
            if not np.isfinite(values).all():
                raise ConfigurationError(
                    f"allocation {name} must be finite, got "
                    f"{values[~np.isfinite(values)][0]} at index "
                    f"{int(np.flatnonzero(~np.isfinite(values))[0])}"
                )
        self.version += 1
        self.phi = phi
        self.w = w
        betas = net.betas
        for l in range(net.num_links):
            self.success_prob[l] = max(0.0, min(1.0, 1.0 - float(w[l])))
            capacity = betas[l] * self.success_prob[l]
            thresholds: List[float] = []
            targets: List[Tuple[int, int]] = []
            if capacity > 0.0:
                acc = 0.0
                for n, slot in self._link_routes[l]:
                    share = float(phi[n]) / capacity
                    if share <= 0.0:
                        continue
                    acc = min(1.0, acc + share)
                    thresholds.append(acc)
                    targets.append((n, slot))
            self.assignment[l] = (thresholds, targets)
        for n, route in enumerate(net.routes):
            varpi = end_to_end_werner(w, route.link_indices)
            self.skf[n] = float(secret_key_fraction(varpi))

    def key_rates(self) -> List[float]:
        """Analytic steady-state key rate ``φ_n · F_skf(ϖ_n)`` per route."""
        return [float(p) * s for p, s in zip(self.phi, self.skf)]


#: Entanglement-swapping policies :class:`RouteBuffers` implements.
SWAP_POLICIES = ("atomic", "stepwise")


class RouteBuffers(Entity):
    """Swapping bookkeeping and per-route secret-key buffers.

    Each route holds one pending-pair counter per constituent link, capped
    at ``pending_cap`` (finite quantum memory: surplus pairs on one link
    decohere rather than queue forever).  When every counter is positive,
    swapping consumes one pair per link and delivers one end-to-end pair,
    crediting ``F_skf(ϖ_n)`` secret bits to the route's key buffer.

    Swapping policy
    ---------------
    ``atomic`` (default) completes every possible end-to-end swap the
    moment the last constituent pair arrives; ``stepwise`` performs at
    most one swap chain per arriving pair (one repeater operation per
    physical event), leaving surplus completions for later arrivals.  An
    ``h``-hop delivery needs ``h - 1`` swap operations, each succeeding
    with probability ``swap_success``, modelled in expectation: the bits
    credited per delivery are scaled by ``swap_success**(h-1)``.  The
    defaults reproduce the original single-policy behaviour bit for bit.
    """

    def __init__(
        self,
        state: AllocationState,
        *,
        pending_cap: int = 32,
        swap_policy: str = "atomic",
        swap_success: float = 1.0,
    ) -> None:
        super().__init__("buffers")
        if pending_cap < 1:
            raise ValueError("pending_cap must be >= 1")
        if swap_policy not in SWAP_POLICIES:
            raise ValueError(
                f"unknown swap policy {swap_policy!r}; choose from {SWAP_POLICIES}"
            )
        if not 0 < swap_success <= 1:
            raise ValueError("swap_success must be in (0, 1]")
        self.state = state
        self.pending_cap = int(pending_cap)
        self.swap_policy = swap_policy
        self.swap_success = float(swap_success)
        net = state.network
        self.pending: List[List[int]] = [
            [0] * route.hop_count for route in net.routes
        ]
        self._credit = [
            swap_credit(route.hop_count, self.swap_success)
            for route in net.routes
        ]
        self.key_bits = [0.0] * net.num_routes
        self.pairs_delivered = [0] * net.num_routes
        self.delivered_bits = [0.0] * net.num_routes
        self.pairs_dropped = [0] * net.num_routes
        #: pairs discarded mid-swap because a reroute changed the route's
        #: constituent links (stored halves decohere, cf. ``pairs_dropped``)
        self.pairs_flushed = [0] * net.num_routes
        self.demand_bits = [0.0] * net.num_routes
        self.served_bits = [0.0] * net.num_routes
        self.shortfall_bits = [0.0] * net.num_routes

    def retarget(self) -> None:
        """Re-shape the pending counters after the state's routes changed.

        Pairs pending on the old hops are flushed (counted in
        ``pairs_flushed``): a link-level pair stored for a route that no
        longer crosses that link has no partner to swap with and
        decoheres.  Key buffers and cumulative counters persist — the
        delivered secret bits live in the endpoints' key stores, which a
        reroute does not touch.
        """
        routes = self.state.network.routes
        if len(routes) != len(self.pending):
            raise ValueError(
                f"retarget cannot change the route count "
                f"({len(self.pending)} -> {len(routes)})"
            )
        for n, route in enumerate(routes):
            self.pairs_flushed[n] += sum(self.pending[n])
            self.pending[n] = [0] * route.hop_count
            self._credit[n] = swap_credit(route.hop_count, self.swap_success)

    def on_pair(self, route_index: int, slot: int) -> None:
        """A link pair was assigned to ``route_index`` at position ``slot``."""
        pending = self.pending[route_index]
        if pending[slot] >= self.pending_cap:
            self.pairs_dropped[route_index] += 1
            return
        pending[slot] += 1
        while min(pending) > 0:
            for i in range(len(pending)):
                pending[i] -= 1
            bits = self.state.skf[route_index] * self._credit[route_index]
            self.pairs_delivered[route_index] += 1
            self.delivered_bits[route_index] += bits
            self.key_bits[route_index] += bits
            if self.swap_policy == "stepwise":
                break

    def consume(self, route_index: int, bits: float) -> float:
        """Draw up to ``bits`` from a route's key buffer; returns the served
        amount and accounts demand/served/shortfall."""
        available = self.key_bits[route_index]
        served = bits if bits <= available else available
        self.key_bits[route_index] = available - served
        self.demand_bits[route_index] += bits
        self.served_bits[route_index] += served
        self.shortfall_bits[route_index] += bits - served
        return served


class EntanglementSource(Entity):
    """One link's entanglement generation: attempts at rate ``β_l``.

    Attempt inter-arrival times are exponential with mean ``1/β_l``; each
    attempt succeeds with probability ``1 - w_l`` (read live from the
    :class:`AllocationState`, so re-optimization immediately retunes the
    link).  Successful pairs are assigned to a route by its capacity share
    or discarded as surplus.  Outages :meth:`pause` the source.

    Attempts are not heap events: every source of a simulator lives in its
    :class:`~repro.sim.bank.SourceBank`, which fires them in vectorized
    windows between heap events, in exactly the order, with exactly the
    draws and sequence numbers, that one heap event per attempt would give.

    Randomness is bulk-drawn: inter-arrival times and decision uniforms
    come from per-source buffers refilled ``RNG_CHUNK`` values at a time
    from the source's own named stream — ``exponential`` when the delay
    buffer runs out at an arm, ``random`` when the uniform buffer runs out
    inside an attempt — so every draw comes from this source's stream in a
    fixed order, and same-seed runs (and their trace digests) are
    byte-identical and independent of any other stream's activity.
    """

    def __init__(
        self, link_index: int, beta: float, state: AllocationState, buffers: RouteBuffers
    ) -> None:
        super().__init__(f"gen.link{link_index + 1}")
        if not 0 < beta < np.inf:  # also rejects NaN
            raise ValueError(f"beta must be positive and finite, got {beta}")
        self.link_index = link_index
        self.beta = float(beta)
        self.state = state
        self.buffers = buffers
        self.active = True
        self._bank: Optional[SourceBank] = None
        self._slot = -1  # row in the bank's arrays

    def start(self) -> None:
        # Imported here: the codec registry and topology sweeps load this
        # module without simulating, and need not compile the bank.
        from repro.sim.bank import SourceBank

        sim = self.sim
        if sim.bank is None:
            sim.bank = SourceBank(sim)
        self._bank = sim.bank
        self._bank.register(self)

    @property
    def attempts(self) -> int:
        """Generation attempts fired so far."""
        return self._count("attempts")

    @property
    def pairs_generated(self) -> int:
        """Successful attempts so far (routed or surplus)."""
        return self._count("pairs")

    def _count(self, counter: str) -> int:
        counts = getattr(self._bank, counter, ())
        return int(counts[self._slot]) if 0 <= self._slot < len(counts) else 0

    def pause(self) -> None:
        """Suspend generation; the pending attempt still fires, inert."""
        if self.active:
            self.active = False
            if self._bank is not None:
                self._bank.pause(self)

    def resume(self) -> None:
        """Reactivate a paused source and arm its next attempt from now."""
        if not self.active:
            self.active = True
            if self._bank is not None:
                self._bank.arm(self)


class DemandProcess(Process):
    """Transciphering key demand draining the per-route buffers.

    The offered load is exogenous and fixed at construction (``base_rate``
    bits/s per route, typically ``demand_factor × φ_n F_skf(ϖ_n)`` of the
    *initial* allocation), optionally modulated by the fading multiplier —
    so competing policies face byte-identical demand.
    """

    priority = PRIORITY_DEMAND

    def __init__(
        self,
        buffers: RouteBuffers,
        base_rate: Sequence[float],
        *,
        interval_s: float = 0.5,
    ) -> None:
        super().__init__("demand")
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.buffers = buffers
        self.base_rate = [float(r) for r in base_rate]
        self.interval_s = float(interval_s)
        #: per-route demand multiplier, written by :class:`FadingProcess`.
        self.multiplier = [1.0] * len(self.base_rate)

    def next_delay(self) -> float:
        return self.interval_s

    def step(self) -> None:
        dt = self.interval_s
        for n, rate in enumerate(self.base_rate):
            need = rate * self.multiplier[n] * dt
            if need > 0.0:
                self.buffers.consume(n, need)


#: Link-selection modes for :class:`DisruptionProcess`.
STRIKE_MODES = ("loaded", "any")


class DisruptionProcess(Process):
    """Random link outages with exponential inter-outage and holding times.

    ``strike`` selects the candidate pool: ``"loaded"`` (default) strikes
    uniformly among currently-up links that carried at least one route *at
    construction*; ``"any"`` strikes uniformly among all currently-up
    links.  Rerouting studies use ``"any"`` — it keeps the outage
    schedule identical across routing policies (the pool never depends on
    where the routes currently are), which is the basis for fair
    proactive-vs-reactive comparisons.  The struck link's
    :class:`EntanglementSource` is paused until the recovery event fires.
    ``on_change(link_index, is_up)`` notifies the orchestrator (e.g. to
    trigger re-optimization or a reroute).
    """

    priority = PRIORITY_PHYSICS

    def __init__(
        self,
        sources: Sequence[EntanglementSource],
        state: AllocationState,
        *,
        outage_rate: float,
        mean_outage_s: float,
        on_change: Optional[Callable[[int, bool], None]] = None,
        strike: str = "loaded",
    ) -> None:
        super().__init__("disruption")
        if outage_rate <= 0:
            raise ValueError("outage_rate must be positive")
        if mean_outage_s <= 0:
            raise ValueError("mean_outage_s must be positive")
        if strike not in STRIKE_MODES:
            raise ValueError(
                f"unknown strike mode {strike!r}; choose from {STRIKE_MODES}"
            )
        self.sources = list(sources)
        self.state = state
        self.outage_rate = float(outage_rate)
        self.mean_outage_s = float(mean_outage_s)
        self.on_change = on_change
        self.strike = strike
        self.link_up = [True] * len(self.sources)
        #: completed and in-flight outages as [link_id, t_down, t_up].
        self.outages: List[List[float]] = []
        if strike == "any":
            self._loaded = [True] * len(self.sources)
        else:
            incidence = state.network.incidence
            self._loaded = [
                bool(incidence[l].sum() > 0) for l in range(len(self.sources))
            ]

    def start(self) -> None:
        self._rng = self.sim.stream("disruption")
        super().start()

    def next_delay(self) -> float:
        return self._rng.exponential(1.0 / self.outage_rate)

    def step(self) -> None:
        candidates = [
            l for l, up in enumerate(self.link_up) if up and self._loaded[l]
        ]
        if not candidates:
            return
        l = candidates[int(self._rng.integers(len(candidates)))]
        duration = self._rng.exponential(self.mean_outage_s)
        t_down = self.sim.now
        self.link_up[l] = False
        self.sources[l].pause()
        self.outages.append([float(l + 1), float(t_down), float(t_down + duration)])
        record = self.outages[-1]
        if self.on_change is not None:
            self.on_change(l, False)

        def recover() -> None:
            record[2] = float(self.sim.now)
            self.link_up[l] = True
            self.sources[l].resume()
            if self.on_change is not None:
                self.on_change(l, True)

        self.sim.schedule(duration, recover, tag=f"recover.link{l + 1}")


class FadingProcess(Process):
    """Block-fading epochs: redraw unit-mean Rayleigh power multipliers.

    Each epoch redraws one multiplier per client route (the small-scale
    component around the fixed large-scale gain, as in
    :mod:`repro.experiments.dynamic`), scales the demand accordingly, and
    notifies the orchestrator so adaptive policies can re-optimize.
    """

    priority = PRIORITY_PHYSICS

    def __init__(
        self,
        num_routes: int,
        *,
        interval_s: float,
        demand: Optional[DemandProcess] = None,
        on_change: Optional[Callable[[], None]] = None,
    ) -> None:
        super().__init__("fading")
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.num_routes = int(num_routes)
        self.interval_s = float(interval_s)
        self.demand = demand
        self.on_change = on_change
        self.multiplier = np.ones(num_routes)
        self.epoch = 0

    def start(self) -> None:
        self._rng = self.sim.stream("fading")
        super().start()

    def next_delay(self) -> float:
        return self.interval_s

    def step(self) -> None:
        self.epoch += 1
        self.multiplier = rayleigh_power_gain(self._rng, size=self.num_routes)
        if self.demand is not None:
            self.demand.multiplier = [float(m) for m in self.multiplier]
        if self.on_change is not None:
            self.on_change()


class AdaptationProcess(Process):
    """Periodic re-optimization: re-invoke the solver mid-simulation.

    ``reoptimize()`` is the orchestrator's callback (it builds the current
    configuration — fading multipliers, degraded outage links — and pushes
    the new allocation into the :class:`AllocationState`).  Besides the
    fixed cadence, :meth:`request` triggers an immediate re-optimization
    (used on outage/recovery and fading-epoch events), de-duplicated per
    timestamp.
    """

    priority = PRIORITY_ADAPT

    def __init__(self, reoptimize: Callable[[], None], *, interval_s: float) -> None:
        super().__init__("adapt")
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.reoptimize = reoptimize
        self.interval_s = float(interval_s)
        self.reopt_times: List[float] = []
        self._last_time: Optional[float] = None

    def next_delay(self) -> float:
        return self.interval_s

    def step(self) -> None:
        self._run_once()

    def request(self) -> None:
        """Schedule an immediate re-optimization (at the current time)."""
        self.sim.schedule(0.0, self._run_once, priority=self.priority, tag="adapt")

    def _run_once(self) -> None:
        if self._last_time == self.sim.now:
            return
        self._last_time = self.sim.now
        self.reopt_times.append(self.sim.now)
        self.reoptimize()


class MonitorProcess(Process):
    """Fixed-interval sampler building the result's time series."""

    priority = PRIORITY_MONITOR

    def __init__(self, buffers: RouteBuffers, *, sample_dt: float) -> None:
        super().__init__("monitor")
        if sample_dt <= 0:
            raise ValueError("sample_dt must be positive")
        self.buffers = buffers
        self.sample_dt = float(sample_dt)
        self.sample_times: List[float] = []
        self.buffer_series: List[List[float]] = []      # [sample][route]
        self.delivered_series: List[List[float]] = []   # cumulative bits
        self.shortfall_series: List[List[float]] = []   # cumulative bits

    def start(self) -> None:
        self._sample()  # t = 0 baseline
        super().start()

    def next_delay(self) -> float:
        return self.sample_dt

    def step(self) -> None:
        self._sample()

    def _sample(self) -> None:
        b = self.buffers
        self.sample_times.append(self.sim.now)
        self.buffer_series.append(list(b.key_bits))
        self.delivered_series.append(list(b.delivered_bits))
        self.shortfall_series.append(list(b.shortfall_bits))
