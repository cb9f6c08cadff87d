"""Dynamic adaptation study: QuHE under block-fading channels.

The paper solves one static snapshot.  Real MEC channels fade; this
experiment extends the evaluation (the "dynamic and resource-constrained
environments" the paper's introduction motivates) by re-drawing the
small-scale fading every epoch and comparing:

* **adaptive** — re-run QuHE each epoch (warm-started from the epoch-0
  allocation),
* **static** — keep the epoch-0 allocation for the whole horizon (resources
  frozen, as a deployment without re-optimization would),

measuring the adaptation gain epoch by epoch.  The QKD block is
channel-independent, so only Stages 2-3 react — which the experiment
verifies as a by-product.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.core.config import SystemConfig
from repro.core.problem import QuHEProblem
from repro.core.solution import Allocation
from repro.utils.rng import SeedLike, as_generator
from repro.wireless.pathloss import rayleigh_power_gain


@dataclass(frozen=True)
class EpochResult:
    """One fading epoch: both policies evaluated on the same channel."""

    epoch: int
    gains: np.ndarray
    adaptive_objective: float
    static_objective: float

    @property
    def adaptation_gain(self) -> float:
        return self.adaptive_objective - self.static_objective


@dataclass(frozen=True)
class DynamicStudy:
    """Full horizon of epochs plus the epoch-0 baseline allocation."""

    epochs: List[EpochResult]
    baseline_allocation: Allocation

    @property
    def mean_adaptation_gain(self) -> float:
        return float(np.mean([e.adaptation_gain for e in self.epochs]))

    @property
    def adaptive_objectives(self) -> List[float]:
        return [e.adaptive_objective for e in self.epochs]

    @property
    def static_objectives(self) -> List[float]:
        return [e.static_objective for e in self.epochs]


def run_dynamic_study(
    config: SystemConfig,
    *,
    num_epochs: int = 5,
    seed: SeedLike = 0,
    service: Optional["SolverService"] = None,
) -> DynamicStudy:
    """Simulate ``num_epochs`` of block fading over ``config``'s placements.

    The large-scale component of each gain is held fixed (clients do not
    move); Rayleigh fading is redrawn per epoch.  Epoch 0 uses the config's
    own gains and defines the static policy.

    Epoch 0 is one :meth:`~repro.api.service.SolverService.solve`.  The
    fading draws do not depend on the solves, so every later epoch's config
    is known upfront and the adaptive re-optimizations form one
    :meth:`~repro.api.service.SolverService.solve_many` batch.
    """
    from repro.api.service import SolverService

    if num_epochs < 1:
        raise ValueError("need at least one epoch")
    rng = as_generator(seed)
    svc = service if service is not None else SolverService()
    baseline = svc.solve(config)
    static_alloc = baseline.allocation
    # Epoch configs are deterministic given the seed, independent of solves.
    epoch_configs: List[SystemConfig] = [config]
    for _ in range(1, num_epochs):
        # Redraw the small-scale component around the same large-scale
        # level (unit-mean Rayleigh leaves the mean gain unchanged).
        fading = rayleigh_power_gain(rng, size=config.num_clients)
        epoch_configs.append(
            replace(config, channel_gains=config.channel_gains * fading)
        )
    adaptive: List[Tuple[float, Allocation]] = [
        (baseline.objective, static_alloc)  # the epoch-0 adaptive policy
    ]
    if num_epochs > 1:
        # All epochs warm-start from the epoch-0 optimum: the alternation
        # improves monotonically from there, so adaptive ≥ static holds per
        # epoch by construction, and the solves batch (no serial chain).
        warm = static_alloc.with_updates(T=None)
        for result in svc.solve_many(
            epoch_configs[1:], initials=[warm] * (num_epochs - 1)
        ):
            adaptive.append((result.objective, result.allocation))
    epochs: List[EpochResult] = []
    for epoch, cfg in enumerate(epoch_configs):
        problem = QuHEProblem(cfg)
        static_metrics = problem.metrics(static_alloc.with_updates(T=None))
        epochs.append(
            EpochResult(
                epoch=epoch,
                gains=np.asarray(cfg.channel_gains, dtype=float),
                adaptive_objective=adaptive[epoch][0],
                static_objective=static_metrics.objective,
            )
        )
    return DynamicStudy(epochs=epochs, baseline_allocation=static_alloc)
