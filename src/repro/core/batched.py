"""Batched QuHE: one vectorized pass of Alg. 4 over many configurations.

This is the Alg.-4 loop every production solve runs, through
:class:`~repro.api.service.SolverService` (a single solve is the batch of
one); the scalar :class:`~repro.core.quhe.QuHE` loop is the reference it is
tested against and the SLSQP degraded path.

:class:`BatchedQuHE` stacks K independent :class:`~repro.core.config.SystemConfig`
instances into leading-axis NumPy arrays and runs the three-stage alternation
for the whole batch at once:

* **Stage 1** — the QKD block depends only on the network (incidence, link
  rates β, minimum rates φ_min), none of which the sweep-shaped workloads
  vary, so identical blocks are *deduplicated*: each unique block is solved
  once by the scalar convex solver and the result shared across the batch.
* **Stage 2** — the per-client benefit/delay tables are built batch-wide
  (``(K, n, m)`` arrays, no per-config Python loops) and the discrete λ
  assignment is found by a vectorized exact enumeration over all ``m^n``
  assignments (the same argmax branch-and-bound returns, per
  ``tests/experiments/test_ablations.py``); batches whose assignment space
  is too large fall back to the scalar branch-and-bound per config.
* **Stage 3** — the fractional-programming block runs on the batched
  interior-point core of :mod:`repro.core.stage3_ipm` with per-config
  convergence masks.

Because the scalar :class:`~repro.core.stage3.Stage3Solver` delegates to the
*same* Stage-3 core with a batch of one, batched and scalar solves execute
the same floating-point algorithm; ``tests/core/test_batched.py``
property-tests objective agreement within 1e-9 and identical λ across
seeds, batch shapes and topologies.

Configs in one :meth:`BatchedQuHE.solve_batch` call may be heterogeneous:
they are grouped by ``(num_clients, len(lambda_set))`` and each group is
solved as one batch; results always come back in input order.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.batch import ConfigBatch, SolutionBatch
from repro.core.config import SystemConfig
from repro.core.problem import QuHEProblem
from repro.core.quhe import QuHEResult, initial_allocation
from repro.core.solution import Allocation
from repro.core.stage1 import Stage1Result, Stage1Solver
from repro.core.stage2 import BranchAndBoundSolver, Stage2Result
from repro.core.stage3 import Stage3Result
from repro.core.stage3_ipm import Stage3Constants, solve_stage3_batch
from repro.wireless.rate import uplink_rate

__all__ = ["BatchedQuHE"]

#: Above this many λ assignments the vectorized Stage-2 enumeration falls
#: back to the scalar branch-and-bound (memory bound: K · m^n floats).
_MAX_ENUMERATION = 200_000


def _qkd_block_key(config: SystemConfig, phi0: np.ndarray) -> bytes:
    """Identity of the Stage-1 convex program (and its starting point)."""
    return b"|".join(
        (
            np.ascontiguousarray(config.network.incidence).tobytes(),
            np.ascontiguousarray(config.network.betas).tobytes(),
            np.ascontiguousarray(config.min_rates).tobytes(),
            repr(float(config.tolerance)).encode(),
            np.ascontiguousarray(phi0).tobytes(),
        )
    )


class BatchedQuHE:
    """Vectorized Alg. 4 over a batch of configurations.

    Shares Stage-1 solutions across configs with identical QKD blocks (the
    ``stage1_cache`` survives across calls, so repeated sweeps on the same
    network re-use the convex solve), and runs Stages 2-3 as single
    batch-wide passes per outer iteration with per-config convergence.
    """

    def __init__(self, *, max_outer_iterations: int = 20) -> None:
        self.max_outer_iterations = int(max_outer_iterations)
        if self.max_outer_iterations < 1:
            raise ValueError("max_outer_iterations must be at least 1")
        self._stage1_cache: Dict[bytes, Stage1Result] = {}

    # -- public API -------------------------------------------------------------

    def solve_batch(
        self,
        configs: Sequence[SystemConfig],
        initials: Optional[Sequence[Optional[Allocation]]] = None,
    ) -> List[QuHEResult]:
        """Solve every config; results come back in input order."""
        if initials is None:
            initials = [None] * len(configs)
        if len(initials) != len(configs):
            raise ValueError("initials must align with configs")
        if isinstance(configs, ConfigBatch):
            return self._solve_group(configs, list(initials))
        # Shape-group batching on index masks: one (num_clients, m) key row
        # per config, np.unique for the group ids, groups visited in
        # first-appearance order.
        shape_keys = np.array(
            [
                [cfg.num_clients, len(cfg.cost_model.lambda_set)]
                for cfg in configs
            ],
            dtype=np.int64,
        )
        _, first, inverse = np.unique(
            shape_keys, axis=0, return_index=True, return_inverse=True
        )
        inverse = inverse.reshape(-1)
        results: List[Optional[QuHEResult]] = [None] * len(configs)
        for g in np.argsort(first, kind="stable"):
            indices = np.nonzero(inverse == g)[0]
            batch = ConfigBatch.from_configs([configs[int(i)] for i in indices])
            solution = self._solve_group(
                batch, [initials[int(i)] for i in indices]
            )
            for j, i in enumerate(indices):
                results[int(i)] = solution[j]
        return results  # type: ignore[return-value]

    def solve_config_batch(
        self,
        batch: ConfigBatch,
        initials: Optional[Sequence[Optional[Allocation]]] = None,
    ) -> SolutionBatch:
        """Solve a columnar batch natively — no per-call stacking at all.

        The batch is uniform by construction, so no regrouping happens:
        the solver reads the precomputed columns directly and returns its
        results, in batch order, as a :class:`SolutionBatch`.
        """
        if initials is None:
            initials = [None] * len(batch)
        if len(initials) != len(batch):
            raise ValueError("initials must align with configs")
        return SolutionBatch(self._solve_group(batch, list(initials)))

    # -- group solve ------------------------------------------------------------

    def _stage1_for(
        self, config: SystemConfig, phi0: np.ndarray
    ) -> Stage1Result:
        key = _qkd_block_key(config, phi0)
        cached = self._stage1_cache.get(key)
        if cached is None:
            cached = Stage1Solver(config).solve(phi0)
            self._stage1_cache[key] = cached
        return cached

    def _solve_group(
        self,
        batch: ConfigBatch,
        initials: List[Optional[Allocation]],
    ) -> List[QuHEResult]:
        start = time.perf_counter()
        k = len(batch)
        configs = list(batch)
        problems = [QuHEProblem(cfg) for cfg in configs]
        allocs: List[Allocation] = [
            initial if initial is not None else initial_allocation(cfg)
            for cfg, initial in zip(configs, initials)
        ]
        # The scalar loop seeds its history at the starting point, before
        # the Stage-1 update is applied; match it exactly so the round-1
        # convergence test compares against the same baseline.
        histories: List[List[float]] = [
            [problems[i].objective(allocs[i])] for i in range(k)
        ]
        # Stage 1 (deduplicated): the QKD block is decoupled, solved once.
        stage1: List[Stage1Result] = [
            self._stage1_for(cfg, alloc.phi)
            for cfg, alloc in zip(configs, allocs)
        ]
        allocs = [
            alloc.with_updates(phi=s1.phi, w=s1.w)
            for alloc, s1 in zip(allocs, stage1)
        ]
        # The columnar payoff: every table below is a view of ConfigBatch
        # columns stacked once at construction, not rebuilt per call.
        constants = batch.stage3_constants()
        lambda_col = batch.lambda_set    # (K, m)
        per_sample = batch.server_cycles  # (K, m)
        msl_bits = batch.msl_bits        # (K, m)
        u_qkd = np.array(
            [problems[i].metrics(allocs[i]).u_qkd for i in range(k)]
        )
        tokens_ratio = batch.tokens_ratio  # (K, n)
        privacy = batch.privacy_weights
        alpha = {
            name: getattr(batch, name)
            for name in ("alpha_qkd", "alpha_msl", "alpha_t", "alpha_e")
        }

        converged = np.zeros(k, dtype=bool)
        outer_counts = np.zeros(k, dtype=int)
        s2_results: List[Optional[Stage2Result]] = [None] * k
        s3_results: List[Optional[Stage3Result]] = [None] * k
        active = np.arange(k)

        for _ in range(self.max_outer_iterations):
            # ---- Stage 2 (batched tables + exact assignment) ----------------
            s2_start = time.perf_counter()
            lam, t_induced, s2_value, nodes = self._stage2_batch(
                [configs[i] for i in active],
                [allocs[i] for i in active],
                constants,
                active,
                lambda_col[active],
                per_sample[active],
                msl_bits[active],
                u_qkd[active],
                tokens_ratio[active],
                privacy[active],
                {name: arr[active] for name, arr in alpha.items()},
            )
            s2_elapsed = time.perf_counter() - s2_start
            for j, i in enumerate(active):
                allocs[i] = allocs[i].with_updates(
                    lam=lam[j], T=float(t_induced[j])
                )
                s2_results[i] = Stage2Result(
                    lam=lam[j],
                    T=float(t_induced[j]),
                    value=float(s2_value[j]),
                    nodes_explored=int(nodes[j]),
                    runtime_s=s2_elapsed,
                    history=[float(s2_value[j])],
                )
            # ---- Stage 3 (batched interior-point alternation) ---------------
            s3_start = time.perf_counter()
            sub_constants = (
                constants.subset(active) if len(active) != k else constants
            )
            # Vectorized server_cycle_demand: the per-sample cycle curve was
            # tabulated over the λ-set at batch construction, so gather the
            # table rows by matching each chosen λ back to its set index.
            # The arithmetic mirrors SystemConfig.server_cycle_demand
            # operation-for-operation (same floats, same op order), keeping
            # results bitwise identical to the scalar path.
            lam_rows = np.stack([allocs[i].lam for i in active])
            lam_sets = lambda_col[active]
            match = lam_rows[:, :, None] == lam_sets[:, None, :]
            if match.any(axis=-1).all():
                lam_idx = match.argmax(axis=-1)
                per_sel = np.take_along_axis(
                    per_sample[active], lam_idx, axis=1
                )
                cycles = (
                    per_sel
                    * batch.num_tokens[active]
                    / batch.tokens_per_sample[active]
                )
            else:
                # λ outside the tabulated set (custom warm start): fall back
                # to the per-config evaluation.
                cycles = np.stack(
                    [
                        configs[i].server_cycle_demand(allocs[i].lam)
                        for i in active
                    ]
                )
            batch3 = solve_stage3_batch(
                sub_constants,
                cycles,
                np.stack([allocs[i].p for i in active]),
                np.stack([allocs[i].b for i in active]),
                np.stack([allocs[i].f_c for i in active]),
                np.stack([allocs[i].f_s for i in active]),
            )
            s3_elapsed = time.perf_counter() - s3_start
            for j, i in enumerate(active):
                allocs[i] = allocs[i].with_updates(
                    p=batch3.p[j],
                    b=batch3.b[j],
                    f_c=batch3.f_c[j],
                    f_s=batch3.f_s[j],
                    T=float(batch3.T[j]),
                )
                s3_results[i] = Stage3Result(
                    p=batch3.p[j],
                    b=batch3.b[j],
                    f_c=batch3.f_c[j],
                    f_s=batch3.f_s[j],
                    T=float(batch3.T[j]),
                    value=float(batch3.value[j]),
                    outer_iterations=int(batch3.outer_iterations[j]),
                    runtime_s=s3_elapsed,
                    history=batch3.histories[j],
                    transform_gap=batch3.transform_gaps[j],
                    converged=bool(batch3.converged[j]),
                )
                histories[i].append(problems[i].objective(allocs[i]))
            outer_counts[active] += 1
            # ε as a relative tolerance once |F| exceeds 1 (same stopping
            # rule as the scalar Alg. 4 loop).
            done = np.array(
                [
                    abs(histories[i][-1] - histories[i][-2])
                    <= configs[i].tolerance * max(1.0, abs(histories[i][-1]))
                    for i in active
                ]
            )
            converged[active[done]] = True
            active = active[~done]
            if len(active) == 0:
                break

        runtime = time.perf_counter() - start
        return [
            QuHEResult(
                allocation=allocs[i],
                metrics=problems[i].metrics(allocs[i]),
                objective_history=histories[i],
                stage1=stage1[i],
                stage2=s2_results[i],
                stage3=s3_results[i],
                stage1_calls=1,
                stage2_calls=int(outer_counts[i]),
                stage3_calls=int(outer_counts[i]),
                outer_iterations=int(outer_counts[i]),
                runtime_s=runtime,
                converged=bool(converged[i]),
            )
            for i in range(k)
        ]

    # -- Stage 2 ----------------------------------------------------------------

    def _stage2_batch(
        self,
        configs: List[SystemConfig],
        allocs: List[Allocation],
        constants: Stage3Constants,
        active: np.ndarray,
        lam_set: np.ndarray,
        per_sample: np.ndarray,
        msl_bits: np.ndarray,
        u_qkd: np.ndarray,
        tokens_ratio: np.ndarray,
        privacy: np.ndarray,
        alpha: Dict[str, np.ndarray],
    ):
        """Vectorized Stage-2: tables ``(K, n, m)`` and an exact λ argmax."""
        k = len(configs)
        n = configs[0].num_clients
        m = per_sample.shape[1]
        p = np.stack([a.p for a in allocs])
        b = np.stack([a.b for a in allocs])
        f_c = np.stack([a.f_c for a in allocs])
        f_s = np.stack([a.f_s for a in allocs])
        gains = constants.gains[active]
        noise = constants.noise_psd[active]
        d_tr = constants.d_tr[active]
        enc_cycles = constants.enc_cycles[active]
        kappa_c = constants.kappa_c[active]
        kappa_s = constants.kappa_s[active]
        rates = np.stack(
            [
                uplink_rate(b[j], p[j], gains[j], noise_psd=float(noise[j, 0]))
                for j in range(k)
            ]
        )
        base_delay = enc_cycles / f_c + d_tr / rates
        enc_e = kappa_c * enc_cycles * f_c**2
        tr_e = p * d_tr / rates
        constant = alpha["alpha_qkd"] * u_qkd - alpha["alpha_e"] * np.sum(
            enc_e + tr_e, axis=-1
        )
        # Tables over the λ choices: cycles (K, n, m), benefit, delay.
        cycles_tab = per_sample[:, None, :] * tokens_ratio[:, :, None]
        e_cmp = kappa_s[:, :, None] * cycles_tab * (f_s**2)[:, :, None]
        benefit = (
            alpha["alpha_msl"][:, None, None]
            * privacy[:, :, None]
            * msl_bits[:, None, :]
            - alpha["alpha_e"][:, None, None] * e_cmp
        )
        delay = base_delay[:, :, None] + cycles_tab / f_s[:, :, None]

        if float(m) ** n <= _MAX_ENUMERATION:
            # Exact vectorized enumeration of all m^n assignments, in the
            # same most-significant-digit-first order as itertools.product
            # (ties therefore break identically to the exhaustive solver).
            benefit_sum = np.zeros((k, 1))
            delay_max = np.zeros((k, 1))
            for client in range(n):
                benefit_sum = (
                    benefit_sum[:, :, None] + benefit[:, client, None, :]
                ).reshape(k, -1)
                delay_max = np.maximum(
                    delay_max[:, :, None],
                    np.broadcast_to(
                        delay[:, client, None, :], (k, delay_max.shape[1], m)
                    ),
                ).reshape(k, -1)
            value = constant[:, None] + benefit_sum - alpha["alpha_t"][:, None] * delay_max
            flat = np.argmax(value, axis=-1)
            digits = np.empty((k, n), dtype=int)
            rest = flat.copy()
            for client in range(n - 1, -1, -1):
                digits[:, client] = rest % m
                rest //= m
            lam = np.take_along_axis(lam_set, digits, axis=1)
            rows = np.arange(k)
            t_induced = delay_max[rows, flat]
            best = value[rows, flat]
            nodes = np.full(k, m**n)
            return lam, t_induced, best, nodes

        # Assignment space too large to enumerate: scalar B&B per config.
        lam_list, t_list, v_list, n_list = [], [], [], []
        for cfg, alloc in zip(configs, allocs):
            result = BranchAndBoundSolver(cfg).solve(alloc)
            lam_list.append(result.lam)
            t_list.append(result.T)
            v_list.append(result.value)
            n_list.append(result.nodes_explored)
        return (
            np.stack(lam_list),
            np.array(t_list),
            np.array(v_list),
            np.array(n_list),
        )

