"""Stage 3 of QuHE (Alg. 3): powers, bandwidths, CPU frequencies and T.

With φ, w, λ fixed, Problem P1 reduces to Problem P5 (Eq. 24): minimise the
energy plus delay terms.  The only non-convex piece is the transmission
energy ``p_n d_n / r_n``; the paper applies the quadratic transform of
fractional programming (Eq. 25-26, after Zhao et al. [28]):

    ``p d / r  →  (p d)² z + 1 / (4 r² z)``   with   ``z* = 1 / (2 p d r)``

which is convex in ``(p, b, f_c, f_s, T)`` for fixed ``z`` and tight at
``z*``.  Alg. 3 alternates the closed-form ``z`` update with the convex
solve (SciPy SLSQP here, CVX in the paper) until the objective converges.

Variables are scaled (W, MHz, GHz, kilo-seconds) so SLSQP sees O(1)
magnitudes; see DESIGN.md §3 on the CVX→SciPy substitution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List

import numpy as np
from scipy import optimize

from repro.core.config import SystemConfig
from repro.core.solution import Allocation
from repro.errors import SolverError
from repro.wireless.rate import uplink_rate

#: Internal unit scales (SI value = scaled value × scale).
_B_SCALE = 1e6    # bandwidth in MHz
_F_SCALE = 1e9    # frequencies in GHz
_T_SCALE = 1e3    # delay bound in ks


@dataclass(frozen=True)
class Stage3Result:
    """Outcome of Stage 3.

    ``value`` is the Problem-P5 objective (the λ/φ-independent part of
    Eq. 17); ``history`` records it per outer (z-update) iteration — the
    POBJ trace of Fig. 4(c).  ``transform_gap`` records
    ``Σ_n |p d / r − f_tr(b, p, z)|`` per iteration, the quantity that
    certifies the quadratic transform has become tight (the role played by
    the duality gap in Fig. 4(d)).
    """

    p: np.ndarray
    b: np.ndarray
    f_c: np.ndarray
    f_s: np.ndarray
    T: float
    value: float
    outer_iterations: int
    runtime_s: float
    history: List[float] = field(default_factory=list)
    transform_gap: List[float] = field(default_factory=list)
    converged: bool = True


class Stage3Solver:
    """Fractional-programming alternation for Problem P6 (Eq. 28).

    Two interchangeable inner engines solve the convex subproblem:

    * ``inner="ipm"`` (default) — the batched log-barrier Newton core of
      :mod:`repro.core.stage3_ipm`, run here with a batch of one.  This is
      the same code path the batched solver uses for K configs at once, so
      scalar and batched results agree by construction.
    * ``inner="slsqp"`` — the legacy SciPy SLSQP formulation, kept as an
      independent reference implementation (the ablation suite and the
      equivalence tests compare against it).
    """

    def __init__(
        self,
        config: SystemConfig,
        *,
        max_outer_iterations: int = 40,
        max_inner_iterations: int = 300,
        inner: str = "ipm",
    ) -> None:
        if inner not in ("ipm", "slsqp"):
            raise ValueError(f"unknown inner engine {inner!r}")
        self.config = config
        self.max_outer_iterations = int(max_outer_iterations)
        self.max_inner_iterations = int(max_inner_iterations)
        self.inner = inner

    # -- objective pieces -------------------------------------------------------

    def _rates(self, p: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.asarray(
            uplink_rate(b, p, self.config.channel_gains, noise_psd=self.config.noise_psd),
            dtype=float,
        )

    def _energy_terms(
        self, p: np.ndarray, b: np.ndarray, f_c: np.ndarray, f_s: np.ndarray,
        cycles: np.ndarray,
    ) -> tuple:
        cfg = self.config
        e_enc = cfg.client_capacitance * cfg.encryption_cycles * f_c**2
        e_cmp = cfg.server.switched_capacitance * cycles * f_s**2
        e_tr = p * cfg.upload_bits / self._rates(p, b)
        return e_enc, e_cmp, e_tr

    def p5_objective(self, alloc: Allocation) -> float:
        """The (maximisation) Problem-P5 objective at a full allocation."""
        cfg = self.config
        cycles = cfg.server_cycle_demand(alloc.lam)
        e_enc, e_cmp, e_tr = self._energy_terms(alloc.p, alloc.b, alloc.f_c, alloc.f_s, cycles)
        delays = self._delays(alloc.p, alloc.b, alloc.f_c, alloc.f_s, cycles)
        t = float(np.max(delays)) if alloc.T is None else float(alloc.T)
        return float(-cfg.alpha_e * np.sum(e_enc + e_cmp + e_tr) - cfg.alpha_t * t)

    def _delays(
        self, p: np.ndarray, b: np.ndarray, f_c: np.ndarray, f_s: np.ndarray,
        cycles: np.ndarray,
    ) -> np.ndarray:
        cfg = self.config
        return (
            cfg.encryption_cycles / f_c
            + cfg.upload_bits / self._rates(p, b)
            + cycles / f_s
        )

    # -- the convex subproblem for fixed z ---------------------------------------

    def _rate_partials(self, p: np.ndarray, b: np.ndarray) -> tuple:
        """Vectorised (∂r/∂b, ∂r/∂p) of the Shannon rate."""
        cfg = self.config
        g = cfg.channel_gains
        s = p * g / (cfg.noise_psd * b)
        ln2 = np.log(2.0)
        d_b = np.log2(1.0 + s) - s / ((1.0 + s) * ln2)
        d_p = g / (cfg.noise_psd * (1.0 + s) * ln2)
        return d_b, d_p

    def _solve_subproblem(
        self,
        z: np.ndarray,
        x0: np.ndarray,
        cycles: np.ndarray,
    ) -> optimize.OptimizeResult:
        cfg = self.config
        n = cfg.num_clients
        d_tr = cfg.upload_bits

        def split(x: np.ndarray):
            p = x[:n]
            b = x[n : 2 * n] * _B_SCALE
            f_c = x[2 * n : 3 * n] * _F_SCALE
            f_s = x[3 * n : 4 * n] * _F_SCALE
            t = x[4 * n] * _T_SCALE
            return p, b, f_c, f_s, t

        def objective(x: np.ndarray):
            p, b, f_c, f_s, t = split(x)
            r = self._rates(p, b)
            f_tr = (p * d_tr) ** 2 * z + 1.0 / (4.0 * r**2 * z)
            e_enc = cfg.client_capacitance * cfg.encryption_cycles * f_c**2
            e_cmp = cfg.server.switched_capacitance * cycles * f_s**2
            value = float(cfg.alpha_e * np.sum(e_enc + e_cmp + f_tr) + cfg.alpha_t * t)
            # Analytic gradient in the scaled variables.
            r_b, r_p = self._rate_partials(p, b)
            grad = np.empty_like(x)
            quad_tail = -1.0 / (2.0 * r**3 * z)  # d(1/(4 r² z))/dr
            grad[:n] = cfg.alpha_e * (2.0 * d_tr**2 * p * z + quad_tail * r_p)
            grad[n : 2 * n] = cfg.alpha_e * quad_tail * r_b * _B_SCALE
            grad[2 * n : 3 * n] = (
                cfg.alpha_e * 2.0 * cfg.client_capacitance * cfg.encryption_cycles * f_c * _F_SCALE
            )
            grad[3 * n : 4 * n] = (
                cfg.alpha_e * 2.0 * cfg.server.switched_capacitance * cycles * f_s * _F_SCALE
            )
            grad[4 * n] = cfg.alpha_t * _T_SCALE
            return value, grad

        def delay_constraint(x: np.ndarray) -> np.ndarray:
            p, b, f_c, f_s, t = split(x)
            return (t - self._delays(p, b, f_c, f_s, cycles)) / _T_SCALE

        def delay_jacobian(x: np.ndarray) -> np.ndarray:
            p, b, f_c, f_s, _ = split(x)
            r = self._rates(p, b)
            r_b, r_p = self._rate_partials(p, b)
            jac = np.zeros((n, 4 * n + 1))
            rows = np.arange(n)
            jac[rows, rows] = d_tr * r_p / r**2 / _T_SCALE
            jac[rows, n + rows] = d_tr * r_b / r**2 * _B_SCALE / _T_SCALE
            jac[rows, 2 * n + rows] = (
                cfg.encryption_cycles / f_c**2 * _F_SCALE / _T_SCALE
            )
            jac[rows, 3 * n + rows] = cycles / f_s**2 * _F_SCALE / _T_SCALE
            jac[:, 4 * n] = 1.0
            return jac

        bw_vector = np.zeros(4 * n + 1)
        bw_vector[n : 2 * n] = -1.0
        cpu_vector = np.zeros(4 * n + 1)
        cpu_vector[3 * n : 4 * n] = -1.0

        def bandwidth_constraint(x: np.ndarray) -> float:
            return cfg.server.total_bandwidth_hz / _B_SCALE - float(np.sum(x[n : 2 * n]))

        def server_cpu_constraint(x: np.ndarray) -> float:
            return cfg.server.total_frequency_hz / _F_SCALE - float(np.sum(x[3 * n : 4 * n]))

        bounds = (
            [(1e-4 * cfg.max_power[i], cfg.max_power[i]) for i in range(n)]
            + [(1e-3, cfg.server.total_bandwidth_hz / _B_SCALE)] * n
            + [
                (1e-3, cfg.client_max_frequency[i] / _F_SCALE)
                for i in range(n)
            ]
            + [(1e-3, cfg.server.total_frequency_hz / _F_SCALE)] * n
            + [(0.0, None)]
        )
        constraints = [
            {"type": "ineq", "fun": delay_constraint, "jac": delay_jacobian},
            {"type": "ineq", "fun": bandwidth_constraint, "jac": lambda x: bw_vector},
            {"type": "ineq", "fun": server_cpu_constraint, "jac": lambda x: cpu_vector},
        ]
        return optimize.minimize(
            objective,
            x0,
            jac=True,
            method="SLSQP",
            bounds=bounds,
            constraints=constraints,
            options={
                "maxiter": self.max_inner_iterations,
                "ftol": self.config.tolerance * 1e-3,
            },
        )

    # -- Alg. 3 -------------------------------------------------------------------

    def solve(self, alloc: Allocation) -> Stage3Result:
        """Alternate the Eq. 25 z-update with the convex solve until converged."""
        if self.inner == "ipm":
            return self._solve_ipm(alloc)
        return self._solve_slsqp(alloc)

    def _solve_ipm(self, alloc: Allocation) -> Stage3Result:
        """Run the shared batched core with a batch of one."""
        from repro.core.batch import ConfigBatch
        from repro.core.stage3_ipm import solve_stage3_batch

        cfg = self.config
        start = time.perf_counter()
        constants = ConfigBatch.from_configs([cfg]).stage3_constants()
        cycles = cfg.server_cycle_demand(alloc.lam)
        result = solve_stage3_batch(
            constants,
            cycles[None, :],
            alloc.p[None, :],
            alloc.b[None, :],
            alloc.f_c[None, :],
            alloc.f_s[None, :],
            max_outer_iterations=self.max_outer_iterations,
        )
        runtime = time.perf_counter() - start
        return Stage3Result(
            p=result.p[0],
            b=result.b[0],
            f_c=result.f_c[0],
            f_s=result.f_s[0],
            T=float(result.T[0]),
            value=float(result.value[0]),
            outer_iterations=int(result.outer_iterations[0]),
            runtime_s=runtime,
            history=result.histories[0],
            transform_gap=result.transform_gaps[0],
            converged=bool(result.converged[0]),
        )

    def _solve_slsqp(self, alloc: Allocation) -> Stage3Result:
        """The legacy SciPy SLSQP alternation (reference implementation)."""
        cfg = self.config
        n = cfg.num_clients
        cycles = cfg.server_cycle_demand(alloc.lam)
        p = np.clip(alloc.p, 1e-4 * cfg.max_power, cfg.max_power)
        b = np.clip(alloc.b, 1e3, None)
        # Keep the initial bandwidths inside Σb ≤ B_total.
        if np.sum(b) > cfg.server.total_bandwidth_hz:
            b = b * cfg.server.total_bandwidth_hz / np.sum(b)
        f_c = np.clip(alloc.f_c, 1e6, cfg.client_max_frequency)
        f_s = np.clip(alloc.f_s, 1e6, None)
        if np.sum(f_s) > cfg.server.total_frequency_hz:
            f_s = f_s * cfg.server.total_frequency_hz / np.sum(f_s)

        history: List[float] = []
        gaps: List[float] = []
        start = time.perf_counter()
        previous = -np.inf
        converged = False
        outer = 0
        for outer in range(1, self.max_outer_iterations + 1):
            # Eq. 25: closed-form z update at the current point.
            r = self._rates(p, b)
            z = 1.0 / (2.0 * p * cfg.upload_bits * r)
            t0 = float(np.max(self._delays(p, b, f_c, f_s, cycles)))
            x0 = np.concatenate(
                [p, b / _B_SCALE, f_c / _F_SCALE, f_s / _F_SCALE, [t0 / _T_SCALE]]
            )
            result = self._solve_subproblem(z, x0, cycles)
            x = result.x
            p = x[:n]
            b = x[n : 2 * n] * _B_SCALE
            f_c = x[2 * n : 3 * n] * _F_SCALE
            f_s = x[3 * n : 4 * n] * _F_SCALE
            t = float(x[4 * n] * _T_SCALE)
            candidate = Allocation(
                phi=alloc.phi, w=alloc.w, lam=alloc.lam,
                p=p, b=b, f_c=f_c, f_s=f_s, T=t,
            )
            value = self.p5_objective(candidate)
            history.append(value)
            r_new = self._rates(p, b)
            f_tr = (p * cfg.upload_bits) ** 2 * z + 1.0 / (4.0 * r_new**2 * z)
            gaps.append(float(np.sum(np.abs(p * cfg.upload_bits / r_new - f_tr))))
            if np.isfinite(previous) and abs(value - previous) <= cfg.tolerance:
                converged = True
                break
            previous = value
        runtime = time.perf_counter() - start
        # Re-derive T as the exact max delay (Eq. 23-style tightening).
        t_final = float(np.max(self._delays(p, b, f_c, f_s, cycles)))
        return Stage3Result(
            p=p,
            b=b,
            f_c=f_c,
            f_s=f_s,
            T=t_final,
            value=history[-1],
            outer_iterations=outer,
            runtime_s=runtime,
            history=history,
            transform_gap=gaps,
            converged=converged,
        )


def solve_with_fallback(config: SystemConfig, alloc: Allocation) -> Stage3Result:
    """Stage 3 on the IPM, re-solved on the SLSQP reference if it raises.

    The graceful degradation :class:`~repro.api.service.SolverService`
    applies to whole solves, for the callers that run Stage 3 on its own
    (Fig. 4's first pass and the OCCR baseline): a
    :class:`~repro.errors.SolverError` of the IPM re-solves the same start
    with ``inner="slsqp"``.
    """
    try:
        return Stage3Solver(config).solve(alloc)
    except SolverError:
        return Stage3Solver(config, inner="slsqp").solve(alloc)
