"""Batched Stage-3 core: Alg. 3 vectorized over a leading config axis.

The Stage-3 subproblem (Problem P6, Eq. 28 — the convex program obtained
from P5 by the quadratic transform at fixed ``z``) is solved here by a
log-barrier interior-point Newton method written entirely in NumPy, with
every quantity carrying a leading batch axis of ``K`` independent
configurations.  One Newton step therefore advances *all* configs at once:
the Hessian assembly, the batched ``(K, 4n+1, 4n+1)`` linear solves and the
backtracking line searches are single vectorized passes, so the per-config
cost of a batch shrinks roughly as ``1/K`` until BLAS dominates.

The scalar :class:`~repro.core.stage3.Stage3Solver` delegates to this module
with ``K = 1``, so the batched and scalar paths execute the *same*
floating-point algorithm — the foundation of the batched ≡ scalar
equivalence contract (``tests/core/test_batched.py``): any future change to
the math changes both sides identically.

Alg. 3 structure: the quadratic-transform weights ``z`` enter only the
*objective* — every constraint (delay epigraph, budgets, boxes) is
z-independent.  The solver exploits this Dinkelbach-style: the barrier path
is climbed once, for the initial ``z``, and each subsequent alternation
round (closed-form Eq. 25 ``z`` update → re-center) warm-starts from the
previous central point at the final barrier weight, where a handful of
Newton steps suffice.  Every round still ends at the exact optimum of its
fixed-``z`` subproblem (to the ``m/t`` duality-gap tolerance), so the
recorded objective history keeps the monotone-improvement property of the
alternation and the transform gap traces tightness exactly as in the
scalar SLSQP formulation.  Rounds terminate per config: a config freezes
once its P5 objective moves by less than its own ε, and the remaining
configs continue on a shrinking active set.

Problem structure exploited by the Hessian assembly:

* the objective and the per-client delay constraint couple only the
  variables of one client (a 4×4 block over ``(p_n, b_n, f_c_n, f_s_n)``
  plus the shared ``T`` column),
* the bandwidth/CPU budget constraints are linear (rank-one barrier terms
  over the ``b`` / ``f_s`` slices),
* box bounds contribute only to the diagonal,

so the full matrix is assembled with vectorized scatters — no Python loop
over clients or constraints.

The Newton loop (:meth:`_Subproblem.newton`) spends its evaluations only
where they can change the answer:

* **fused slacks** — :meth:`_Subproblem._state` keeps every constraint
  slack of a config in one row of a ``(K, m+1)`` matrix
  (``σ | s_b | s_f | lower | upper``), so the domain test, the log-barrier
  and the step bound are a few whole-matrix operations.  φ keeps its
  summation grouping and every Hessian entry its order of additions;
* **step bound** — before each line search, :meth:`_Subproblem.step_bound`
  computes per config a step length from which on some slack is provably
  ≤ 0 (the box and budget slacks are linear in the step; the concave delay
  slack lies below its tangent), with a margin scaled to the magnitudes
  each slack is computed from.  The halving starts at the first trial
  ``2^-j`` below it, so every skipped trial is one the line search would
  have rejected with a +inf barrier, and every accepted step is bitwise the
  one found by halving from ``α = 1`` (Boyd & Vandenberghe, *Convex
  Optimization* §9.2, backtrack until the trial is in ``dom f``);
* **working set** — a config stops on the decrement test, a failed line
  search or a stall (or at once, with an infinite target); its point is
  written back and :meth:`_Subproblem.select` drops it, so later
  iterations evaluate only configs still moving.  Each config's rows are
  computed independently of its batch-mates, so its result, Newton
  iteration count included, is the same in any batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from repro import faults as _faults
from repro.errors import SolverError

#: Internal unit scales shared with :mod:`repro.core.stage3` (SI = scaled × S).
B_SCALE = 1e6   # bandwidth in MHz
F_SCALE = 1e9   # frequencies in GHz
T_SCALE = 1e3   # delay bound in ks

_LN2 = float(np.log(2.0))

#: Barrier-path parameters.  ``_MU`` is the t-multiplier between centering
#: stages; the duality gap of the final stage is ``m / t_final`` per config.
_MU = 60.0
_T0_MIN, _T0_MAX = 1.0, 1e7
#: Newton decrement targets: loose while climbing the path, tight at the
#: final barrier weight (where the reported optima live).
_NEWTON_TOL_PATH = 1e-7
_NEWTON_TOL_FINAL = 1e-11
_MAX_NEWTON = 60
_MAX_BACKTRACK = 45
#: 0 (no trial), then every line-search trial 2^-44 … 2^0 in ascending order.
_TRIALS = np.concatenate(([0.0], 2.0 ** np.arange(1 - _MAX_BACKTRACK, 1.0)))
_MIN_STEP = _TRIALS[1]  # the last line-search trial
_ARMIJO = 0.25
#: Relative rounding margin of the line-search step bound (~8192 ulps of the
#: magnitudes a slack is computed from; see ``_Subproblem.step_bound``).
_SKIP_MARGIN = 2.0**-40

_add = np.add.reduce  # np.sum without its Python wrapper (same bits)


@dataclass(frozen=True)
class Stage3Constants:
    """Per-batch constants of the Stage-3 block, stacked ``(K, n)`` / ``(K, 1)``.

    Built once per batch by
    :meth:`~repro.core.batch.ConfigBatch.stage3_constants`; ``cycles`` (which
    depends on the Stage-2 ``λ``) is passed per solve instead.
    """

    d_tr: np.ndarray        # (K, n) upload bits
    gains: np.ndarray       # (K, n) channel gains
    noise_psd: np.ndarray   # (K, 1)
    kappa_c: np.ndarray     # (K, n) client switched capacitance
    enc_cycles: np.ndarray  # (K, n) encryption cycles
    kappa_s: np.ndarray     # (K, 1) server switched capacitance
    p_max: np.ndarray       # (K, n)
    fc_max: np.ndarray      # (K, n)
    b_total: np.ndarray     # (K, 1)
    fs_total: np.ndarray    # (K, 1)
    alpha_e: np.ndarray     # (K, 1)
    alpha_t: np.ndarray     # (K, 1)
    tolerance: np.ndarray   # (K,)  solution accuracy ε per config

    @property
    def batch(self) -> int:
        return self.d_tr.shape[0]

    @property
    def n(self) -> int:
        return self.d_tr.shape[1]

    def subset(self, index: np.ndarray) -> "Stage3Constants":
        """The constants of the configs selected by an index array."""
        return Stage3Constants(
            **{
                name: getattr(self, name)[index]
                for name in self.__dataclass_fields__
            }
        )


@dataclass
class Stage3BatchResult:
    """Outcome of the batched Alg. 3 for every config in the batch."""

    p: np.ndarray           # (K, n)
    b: np.ndarray           # (K, n)
    f_c: np.ndarray         # (K, n)
    f_s: np.ndarray         # (K, n)
    T: np.ndarray           # (K,) exact max delay (Eq. 23 tightening)
    value: np.ndarray       # (K,) final P5 objective
    outer_iterations: np.ndarray      # (K,) int
    converged: np.ndarray             # (K,) bool
    histories: List[List[float]] = field(default_factory=list)       # per config
    transform_gaps: List[List[float]] = field(default_factory=list)  # per config


# -- elementary pieces ---------------------------------------------------------


def _rates(con: Stage3Constants, p: np.ndarray, b: np.ndarray) -> np.ndarray:
    snr = p * con.gains / (con.noise_psd * b)
    return b * np.log2(1.0 + snr)


def _delays(con: Stage3Constants, cycles, p, b, f_c, f_s) -> np.ndarray:
    r = _rates(con, p, b)
    return con.enc_cycles / f_c + con.d_tr / r + cycles / f_s


def _p5_value(con: Stage3Constants, cycles, p, b, f_c, f_s) -> np.ndarray:
    """The (maximisation) Problem-P5 objective per config, T = max delay."""
    r = _rates(con, p, b)
    e = (
        con.kappa_c * con.enc_cycles * f_c**2
        + con.kappa_s * cycles * f_s**2
        + p * con.d_tr / r
    )
    delays = con.enc_cycles / f_c + con.d_tr / r + cycles / f_s
    return -(
        con.alpha_e[:, 0] * np.sum(e, axis=-1)
        + con.alpha_t[:, 0] * np.max(delays, axis=-1)
    )


def _into_budget(x: np.ndarray, floor: float, total: np.ndarray) -> np.ndarray:
    """Clip each row of ``x`` to ``floor`` and rescale it into ``0.995·total``.

    The rescale divides the whole row.  Where that would put an entry below
    its floor — outside the barrier's domain — only the excess above the
    floor shrinks instead, when the budget holds every floor.
    """
    x = np.clip(x, floor, None)
    cap = 0.995 * total
    scaled = x / np.maximum(np.sum(x, axis=-1, keepdims=True) / cap, 1.0)
    room = cap - floor * x.shape[-1]  # the budget left above the floors
    low = np.any(scaled < floor, axis=-1, keepdims=True) & (room > 0)
    if not low.any():
        return scaled
    excess = x - floor
    with np.errstate(divide="ignore", invalid="ignore"):
        shrunk = floor + excess * (room / np.sum(excess, axis=-1, keepdims=True))
    return np.where(low, shrunk, scaled)


def strict_interior_start(con: Stage3Constants, cycles, p, b, f_c, f_s):
    """Clip an allocation into the strict interior of the feasible set.

    Mirrors the legacy SLSQP preparation (clip to boxes, rescale into the
    budgets) and then pulls every quantity strictly inside — the barrier
    needs positive slack on every constraint, bounds included.
    """
    p = np.clip(p, 1.0001e-4 * con.p_max, (1.0 - 1e-7) * con.p_max)
    b = _into_budget(b, 1.0001e-3 * B_SCALE, con.b_total)
    f_c = np.clip(f_c, 1.0001e-3 * F_SCALE, (1.0 - 1e-7) * con.fc_max)
    f_s = _into_budget(f_s, 1.0001e-3 * F_SCALE, con.fs_total)
    delays = _delays(con, cycles, p, b, f_c, f_s)
    t = np.max(delays, axis=-1) * (1.0 + 1e-6) + 1e-9
    return p, b, f_c, f_s, t


# -- the barrier solver --------------------------------------------------------


@lru_cache(maxsize=None)
def _layout(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index constants of a ``n``-client subproblem (cached, read-only).

    ``idx4[i]`` are the variable indices of client ``i``'s ``(p, b, f_c,
    f_s)`` block.  ``scatter`` are the flat Hessian positions of every
    client's 4×4 block, then of the ``T`` column and the ``T`` row beside
    them (all distinct).  ``lin`` maps a step ``d`` (K, 4n+1) to the rate
    of change of the linear slack columns ``s_b | s_f | lower | upper``
    along it; ``reach`` stacks it over ``_SKIP_MARGIN · |lin|``, so
    ``[d, |d|] @ reach`` is their slope plus its rounding margin.
    """
    dim = 4 * n + 1
    cols = np.arange(n)
    idx4 = np.stack([cols, cols + n, cols + 2 * n, cols + 3 * n], axis=1)
    scatter = np.concatenate([
        (idx4[:, :, None] * dim + idx4[:, None, :]).ravel(),
        (idx4 * dim + 4 * n).ravel(),
        (4 * n * dim + idx4).ravel(),
    ])
    lin = np.zeros((dim, 2 + 2 * dim))
    lin[n:2 * n, 0] = -1.0
    lin[3 * n:4 * n, 1] = -1.0
    lin[:, 2:2 + dim] = np.eye(dim)
    lin[:-1, 2 + dim:-1] = -np.eye(dim - 1)  # T has no upper bound
    reach = np.concatenate((lin, _SKIP_MARGIN * np.abs(lin)))
    for shared in (idx4, scatter, reach):
        shared.setflags(write=False)
    return idx4, scatter, reach


def _first_trial(bound: np.ndarray) -> np.ndarray:
    """The first line-search trial under a step bound, per config.

    The largest trial ``2^-j`` (``j = 0 … 44``) strictly below ``bound``, or
    0 when every trial is at or above it — found by exact comparison with
    the trials themselves.  A NaN or infinite bound skips nothing.
    """
    return _TRIALS[np.searchsorted(_TRIALS[1:], bound)]


class _Subproblem:
    """One batched instance of Problem P6; ``z`` is updated between rounds.

    The ``m`` constraint slacks of a config live in one row of a
    ``(K, m + 1)`` matrix, columns ``σ (n) | s_b | s_f | lower (dim) |
    upper (dim)``.  The last column is the upper slack of the unbounded
    ``T``: a constant 1, whose log adds nothing to the barrier.
    """

    def __init__(self, con: Stage3Constants, cycles: np.ndarray, z: np.ndarray):
        self.con = con
        self.cycles = np.asarray(cycles, dtype=float)
        self.z = np.asarray(z, dtype=float)
        k, n = con.batch, con.n
        self.k, self.n = k, n
        self.dim = dim = 4 * n + 1
        # Variable bounds in scaled space (+inf = unbounded above).
        lb = np.empty((k, dim))
        ub = np.empty((k, dim))
        lb[:, 0:n] = 1e-4 * con.p_max
        ub[:, 0:n] = con.p_max
        lb[:, n:2 * n] = 1e-3
        ub[:, n:2 * n] = con.b_total / B_SCALE
        lb[:, 2 * n:3 * n] = 1e-3
        ub[:, 2 * n:3 * n] = con.fc_max / F_SCALE
        lb[:, 3 * n:4 * n] = 1e-3
        ub[:, 3 * n:4 * n] = con.fs_total / F_SCALE
        lb[:, 4 * n] = 0.0
        ub[:, 4 * n] = np.inf
        self.lb, self.ub = lb, ub
        self.m = n + 2 + 2 * dim - 1  # constraint count (T unbounded above)
        self._b_cap = con.b_total[:, 0] / B_SCALE
        self._f_cap = con.fs_total[:, 0] / F_SCALE
        self._idx4, self._scatter, self._reach_lin = _layout(n)
        # Constant parts of the step bound's rounding margin (step_bound):
        # twice the budget or bound each linear slack is computed from, and
        # the rate term's and v_b's conditioning factors.
        self._room = np.zeros((k, self.m + 1))
        self._room[:, n] = self._b_cap
        self._room[:, n + 1] = self._f_cap
        self._room[:, n + 2:n + 2 + dim] = lb
        self._room[:, n + 2 + dim:-1] = ub[:, :-1]
        self._room *= 2.0 * _SKIP_MARGIN
        self._margin_rate = (_SKIP_MARGIN / (_LN2 * T_SCALE)) * con.d_tr
        self._margin_vb = (_SKIP_MARGIN * B_SCALE / T_SCALE) * con.d_tr
        # Constants reused every evaluation.
        self._c_snr = con.gains / con.noise_psd  # g/N0
        self._neg_c2 = -(self._c_snr**2)
        self._enc_e_coeff = con.kappa_c * con.enc_cycles
        self._cmp_e_coeff = con.kappa_s * self.cycles
        self._d_tr2 = con.d_tr**2
        self._d_tr_2 = 2.0 * con.d_tr
        self._neg_2enc = -2.0 * con.enc_cycles
        self._neg_2cyc = -2.0 * self.cycles

    def select(self, index: np.ndarray) -> "_Subproblem":
        """A sub-batch view: configs converge at different rounds, and a
        config whose Newton run stops leaves the working set."""
        return _Subproblem(
            self.con.subset(index), self.cycles[index], self.z[index]
        )

    # -- packing ---------------------------------------------------------------

    def split(self, x: np.ndarray):
        n = self.n
        return (
            x[:, 0:n],
            x[:, n:2 * n] * B_SCALE,
            x[:, 2 * n:3 * n] * F_SCALE,
            x[:, 3 * n:4 * n] * F_SCALE,
            x[:, 4 * n] * T_SCALE,
        )

    def pack(self, p, b, f_c, f_s, t) -> np.ndarray:
        return np.concatenate(
            [p, b / B_SCALE, f_c / F_SCALE, f_s / F_SCALE, t[:, None] / T_SCALE],
            axis=1,
        )

    # -- shared evaluation ------------------------------------------------------

    def _state(self, x: np.ndarray) -> dict:
        """Everything the barrier value *and* its derivatives share at ``x``.

        One code path for the slacks guarantees the line-search acceptance
        test and the Newton assembly agree bit for bit on which points are
        interior — the constraint slacks here shrink to ``~m/t`` so even
        one-ulp disagreements between two formulas would matter.
        """
        con, n, dim = self.con, self.n, self.dim
        p, b, f_c, f_s, t = self.split(x)
        c = self._c_snr
        s = p * c / b
        onep = 1.0 + s
        inv_r = 1.0 / (b * np.log2(onep))
        f_tr = (p * con.d_tr) ** 2 * self.z + 0.25 * inv_r**2 / self.z
        e = self._enc_e_coeff * f_c**2 + self._cmp_e_coeff * f_s**2 + f_tr
        f0 = con.alpha_e[:, 0] * _add(e, axis=-1) + con.alpha_t[:, 0] * t
        delays = con.enc_cycles / f_c + con.d_tr * inv_r + self.cycles / f_s
        slack = np.empty((len(x), self.m + 1))
        np.divide(t[:, None] - delays, T_SCALE, out=slack[:, :n])
        slack[:, n] = self._b_cap - _add(x[:, n:2 * n], axis=-1)
        slack[:, n + 1] = self._f_cap - _add(x[:, 3 * n:4 * n], axis=-1)
        np.subtract(x, self.lb, out=slack[:, n + 2:n + 2 + dim])
        np.subtract(self.ub, x, out=slack[:, n + 2 + dim:])
        slack[:, -1] = 1.0
        return {
            "p": p, "b": b, "f_c": f_c, "f_s": f_s,
            "s": s, "onep": onep, "inv_r": inv_r, "f0": f0, "slack": slack,
        }

    def objective(self, x: np.ndarray) -> np.ndarray:
        return self._state(x)["f0"]

    def min_slack(self, x: np.ndarray) -> np.ndarray:
        """Smallest constraint slack per config (scaled units)."""
        return np.minimum.reduce(self._state(x)["slack"][:, :-1], axis=-1)

    def _barrier_from_state(
        self, state: dict, t_barrier: np.ndarray
    ) -> np.ndarray:
        """``t·f0 + φ`` per config; +inf outside the domain."""
        slack, n = state["slack"], self.n
        lo, hi = n + 2, n + 2 + self.dim
        logs = np.log(np.maximum(slack, 1e-300))
        # φ grouped as σ, s_b, s_f, lower, upper.
        phi = (
            -_add(logs[:, :n], axis=-1)
            - logs[:, n]
            - logs[:, n + 1]
            - _add(logs[:, lo:hi], axis=-1)
            - _add(logs[:, hi:], axis=-1)
        )
        bad = np.logical_or.reduce(slack <= 0, axis=-1)
        return np.where(bad, np.inf, t_barrier * state["f0"] + phi)

    # -- Newton machinery -------------------------------------------------------

    def gradient_and_hessian(self, state: dict, t_barrier: np.ndarray):
        """Batched barrier gradient (K, dim), Hessian (K, dim, dim) and the
        delay-slack gradients ``v`` (K, n, 4).

        ``v[:, i]`` is ``∇σ_i`` over client ``i``'s ``(p, b, f_c, f_s)`` in
        scaled coordinates; its ``T`` component is exactly 1.  ``state``
        must come from :meth:`_state` at an interior point (every slack
        positive), which the caller guarantees via the line search.
        """
        con, n, dim = self.con, self.n, self.dim
        p, b, f_c, f_s = state["p"], state["b"], state["f_c"], state["f_s"]
        s, onep, inv_r = state["s"], state["onep"], state["inv_r"]
        k = p.shape[0]
        z = self.z
        # Shared subexpressions are computed once; every entry keeps its
        # expression (``a * b * c`` is ``(a * b) * c``), so its bits.
        tae = t_barrier[:, None] * con.alpha_e  # (K, 1)
        inv_r3 = inv_r**3

        # First/second partials of the Shannon rate wrt natural (p, b).
        c = self._c_snr
        r_p = c / (_LN2 * onep)
        r_b = np.log2(onep) - s / (onep * _LN2)
        common = 1.0 / (_LN2 * b * onep**2)
        r_pp = self._neg_c2 * common
        r_pb = c * s * common
        r_bb = -(s**2) * common
        rb_s = r_b * B_SCALE  # first derivative wrt scaled b~
        r_p2 = r_p**2
        rb_s2 = rb_s**2

        grad = np.zeros((k, dim))
        hess = np.zeros((k, dim, dim))
        flat = hess.reshape(k, dim * dim)
        diag = flat[:, ::dim + 1]  # view of the diagonals

        # ---- objective (x t_barrier) -----------------------------------------
        q_p = -0.5 * inv_r3 / z         # d(1/(4 r^2 z))/dr
        q_pp = 1.5 * inv_r**4 / z       # second derivative wrt r
        d2z2 = 2.0 * (self._d_tr2 * z)
        tae2 = tae * 2.0
        g_enc = tae2 * self._enc_e_coeff
        g_cmp = tae2 * self._cmp_e_coeff
        grad[:, 0:n] = tae * (d2z2 * p + q_p * r_p)
        grad[:, n:2 * n] = tae * q_p * rb_s
        grad[:, 2 * n:3 * n] = g_enc * f_c * F_SCALE
        grad[:, 3 * n:4 * n] = g_cmp * f_s * F_SCALE
        grad[:, 4 * n] = t_barrier * con.alpha_t[:, 0] * T_SCALE

        # Per-client (p, b) curvature of the objective: q''*grad_r grad_r^T + q'*Hr.
        o_pp = tae * (d2z2 + q_pp * r_p2 + q_p * r_pp)
        o_pb = tae * (q_pp * r_p * rb_s + q_p * r_pb * B_SCALE)
        o_bb = tae * (q_pp * rb_s2 + q_p * r_bb * B_SCALE**2)
        # Diagonal objective curvature of f_c / f_s.
        o_cc = g_enc * F_SCALE**2
        o_ss = g_cmp * F_SCALE**2

        # ---- delay-constraint barriers ---------------------------------------
        # Reciprocal slacks of every constraint at once; T's constant upper
        # slack has no barrier term.
        inv = 1.0 / state["slack"]
        inv[:, -1] = 0.0
        inv2 = inv**2
        inv_sig, inv_sig2 = inv[:, :n], inv2[:, :n]
        # grad sigma_n in scaled coordinates (the T component is exactly 1).
        dr2 = con.d_tr * inv_r**2
        v = np.empty(p.shape + (4,))                              # (K, n, 4)
        u_p = np.divide(dr2 * r_p, T_SCALE, out=v[..., 0])
        u_b = np.divide(dr2 * rb_s, T_SCALE, out=v[..., 1])
        u_c = np.multiply(con.enc_cycles / f_c**2, F_SCALE / T_SCALE, out=v[..., 2])
        u_s = np.multiply(self.cycles / f_s**2, F_SCALE / T_SCALE, out=v[..., 3])
        # Gradient: -sum_n grad sigma_n / sigma_n.
        grad[:, 0:n] -= u_p * inv_sig
        grad[:, n:2 * n] -= u_b * inv_sig
        grad[:, 2 * n:3 * n] -= u_c * inv_sig
        grad[:, 3 * n:4 * n] -= u_s * inv_sig
        grad[:, 4 * n] -= _add(inv_sig, axis=-1)

        # Curvature -H_sigma/sigma (block-diagonal per client, no T row): the
        # d/r term contributes (-2d/r^3 grad_r grad_r^T + d/r^2 Hr)/T_SCALE,
        # the f_c / f_s terms -2C/f^3 S_F^2/T_SCALE on the diagonal.
        neg_dr3 = -(self._d_tr_2 * inv_r3)
        hs_pp = (neg_dr3 * r_p2 + dr2 * r_pp) / T_SCALE
        hs_pb = (neg_dr3 * r_p * rb_s + dr2 * r_pb * B_SCALE) / T_SCALE
        hs_bb = (neg_dr3 * rb_s2 + dr2 * r_bb * B_SCALE**2) / T_SCALE
        hs_cc = self._neg_2enc / f_c**3 * (F_SCALE**2 / T_SCALE)
        hs_ss = self._neg_2cyc / f_s**3 * (F_SCALE**2 / T_SCALE)

        # Assemble per-client 4x4 blocks:
        #   (1/sigma^2) v v^T - (1/sigma) H_sigma + objective (p, b) block.
        block = inv_sig2[..., None, None] * (v[..., :, None] * v[..., None, :])
        pb = o_pb - inv_sig * hs_pb
        block[..., 0, 0] += o_pp - inv_sig * hs_pp
        block[..., 0, 1] += pb
        block[..., 1, 0] += pb
        block[..., 1, 1] += o_bb - inv_sig * hs_bb
        block[..., 2, 2] += o_cc - inv_sig * hs_cc
        block[..., 3, 3] += o_ss - inv_sig * hs_ss
        # T row/column of the rank-one barrier terms (v_T = 1), scattered
        # with the blocks in one pass (distinct positions of a zero matrix).
        tcol = (inv_sig2[..., None] * v).reshape(k, 4 * n)
        flat[:, self._scatter] += np.concatenate(
            (block.reshape(k, 16 * n), tcol, tcol), axis=1
        )
        hess[:, 4 * n, 4 * n] += _add(inv_sig2, axis=-1)

        # ---- budget barriers (linear -> rank-one) -----------------------------
        grad[:, n:2 * n] += inv[:, n, None]
        grad[:, 3 * n:4 * n] += inv[:, n + 1, None]
        hess[:, n:2 * n, n:2 * n] += inv2[:, n, None, None]
        hess[:, 3 * n:4 * n, 3 * n:4 * n] += inv2[:, n + 1, None, None]

        # ---- box-bound barriers ----------------------------------------------
        lo = state["slack"][:, n + 2:n + 2 + dim]
        grad -= inv[:, n + 2:n + 2 + dim]
        diag += 1.0 / lo**2
        grad += inv[:, n + 2 + dim:]
        diag += inv2[:, n + 2 + dim:]
        return grad, hess, v

    def step_bound(
        self, x: np.ndarray, state: dict, step: np.ndarray, v: np.ndarray
    ) -> np.ndarray:
        """Per config, a step length from which on some slack is provably ≤ 0.

        Every trial ``x + α·step`` with ``α`` at or above the bound has a
        slack that :meth:`_state` computes as ≤ 0, so its barrier value is
        +inf and the line search would reject it.  The box and budget slacks
        are linear in ``α``; the delay slack ``σ_i = T − delay_i`` is
        concave, so its tangent ``σ_i + α (step_T + v_i·step_i)`` bounds it
        from above.  Each prediction must reach ``−margin``, and the margin
        dominates the rounding of the slack computation and of the trial
        point: ``_SKIP_MARGIN`` times the magnitudes the slack is computed
        from — the budget or bound and ``|x|``; ``T`` and the delay terms —
        plus ``α`` times those of the step's terms, never the slack itself.
        For ``σ`` these include the conditioning of ``log2(1 + snr)`` (the
        rate term's relative error grows as ``u / ln(1 + snr)``) and of the
        ``b`` component of ``v`` (a difference of two ``~1/ln 2`` terms),
        both taken at the current point; ``tests/core/
        test_stage3_step_bound.py`` searches real and near-boundary states
        for a skipped trial inside the domain.  ``state`` must be interior.  A NaN in the state or the step gives a
        NaN or infinite bound, which skips nothing.
        """
        n = self.n
        slack, b, inv_r = state["slack"], state["b"], state["inv_r"]
        abs_step = np.abs(step)
        # reach: the slope of each slack's upper bound along the step.
        reach = np.empty_like(slack)
        reach[:, n:] = np.concatenate((step, abs_step), axis=1) @ self._reach_lin
        vd = v * step[:, self._idx4]
        reach[:, :n] = (
            _add(vd + _SKIP_MARGIN * np.abs(vd), axis=-1)
            + (step[:, 4 * n, None] + _SKIP_MARGIN * abs_step[:, 4 * n, None])
            + inv_r * (self._margin_vb * (1.0 / b + (2.0 / _LN2) * inv_r))
            * abs_step[:, n:2 * n]
        )
        # room: each slack's upper bound at the current point.
        room = slack * (1.0 + _SKIP_MARGIN) + self._room
        room[:, :n] += (2.0 * _SKIP_MARGIN) * x[:, 4 * n, None] + (
            self._margin_rate * inv_r * inv_r * b
        )
        alpha = np.full_like(room, np.inf)
        np.divide(room, -reach, out=alpha, where=reach < 0)
        return np.minimum.reduce(alpha, axis=-1)

    def newton(
        self,
        x: np.ndarray,
        t_barrier: np.ndarray,
        *,
        tol=_NEWTON_TOL_FINAL,
        max_iterations: int = _MAX_NEWTON,
    ) -> np.ndarray:
        """Batched damped Newton to the central point of ``t_barrier``.

        ``tol`` is the Newton-decrement stopping target, scalar or per
        config — the path stages use a loose target, the final stage a
        tight one, and an infinite target leaves a config where it is.  A
        config stops on the decrement test, a failed line search or a
        stall; its point is written back and it leaves the working set
        (:meth:`select`), so later iterations evaluate only moving configs.
        """
        out = np.array(x, dtype=float)
        tol = np.broadcast_to(np.asarray(tol, dtype=float), (len(out),))
        live = np.flatnonzero(tol < np.inf)
        if len(live) == 0:
            return out
        sub = self if len(live) == len(out) else self.select(live)
        x, t_barrier, tol = out[live], t_barrier[live], tol[live]
        stall = np.zeros(len(live), dtype=int)
        state = sub._state(x)
        value = sub._barrier_from_state(state, t_barrier)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for _ in range(max_iterations):
                value_before = value
                grad, hess, v = sub.gradient_and_hessian(state, t_barrier)
                step = _solve_spd(hess, -grad)
                gdot = np.einsum("ki,ki->k", grad, step)
                moving = -0.5 * gdot > tol
                if not moving.any():
                    break
                # Backtracking line search on the barrier (Armijo bound),
                # halving from the first power of two below the step bound:
                # the trials above it are provably outside the domain.  A
                # config past its decrement test takes no trial.  A config
                # off the domain gets no bound: its +inf barrier accepts any
                # trial, so a start outside the domain still moves.
                bound = np.where(
                    np.isfinite(value), sub.step_bound(x, state, step, v), np.inf
                )
                alpha = _first_trial(np.where(moving, bound, 0.0))
                accepted = np.zeros(len(x), dtype=bool)
                searching = alpha > 0
                while searching.any():
                    trial = x + alpha[:, None] * step
                    trial_state = sub._state(trial)
                    trial_value = sub._barrier_from_state(trial_state, t_barrier)
                    ok = searching & (
                        trial_value <= value + _ARMIJO * alpha * gdot
                    )
                    if ok.all():
                        x, value, state = trial, trial_value, trial_state
                        accepted = ok
                        break
                    if ok.any():
                        x = np.where(ok[:, None], trial, x)
                        value = np.where(ok, trial_value, value)
                        for key, arr in state.items():
                            new = trial_state[key]
                            state[key] = np.where(
                                ok.reshape((-1,) + (1,) * (new.ndim - 1)),
                                new,
                                arr,
                            )
                        accepted |= ok
                    alpha = np.where(
                        searching & ~ok & (alpha > _MIN_STEP), 0.5 * alpha, 0.0
                    )
                    searching = alpha > 0
                # Configs whose line search found no acceptable step are
                # done, and so are configs making only float64-noise progress
                # twice in a row — near the cancellation limit of the slack
                # subtraction no better point is representable.
                progress = value_before - value
                tiny = progress <= 1e-10 * (1.0 + np.abs(value))
                stall = np.where(tiny, stall + 1, 0)
                moving &= accepted & (stall < 2)
                if not moving.all():
                    out[live[~moving]] = x[~moving]
                    if not moving.any():
                        return out
                    live, x, value = live[moving], x[moving], value[moving]
                    t_barrier, tol = t_barrier[moving], tol[moving]
                    stall = stall[moving]
                    state = {key: arr[moving] for key, arr in state.items()}
                    sub = sub.select(moving)
        out[live] = x
        return out


def _solve_spd(hess: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Batched SPD solve with a ridge fallback for near-singular members."""
    try:
        return np.linalg.solve(hess, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        pass
    dim = hess.shape[-1]
    eye = np.eye(dim)
    ridge = 1e-12 * np.maximum(
        np.abs(np.diagonal(hess, axis1=-2, axis2=-1)).max(axis=-1), 1.0
    )
    for _ in range(8):
        try:
            return np.linalg.solve(
                hess + ridge[:, None, None] * eye, rhs[..., None]
            )[..., 0]
        except np.linalg.LinAlgError as exc:
            ridge = ridge * 100.0
            last = exc
    raise SolverError(
        "stage-3 Newton system is singular after ridge escalation"
    ) from last


# -- the batched Alg. 3 alternation -------------------------------------------


def solve_stage3_batch(
    con: Stage3Constants,
    cycles: np.ndarray,
    p0: np.ndarray,
    b0: np.ndarray,
    fc0: np.ndarray,
    fs0: np.ndarray,
    *,
    max_outer_iterations: int = 40,
    gap_tol: Optional[np.ndarray] = None,
) -> Stage3BatchResult:
    """Run Alg. 3 (z-update ↔ convex solve) for every config in the batch.

    Each outer round performs the closed-form Eq. 25 ``z`` update at the
    current point and then solves the fixed-``z`` subproblem to its final
    duality gap by climbing the central path.  Rounds after the first
    warm-start the climb: the barrier weight is backed off in proportion to
    the previous round's objective movement (a small pending ``z`` move only
    needs a short climb; a large one restarts coarse), which sidesteps the
    near-zero-slack crawl of re-centering a boundary-hugging iterate.  The
    recorded history therefore has exactly the legacy alternation semantics:
    one entry per subproblem solved to tolerance, monotone up to solver
    noise.  A config freezes once two consecutive rounds agree within its
    own ε; the rest continue on a shrinking active set.
    """
    # The ``solver.stage3`` fault seam: a ``solver_fail`` rule raises
    # SolverError here (exercising the SLSQP degradation fallback); a
    # ``nan`` rule poisons this batch's final objective so the finite
    # guard at the exit fires instead — both deterministic under the plan.
    rule = _faults.fire("solver.stage3")
    nan_poison = rule is not None and rule.kind == "nan"
    k = con.batch
    cycles = np.asarray(cycles, dtype=float)
    p, b, f_c, f_s, t = strict_interior_start(con, cycles, p0, b0, fc0, fs0)
    if gap_tol is None:
        # Inner accuracy well below the outer ε (and below the 1e-6-relative
        # monotonicity budget of the recorded history), scaled to the
        # objective's magnitude so large-valued configs do not over-iterate.
        scale = np.maximum(
            1.0, np.abs(_p5_value(con, cycles, p, b, f_c, f_s))
        )
        gap_tol = np.minimum(1e-7 * scale, con.tolerance * 1e-2)
    else:
        gap_tol = np.broadcast_to(np.asarray(gap_tol, dtype=float), (k,)).copy()
    histories: List[List[float]] = [[] for _ in range(k)]
    gaps: List[List[float]] = [[] for _ in range(k)]
    outer_iters = np.zeros(k, dtype=int)
    converged = np.zeros(k, dtype=bool)
    final_value = np.full(k, -np.inf)
    active_idx = np.arange(k)

    r_now = _rates(con, p, b)
    problem = _Subproblem(con, cycles, 1.0 / (2.0 * p * con.d_tr * r_now))
    x = problem.pack(p, b, f_c, f_s, t)
    t_final = problem.m / gap_tol
    # Seeding ``previous`` with the start-point value makes the first round's
    # improvement meaningful, so round 2 warm-starts instead of re-climbing
    # cold (and a start that is already a fixed point converges in 1 round).
    previous = np.full(k, -np.inf)
    previous[:] = _p5_value(con, cycles, p, b, f_c, f_s)
    # Round 1 climbs cold from the t0 = m/|f0| rule; warm rounds re-enter
    # the path at the weight whose central slacks match the inflated start.
    f0 = np.abs(problem.objective(x))
    t_barrier = np.minimum(
        np.clip(problem.m / np.maximum(f0, 1e-6), _T0_MIN, _T0_MAX), t_final
    )

    for _ in range(max_outer_iterations):
        tol_now = problem.con.tolerance
        x_start = x
        # Climb the central path at fixed z until every config is final.
        # A config centered at its final weight sits out (infinite Newton
        # target) while the others finish climbing, so its point does not
        # depend on which configs share its batch.
        centered = np.zeros(len(x), dtype=bool)
        while True:
            at_final = t_barrier >= t_final
            x = problem.newton(
                x,
                t_barrier,
                tol=np.where(
                    centered,
                    np.inf,
                    np.where(at_final, _NEWTON_TOL_FINAL, _NEWTON_TOL_PATH),
                ),
            )
            if np.all(at_final):
                break
            centered = at_final
            t_barrier = np.minimum(t_barrier * _MU, t_final)

        p_a, b_a, fc_a, fs_a, _ = problem.split(x)
        value = _p5_value(problem.con, problem.cycles, p_a, b_a, fc_a, fs_a)
        # Transform tightness (the Fig. 4(d) analogue) at this round's z.
        r_new = _rates(problem.con, p_a, b_a)
        f_tr = (p_a * problem.con.d_tr) ** 2 * problem.z + 1.0 / (
            4.0 * r_new**2 * problem.z
        )
        gap_now = np.sum(np.abs(p_a * problem.con.d_tr / r_new - f_tr), axis=-1)
        p[active_idx], b[active_idx] = p_a, b_a
        f_c[active_idx], f_s[active_idx] = fc_a, fs_a
        outer_iters[active_idx] += 1
        for j, idx in enumerate(active_idx):
            histories[idx].append(float(value[j]))
            gaps[idx].append(float(gap_now[j]))
        final_value[active_idx] = value
        improvement = np.abs(value - previous[active_idx])
        done = improvement <= tol_now
        converged[active_idx[done]] = True
        previous[active_idx] = value
        if np.all(done):
            break
        move = np.max(
            np.abs(x - x_start) / np.maximum(np.abs(x_start), 1e-2), axis=-1
        )
        if np.any(done):
            keep = ~done
            active_idx = active_idx[keep]
            problem = problem.select(keep)
            x = x[keep]
            t_final = t_final[keep]
            move = move[keep]
            p_a, b_a, r_new = p_a[keep], b_a[keep], r_new[keep]
            fc_a, fs_a = fc_a[keep], fs_a[keep]
        # Eq. 25: closed-form z update at the new point for the next round.
        problem.z = 1.0 / (2.0 * p_a * problem.con.d_tr * r_new)
        # Slack inflation: the round ended hugging its active constraints
        # (slacks ~ m/t_final), and the z update moves the optimum by a
        # finite distance — re-centering from near-zero slacks would crawl
        # (each damped step only doubles a slack).  Pull every variable off
        # its bound and lift T in proportion to the observed per-round
        # movement, which lands within a few Newton steps of the coarse
        # warm-start center.
        sub = problem.con
        slack_before = problem.min_slack(x)
        gamma = np.clip(0.5 * move, 3e-5, 1e-2)[:, None]
        p_i = np.clip(p_a, (1.0 + gamma) * 1e-4 * sub.p_max, (1.0 - gamma) * sub.p_max)
        b_i = np.clip(b_a, (1.0 + gamma) * 1e-3 * B_SCALE, None)
        over_b = np.sum(b_i, axis=-1, keepdims=True) / ((1.0 - gamma) * sub.b_total)
        b_i = b_i / np.maximum(over_b, 1.0)
        fc_i = np.clip(
            fc_a, (1.0 + gamma) * 1e-3 * F_SCALE, (1.0 - gamma) * sub.fc_max
        )
        fs_i = np.clip(fs_a, (1.0 + gamma) * 1e-3 * F_SCALE, None)
        over_f = np.sum(fs_i, axis=-1, keepdims=True) / ((1.0 - gamma) * sub.fs_total)
        fs_i = fs_i / np.maximum(over_f, 1.0)
        delays = _delays(sub, problem.cycles, p_i, b_i, fc_i, fs_i)
        t_i = np.max(delays, axis=-1) * (1.0 + gamma[:, 0]) + 1e-9
        x = problem.pack(p_i, b_i, fc_i, fs_i, t_i)
        # Re-enter the path at the weight whose central slacks match the
        # inflated point: centered slacks scale as 1/t, so dividing the
        # final weight by the inflation ratio is the natural re-entry.
        slack_after = problem.min_slack(x)
        t_barrier = np.clip(
            t_final * slack_before / np.maximum(slack_after, 1e-300),
            # Never restart more than a few stages below the final weight —
            # a config at the float64 cancellation limit reports absurdly
            # small slacks that would otherwise force a full cold climb.
            t_final / _MU**3,
            t_final,
        )

    if nan_poison:
        final_value = np.full_like(final_value, np.nan)
    # A non-finite objective means the optimizer diverged (or was poisoned
    # by the fault layer); surface it as a classified failure instead of
    # letting NaN propagate silently into metrics and aggregates.
    if not np.all(np.isfinite(final_value)):
        bad = np.flatnonzero(~np.isfinite(final_value))
        raise SolverError(
            f"stage-3 produced a non-finite objective for batch member(s) "
            f"{bad.tolist()}"
        )
    # Eq. 23-style tightening: report T as the exact max delay.
    t_report = np.max(_delays(con, cycles, p, b, f_c, f_s), axis=-1)
    return Stage3BatchResult(
        p=p,
        b=b,
        f_c=f_c,
        f_s=f_s,
        T=t_report,
        value=final_value,
        outer_iterations=outer_iters,
        converged=converged,
        histories=histories,
        transform_gaps=gaps,
    )
