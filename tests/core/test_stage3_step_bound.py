"""Safety of the Stage-3 line-search step bound (property tests).

Before each line search the Newton loop computes, per config, a step length
from which on some slack is provably ≤ 0, and skips the trials at or above
it.  The skip is only sound if every skipped trial is one the line search
would have rejected: ``_barrier_from_state`` must return +inf there.  Two
kinds of input are searched:

* ``(state, step)`` pairs captured from real Newton iterations on seeded
  configs, with the step rescaled and its sign flipped, since the bound
  holds along any direction;
* synthetic near-boundary states, where one slack (a box bound, a budget or
  a delay) is a few ulps of the magnitudes it is computed from and the step
  crosses zero within ulps of a trial ``2^-j`` — the cases where only the
  rounding margin separates a sound skip from an unsound one.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.core.batch import ConfigBatch
from repro.core.config import paper_config
from repro.core.quhe import initial_allocation
from repro.core.stage3_ipm import (
    T_SCALE,
    _TRIALS,
    _Subproblem,
    _delays,
    _first_trial,
    _solve_spd,
    strict_interior_start,
)

PROPERTY = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def skipped_trials_infeasible(sub, x, state, step, v) -> int:
    """Assert every trial the bound skips has a +inf barrier; count them."""
    first = _first_trial(sub.step_bound(x, state, step, v))
    trials = _TRIALS[1:]
    rows, js = np.nonzero(trials[None, :] > first[:, None])
    if len(rows) == 0:
        return 0
    probe = sub.select(rows)
    points = x[rows] + trials[js][:, None] * step[rows]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        values = probe._barrier_from_state(
            probe._state(points), np.ones(len(rows)))
    feasible = np.flatnonzero(values != np.inf)
    assert len(feasible) == 0, (
        f"skipped trial(s) inside the domain: rows {rows[feasible].tolist()}, "
        f"alpha {trials[js][feasible].tolist()}"
    )
    return len(rows)


# -- captured Newton iterations ----------------------------------------------


@pytest.fixture(scope="module")
def captured():
    """(subproblem, x, state, step, v) at every Newton iteration of a K=1
    solve and a K=4 batch, thinned to a few hundred."""
    from repro.api.service import SolverService

    pool = []
    original = _Subproblem.step_bound

    def record(self, x, state, step, v):
        pool.append((self, x.copy(), {k: a.copy() for k, a in state.items()},
                     step.copy(), v.copy()))
        return original(self, x, state, step, v)

    _Subproblem.step_bound = record
    try:
        SolverService(cache_size=0).solve(paper_config(seed=5))
        SolverService(cache_size=0).solve_many(
            [paper_config(seed=s) for s in (6, 7, 8, 9)])
    finally:
        _Subproblem.step_bound = original
    assert len(pool) > 100
    return pool[:: max(1, len(pool) // 300)]


def test_real_newton_steps_skip_only_infeasible_trials(captured):
    skipped = sum(skipped_trials_infeasible(*entry) for entry in captured)
    assert skipped > 0  # real steps overshoot the domain, and get skipped


@PROPERTY
@given(data=st.data(), log_scale=st.floats(-4.0, 40.0), flip=st.booleans())
def test_rescaled_real_steps_skip_only_infeasible_trials(
    captured, data, log_scale, flip
):
    sub, x, state, step, v = captured[
        data.draw(st.integers(0, len(captured) - 1))]
    scale = (-1.0 if flip else 1.0) * 2.0**log_scale
    skipped_trials_infeasible(sub, x, state, step * scale, v)


# -- synthetic near-boundary states -------------------------------------------


def _ulps(value: float, k: int) -> float:
    """``value`` moved ``k`` representable steps (toward -inf if k < 0)."""
    towards = np.inf if k > 0 else -np.inf
    for _ in range(abs(k)):
        value = np.nextafter(value, towards)
    return value


@pytest.fixture(scope="module")
def subproblem():
    cfg = paper_config(seed=3)
    con = ConfigBatch.from_configs([cfg]).stage3_constants()
    alloc = initial_allocation(cfg)
    cycles = cfg.server_cycle_demand(alloc.lam)[None, :]
    p, b, f_c, f_s, t = strict_interior_start(
        con, cycles, alloc.p[None], alloc.b[None], alloc.f_c[None],
        alloc.f_s[None])
    sub = _Subproblem(con, cycles, np.full((1, cfg.num_clients), 0.5))
    return sub, sub.pack(p, b, f_c, f_s, t)


def _lift_t(sub, x):
    """Put T well above every delay, so only the targeted slack is tight."""
    delays = _delays(sub.con, sub.cycles, *sub.split(x)[:4])
    x[0, 4 * sub.n] = 2.0 * np.max(delays) / T_SCALE


def near_boundary(sub, x0, family, index, ulps, j, wobble, spill):
    """A state with one slack a few ulps from zero, and a step along which
    that slack's prediction (linear, or the delay's tangent) crosses zero
    within a few ulps of the trial ``2^-j``.  ``spill`` adds a component
    along every variable, so the other slacks and the delay's curvature
    move too; for a budget it also shifts ``spill·x`` between two other
    clients, which leaves the prediction alone but not the rounding of the
    sum the slack is computed from."""
    n, dim = sub.n, sub.dim
    x = x0.copy()
    _lift_t(sub, x)
    step = np.zeros_like(x)
    if family == "lower":
        i = index % (4 * n)
        x[0, i] = _ulps(sub.lb[0, i], ulps)
        column, step[0, i] = n + 2 + i, -1.0
    elif family == "upper":
        i = [*range(n), *range(2 * n, 3 * n)][index % (2 * n)]  # p, f_c
        x[0, i] = _ulps(sub.ub[0, i], -ulps)
        column, step[0, i] = n + 2 + dim + i, 1.0
    elif family in ("budget_b", "budget_f"):
        first = n if family == "budget_b" else 3 * n
        cap = sub._b_cap[0] if family == "budget_b" else sub._f_cap[0]
        rest = np.sum(x[0, first:first + n - 1])
        x[0, first + n - 1] = _ulps(cap, -ulps) - rest
        column = n if family == "budget_b" else n + 1
        step[0, first + index % n] = 1.0
        a, b = first + (index + 1) % n, first + (index + 2) % n
        shift = np.zeros_like(x)
        shift[0, a], shift[0, b] = spill * x[0, a], -spill * x[0, a]
    else:  # delay: T just above the largest delay, then lowered
        delays = _delays(sub.con, sub.cycles, *sub.split(x)[:4])
        column = int(np.argmax(delays))
        x[0, 4 * n] = _ulps(delays[0, column] / T_SCALE, ulps)
        step[0, 4 * n] = -1.0
    if family in ("lower", "upper"):
        _lift_t(sub, x)
    step[0, :4 * n] += spill * np.abs(x[0, :4 * n]) * np.sign(
        np.sin(np.arange(4 * n) + index))
    state = sub._state(x)
    slack = state["slack"][0, column]
    assume(slack > 0)
    # Rescale the step so the predicted crossing is 2^-j (1 + wobble ulps).
    if column < n:
        _, _, v = sub.gradient_and_hessian(state, np.ones(1))
        slope = step[0, 4 * n] + np.sum(v[0, column] * step[0, sub._idx4[column]])
    else:
        slope = (step @ sub._reach_lin[:dim])[0, column - n]
    assume(slope < 0)
    crossing = 2.0**-j * (1.0 + wobble * 2.0**-52)
    step *= slack / crossing / -slope
    if family in ("budget_b", "budget_f"):
        step += shift
    return x, step


@PROPERTY
@given(
    family=st.sampled_from(["lower", "upper", "budget_b", "budget_f", "delay"]),
    index=st.integers(0, 1000),
    ulps=st.integers(1, 8),
    j=st.integers(0, 44),
    wobble=st.integers(-4, 4),
    spill=st.sampled_from([0.0, 0.0, 1e-16, 1e-13, 1e-9]),
)
def test_near_boundary_states_skip_only_infeasible_trials(
    subproblem, family, index, ulps, j, wobble, spill
):
    sub, x0 = subproblem
    x, step = near_boundary(sub, x0, family, index, ulps, j, wobble, spill)
    state = sub._state(x)
    assume(np.isfinite(sub._barrier_from_state(state, np.ones(1))[0]))
    _, _, v = sub.gradient_and_hessian(state, np.ones(1))
    skipped_trials_infeasible(sub, x, state, step, v)


# -- the first trial ----------------------------------------------------------


@given(bound=st.floats(allow_nan=True, allow_infinity=True))
def test_first_trial_is_the_largest_trial_below_the_bound(bound):
    first = float(_first_trial(np.array([bound]))[0])
    if np.isnan(bound) or bound == np.inf:
        assert first == 1.0
        return
    below = [a for a in _TRIALS[1:] if a < bound]
    assert first == (max(below) if below else 0.0)


def test_non_finite_bound_skips_nothing(subproblem):
    sub, x = subproblem
    state = sub._state(x)
    _, _, v = sub.gradient_and_hessian(state, np.ones(1))
    assert _first_trial(np.array([np.nan, np.inf])).tolist() == [1.0, 1.0]
    # A NaN step, or a NaN anywhere in the state, gives no finite bound.
    nan_step = np.full_like(x, np.nan)
    assert not np.isfinite(sub.step_bound(x, state, nan_step, v)).any()
    nan_state = dict(state, slack=np.full_like(state["slack"], np.nan))
    step = -x  # reaches every lower bound
    assert np.isfinite(sub.step_bound(x, state, step, v)).all()
    assert not np.isfinite(sub.step_bound(x, nan_state, step, v)).any()
    # A zero step reaches no slack: no bound, so no trial is skipped.
    bound = sub.step_bound(x, state, np.zeros_like(x), v)
    assert _first_trial(bound).tolist() == [1.0]


# -- off the domain -----------------------------------------------------------


def test_off_domain_point_takes_the_full_newton_step(subproblem):
    """A point off the barrier's domain gets no step bound: its +inf
    barrier accepts the first trial, so Newton takes the whole step.

    Four clients sit at 0.995 kHz, just under their 1 kHz bandwidth bound
    (where rescaling a floor-clipped start into the budget used to put
    them); bounding the step there would reject every trial and strand
    the config outside the domain.
    """
    sub, x = subproblem
    x = x.copy()
    n = sub.n
    x[0, n + 1:2 * n - 1] = 0.995e-3
    _lift_t(sub, x)
    t_barrier = np.ones(1)
    with np.errstate(invalid="ignore", divide="ignore"):
        state = sub._state(x)
        assert sub._barrier_from_state(state, t_barrier)[0] == np.inf
        grad, hess, _ = sub.gradient_and_hessian(state, t_barrier)
    step = _solve_spd(hess, -grad)
    out = sub.newton(x, t_barrier, max_iterations=1)
    np.testing.assert_array_equal(out, x + 1.0 * step)


def test_start_with_clients_at_the_floors_stays_in_the_domain():
    """Budgets spent with five clients at the bandwidth and server-CPU
    floors: the rescale into the budgets keeps every slack positive."""
    cfg = paper_config(seed=4)
    con = ConfigBatch.from_configs([cfg]).stage3_constants()
    alloc = initial_allocation(cfg)
    b = np.full(cfg.num_clients, 1e3)
    b[0] = cfg.server.total_bandwidth_hz - b[1:].sum()
    f_s = np.full(cfg.num_clients, 1e6)
    f_s[0] = cfg.server.total_frequency_hz - f_s[1:].sum()
    cycles = cfg.server_cycle_demand(alloc.lam)[None, :]
    start = strict_interior_start(
        con, cycles, alloc.p[None], b[None], alloc.f_c[None], f_s[None])
    sub = _Subproblem(con, cycles, np.full((1, cfg.num_clients), 0.5))
    assert (sub._state(sub.pack(*start))["slack"] > 0).all()
