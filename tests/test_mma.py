import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import mma_dual_bisection
from stheat import mma
from stheat.errors import NumericalError
from stheat.mma import MmaState, mma_update, scalar_minimize
from stheat.optimize import run_topology_optimization
from stheat.presets import cooling_benchmark

# fixed example sequence and no example database, so the suite stays deterministic
PROPERTY = settings(max_examples=200)


def fresh_state():
    return MmaState()


def test_positive_gradient_moves_design_down():
    rho = np.array([0.5, 0.5, 0.5])
    dj = np.array([1.0, 2.0, 0.5])
    volumes = np.ones(3)
    new = mma_update(rho, dj, volumes, volume_bound=10.0, state=fresh_state())
    assert np.all(new < rho)


def test_equal_negative_gradient_saturates_constraint_uniformly():
    rho = np.array([0.3, 0.3, 0.3, 0.3])
    dj = np.full(4, -2.0)
    volumes = np.full(4, 0.25)
    vstar = 0.35
    new = mma_update(rho, dj, volumes, vstar, state=fresh_state())
    np.testing.assert_allclose(new, vstar / volumes.sum(), atol=1e-9)
    assert new @ volumes <= vstar + 1e-9


def test_quadratic_problem_converges_inside_box():
    target = np.array([0.3, 0.8])
    rho = np.array([0.5, 0.5])
    state = fresh_state()
    volumes = np.ones(2)
    for it in range(60):
        dj = 2.0 * (rho - target)
        rho = mma_update(rho, dj, volumes, volume_bound=5.0, state=state)
        if np.max(np.abs(rho - target)) <= 1e-4:
            break
    assert np.max(np.abs(rho - target)) <= 1e-4
    assert it < 60


def test_update_feasible_and_inside_asymptotes():
    rng = np.random.default_rng(5)
    volumes = rng.uniform(0.5, 1.5, 8)
    vstar = 0.4 * volumes.sum()
    rho = np.full(8, 0.4)
    state = fresh_state()
    for _ in range(25):
        dj = rng.standard_normal(8)
        rho = mma_update(rho, dj, volumes, vstar, state=state)
        assert rho @ volumes <= vstar + 1e-9
        assert np.all(rho >= -1e-12) and np.all(rho <= 1 + 1e-12)
        assert np.all(state.low < rho) and np.all(rho < state.upp)


def test_gradient_scaling_invariance():
    rng = np.random.default_rng(11)
    volumes = np.ones(5)
    rho = np.full(5, 0.5)
    # whole trajectories coincide when the objective is uniformly rescaled
    state1, state2 = fresh_state(), fresh_state()
    rho1, rho2 = rho.copy(), rho.copy()
    for _ in range(4):
        dj = rng.standard_normal(5)
        rho1 = mma_update(rho1, dj, volumes, 3.0, state=state1)
        rho2 = mma_update(rho2, 3.7e4 * dj, volumes, 3.0, state=state2)
        np.testing.assert_allclose(rho1, rho2, atol=1e-12)


def test_zero_gradient_returns_same_design():
    rho = np.array([0.25, 0.75])
    new = mma_update(rho, np.zeros(2), np.ones(2), 2.0, state=fresh_state())
    np.testing.assert_allclose(new, rho, atol=0)


def test_zero_gradient_leaves_the_state_untouched():
    # a zero gradient sets no asymptotes, so it records no design either: a
    # later update must not take the oscillation branch without asymptotes
    rho, volumes, dj = np.array([0.4, 0.4]), np.ones(2), np.array([1.0, -1.0])
    state = fresh_state()
    for _ in range(2):
        mma_update(rho, np.zeros(2), volumes, 1.0, state)
    first = mma_update(rho, dj, volumes, 1.0, fresh_state())
    assert np.array_equal(mma_update(rho, dj, volumes, 1.0, state), first)


def test_nonfinite_gradient_rejected():
    with pytest.raises(NumericalError):
        mma_update(np.array([0.5]), np.array([np.nan]), np.ones(1), 1.0, fresh_state())


@st.composite
def mma_inputs(draw):
    """A design with 0/1 extremes, a gradient, volumes, a bound and an MMA history.

    The bound is the current volume (active whenever the step adds material)
    or lies up to the full box volume (often inactive).  A history of one or
    two earlier iterations fixes the gradient scale, and at two it also
    fixes the asymptotes that the oscillation rule rescales.  The carried
    volume multiplier is 0, as before a first update, or any positive value
    below the 1e12 at which the multiplier search gives up.
    """
    n = draw(st.integers(1, 12))

    def vector(elements):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)))

    unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    rho = vector(unit)
    dj = vector(st.one_of(st.just(0.0), st.floats(-1e3, 1e3)))
    volumes = vector(st.floats(1e-2, 2.0))
    slack = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    bound = rho @ volumes + slack * (volumes.sum() - rho @ volumes)
    state = MmaState(mu=draw(st.one_of(st.just(0.0), st.floats(0.0, 1e12, exclude_min=True))))
    history = draw(st.integers(0, 2))
    if history >= 1:
        state.gradient_scale = draw(st.floats(1e-3, 1e3))
        state.x_prev1 = vector(unit)
    if history == 2:
        state.x_prev2 = vector(unit)
        state.low = state.x_prev1 - vector(st.floats(1e-5, 2.0))
        state.upp = state.x_prev1 + vector(st.floats(1e-5, 2.0))
    return rho, dj, volumes, bound, state


@PROPERTY
@given(case=mma_inputs())
def test_update_stays_in_box_and_volume_property(case):
    rho, dj, volumes, bound, state = case
    new = mma_update(rho, dj, volumes, bound, state)
    assert np.all((new >= 0.0) & (new <= 1.0))
    if state.low is not None:
        assert np.all((state.low < new) & (new < state.upp))
    assert new @ volumes <= bound * (1 + 1e-12)


@PROPERTY
@given(case=mma_inputs())
def test_update_matches_nested_bisection_property(case):
    """The dual solve agrees with nested bisection up to its multiplier tolerance.

    Both stop with the multiplier mu in [mu*, mu* + 1e-12 max(1, mu*)], so a
    component may differ by that width times |dx_j/dmu| = V_j / phi_j''.
    Where a component's curvature sits at the raa0 floor (zero gradient),
    |dx_j/dmu| reaches ~1e4 and this term exceeds the flat 1e-11.  The
    multiplier carried in from an earlier update only opens the search, so
    the same tolerance holds whatever it is.
    """
    rho, dj, volumes, bound, state = case
    with mock.patch.object(mma, "_solve_dual", wraps=mma._solve_dual) as solve_dual:
        mma_update(rho, dj, volumes, bound, state)
    if not solve_dual.called:  # zero gradient: the design is returned unchanged
        return
    args = solve_dual.call_args.args
    p, q, low, upp = args[:4]
    new, _ = mma._solve_dual(*args)
    oracle, mu = mma_dual_bisection(*args[:8])
    curvature = 2 * p / (upp - oracle) ** 3 + 2 * q / (oracle - low) ** 3
    tolerance = 1e-11 + 2e-12 * max(1.0, mu) * volumes / curvature
    assert np.all(np.abs(new - oracle) <= tolerance)


def test_cooling_dual_solve_takes_few_subproblem_solves():
    """The first update of the cooling preset solves the subproblem 8 times.

    The nested bisection this replaced took 46: one at mu = 0, three while
    doubling, 41 halvings and one more at the feasible end.  A bound of 12
    leaves room for roundoff and still catches a return to bisection.
    """
    spec, volume_bound = cooling_benchmark()
    with mock.patch.object(mma, "_subproblem_minimizer", wraps=mma._subproblem_minimizer) as solves:
        run_topology_optimization(spec, volume_bound, max_iters=1)
    assert solves.call_count <= 12


def test_cooling_loop_dual_solves_start_from_the_last_multiplier():
    """The default cooling loop solves the subproblem 60 times in 11 updates.

    Each dual search opens at the previous update's multiplier, and each
    subproblem solve at the previous minimizer.  Searching afresh every
    update, from mu = 0 by doubling, took 105 solves.
    """
    spec, volume_bound = cooling_benchmark()
    with mock.patch.object(mma, "_subproblem_minimizer", wraps=mma._subproblem_minimizer) as solves:
        trace = run_topology_optimization(spec, volume_bound)
    assert trace.iterations == 11
    assert solves.call_count <= 70


def test_newton_in_bracket_treats_each_component_on_its_own():
    """One vector: a Newton root, a bisection fallback, an inactive component, an rtol stop.

    The brackets are [0, 1] (the inactive one [0.25, 0.5], the last
    [0.25, 1]).  The first iterate is the given start 0.5 of the last
    component, and the midpoint elsewhere, also where the start 2 lies
    outside the bracket.  Component 0 solves x^3 = 0.2, whose Newton point
    from 0.5 is 0.6.  Component 1, arctan(20 (x - 0.95)), sends its first
    Newton point past 1, so the next iterate bisects to 0.75.  Component 2 is
    inactive and must keep its midpoint although its function has no root
    there.  Component 3 offers no Newton point, so it bisects until its
    bracket is no wider than rtol = 1e-3: ten evaluations.  Newton's method
    on the concave log(x/0.7) never crosses the root from below, yet the
    upper end must still close in to rtol (the volume multiplier's feasible
    end relies on this).
    """
    iterates = []

    def step(x):
        iterates.append(x.copy())
        z = 20.0 * (x[1] - 0.95)
        f = np.array(
            [x[0] ** 3 - 0.2, np.arctan(z), x[2] - 0.9, x[3] - 1.0 / 3.0, np.log(x[4] / 0.7)]
        )
        slope = np.array([3.0 * x[0] ** 2, 20.0 / (1.0 + z * z), 1.0, 1.0, 1.0 / x[4]])
        newton = x - f / slope
        newton[3] = np.nan
        return f, newton, (np.abs(f) <= 4.0 * np.finfo(float).eps) | (newton == x)

    lo = np.array([0.0, 0.0, 0.25, 0.0, 0.25])
    hi = np.array([1.0, 1.0, 0.5, 1.0, 1.0])
    active = np.array([True, True, False, True, True])
    start = np.array([np.nan, 2.0, np.nan, np.nan, 0.5])
    x = mma._newton_in_bracket(step, lo, hi, active, rtol=1e-3, start=start)
    np.testing.assert_array_equal(iterates[0], [0.5, 0.5, 0.375, 0.5, 0.5])
    assert iterates[1][0] == 0.6
    assert iterates[1][1] == 0.75
    assert x[2] == 0.375 and all(it[2] == 0.375 for it in iterates)
    assert len(iterates) == 10
    roots = np.array([0.2 ** (1.0 / 3.0), 0.95, np.nan, 1.0 / 3.0, 0.7])
    assert np.all(np.abs(x - roots)[active] <= 1e-3)
    assert min(it[4] for it in iterates if it[4] > 0.7) - 0.7 <= 1e-3
    np.testing.assert_array_equal(lo, [0.0, 0.0, 0.25, 0.0, 0.25])  # the caller's brackets are kept


def test_update_refuses_move_limits_that_leave_no_feasible_update():
    """The current volume lies 5e-7 above the bound, inside the 1e-6 the update
    accepts, but the asymptotes at rho -/+ 1e-6 widen only to the 1e-5 floor,
    so the move limits keep every component above rho - 1e-5 and no update
    meets the bound.  The update says so after one subproblem solve rather
    than doubling the multiplier some 40 times first.
    """
    rho, volumes = np.array([0.5]), np.array([0.01])
    state = MmaState(
        x_prev1=rho.copy(), x_prev2=rho.copy(), low=rho - 1e-6, upp=rho + 1e-6,
        gradient_scale=1.0,
    )
    with mock.patch.object(mma, "_subproblem_minimizer", wraps=mma._subproblem_minimizer) as solves:
        with pytest.raises(NumericalError, match="move limits leave no feasible update"):
            mma_update(rho, np.array([-1.0]), volumes, rho @ volumes - 5e-7, state)
    assert solves.call_count == 1


def test_scalar_minimize_quadratic():
    x, fx = scalar_minimize(lambda x: (x - 2.0) ** 2, (0.0, 5.0), tol=1e-8)
    assert abs(x - 2.0) <= 1e-8
    assert fx <= 1e-15


def test_scalar_minimize_quartic():
    x, _ = scalar_minimize(lambda x: x**4 - x, (0.0, 2.0), tol=1e-9)
    assert abs(x - 0.25 ** (1.0 / 3.0)) <= 1e-8


def test_scalar_minimize_rejects_nonfinite():
    with pytest.raises(NumericalError):
        scalar_minimize(lambda x: np.inf, (0.0, 1.0), tol=1e-6)


def test_scalar_minimize_rejects_bad_bracket():
    with pytest.raises(ValueError):
        scalar_minimize(lambda x: x * x, (2.0, 1.0))
