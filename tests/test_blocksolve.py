import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stheat.assembly import Discretization, GlobalSystem, assemble_global
from stheat.blocksolve import (
    condition_estimate,
    factor,
    one_norm,
    solve,
    solve_system,
    solve_transposed,
    to_dense,
)
from stheat.errors import SingularSystemError
from stheat.presets import cooling_benchmark, two_design_benchmark

EPS = np.finfo(float).eps
# fixed example sequence and no example database, so the suite stays deterministic
PROPERTY = settings(derandomize=True, database=None, max_examples=25, deadline=None)


def random_system(rng, K, n, shift=None):
    # SPD-shifted random blocks keep the pivots safely nonsingular
    if shift is None:
        shift = 4.0 * n
    diag = [rng.standard_normal((n, n)) + shift * np.eye(n) for _ in range(K)]
    upper = [rng.standard_normal((n, n)) for _ in range(K - 1)]
    lower = [rng.standard_normal((n, n)) for _ in range(K - 1)]
    rhs = [rng.standard_normal(n) for _ in range(K)]
    return GlobalSystem(diag=diag, upper=upper, lower=lower, rhs=rhs)


def test_identity_single_block():
    sys1 = GlobalSystem(diag=[np.eye(5)], upper=[], lower=[], rhs=[np.arange(5.0)])
    x, _ = solve_system(sys1)
    np.testing.assert_allclose(x, np.arange(5.0), atol=0)


def test_random_blocks_match_dense_oracle():
    rng = np.random.default_rng(42)
    system = random_system(rng, K=4, n=9)
    b = system.rhs_vector()
    x, _ = solve_system(system)
    dense = to_dense(system)
    assert np.linalg.norm(dense @ x - b, np.inf) <= 1e-11 * np.linalg.norm(b, np.inf)
    x_oracle = np.linalg.solve(dense, b)
    np.testing.assert_allclose(x, x_oracle, rtol=1e-11, atol=1e-13)


def test_transpose_solve_matches_dense_oracle():
    rng = np.random.default_rng(7)
    system = random_system(rng, K=5, n=6)
    b = rng.standard_normal(system.n_unknowns)
    x = solve_transposed(factor(system), b)
    dense = to_dense(system)
    assert np.linalg.norm(dense.T @ x - b, np.inf) <= 1e-11 * np.linalg.norm(b, np.inf)
    x_oracle = np.linalg.solve(dense.T, b)
    np.testing.assert_allclose(x, x_oracle, rtol=1e-11, atol=1e-13)


def test_zero_rhs_gives_zero():
    rng = np.random.default_rng(3)
    system = random_system(rng, K=3, n=4)
    f = factor(system)
    np.testing.assert_allclose(solve(f, np.zeros(12)), np.zeros(12), atol=0)


def test_many_random_systems_oracle_equivalence():
    rng = np.random.default_rng(2024)
    for trial in range(50):
        K = int(rng.integers(1, 7))
        n = int(rng.integers(2, 13))
        system = random_system(rng, K, n)
        b = system.rhs_vector()
        x, _ = solve_system(system)
        x_oracle = np.linalg.solve(to_dense(system), b)
        err = np.linalg.norm(x - x_oracle) / max(np.linalg.norm(x_oracle), 1e-300)
        assert err <= 1e-10, f"trial {trial}: K={K} n={n} err={err}"


def test_adjoint_identity():
    rng = np.random.default_rng(99)
    system = random_system(rng, K=4, n=7)
    b = rng.standard_normal(system.n_unknowns)
    y = rng.standard_normal(system.n_unknowns)
    fact = factor(system)
    fwd = solve(fact, b)
    adj = solve_transposed(fact, y)
    lhs = adj @ b
    rhs = y @ fwd
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


def test_singular_pivot_names_element():
    diag = [np.eye(3), np.zeros((3, 3))]
    upper = [np.zeros((3, 3))]
    lower = [np.zeros((3, 3))]
    system = GlobalSystem(diag=diag, upper=upper, lower=lower, rhs=[np.zeros(3)] * 2)
    with pytest.raises(SingularSystemError) as err:
        factor(system)
    assert err.value.element == 1


def test_solve_rejects_bad_rhs_length():
    rng = np.random.default_rng(1)
    system = random_system(rng, K=2, n=3)
    f = factor(system)
    with pytest.raises(ValueError):
        solve(f, np.zeros(5))
    with pytest.raises(ValueError):
        solve_transposed(f, np.zeros(5))


def test_condition_identity():
    sys1 = GlobalSystem(
        diag=[np.eye(4)] * 3,
        upper=[np.zeros((4, 4))] * 2,
        lower=[np.zeros((4, 4))] * 2,
        rhs=[np.zeros(4)] * 3,
    )
    est = condition_estimate(sys1)
    assert 0.5 <= est <= 2.0


def test_condition_known_diagonal():
    scales = np.logspace(0, 6, 8)
    diag = [np.diag(scales[:4]), np.diag(scales[4:])]
    system = GlobalSystem(
        diag=diag,
        upper=[np.zeros((4, 4))],
        lower=[np.zeros((4, 4))],
        rhs=[np.zeros(4)] * 2,
    )
    est = condition_estimate(system)
    assert 1e5 <= est <= 1e7


def test_condition_singular_is_inf():
    system = GlobalSystem(diag=[np.zeros((2, 2))], upper=[], lower=[], rhs=[np.zeros(2)])
    assert condition_estimate(system) == np.inf


def test_one_norm_matches_dense():
    rng = np.random.default_rng(13)
    system = random_system(rng, K=3, n=5)
    dense = to_dense(system)
    assert one_norm(system) == pytest.approx(np.abs(dense).sum(axis=0).max())


def assert_transposed_solve_exact(system, rng):
    """solve_transposed against the dense oracle, and <c, A^-1 b> = <A^-T c, b>."""
    dense = to_dense(system)
    fact = factor(system)
    b, c = rng.standard_normal((2, system.n_unknowns))
    y = solve_transposed(fact, c)
    y_oracle = np.linalg.solve(dense.T, c)
    err = np.linalg.norm(y - y_oracle)
    assert err <= 16 * EPS * np.linalg.cond(dense, 1) * np.linalg.norm(y_oracle)
    x = solve(fact, b)
    scale = np.linalg.norm(c) * np.linalg.norm(x) + np.linalg.norm(y) * np.linalg.norm(b)
    assert abs(c @ x - y @ b) <= 64 * EPS * scale


@PROPERTY
@given(K=st.integers(1, 6), n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
def test_transposed_solve_property_random_blocks(K, n, seed):
    rng = np.random.default_rng(seed)
    assert_transposed_solve_exact(random_system(rng, K, n), rng)


@functools.cache
def preset_discretization(preset):
    # the two-design material has kappa_min = 0: rho = 0 switches conduction off
    spec, _ = {
        "two-design": lambda: two_design_benchmark(nx=8, nt=8),
        "cooling": lambda: cooling_benchmark(n_elements=6),
    }[preset]()
    return Discretization(spec)


@st.composite
def preset_designs(draw):
    preset = draw(st.sampled_from(["two-design", "cooling"]))
    K = preset_discretization(preset).n_elements
    value = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    return preset, np.array(draw(st.lists(value, min_size=K, max_size=K)))


@PROPERTY
@given(case=preset_designs(), seed=st.integers(0, 2**32 - 1))
def test_transposed_solve_property_assembled_systems(case, seed):
    preset, rho = case
    system = assemble_global(preset_discretization(preset), rho)
    assert_transposed_solve_exact(system, np.random.default_rng(seed))
