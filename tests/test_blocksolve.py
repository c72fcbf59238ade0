import functools
import pickle
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import to_dense
from stheat.assembly import Discretization, GlobalSystem, assemble_global
from stheat.blocksolve import (
    condition_estimate,
    factor,
    one_norm,
    solve,
    solve_system,
    solve_transposed,
)
from stheat.errors import SingularSystemError
from stheat.presets import cooling_benchmark, two_design_benchmark
from stheat.problem import MaterialModel, ProblemSpec

EPS = np.finfo(float).eps
# fixed example sequence and no example database, so the suite stays deterministic
PROPERTY = settings(max_examples=25)


@functools.cache
def grid(K, nx, nt):
    spec = ProblemSpec(
        domain=(0.0, 1.0), horizon=1.0, n_elements=K, nx=nx, nt=nt,
        material=MaterialModel(kappa_min=0.0, kappa_max=1.0, p=1.0),
    )
    return Discretization(spec)


def random_system(rng, K, nx, nt, shift=None):
    """T (x) W + P_t (x) M with a random dense spatial operator M.

    The diagonal shift keeps every spatial factor R_jj W + M safely
    nonsingular: the eigenvalues R_jj of P_t^-1 T have nonnegative real part.
    """
    disc = grid(K, nx, nt)
    n_s = disc.W.size
    if shift is None:
        shift = 4.0 * n_s
    M = rng.standard_normal((n_s, n_s)) + shift * np.eye(n_s)
    return GlobalSystem(disc=disc, M=sp.csc_matrix(M), rhs=rng.standard_normal(disc.n_unknowns))


def singular_system(mode=2):
    """A hand-built system whose spatial factor of time mode ``mode`` has a zero first row."""
    disc = grid(2, 3, 4)
    R, _ = disc.schur
    n_s = disc.W.size
    M = sp.csc_matrix(([-R[mode, mode] * disc.W[0]], ([0], [0])), shape=(n_s, n_s))
    return GlobalSystem(disc=disc, M=M, rhs=np.zeros(disc.n_unknowns))


def diagonal_system(K, nx, diagonal):
    """A hand-built system with the time factor switched off (T = 0): A = P_t (x) M.

    One time interval on [0, 1] gives P_t = diag(1/2, 1/2), so M = 2 diag(d)
    makes A the diagonal matrix with d at both time levels.
    """
    disc = Discretization(grid(K, nx, 1).spec)  # a fresh one: T is overwritten
    disc.T = np.zeros((2, 2))
    assert np.array_equal(disc.op_t.weights, [0.5, 0.5])
    M = sp.diags(2.0 * np.asarray(diagonal, dtype=float)).tocsc()
    return GlobalSystem(disc=disc, M=M, rhs=np.arange(disc.n_unknowns, dtype=float))


def test_identity_single_block():
    system = diagonal_system(K=1, nx=4, diagonal=np.ones(5))
    np.testing.assert_array_equal(to_dense(system), np.eye(system.n_unknowns))
    x, _ = solve_system(system)
    np.testing.assert_allclose(x, system.rhs_vector(), atol=0)


def test_known_state_single_element():
    system = random_system(np.random.default_rng(5), K=1, nx=4, nt=4)
    x_true = np.arange(system.n_unknowns, dtype=float)
    x = solve(factor(system), system.matvec(x_true))
    np.testing.assert_allclose(x, x_true, rtol=1e-12, atol=1e-12)


def test_random_blocks_match_dense_oracle():
    rng = np.random.default_rng(42)
    system = random_system(rng, K=4, nx=3, nt=4)
    b = system.rhs_vector()
    x, _ = solve_system(system)
    dense = to_dense(system)
    assert np.linalg.norm(dense @ x - b, np.inf) <= 1e-11 * np.linalg.norm(b, np.inf)
    x_oracle = np.linalg.solve(dense, b)
    np.testing.assert_allclose(x, x_oracle, rtol=1e-11, atol=1e-13)


def test_transpose_solve_matches_dense_oracle():
    rng = np.random.default_rng(7)
    system = random_system(rng, K=5, nx=2, nt=3)
    b = rng.standard_normal(system.n_unknowns)
    x = solve_transposed(factor(system), b)
    dense = to_dense(system)
    assert np.linalg.norm(dense.T @ x - b, np.inf) <= 1e-11 * np.linalg.norm(b, np.inf)
    x_oracle = np.linalg.solve(dense.T, b)
    np.testing.assert_allclose(x, x_oracle, rtol=1e-11, atol=1e-13)


def test_zero_rhs_gives_zero():
    rng = np.random.default_rng(3)
    system = random_system(rng, K=3, nx=2, nt=2)
    f = factor(system)
    zero = np.zeros(system.n_unknowns)
    np.testing.assert_allclose(solve(f, zero), zero, atol=0)
    np.testing.assert_allclose(solve_transposed(f, zero), zero, atol=0)


def test_many_random_systems_oracle_equivalence():
    rng = np.random.default_rng(2024)
    for trial in range(50):
        K = int(rng.integers(1, 7))
        nx = int(rng.integers(1, 6))
        nt = int(rng.integers(1, 6))
        system = random_system(rng, K, nx, nt)
        b = system.rhs_vector()
        x, _ = solve_system(system)
        x_oracle = np.linalg.solve(to_dense(system), b)
        err = np.linalg.norm(x - x_oracle) / max(np.linalg.norm(x_oracle), 1e-300)
        assert err <= 1e-10, f"trial {trial}: K={K} nx={nx} nt={nt} err={err}"


def test_adjoint_identity():
    rng = np.random.default_rng(99)
    system = random_system(rng, K=4, nx=3, nt=3)
    b = rng.standard_normal(system.n_unknowns)
    y = rng.standard_normal(system.n_unknowns)
    fact = factor(system)
    fwd = solve(fact, b)
    adj = solve_transposed(fact, y)
    lhs = adj @ b
    rhs = y @ fwd
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


def test_singular_spatial_factor_names_mode():
    with pytest.raises(SingularSystemError, match="time mode 2") as err:
        factor(singular_system(mode=2))
    assert err.value.mode == 2
    # a `compare --jobs N` worker sends it back pickled, message and all
    assert str(pickle.loads(pickle.dumps(err.value))) == str(err.value)


def test_solve_rejects_bad_rhs_length():
    rng = np.random.default_rng(1)
    system = random_system(rng, K=2, nx=2, nt=1)
    f = factor(system)
    with pytest.raises(ValueError):
        solve(f, np.zeros(5))
    with pytest.raises(ValueError):
        solve_transposed(f, np.zeros(5))


def _condition_cases():
    rng = np.random.default_rng(11)
    spec, _ = two_design_benchmark(nx=6, nt=6)
    scaled = random_system(rng, K=2, nx=3, nt=3)
    # spatial rows scaled over six decades make A badly conditioned
    scaled.M = sp.csc_matrix(np.diag(np.logspace(0, 6, scaled.M.shape[0])) @ scaled.M.toarray())
    return {
        "random": random_system(rng, K=3, nx=3, nt=4),
        "scaled": scaled,
        "two-design": assemble_global(Discretization(spec), np.array([0.45, 0.3])),
        "two-design-kappa-0": assemble_global(Discretization(spec), np.array([0.0, 1.0])),
        "cooling": assemble_global(
            Discretization(cooling_benchmark(n_elements=4)[0]), np.array([0.0, 0.3, 1.0, 0.6])
        ),
    }


@pytest.mark.parametrize("case", ["random", "scaled", "two-design", "two-design-kappa-0", "cooling"])
def test_condition_estimate_matches_exact(case):
    system = _condition_cases()[case]
    exact = np.linalg.cond(to_dense(system), 1)
    est = condition_estimate(system)
    # Hager's estimate is a lower bound on the 1-norm of the inverse
    assert exact / 3 <= est <= exact * (1 + 1e-8)


def test_condition_identity():
    system = diagonal_system(K=3, nx=3, diagonal=np.ones(12))
    est = condition_estimate(system)
    assert 0.5 <= est <= 2.0


def test_condition_known_diagonal():
    system = diagonal_system(K=2, nx=3, diagonal=np.logspace(0, 6, 8))
    assert np.linalg.cond(to_dense(system), 1) == pytest.approx(1e6, rel=1e-12)
    est = condition_estimate(system)
    assert 1e5 <= est <= 1e7


def test_condition_singular_is_inf():
    assert condition_estimate(singular_system()) == np.inf


def test_one_norm_matches_dense():
    cases = _condition_cases()
    for case in ["random", "scaled", "two-design", "cooling"]:
        system = cases[case]
        dense = to_dense(system)
        assert one_norm(system) == pytest.approx(np.abs(dense).sum(axis=0).max(), rel=1e-14), case


def assert_solves_exact(system, rng):
    """solve and solve_transposed against the dense oracle, and <c, A^-1 b> = <A^-T c, b>."""
    dense = to_dense(system)
    cond = np.linalg.cond(dense, 1)
    fact = factor(system)
    b, c = rng.standard_normal((2, system.n_unknowns))
    y = solve_transposed(fact, c)
    y_oracle = np.linalg.solve(dense.T, c)
    assert np.linalg.norm(y - y_oracle) <= 16 * EPS * cond * np.linalg.norm(y_oracle)
    x = solve(fact, b)
    x_oracle = np.linalg.solve(dense, b)
    assert np.linalg.norm(x - x_oracle) <= 16 * EPS * cond * np.linalg.norm(x_oracle)
    # normwise backward error of both solves
    scale = np.linalg.norm(dense, 1)
    assert np.linalg.norm(dense @ x - b, 1) <= 64 * EPS * scale * np.linalg.norm(x, 1)
    assert np.linalg.norm(dense.T @ y - c, 1) <= 64 * EPS * scale * np.linalg.norm(y, 1)
    scale = np.linalg.norm(c) * np.linalg.norm(x) + np.linalg.norm(y) * np.linalg.norm(b)
    assert abs(c @ x - y @ b) <= 64 * EPS * scale


@PROPERTY
@given(
    K=st.integers(1, 5), nx=st.integers(1, 5), nt=st.integers(1, 5), seed=st.integers(0, 2**32 - 1)
)
def test_transposed_solve_property_random_blocks(K, nx, nt, seed):
    rng = np.random.default_rng(seed)
    assert_solves_exact(random_system(rng, K, nx, nt), rng)


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
    assert_solves_exact(system, np.random.default_rng(seed))


def _shifted_matrix_cases():
    rng = np.random.default_rng(8)
    cooling = Discretization(cooling_benchmark()[0])
    two_design = Discretization(two_design_benchmark(nx=40, nt=30)[0])  # kappa_min = 0
    cases = {}
    for name, disc in (("cooling", cooling), ("two-design", two_design)):
        K = disc.n_elements
        cases[f"{name}-random"] = (disc, rng.uniform(0.0, 1.0, K))
        cases[f"{name}-interior"] = (disc, np.linspace(0.3, 0.7, K))
        cases[f"{name}-0/1"] = (disc, np.arange(K) % 2.0)
    return cases


@pytest.mark.parametrize(
    "case",
    [f"{p}-{d}" for p in ("cooling", "two-design") for d in ("random", "interior", "0/1")]
    + ["random-M", "singular-M"],
)
def test_factor_hands_splu_the_sparse_sum(case):
    """Every mode's matrix is (r_j W + M).tocsc(), bit for bit and with its nnz.

    At kappa = 0 M stores explicit zeros, which the sparse sum drops; the
    singular hand-built M cancels a diagonal entry of one mode exactly.
    ``factor`` rewrites one matrix from mode to mode, so the mock copies
    each matrix's arrays as ``splu`` receives it.
    """
    if case == "random-M":
        system = random_system(np.random.default_rng(4), K=3, nx=3, nt=4)
    elif case == "singular-M":
        system = singular_system(mode=2)
    else:
        system = assemble_global(*_shifted_matrix_cases()[case])
    handed = []

    def record(A):
        handed.append((A.format, A.nnz, {attr: getattr(A, attr).copy()
                                         for attr in ("indptr", "indices", "data")}))

    with mock.patch.object(spla, "splu", side_effect=record):
        factor(system)
    R, _ = system.disc.schur
    assert len(handed) == R.shape[0]
    for r, (fmt, nnz, arrays) in zip(np.diag(R), handed):
        expected = (r * sp.diags(system.disc.W) + system.M).tocsc()
        assert fmt == "csc" and nnz == expected.nnz
        for attr, got in arrays.items():
            want = getattr(expected, attr)
            assert got.dtype == want.dtype
            assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), attr
