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
from stheat import blocksolve
from stheat.assembly import Discretization, GlobalSystem, assemble_global
from stheat.blocksolve import (
    condition_estimate,
    factor,
    one_norm,
    solve,
    solve_system,
    solve_transposed,
)
from stheat.errors import NumericalError, SingularSystemError
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
    "case", [f"two-design-{d}" for d in ("random", "interior", "0/1")] + ["random-M"]
)
def test_factor_hands_splu_the_sparse_sum(case):
    """Every mode's matrix is (r_j W + M).tocsc(), bit for bit and with its nnz.

    At kappa = 0 M stores explicit zeros, which the sparse sum drops.
    ``factor`` rewrites one matrix from mode to mode, so the mock copies
    each matrix's arrays as ``splu`` receives it.
    """
    if case == "random-M":
        system = random_system(np.random.default_rng(4), K=3, nx=3, nt=4)
    else:
        system = assemble_global(*_shifted_matrix_cases()[case])
    handed = []

    def record(A, **kwargs):
        assert kwargs == {"permc_spec": "NATURAL"}
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


def band_storage(A, kl, ku):
    """A dense matrix in LAPACK's ``gbtrf`` layout: A[i, j] at row kl + ku + i - j."""
    n = A.shape[0]
    band = np.zeros((2 * kl + ku + 1, n), dtype=A.dtype)
    for i in range(n):
        for j in range(max(0, i - kl), min(n, i + ku + 1)):
            band[kl + ku + i - j, j] = A[i, j]
    return band


def record_zgbtrf():
    """Patch ``zgbtrf`` to keep a copy of each band it is handed, then factor it."""
    handed = []
    zgbtrf = blocksolve.zgbtrf

    def record(ab, kl, ku, **kwargs):
        handed.append((ab.copy(), kl, ku))
        return zgbtrf(ab, kl, ku, **kwargs)

    return mock.patch.object(blocksolve, "zgbtrf", side_effect=record), handed


@pytest.mark.parametrize("case", [f"cooling-{d}" for d in ("random", "interior", "0/1")])
def test_factor_hands_zgbtrf_the_band(case):
    """Every mode's band array is r_j W + M in band storage, bit for bit,
    with kl = ku = n_x from the element order and no SuperLU call."""
    system = assemble_global(*_shifted_matrix_cases()[case])
    n_x = system.disc.n_x
    patch, handed = record_zgbtrf()
    with patch, mock.patch.object(spla, "splu", side_effect=AssertionError("splu called")):
        factor(system)
    R, _ = system.disc.schur
    assert len(handed) == R.shape[0]
    for r, (ab, kl, ku) in zip(np.diag(R), handed):
        assert (kl, ku) == (n_x, n_x)
        want = band_storage((r * sp.diags(system.disc.W) + system.M).toarray(), kl, ku)
        assert ab.dtype == want.dtype and ab.shape == want.shape
        assert np.array_equal(ab.view(np.uint8), want.view(np.uint8))


@pytest.mark.parametrize("mode", [0, 2, 3])
def test_singular_band_mode_names_mode(mode):
    """A diagonal M is banded (kl = ku = 0): zgbtrf finds the cancelled pivot of mode j."""
    system = singular_system(mode=mode)
    patch, handed = record_zgbtrf()
    with patch, mock.patch.object(spla, "splu", side_effect=AssertionError("splu called")):
        with pytest.raises(SingularSystemError, match=f"time mode {mode}$") as err:
            factor(system)
    assert err.value.mode == mode
    assert len(handed) == mode + 1
    ab, kl, ku = handed[-1]
    assert (kl, ku) == (0, 0) and ab[0, 0] == 0


def banded_system(rng, K, nx, nt):
    """``random_system`` with M cut to the element coupling band |i - j| <= n_x."""
    system = random_system(rng, K, nx, nt)
    n_x = system.disc.n_x
    dense = system.M.toarray()
    offsets = np.subtract.outer(np.arange(dense.shape[0]), np.arange(dense.shape[0]))
    system.M = sp.csc_matrix(np.where(np.abs(offsets) <= n_x, dense, 0.0))
    return system


@PROPERTY
@given(
    K=st.integers(4, 8), nx=st.integers(1, 4), nt=st.integers(1, 5), seed=st.integers(0, 2**32 - 1)
)
def test_banded_solves_property_random_systems(K, nx, nt, seed):
    """With K >= 4 the band is narrower than the matrix: the band LU solves
    both ways to the dense oracle's accuracy."""
    rng = np.random.default_rng(seed)
    system = banded_system(rng, K, nx, nt)
    with mock.patch.object(spla, "splu", side_effect=AssertionError("splu called")):
        assert_solves_exact(system, rng)


@pytest.mark.parametrize("case", ["two-design-40x30", "K=1", "K=2", "K=3", "cooling"])
def test_factor_path_follows_the_band(case):
    """SuperLU factors every mode where band storage would span the matrix
    (two elements, or K <= 3 with an n_x-wide band); zgbtrf every other."""
    if case == "two-design-40x30":
        system = assemble_global(*_shifted_matrix_cases()["two-design-random"])
    elif case == "cooling":
        system = assemble_global(*_shifted_matrix_cases()["cooling-random"])
    else:
        system = banded_system(np.random.default_rng(6), K=int(case[2:]), nx=3, nt=4)
    n_modes = system.disc.schur[0].shape[0]
    patch, handed = record_zgbtrf()
    with patch, mock.patch.object(spla, "splu", wraps=spla.splu) as splu:
        factor(system)
    band = case == "cooling"
    assert (splu.call_count, len(handed)) == ((0, n_modes) if band else (n_modes, 0))


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("case", ["cooling", "two-design"])
def test_non_finite_spatial_operator_refused_before_any_lu(case, value):
    system = assemble_global(*_shifted_matrix_cases()[f"{case}-random"])
    system.M = system.M.copy()
    system.M.data[7] = value
    patch, handed = record_zgbtrf()
    with patch, mock.patch.object(spla, "splu", side_effect=AssertionError("splu called")):
        with pytest.raises(NumericalError, match="spatial operator M has non-finite entries"):
            factor(system)
    assert handed == []


def test_overflowing_solve_is_refused_at_its_first_mode():
    # s = 1e300 keeps M finite (largest entry 6.0e300) and its band factors too,
    # but the band substitution overflows: refused, naming the first mode of
    # the back substitution that overflowed, without a RuntimeWarning on the way
    disc = Discretization(cooling_benchmark(n_elements=4, nx=3, nt=3)[0], s=1e300)
    system = assemble_global(disc, np.full(4, 0.5))
    assert np.isfinite(system.M.data).all()
    with pytest.raises(NumericalError, match="the forward solve is not finite at time mode 3"):
        solve_system(system)


def test_overflowing_transposed_solve_is_refused_at_its_first_mode():
    system = assemble_global(*_shifted_matrix_cases()["cooling-random"])
    fact = factor(system)
    with pytest.raises(NumericalError, match="the transposed solve is not finite at time mode 0"):
        solve_transposed(fact, np.full(system.n_unknowns, 1e308))


def test_natural_order_is_bitwise_colamd_on_two_design():
    """On two conducting elements COLAMD returns the identity, so the natural
    order factors every mode to the same bits, and the solution follows.

    The designs span the scalar reference's bracket [1e-4, 0.75 - 1e-4] on
    the volume line.  A cell at kappa = 0 stores explicit zeros, which the
    sparse matrix drops, and there COLAMD does permute.
    """
    disc = Discretization(two_design_benchmark(nx=40, nt=30)[0])
    splu = spla.splu

    def colamd(A, **kwargs):
        return splu(A, permc_spec="COLAMD")

    for rho in ([1e-4, 0.75 - 1e-4], [0.5, 0.25], [0.75 - 1e-4, 1e-4], [0.9, 0.1]):
        system = assemble_global(disc, np.array(rho))
        natural = factor(system)
        u, _ = solve_system(system)
        with mock.patch.object(spla, "splu", side_effect=colamd):
            reference = factor(system)
            u_reference, _ = solve_system(system)
        for lu, ref in zip(natural.lus, reference.lus, strict=True):
            for got, want in ((lu.L.data, ref.L.data), (lu.U.data, ref.U.data),
                              (lu.perm_r, ref.perm_r)):
                assert got.tobytes() == want.tobytes()
        assert u.tobytes() == u_reference.tobytes()
