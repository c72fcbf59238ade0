import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import (
    NEUMANN_SIGN,
    kronecker_dense,
    smooth_problem,
    spatial_terms_by_element,
    to_dense,
)
from stheat.adjoint import objective
from stheat.assembly import Discretization, assemble_global, north_trace, residual
from stheat.blocksolve import solve_system
from stheat.presets import cooling_benchmark, two_design_benchmark, two_domain_problem
from stheat.problem import MaterialModel, ProblemSpec
from stheat.twodomain import TwoDomainSolution
from stheat.verification import energy_estimate_sides, energy_margin_sweep

LINEAR = MaterialModel(kappa_min=0.0, kappa_max=1.0, p=1.0)


def constant_problem(c=2.5, K=3, nx=4, nt=4):
    return ProblemSpec(
        domain=(0.0, 1.0),
        horizon=1.0,
        n_elements=K,
        nx=nx,
        nt=nt,
        material=LINEAR,
        h=lambda t: np.full_like(np.asarray(t, float), c),
        g=lambda t: np.full_like(np.asarray(t, float), c),
        q=lambda x: np.full_like(np.asarray(x, float), c),
    )


def pnorm_error(disc, u, u_exact):
    p = disc.global_p()
    diff = u - u_exact
    return np.sqrt(diff @ (p * diff))


def test_constant_state_is_exact():
    spec = constant_problem(c=2.5)
    disc = Discretization(spec)
    system = assemble_global(disc, np.array([0.3, 0.9, 0.6]))
    u_const = np.full(disc.n_unknowns, 2.5)
    r = residual(u_const, system)
    scale = max(np.abs(to_dense(system)).max(), 1.0)
    assert np.max(np.abs(r)) <= 1e-11 * scale


@pytest.mark.parametrize("K", [1, 3, 5])
def test_kronecker_structure(K):
    # A = T (x) W + P_t (x) M(kappa) in time-major order, M couples element k
    # to k-1 and k+1 only, and rmatvec applies the transpose
    spec = constant_problem(K=K)
    disc = Discretization(spec)
    system = assemble_global(disc, np.linspace(0.2, 0.8, K))
    dense = to_dense(system)
    np.testing.assert_allclose(dense, kronecker_dense(system), rtol=0, atol=1e-14 * np.abs(dense).max())
    v = np.random.default_rng(K).standard_normal(system.n_unknowns)
    np.testing.assert_allclose(system.rmatvec(v), dense.T @ v, rtol=0, atol=1e-13 * np.abs(dense).max())
    n_x = disc.n_x
    M = system.M.toarray()
    for k in range(K):
        for j in range(K):
            block = M[k * n_x:(k + 1) * n_x, j * n_x:(j + 1) * n_x]
            assert np.any(block != 0) == (abs(k - j) <= 1), (k, j)


def spatial_blocks(system):
    """The (row element, column element) pairs whose block of M is nonzero."""
    n_x = system.disc.n_x
    M = system.M.toarray()
    K = system.n_blocks
    return {
        (k, j) for k in range(K) for j in range(K)
        if np.any(M[k * n_x:(k + 1) * n_x, j * n_x:(j + 1) * n_x] != 0)
    }


def test_single_element_structure():
    spec = constant_problem(K=1)
    disc = Discretization(spec)
    system = assemble_global(disc, np.array([0.5]))
    assert system.n_blocks == 1
    assert system.block_size == (spec.nx + 1) * (spec.nt + 1)
    assert system.M.shape == (spec.nx + 1, spec.nx + 1)
    assert spatial_blocks(system) == {(0, 0)}


def test_block_counts():
    spec = constant_problem(K=3)
    disc = Discretization(spec)
    system = assemble_global(disc, np.array([0.2, 0.5, 0.8]))
    assert system.n_blocks == 3
    assert system.n_unknowns == 3 * system.block_size
    blocks = spatial_blocks(system)
    assert {(k, k) for k in range(3)} <= blocks
    assert sorted(j - k for k, j in blocks if j > k) == [1, 1]
    assert sorted(k - j for k, j in blocks if j < k) == [1, 1]


def test_spatial_operator_is_affine_in_kappa():
    disc = Discretization(constant_problem(K=4))
    kap = np.array([0.3, 1.7, 0.0, 2.5])
    m0 = disc.spatial_operator(np.zeros(4)).toarray()
    pieces = [disc.spatial_operator(np.eye(4)[k]).toarray() - m0 for k in range(4)]
    expect = m0 + sum(c * piece for c, piece in zip(kap, pieces))
    np.testing.assert_allclose(disc.spatial_operator(kap).toarray(), expect, rtol=0, atol=1e-13)


def assert_terms_bitwise_the_oracle(disc):
    got, want = disc.spatial_terms, spatial_terms_by_element(disc)
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


BCS = [(left, right) for left in ("dirichlet", "neumann") for right in ("dirichlet", "neumann")]


@settings(max_examples=80, deadline=None)
@given(
    nx=st.integers(1, 9),
    bcs=st.sampled_from(BCS),
    start=st.floats(-10.0, 10.0),
    widths=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=8),
    s=st.floats(1e-3, 10.0),
    safety=st.floats(1.0, 10.0),
    sigma_0=st.floats(0.5, 4.0),
    kappa_min=st.one_of(st.just(0.0), st.floats(1e-6, 0.9)),
)
def test_spatial_terms_are_bitwise_the_per_element_loop(nx, bcs, start, widths, s, safety,
                                                       sigma_0, kappa_min):
    # same triples in the same order, so the duplicate sums of M and the
    # gradient's bincount see the same additions
    edges = start + np.cumsum([0.0, *widths])
    spec = ProblemSpec(
        domain=(edges[0], edges[-1]), horizon=1.0, n_elements=len(widths), nx=nx, nt=1,
        material=MaterialModel(kappa_min=kappa_min, kappa_max=1.0, p=3.0),
        bc_left=bcs[0], bc_right=bcs[1], breakpoints=tuple(edges),
    )
    assert_terms_bitwise_the_oracle(Discretization(spec, s=s, safety=safety, sigma_0=sigma_0))


@pytest.mark.parametrize("preset", [cooling_benchmark, two_design_benchmark],
                         ids=["cooling", "two-design"])
def test_spatial_operator_is_bitwise_the_per_element_loop(preset):
    disc = Discretization(preset()[0])
    assert_terms_bitwise_the_oracle(disc)
    kap = disc.spec.kappa(np.random.default_rng(4).uniform(0.0, 1.0, disc.n_elements))
    rows, cols, values, owner = spatial_terms_by_element(disc)
    n_s = disc.W.size
    want = sp.csc_matrix((values * np.append(kap, 1.0)[owner], (rows, cols)), shape=(n_s, n_s))
    got = disc.spatial_operator(kap)
    for name in ("data", "indices", "indptr"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_rhs_independent_of_design():
    """The rhs is built on the first assembly, kept read-only, and shared by every design."""
    spec = two_domain_problem(TwoDomainSolution(0.4, 0.35), nx=5, nt=5)
    disc = Discretization(spec)
    assert "rhs" not in vars(disc)  # set-up builds no rhs
    b1 = assemble_global(disc, np.array([0.2, 0.9])).rhs_vector()
    assert "rhs" in vars(disc)
    b2 = assemble_global(disc, np.array([0.77, 0.13])).rhs_vector()
    assert b1 is b2 and not b1.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        b1[0] = 1.0
    fresh = Discretization(spec).rhs
    assert np.array_equal(b1.view(np.uint8), fresh.view(np.uint8))


def test_residual_shape_and_linearity():
    spec = constant_problem()
    disc = Discretization(spec)
    rho = np.array([0.4, 0.5, 0.6])
    system = assemble_global(disc, rho)
    b = system.rhs_vector()
    np.testing.assert_allclose(residual(np.zeros_like(b), system), -b, atol=0)
    with pytest.raises(ValueError):
        residual(np.zeros(3), system)
    # perturbing one entry changes the residual by that column
    u = np.zeros_like(b)
    r0 = residual(u, system)
    u[17] = 1e-3
    col = to_dense(system)[:, 17]
    np.testing.assert_allclose(residual(u, system) - r0, 1e-3 * col, atol=1e-16)


def test_forward_solve_matches_analytic_heterogeneous():
    sol = TwoDomainSolution(0.45, 0.30)
    spec = two_domain_problem(sol, nx=16, nt=16)
    disc = Discretization(spec)
    system = assemble_global(disc, np.array([sol.kappa_1, sol.kappa_2]))
    u, _ = solve_system(system)
    err = pnorm_error(disc, u, sol(*disc.coordinates()))
    assert err <= 1e-8


def test_forward_solve_spectral_residual_decay():
    sol = TwoDomainSolution(0.6, 0.2)
    errs = []
    for n in (4, 8, 12, 16):
        spec = two_domain_problem(sol, nx=n, nt=n)
        disc = Discretization(spec)
        system = assemble_global(disc, np.array([sol.kappa_1, sol.kappa_2]))
        r = residual(sol(*disc.coordinates()), system)
        errs.append(np.max(np.abs(r)) / np.max(np.abs(system.rhs_vector())))
    assert errs[1] < 1e-2 * errs[0]
    assert errs[3] < 1e-2 * errs[1]
    assert errs[3] <= 1e-8


def test_uniform_kappa_matches_single_element():
    # interface SATs must be internally consistent: a uniform-material
    # multi-element solve agrees with a converged single-element solve
    kap = 0.7
    sol = TwoDomainSolution(kap, kap)

    def objective_for(K, nx, nt):
        spec = ProblemSpec(
            domain=(0.0, 1.0),
            horizon=1.0,
            n_elements=K,
            nx=nx,
            nt=nt,
            material=LINEAR,
            g=lambda t: np.full_like(np.asarray(t, float), sol.u_right),
            q=sol.initial,
            f=lambda x, t: np.full_like(np.asarray(x, float), sol.source),
        )
        disc = Discretization(spec)
        system = assemble_global(disc, np.full(K, kap))
        u, _ = solve_system(system)
        p = disc.global_p()
        return u @ (p * u)

    j_multi = objective_for(K=2, nx=14, nt=14)
    j_single = objective_for(K=1, nx=20, nt=16)
    assert abs(j_multi - j_single) <= 1e-9 * abs(j_single)


@pytest.mark.parametrize("K", [1, 2, 5])
def test_energy_estimate_random_initial_data(K):
    # zero source and boundary data: terminal energy bounded by initial data
    rng = np.random.default_rng(K)
    material = MaterialModel(kappa_min=0.05, kappa_max=1.0, p=2.0)
    for trial in range(20):
        coeffs = rng.standard_normal(6)

        def q(x, c=coeffs):
            x = np.asarray(x, float)
            return sum(cj * np.cos(j * np.pi * x) for j, cj in enumerate(c))

        spec = ProblemSpec(
            domain=(0.0, 1.0), horizon=0.5, n_elements=K, nx=6, nt=6,
            material=material, q=q,
        )
        disc = Discretization(spec)
        rho = rng.uniform(0.0, 1.0, K)
        system = assemble_global(disc, rho)
        u, _ = solve_system(system)
        lhs = sum(
            tr @ (disc.op_x.weights[k] * tr)
            for k, tr in enumerate(north_trace(disc, u))
        )
        qs = [
            np.asarray(q(disc.op_x.nodes[k])) for k in range(disc.n_elements)
        ]
        rhs_bound = sum(
            qk @ (disc.op_x.weights[k] * qk) for k, qk in enumerate(qs)
        ) / (2 * disc.sat.sigma_0 - 1)
        assert lhs <= rhs_bound * (1 + 1e-12), f"K={K} trial={trial}"


def test_energy_estimate_detects_violated_sat():
    # sigma_0 below 1/2 leaves the bound factor negative: the check must fail
    material = MaterialModel(kappa_min=0.05, kappa_max=1.0, p=2.0)
    spec = ProblemSpec(
        domain=(0.0, 1.0), horizon=0.5, n_elements=2, nx=6, nt=6,
        material=material, q=lambda x: np.cos(np.pi * np.asarray(x, float)),
    )
    lhs, bound = energy_estimate_sides(spec, np.array([0.5, 0.5]), sigma_0=0.4)
    assert not lhs <= bound


@st.composite
def spatial_operator_cases(draw):
    """Non-uniform breakpoints on [0, 1], degree, kappa_min and a design with exact 0/1 values."""
    K = draw(st.integers(1, 6))
    widths = np.cumsum(draw(st.lists(st.floats(0.01, 1.0), min_size=K, max_size=K)))
    edges = np.concatenate([[0.0], widths[:-1] / widths[-1], [1.0]])
    nx = draw(st.integers(1, 7))
    kappa_min = draw(st.sampled_from([0.0, 1e-3, 0.1]))
    value = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    rho = draw(st.lists(value, min_size=K, max_size=K))
    return tuple(edges), nx, kappa_min, rho


ENDS = [
    pytest.param(("dirichlet", "dirichlet"), id="dirichlet-dirichlet"),
    pytest.param(("neumann", "dirichlet"), marks=NEUMANN_SIGN, id="neumann-dirichlet"),
    pytest.param(("dirichlet", "neumann"), marks=NEUMANN_SIGN, id="dirichlet-neumann"),
    pytest.param(("neumann", "neumann"), marks=NEUMANN_SIGN, id="neumann-neumann"),
]


@pytest.mark.parametrize("bcs", ENDS)
@settings(max_examples=60)
# a narrow last element: sizing sigma_e on element 0 gave smallest eigenvalue -507.7
@example(case=((0.0, 0.45, 0.9, 0.99, 1.0), 5, 0.0, [1.0, 1.0, 1.0, 1.0]))
@given(case=spatial_operator_cases())
def test_spatial_operator_symmetric_part_semidefinite(bcs, case):
    # the energy method needs v^T (M + M^T) v >= 0 for every spatial state v
    edges, nx, kappa_min, rho = case
    spec = ProblemSpec(
        domain=(0.0, 1.0), horizon=1.0, n_elements=len(rho), nx=nx, nt=1,
        material=MaterialModel(kappa_min=kappa_min, kappa_max=1.0, p=3.0),
        bc_left=bcs[0], bc_right=bcs[1], breakpoints=edges,
    )
    disc = Discretization(spec)
    M = disc.spatial_operator(disc.spec.kappa(np.array(rho))).toarray()
    S = 0.5 * (M + M.T)
    assert np.linalg.eigvalsh(S)[0] >= -1e-12 * np.abs(S).max()


@pytest.mark.parametrize("bcs", ENDS)
def test_energy_bound_holds_at_every_kind_of_end(bcs):
    # criterion 4's data-free sweep with Neumann ends too.  At the defect the
    # worst margins read +0.19 (neumann-dirichlet), +2.3 (dirichlet-neumann)
    # and +1.8 (neumann-neumann)
    assert energy_margin_sweep(np.random.default_rng(0), draws=5, degree=5, ends=bcs) <= 1e-12


@pytest.mark.parametrize("K", [pytest.param(6, marks=NEUMANN_SIGN),
                               pytest.param(8, marks=NEUMANN_SIGN), 10, 50])
def test_cooling_objective_obeys_its_a_priori_bound(K):
    # the source lies in [8, 12] and u starts at 0, so 0 <= u <= 12 t and
    # J = int int u^2 <= int_0^1 (12 t)^2 dt = 48 for every design.  At the
    # defect J reaches 1.5e7 on 6 elements and 50.9 on 8
    disc = Discretization(cooling_benchmark(n_elements=K)[0])
    rng = np.random.default_rng(K)
    for _ in range(20):
        rho = rng.uniform(0.0, 1.0, K)
        rho[rng.random(K) < 0.3] = 0.0  # kappa_min cells
        u, _ = solve_system(assemble_global(disc, rho))
        assert objective(u, disc) <= 48.0, rho


@NEUMANN_SIGN
def test_neumann_data_reaches_the_exact_solution():
    # h = kappa u_x(0, t) at a Neumann left end; two degree-9 elements resolve
    # the exact solution to 8.4e-11 with the sign of the FE loads, against
    # 7.5e-9 at the defect's
    spec, exact = smooth_problem(K=2, bc_left="neumann", nx=9, nt=9)
    disc = Discretization(spec)
    u, _ = solve_system(assemble_global(disc, np.ones(2)))
    assert np.max(np.abs(u - exact(*disc.coordinates()))) <= 1e-9


def test_neumann_constant_state():
    # zero-flux left boundary holds a constant state exactly
    c = 1.3
    spec = ProblemSpec(
        domain=(0.0, 1.0), horizon=1.0, n_elements=2, nx=5, nt=5,
        material=LINEAR,
        bc_left="neumann",
        h=lambda t: np.zeros_like(np.asarray(t, float)),
        g=lambda t: np.full_like(np.asarray(t, float), c),
        q=lambda x: np.full_like(np.asarray(x, float), c),
    )
    disc = Discretization(spec)
    system = assemble_global(disc, np.array([0.3, 0.8]))
    u_const = np.full(disc.n_unknowns, c)
    r = residual(u_const, system)
    assert np.max(np.abs(r)) <= 1e-11 * max(np.abs(to_dense(system)).max(), 1.0)


def test_unknown_count_cooling_setup():
    # 50 elements x 6 spatial x 16 temporal nodes, interface nodes duplicated
    from stheat.presets import cooling_benchmark

    spec, _ = cooling_benchmark(nx=5, nt=15, n_elements=50)
    disc = Discretization(spec)
    assert disc.n_unknowns == 50 * 6 * 16 == 4800


def test_design_length_checked():
    spec = constant_problem(K=3)
    disc = Discretization(spec)
    with pytest.raises(ValueError):
        assemble_global(disc, np.array([0.5, 0.5]))


def test_restrict_consistency_with_solution_blocks():
    sol = TwoDomainSolution(0.5, 0.25)
    spec = two_domain_problem(sol, nx=10, nt=10)
    disc = Discretization(spec)
    system = assemble_global(disc, np.array([0.5, 0.25]))
    u, _ = solve_system(system)
    south = u[:disc.n_x]
    q_exact = sol.initial(disc.op_x.nodes[0])
    assert np.max(np.abs(south - q_exact)) <= 1e-6
