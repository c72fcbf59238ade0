import numpy as np
import pytest

from oracle import kronecker_dense, to_dense
from stheat.assembly import Discretization, assemble_global, north_trace, residual
from stheat.blocksolve import solve_system
from stheat.problem import MaterialModel, ProblemSpec, choose_sat_coefficients
from stheat.spacetime import restrict
from stheat.twodomain import two_domain_solution

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


def two_domain_problem(sol, nx, nt, material=LINEAR):
    return ProblemSpec(
        domain=(0.0, 1.0),
        horizon=1.0,
        n_elements=2,
        nx=nx,
        nt=nt,
        material=material,
        h=lambda t: np.zeros_like(np.asarray(t, float)),
        g=lambda t: np.full_like(np.asarray(t, float), sol.u_right),
        q=sol.initial,
        f=lambda x, t: np.full_like(np.asarray(x, float), sol.source),
    )


def exact_nodal_state(disc, sol):
    blocks = []
    for k in range(disc.n_elements):
        X, T = disc.element_coordinates(k)
        blocks.append(sol(X, T))
    return np.concatenate(blocks)


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
    n_x = disc.ops[0].n_x
    M = system.M.toarray()
    for k in range(K):
        for j in range(K):
            block = M[k * n_x:(k + 1) * n_x, j * n_x:(j + 1) * n_x]
            assert np.any(block != 0) == (abs(k - j) <= 1), (k, j)


def spatial_blocks(system):
    """The (row element, column element) pairs whose block of M is nonzero."""
    n_x = system.disc.ops[0].n_x
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


def test_rhs_independent_of_design():
    spec = two_domain_problem(two_domain_solution(0.4, 0.35), nx=5, nt=5)
    disc = Discretization(spec)
    b1 = assemble_global(disc, np.array([0.2, 0.9])).rhs_vector()
    b2 = assemble_global(disc, np.array([0.77, 0.13])).rhs_vector()
    assert np.array_equal(b1, b2)


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
    sol = two_domain_solution(0.45, 0.30)
    spec = two_domain_problem(sol, nx=16, nt=16)
    disc = Discretization(spec)
    system = assemble_global(disc, np.array([sol.kappa_1, sol.kappa_2]))
    u, _ = solve_system(system)
    err = pnorm_error(disc, u, exact_nodal_state(disc, sol))
    assert err <= 1e-8


def test_forward_solve_spectral_residual_decay():
    sol = two_domain_solution(0.6, 0.2)
    errs = []
    for n in (4, 8, 12, 16):
        spec = two_domain_problem(sol, nx=n, nt=n)
        disc = Discretization(spec)
        system = assemble_global(disc, np.array([sol.kappa_1, sol.kappa_2]))
        r = residual(exact_nodal_state(disc, sol), system)
        errs.append(np.max(np.abs(r)) / np.max(np.abs(system.rhs_vector())))
    assert errs[1] < 1e-2 * errs[0]
    assert errs[3] < 1e-2 * errs[1]
    assert errs[3] <= 1e-8


def test_uniform_kappa_matches_single_element():
    # interface SATs must be internally consistent: a uniform-material
    # multi-element solve agrees with a converged single-element solve
    kap = 0.7
    sol = two_domain_solution(kap, kap)

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
            tr @ (disc.ops[k].op_x.weights * tr)
            for k, tr in enumerate(north_trace(disc, u))
        )
        qs = [
            np.asarray(q(disc.ops[k].op_x.nodes)) for k in range(disc.n_elements)
        ]
        rhs_bound = sum(
            qk @ (disc.ops[k].op_x.weights * qk) for k, qk in enumerate(qs)
        ) / (2 * disc.sat.sigma_0 - 1)
        assert lhs <= rhs_bound * (1 + 1e-12), f"K={K} trial={trial}"


def test_energy_estimate_detects_violated_sat():
    # sigma_0 below 1/2 leaves the bound factor negative: the check must fail
    material = MaterialModel(kappa_min=0.05, kappa_max=1.0, p=2.0)
    spec = ProblemSpec(
        domain=(0.0, 1.0), horizon=0.5, n_elements=2, nx=6, nt=6,
        material=material, q=lambda x: np.cos(np.pi * np.asarray(x, float)),
    )
    probe = Discretization(spec)
    bad_sat = choose_sat_coefficients(probe.ops[0].op_x, material, sigma_0=0.4)
    disc = Discretization(spec, sat=bad_sat)
    system = assemble_global(disc, np.array([0.5, 0.5]))
    u, _ = solve_system(system)
    lhs = sum(
        tr @ (disc.ops[k].op_x.weights * tr)
        for k, tr in enumerate(north_trace(disc, u))
    )
    qs = [spec.q(disc.ops[k].op_x.nodes) for k in range(2)]
    rhs_bound = sum(
        qk @ (disc.ops[k].op_x.weights * qk) for k, qk in enumerate(qs)
    ) / (2 * bad_sat.sigma_0 - 1)
    assert not lhs <= rhs_bound


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
    sol = two_domain_solution(0.5, 0.25)
    spec = two_domain_problem(sol, nx=10, nt=10)
    disc = Discretization(spec)
    system = assemble_global(disc, np.array([0.5, 0.25]))
    u, _ = solve_system(system)
    ub = u.reshape(disc.n_elements, disc.block_size)
    south = restrict("south", disc.ops[0], ub[0])
    q_exact = sol.initial(disc.ops[0].op_x.nodes)
    assert np.max(np.abs(south - q_exact)) <= 1e-6
