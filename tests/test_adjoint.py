import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_legendre

from stheat.adjoint import objective, sensitivities, solve_adjoint
from stheat.assembly import Discretization, assemble_global
from stheat.blocksolve import condition_estimate, factor, solve_system, solve_transposed
from stheat.problem import MaterialModel, ProblemSpec
from stheat.presets import cooling_benchmark, two_design_benchmark, two_domain_problem
from stheat.twodomain import two_domain_solution

LINEAR = MaterialModel(kappa_min=0.0, kappa_max=1.0, p=1.0)
EPS = np.finfo(float).eps


def forward(disc, rho):
    system = assemble_global(disc, rho)
    u, fact = solve_system(system)
    return u, system, fact


def fd_gradient(disc, rho, steps=(1e-4, 1e-5, 1e-6), reference=None):
    """Central-difference gradient with a per-component step sweep."""
    best = np.full(rho.size, np.nan)
    for k in range(rho.size):
        candidates = []
        for h in steps:
            rp, rm = rho.copy(), rho.copy()
            rp[k] += h
            rm[k] -= h
            jp = objective(forward(disc, rp)[0], disc)
            jm = objective(forward(disc, rm)[0], disc)
            candidates.append((jp - jm) / (2 * h))
        if reference is None:
            best[k] = candidates[len(steps) // 2]
        else:
            best[k] = min(candidates, key=lambda c: abs(c - reference[k]))
    return best


def exact_objective_quadrature(sol, horizon=1.0, n_gauss=100):
    """Tensor Gauss quadrature of the squared closed-form solution."""
    xg, wg = roots_legendre(n_gauss)

    def mapped(lo, hi):
        return 0.5 * (hi - lo) * xg + 0.5 * (hi + lo), 0.5 * (hi - lo) * wg

    tq, wt = mapped(0.0, horizon)
    total = 0.0
    for lo, hi in ((0.0, sol.interface), (sol.interface, 1.0)):
        xq, wx = mapped(lo, hi)
        vals = sol(xq[None, :], tq[:, None]) ** 2
        total += wt @ vals @ wx
    return total


def test_objective_zero_state():
    spec, _ = two_design_benchmark(nx=6, nt=6)
    disc = Discretization(spec)
    assert objective(np.zeros(disc.n_unknowns), disc) == 0.0


@pytest.mark.parametrize("K", [1, 3, 5])
def test_objective_unit_state_is_domain_measure(K):
    spec = ProblemSpec(
        domain=(0.0, 1.0), horizon=1.0, n_elements=K, nx=5, nt=4, material=LINEAR
    )
    disc = Discretization(spec)
    assert objective(np.ones(disc.n_unknowns), disc) == pytest.approx(1.0, abs=1e-12)


def test_objective_converges_to_quadrature_oracle():
    sol = two_domain_solution(0.45, 0.30)
    j_exact = exact_objective_quadrature(sol)
    errs = []
    for n in (4, 6, 8, 12):
        disc = Discretization(two_domain_problem(sol, n, n))
        j_h = objective(sol(*disc.coordinates()), disc)
        errs.append(abs(j_h - j_exact))
    assert errs[-1] <= 1e-12
    assert errs[0] > 100 * errs[-1]


def test_adjoint_of_zero_state_is_zero():
    spec, _ = two_design_benchmark(nx=6, nt=6)
    disc = Discretization(spec)
    system = assemble_global(disc, np.array([0.4, 0.3]))
    u = np.zeros(disc.n_unknowns)
    adj = solve_adjoint(disc, system, u, factor(system))
    np.testing.assert_allclose(adj.lam, 0.0, atol=0)
    assert objective(u, disc) == 0.0


def _reflect(disc, v):
    """Mirror a stacked state across the domain midline."""
    return v.reshape(disc.op_t.n_nodes, -1)[:, ::-1].ravel()


def _symmetric_spec(K, n):
    return ProblemSpec(
        domain=(0.0, 1.0), horizon=0.7, n_elements=K, nx=n, nt=n,
        material=MaterialModel(0.1, 1.0, 2.0),
        q=lambda x: np.sin(np.pi * np.asarray(x, float)),
        f=lambda x, t: np.exp(-np.asarray(t, float)) * np.sin(np.pi * np.asarray(x, float)),
    )


def test_adjoint_inherits_spatial_symmetry_single_element():
    # no interface: the discrete scheme is mirror symmetric, so any adjoint
    # asymmetry would expose a transposition bug
    disc = Discretization(_symmetric_spec(K=1, n=12))
    u, system, fact = forward(disc, np.array([0.6]))
    adj = solve_adjoint(disc, system, u, fact)
    assert np.max(np.abs(u - _reflect(disc, u))) <= 1e-9 * max(1, np.max(np.abs(u)))
    assert np.max(np.abs(adj.lam - _reflect(disc, adj.lam))) <= 1e-9 * max(
        1, np.max(np.abs(adj.lam))
    )


def test_adjoint_symmetry_restored_under_refinement():
    # the interface flux penalties are one-sided (sigma_2 != sigma_4), so at
    # finite resolution the adjoint is only asymptotically symmetric
    asym = []
    for n in (6, 12, 18):
        disc = Discretization(_symmetric_spec(K=2, n=n))
        u, system, fact = forward(disc, np.array([0.6, 0.6]))
        adj = solve_adjoint(disc, system, u, fact)
        if n >= 12:
            assert np.max(np.abs(u - _reflect(disc, u))) <= 1e-9 * max(1, np.max(np.abs(u)))
        asym.append(np.max(np.abs(adj.lam - _reflect(disc, adj.lam))))
    assert asym[2] < asym[1] < asym[0]
    assert asym[2] <= 0.1 * asym[0]


def test_dual_mms_consistency():
    # sample a smooth dual state with terminal value zero and homogeneous
    # Dirichlet data; the transposed operator must reproduce its source away
    # from the element faces (face rows carry the weak-enforcement penalties
    # and scale with them by construction), and solving the transposed
    # system must converge to the sampled dual state
    horizon = 1.0
    kap = 0.8

    def v(x, t):
        return np.sin(np.pi * x) * (horizon - t) ** 2

    def dual_source(x, t):
        # -v_t - kappa v_xx
        return (
            2.0 * (horizon - t) * np.sin(np.pi * x)
            + kap * np.pi**2 * np.sin(np.pi * x) * (horizon - t) ** 2
        )

    res, sol_err = [], []
    for n in (4, 6, 8, 10, 12):
        spec = ProblemSpec(
            domain=(0.0, 1.0), horizon=horizon, n_elements=3, nx=n, nt=n,
            material=LINEAR,
        )
        disc = Discretization(spec)
        system = assemble_global(disc, np.full(3, kap))
        X, T = disc.coordinates()
        vh, gh = v(X, T), dual_source(X, T)
        p = disc.global_p()
        r = (system.rmatvec(vh) - p * gh).reshape(disc.op_t.n_nodes, 3, disc.n_x)
        r[:, :, [0, -1]] = 0.0
        r = r.ravel()
        res.append(np.sqrt(np.sum(r**2 / p)))
        b = p * gh
        lam = solve_transposed(factor(system), b)
        assert np.linalg.norm(system.rmatvec(lam) - b) <= 1e-12 * np.linalg.norm(b)
        sol_err.append(np.sqrt((lam - vh) @ (p * (lam - vh))))
    assert res[-1] <= 1e-6 * res[0]
    assert res[-1] <= 1e-9
    assert all(b < a for a, b in zip(sol_err, sol_err[1:]))
    assert sol_err[-1] <= 0.125 * sol_err[0]


def test_adjoint_identity_random_perturbation():
    spec, _ = two_design_benchmark(nx=8, nt=8)
    disc = Discretization(spec)
    rho = np.array([0.45, 0.30])
    u, system, fact = forward(disc, rho)
    adj = solve_adjoint(disc, system, u, fact)
    rng = np.random.default_rng(31)
    for _ in range(5):
        du = rng.standard_normal(disc.n_unknowns)
        lhs = adj.lam @ system.matvec(du)
        rhs = (2.0 * disc.global_p() * u) @ du
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


def test_sensitivities_vanish_for_inert_material():
    material = MaterialModel(kappa_min=0.5, kappa_max=0.5, p=2.0)
    spec = ProblemSpec(
        domain=(0.0, 1.0), horizon=1.0, n_elements=3, nx=5, nt=5, material=material,
        q=lambda x: np.sin(np.pi * np.asarray(x, float)),
    )
    disc = Discretization(spec)
    rho = np.array([0.2, 0.5, 0.8])
    u, system, fact = forward(disc, rho)
    adj = solve_adjoint(disc, system, u, fact)
    grad = sensitivities(disc, u, adj.lam, rho)
    np.testing.assert_allclose(grad, 0.0, atol=0)


def test_gradient_matches_fd_two_design():
    spec, _ = two_design_benchmark(nx=10, nt=10)
    disc = Discretization(spec)
    rho = np.array([0.45, 0.30])
    u, system, fact = forward(disc, rho)
    adj = solve_adjoint(disc, system, u, fact)
    grad = sensitivities(disc, u, adj.lam, rho)
    fd = fd_gradient(disc, rho, reference=grad)
    rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-12)
    assert np.max(rel) <= 1e-6


def test_gradient_matches_fd_ten_design():
    rng = np.random.default_rng(77)
    material = MaterialModel(kappa_min=0.05, kappa_max=1.0, p=3.0)
    spec = ProblemSpec(
        domain=(0.0, 1.0), horizon=0.6, n_elements=10, nx=4, nt=5,
        material=material,
        bc_left="neumann",
        q=lambda x: np.asarray(x, float) * (1 - np.asarray(x, float)),
        f=lambda x, t: 1.0 + np.sin(3 * np.asarray(x, float)) * np.cos(np.asarray(t, float)),
    )
    disc = Discretization(spec)
    rho = np.clip(rng.uniform(0, 1, 10), 0.05, 0.95)
    u, system, fact = forward(disc, rho)
    adj = solve_adjoint(disc, system, u, fact)
    grad = sensitivities(disc, u, adj.lam, rho)
    fd = fd_gradient(disc, rho, reference=grad)
    rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-12)
    assert np.max(rel) <= 1e-5


@functools.cache
def preset_discretization(preset):
    # the two-design material has kappa_min = 0: rho = 0 switches conduction off
    spec, _ = {
        "two-design": lambda: two_design_benchmark(nx=8, nt=8),
        "cooling": lambda: cooling_benchmark(n_elements=6),
    }[preset]()
    return Discretization(spec)


@st.composite
def designs_with_extremes(draw):
    preset = draw(st.sampled_from(["two-design", "cooling"]))
    K = preset_discretization(preset).n_elements
    value = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.05, 0.95))
    return preset, np.array(draw(st.lists(value, min_size=K, max_size=K)))


@settings(max_examples=25)
@given(case=designs_with_extremes())
def test_gradient_matches_fd_property(case):
    # fourth-order central differences of J in each interior component;
    # components at exactly 0 or 1 would step outside the design box.  The
    # differences carry a rounding error of about eps cond(A) |J| / h, which
    # dominates on the cooling preset (kappa_min = 1e-3, cond(A) 1e7 to 1e12);
    # over 600 components the error stayed below 1.2e-2 of the tolerance.
    preset, rho = case
    disc = preset_discretization(preset)
    u, system, fact = forward(disc, rho)
    adj = solve_adjoint(disc, system, u, fact)
    grad = sensitivities(disc, u, adj.lam, rho)
    h = 1e-4
    tol = 1e-6 * np.max(np.abs(grad)) + EPS * condition_estimate(system) * objective(u, disc) / h
    for k in np.flatnonzero((rho > 0) & (rho < 1)):
        j = [objective(forward(disc, rho + m * h * np.eye(rho.size)[k])[0], disc) for m in (-2, -1, 1, 2)]
        fd = (j[0] - 8 * j[1] + 8 * j[2] - j[3]) / (12 * h)
        assert abs(fd - grad[k]) <= tol, (k, fd, grad[k], tol)


def test_functional_superconverges_relative_to_state():
    sol = two_domain_solution(0.45, 0.30)
    j_exact = exact_objective_quadrature(sol)
    state_errs, j_errs, ns = [], [], []
    for n in (4, 5, 6, 7, 8):
        disc = Discretization(two_domain_problem(sol, n, n))
        u = forward(disc, np.array([sol.kappa_1, sol.kappa_2]))[0]
        exact = sol(*disc.coordinates())
        p = disc.global_p()
        state = np.sqrt((u - exact) @ (p * (u - exact)))
        j_err = abs(objective(u, disc) - j_exact)
        if state > 1e-13 and j_err > 1e-14:
            ns.append(n)
            state_errs.append(state)
            j_errs.append(j_err)
    assert len(ns) >= 3
    logn = np.log(ns)
    slope_state = -np.polyfit(logn, np.log(state_errs), 1)[0]
    slope_j = -np.polyfit(logn, np.log(j_errs), 1)[0]
    assert slope_j >= slope_state + 1.0
