import re
from dataclasses import replace
from decimal import Decimal, localcontext
from types import ModuleType

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import (
    be_block_back_substitution,
    be_block_elimination,
    be_block_system,
    fitted_slope,
    smooth_problem,
)

from stheat import baselines
from stheat.baselines import (
    _adjoint_modes,
    _decay_powers,
    _modal_basis,
    be_adjoint_and_sensitivity,
    be_march,
    be_objective,
    fe_assemble,
    run_topology_optimization_be,
)
from stheat.errors import ResourceLimitError
from stheat.presets import cooling_benchmark, two_design_benchmark
from stheat.problem import MaterialModel, ProblemSpec, dkappa_drho
from stheat.verification import forward_convergence_spec

UNIT = MaterialModel(kappa_min=1.0, kappa_max=1.0, p=1.0)


def st_error(fe, sol, exact):
    diff = sol.states - exact(fe.nodes[:, None], sol.times[None, :])
    dt = sol.times[1] - sol.times[0]
    window = diff[:, 1:]
    return np.sqrt(dt * np.einsum("in,in->", window, fe.mass @ window))


def test_interior_stiffness_row_hand_assembled():
    # two elements of h = 1/2 and kappa = 1: interior row (-2, 4, -2)
    spec, _ = smooth_problem(K=2)
    fe = fe_assemble(spec, np.ones(2))
    np.testing.assert_allclose(fe.stiffness[1], [-2.0, 4.0, -2.0], atol=1e-13)


def test_stiffness_row_sums_vanish():
    spec, _ = smooth_problem(K=7)
    fe = fe_assemble(spec, np.linspace(0.2, 0.9, 7))
    np.testing.assert_allclose(fe.stiffness.sum(axis=1), 0.0, atol=1e-13)


def test_mass_total_is_domain_length():
    spec, _ = smooth_problem(K=9)
    fe = fe_assemble(spec, np.full(9, 0.5))
    assert fe.mass.sum() == pytest.approx(1.0, abs=1e-13)


def test_steady_linear_state_exact():
    # f = 0 steady: K u = 0 for linear u satisfying the BCs
    spec = ProblemSpec(
        domain=(0.0, 1.0), horizon=1.0, n_elements=5, nx=1, nt=1, material=UNIT,
    )
    fe = fe_assemble(spec, np.full(5, 1.0))
    u_lin = 2.0 * fe.nodes + 1.0
    r = fe.stiffness @ u_lin
    np.testing.assert_allclose(r[1:-1], 0.0, atol=1e-12)


def test_zero_data_stays_zero():
    spec = ProblemSpec(
        domain=(0.0, 1.0), horizon=1.0, n_elements=8, nx=1, nt=1, material=UNIT,
    )
    fe = fe_assemble(spec, np.full(8, 0.7))
    sol = be_march(fe, 16)
    np.testing.assert_allclose(sol.states, 0.0, atol=0)


def test_march_satisfies_step_equation():
    spec, _ = smooth_problem(K=12)
    fe = fe_assemble(spec, np.full(12, 1.0))
    n_steps = 24
    sol = be_march(fe, n_steps)
    dt = spec.horizon / n_steps
    fr = fe.free
    step = (fe.mass / dt + fe.stiffness)[np.ix_(fr, fr)]
    times = sol.times
    for n in (0, 7, n_steps - 1):
        lhs = step @ sol.states[fr, n + 1]
        load = fe.mass @ spec.f(fe.nodes, np.full_like(fe.nodes, times[n + 1]))
        rhs = (fe.mass / dt)[np.ix_(fr, fr)] @ sol.states[fr, n] + load[fr]
        assert np.linalg.norm(lhs - rhs) <= 1e-11 * np.linalg.norm(rhs)


def test_first_order_in_time_second_in_space():
    # temporal sweep at fine h, spatial sweep at fine dt
    errs_t = []
    for n_steps in (8, 16, 32, 64):
        spec, exact = smooth_problem(K=256)
        fe = fe_assemble(spec, np.ones(256))
        errs_t.append(st_error(fe, be_march(fe, n_steps), exact))
    slope_t = np.polyfit(np.log([8, 16, 32, 64]), np.log(errs_t), 1)[0]
    assert -slope_t == pytest.approx(1.0, abs=0.2)

    errs_x = []
    for K in (4, 8, 16, 32):
        spec, exact = smooth_problem(K=K)
        fe = fe_assemble(spec, np.ones(K))
        errs_x.append(st_error(fe, be_march(fe, 4096), exact))
    slope_x = np.polyfit(np.log([4, 8, 16, 32]), np.log(errs_x), 1)[0]
    assert -slope_x == pytest.approx(2.0, abs=0.2)


def test_neumann_data_converges_at_second_order():
    # the left end's flux data h = kappa u_x(0, t) enters the loads along the
    # outward normal; a wrong sign there leaves an O(1) error at every K
    errs = []
    for K in (8, 16, 32, 64):
        spec, exact = smooth_problem(K=K, bc_left="neumann")
        fe = fe_assemble(spec, np.ones(K))
        sol = be_march(fe, 4096)
        errs.append(np.max(np.abs(sol.states[:, -1] - exact(fe.nodes, spec.horizon))))
    # measured 1.95e-2, 4.86e-3, 1.20e-3, 2.86e-4
    assert errs[-1] <= 3e-4
    assert fitted_slope([8, 16, 32, 64], errs, floor=0.0) >= 1.9


def test_unconditional_energy_decay():
    spec = ProblemSpec(
        domain=(0.0, 1.0), horizon=1.0, n_elements=20, nx=1, nt=1,
        material=MaterialModel(0.05, 1.0, 2.0),
        q=lambda x: np.sign(np.sin(7 * np.asarray(x, float))),
    )
    rng = np.random.default_rng(4)
    fe = fe_assemble(spec, rng.uniform(0, 1, 20))
    sol = be_march(fe, 10)  # huge dt on purpose
    norms = [
        sol.states[:, n] @ fe.mass @ sol.states[:, n] for n in range(sol.times.size)
    ]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))


def test_aao_matches_marching():
    spec, _ = smooth_problem(K=14, bc_left="neumann")
    rng = np.random.default_rng(9)
    fe = fe_assemble(spec, rng.uniform(0.1, 1.0, 14))
    march = be_march(fe, 64)
    ref = be_block_elimination(fe, 64)
    scale = np.max(np.abs(march.states))
    assert np.max(np.abs(ref.states - march.states)) <= 1e-12 * scale


def data_problem(K, bc_left, bc_right):
    """Nonzero source, initial and boundary data of either kind on both ends."""
    return ProblemSpec(
        domain=(0.0, 1.0), horizon=1.0, n_elements=K, nx=1, nt=1,
        material=MaterialModel(1e-3, 1.0, 3.0),
        bc_left=bc_left, bc_right=bc_right,
        h=lambda t: np.cos(3.0 * np.asarray(t, float)),
        g=lambda t: 1.0 + np.asarray(t, float) ** 2,
        q=lambda x: np.sin(5.0 * np.asarray(x, float)),
        f=lambda x, t: 10.0 + np.sin(10.0 * (x + t)),
    )


@st.composite
def designs_and_steps(draw):
    K = draw(st.integers(1, 8))
    value = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    return np.array(draw(st.lists(value, min_size=K, max_size=K))), draw(st.integers(1, 64))


def assert_march_and_adjoint_match_block_oracle(spec, rho, n_steps):
    fe = fe_assemble(spec, rho)
    # the adjoint reuses the forward's modal basis and decay, which is valid
    # only because both matrices are exactly symmetric
    np.testing.assert_array_equal(fe.mass, fe.mass.T)
    np.testing.assert_array_equal(fe.stiffness, fe.stiffness.T)
    march = be_march(fe, n_steps)
    ref = be_block_elimination(fe, n_steps)
    assert np.max(np.abs(march.states - ref.states)) <= 1e-12 * np.max(np.abs(ref.states))
    # lambda solves the transposed all-at-once system against dJ/du of levels 1..N
    lam = march.free_levels(_adjoint_modes(march)).ravel()
    dt = spec.horizon / n_steps
    dj_du = (2.0 * dt * fe.mass @ march.states[:, 1:])[fe.free].T.ravel()
    residual = be_block_system(fe, n_steps).T @ lam - dj_du
    assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(dj_du)


@pytest.mark.parametrize("bc_left", ["dirichlet", "neumann"])
@pytest.mark.parametrize("bc_right", ["dirichlet", "neumann"])
@settings(max_examples=25)
@given(case=designs_and_steps())
def test_march_and_adjoint_property_against_block_oracle(bc_left, bc_right, case):
    rho, n_steps = case
    assert_march_and_adjoint_match_block_oracle(data_problem(rho.size, bc_left, bc_right),
                                                rho, n_steps)


@pytest.mark.parametrize("bc_left", ["dirichlet", "neumann"])
@pytest.mark.parametrize("bc_right", ["dirichlet", "neumann"])
@pytest.mark.parametrize("n_steps", [1, 2, 3, 4, 5, 17, 63, 64, 65, 1000, 4099])
def test_march_and_adjoint_block_edges(bc_left, bc_right, n_steps):
    # the blocked sweep cuts N levels into isqrt(N)-level blocks plus a tail:
    # single levels, perfect squares and their neighbours, primes, long tails
    rho = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.3, 0.0, 1.0, 1.0, 1.0, 0.0])
    assert_march_and_adjoint_match_block_oracle(data_problem(rho.size, bc_left, bc_right),
                                                rho, n_steps)


@pytest.mark.parametrize("design", ["half", "alternating"])
def test_march_and_adjoint_match_block_oracle_at_benchmark_size(design):
    # the modal march at the size the cooling-be benchmark runs: 50 cells,
    # 8192 steps, a uniform and a 0/1 design.  The all-at-once residual of
    # the check above cannot resolve 1e-12 here: eps |A| |lambda| / |dJ/du|
    # is 1.3e-12 to 1.6e-12, so the adjoint is compared with a level-by-level
    # solve of the transposed system instead, as the states are.
    spec, _ = cooling_benchmark()
    rho = np.full(50, 0.5) if design == "half" else np.arange(50) % 2.0
    fe = fe_assemble(spec, rho)
    march = be_march(fe, 8192)
    ref = be_block_elimination(fe, 8192)
    assert np.max(np.abs(march.states - ref.states)) <= 1e-12 * np.max(np.abs(ref.states))
    dj_du = (2.0 * (spec.horizon / 8192) * fe.mass @ march.states[:, 1:])[fe.free].T
    lam_ref = be_block_back_substitution(fe, 8192, dj_du)
    lam = march.free_levels(_adjoint_modes(march))
    assert np.max(np.abs(lam - lam_ref)) <= 1e-12 * np.max(np.abs(lam_ref))


def test_be_gradient_matches_fd():
    K = 10
    material = MaterialModel(0.05, 1.0, 3.0)
    spec = ProblemSpec(
        domain=(0.0, 1.0), horizon=1.0, n_elements=K, nx=1, nt=1,
        material=material,
        bc_left="neumann",
        f=lambda x, t: 10.0 + np.sin(10.0 * (x + t)) + np.sin(10.0 * t),
    )
    rng = np.random.default_rng(123)
    rho = np.clip(rng.uniform(0, 1, K), 0.05, 0.95)
    n_steps = 64

    def j_of(r):
        fe = fe_assemble(spec, r)
        return be_objective(be_march(fe, n_steps))

    fe = fe_assemble(spec, rho)
    sol = be_march(fe, n_steps)
    grad = be_adjoint_and_sensitivity(sol, rho)
    for k in range(K):
        best = np.inf
        for h in (1e-4, 1e-5, 1e-6):
            rp, rm = rho.copy(), rho.copy()
            rp[k] += h
            rm[k] -= h
            fd = (j_of(rp) - j_of(rm)) / (2 * h)
            best = min(best, abs(grad[k] - fd) / max(abs(fd), 1e-12))
        assert best <= 1e-5, f"component {k}: rel err {best}"


@pytest.mark.parametrize("bc_left", ["dirichlet", "neumann"])
@pytest.mark.parametrize("bc_right", ["dirichlet", "neumann"])
@pytest.mark.parametrize("K", [1, 2, 7])
def test_be_sensitivity_contraction_against_padded_adjoint(bc_left, bc_right, K):
    # -lambda^T (dK/drho_k) u with lambda zero-padded onto every node
    rho = np.linspace(0.1, 0.9, K)
    fe = fe_assemble(data_problem(K, bc_left, bc_right), rho)
    sol = be_march(fe, 37)
    lam = np.zeros((fe.n_nodes, sol.n_steps))
    lam[fe.free] = sol.free_levels(_adjoint_modes(sol)).T
    dl, du = -np.diff(lam, axis=0), -np.diff(sol.states[:, 1:], axis=0)
    dkap = dkappa_drho(rho, fe.spec.material)
    expected = -(dkap / np.diff(fe.nodes)) * np.sum(dl * du, axis=1)
    np.testing.assert_allclose(be_adjoint_and_sensitivity(sol, rho), expected,
                               rtol=1e-13, atol=1e-13 * np.max(np.abs(expected)))


def test_be_gradient_zero_for_inert_material():
    spec, _ = smooth_problem(K=6, material=MaterialModel(0.4, 0.4, 2.0))
    rho = np.linspace(0.1, 0.9, 6)
    fe = fe_assemble(spec, rho)
    sol = be_march(fe, 32)
    grad = be_adjoint_and_sensitivity(sol, rho)
    np.testing.assert_allclose(grad, 0.0, atol=0)


def test_be_sensitivity_symmetric_profile():
    # symmetric problem and design: gradient symmetric under reflection
    K = 8
    spec = ProblemSpec(
        domain=(0.0, 1.0), horizon=0.5, n_elements=K, nx=1, nt=1,
        material=MaterialModel(0.1, 1.0, 2.0),
        q=lambda x: np.sin(np.pi * np.asarray(x, float)),
    )
    rho = np.full(K, 0.6)
    fe = fe_assemble(spec, rho)
    sol = be_march(fe, 64)
    grad = be_adjoint_and_sensitivity(sol, rho)
    np.testing.assert_allclose(grad, grad[::-1], rtol=1e-10, atol=1e-14)


def counting_problem(horizon=1.0, offset=10.0):
    """data_problem's Neumann/Dirichlet mix whose source counts its calls."""
    calls = []

    def f(x, t):
        calls.append(1)
        return offset + np.sin(10.0 * (x + t))

    spec = ProblemSpec(
        domain=(0.0, 1.0), horizon=horizon, n_elements=8, nx=1, nt=1,
        material=MaterialModel(1e-3, 1.0, 3.0), bc_left="neumann",
        g=lambda t: 1.0 + np.asarray(t, float) ** 2, f=f,
    )
    return spec, calls


def test_design_loop_builds_march_data_once_and_never_stale(monkeypatch):
    marches = []
    original = baselines.be_march

    def recording_march(fe, n_steps):
        sol = original(fe, n_steps)
        marches.append((fe, n_steps, sol))
        return sol

    monkeypatch.setattr(baselines, "be_march", recording_march)
    spec_a, calls_a = counting_problem()
    spec_b, calls_b = counting_problem(horizon=0.5, offset=3.0)
    for spec, calls, n_steps in ((spec_a, calls_a, 16), (spec_a, calls_a, 24), (spec_b, calls_b, 16)):
        start = len(calls)
        trace = run_topology_optimization_be(spec, 0.5, n_steps, max_iters=4)
        assert trace.iterations == 4
        # one source evaluation per loop, not one per forward solve
        assert len(calls) - start == 1
    assert len(marches) == 3 * 5
    for fe, n_steps, sol in marches:
        # a fresh discretization carries no cache, so this march rebuilds everything
        fresh = original(replace(fe), n_steps)
        np.testing.assert_array_equal(sol.states, fresh.states)
        np.testing.assert_array_equal(sol.times, fresh.times)
    # a loop's discretization marched at another step count rebuilds its data
    fe, _, _ = marches[0]
    np.testing.assert_array_equal(original(fe, 20).states, original(replace(fe), 20).states)


@pytest.mark.parametrize("aao", [False, True], ids=["march", "aao"])
def test_design_loop_factors_each_step_matrix_once(monkeypatch, aao):
    bases, solved = [], []
    original = baselines._modal_basis

    def counting_basis(fe):
        bases.append(fe)
        return original(fe)

    def recording_solve(*args, **kwargs):
        solved.append(args)
        return np.linalg.solve(*args, **kwargs)

    monkeypatch.setattr(baselines, "_modal_basis", counting_basis)
    monkeypatch.setattr(baselines.np.linalg, "solve", recording_solve)
    spec, _ = counting_problem()
    trace = run_topology_optimization_be(spec, 0.5, 16, aao=aao, max_iters=4)
    assert trace.iterations == 4
    # one modal decomposition per forward march, the final design's included:
    # the adjoint runs on the forward's basis and decay, and nothing solves
    assert len(bases) == trace.iterations + 1
    assert solved == []


@pytest.mark.parametrize("bc_left", ["dirichlet", "neumann"])
@pytest.mark.parametrize("bc_right", ["dirichlet", "neumann"])
@pytest.mark.parametrize("rho", [np.linspace(0.1, 1.0, 9), np.arange(9) % 2.0,
                                 np.array([1.0, 0.0, 0.0, 1.0, 0.5, 1.0, 0.0, 1.0, 1.0])],
                         ids=["graded", "alternating", "zero-cells"])
def test_modal_basis_is_m_orthonormal_eigenbasis(bc_left, bc_right, rho):
    # kappa_min = 0 makes the rho = 0 cells non-conducting: with Neumann ends
    # they split the rod into pieces, each with a constant null vector
    spec = ProblemSpec(domain=(0.0, 1.0), horizon=1.0, n_elements=9, nx=1, nt=1,
                       material=MaterialModel(0.0, 1.0, 3.0), bc_left=bc_left, bc_right=bc_right)
    fe = fe_assemble(spec, rho)
    fr = fe.free
    m_ff, k_ff = fe.mass[np.ix_(fr, fr)], fe.stiffness[np.ix_(fr, fr)]
    lam, basis = _modal_basis(fe)
    assert lam.shape == (fr.size,) and np.all(lam >= 0.0)
    np.testing.assert_allclose(basis.T @ m_ff @ basis, np.eye(fr.size), rtol=0, atol=1e-12)
    scale = np.max(np.abs(k_ff)) * np.max(np.abs(basis))
    assert np.max(np.abs(k_ff @ basis - m_ff @ basis * lam)) <= 1e-12 * scale
    if bc_left == bc_right == "neumann":
        # one null vector per piece: nodes minus conducting cells
        assert np.sum(lam <= 1e-12 * lam.max()) == fe.n_nodes - np.count_nonzero(rho)


def test_decay_powers_are_not_powers_of_the_rounded_decay():
    # mu^k = (1 + dt lam)^-k for the block length of a 16384-step march: the
    # rounding error of mu, raised to the k-th power, grows to k ulps, where
    # exp(-k log1p(dt lam)) stays within a few ulps of k log1p(dt lam) + 1
    dt, size = 1.0 / 16384, 128
    lam = np.geomspace(1e-3, 1e5, 101)
    powers = _decay_powers(dt, lam, size)
    with localcontext() as ctx:
        ctx.prec = 40
        decay = [1 / (1 + Decimal(dt) * Decimal(x)) for x in lam]
        exact = np.array([[float(mu**k) for mu in decay] for k in range(1, size + 1)])
    rel = np.abs(powers - exact) / exact
    exponent = np.arange(1, size + 1)[:, None] * np.log1p(dt * lam)
    assert np.all(rel <= 4 * np.finfo(float).eps * (1 + exponent))


def test_march_refuses_histories_above_the_cap(monkeypatch):
    spec, _ = smooth_problem(K=50)
    fe = fe_assemble(spec, np.full(50, 0.5))
    # 10^12 levels of 51 nodes: refused before anything that size is allocated
    with pytest.raises(ResourceLimitError, match="above the cap of 20000000"):
        be_march(fe, 10**12)
    assert 16385 * fe.n_nodes < baselines.MAX_MARCH_VALUES // 20
    monkeypatch.setattr(baselines, "MAX_MARCH_VALUES", 17 * fe.n_nodes)
    assert be_march(fe, 16).states.shape == (fe.n_nodes, 17)
    with pytest.raises(ResourceLimitError, match=f"17 steps on {fe.n_nodes} nodes"):
        be_march(fe, 17)


@pytest.mark.parametrize("elements, n_steps, message", [
    (10**9, 16384, "16384 steps on 1000000001 nodes: 16385000016385 values per history"),
    (5 * 10**6, 1, "5000000 elements: 25000010000001 values per mass or stiffness matrix"),
], ids=["history", "matrix"])
def test_design_loop_refuses_sizes_above_the_cap_before_building(monkeypatch, elements, n_steps,
                                                                 message):
    spec, bound = cooling_benchmark(n_elements=elements)

    def unreachable(*args, **kwargs):
        raise AssertionError("built before the size check")

    monkeypatch.setattr(ProblemSpec, "element_edges", property(unreachable))
    monkeypatch.setattr(ProblemSpec, "element_volumes", property(unreachable))
    monkeypatch.setattr(baselines, "fe_assemble", unreachable)
    with pytest.raises(ResourceLimitError, match=f"^{message}, above the cap of 20000000$"):
        run_topology_optimization_be(spec, bound, n_steps)


def test_design_loop_size_cap_is_inclusive(monkeypatch):
    # K + 1 = 51 nodes: 51^2 values per matrix and (50 + 1) 51 per history fit a cap of 51^2
    monkeypatch.setattr(baselines, "MAX_MARCH_VALUES", 51 * 51)
    spec, bound = cooling_benchmark(n_elements=50)
    assert run_topology_optimization_be(spec, bound, 50, max_iters=1).iterations == 1
    with pytest.raises(ResourceLimitError, match="51 steps on 51 nodes"):
        run_topology_optimization_be(spec, bound, 51, max_iters=1)
    spec, bound = cooling_benchmark(n_elements=51)
    with pytest.raises(ResourceLimitError, match="51 elements: 2704 values"):
        run_topology_optimization_be(spec, bound, 1, max_iters=1)


@pytest.mark.parametrize("spec", [
    cooling_benchmark()[0],  # 10 + sin(10 (x + t)) + sin(10 t)
    two_design_benchmark()[0],  # a constant
    replace(cooling_benchmark(n_elements=6)[0], f=ProblemSpec.f),  # the default zero source
    forward_convergence_spec(3)[0],  # the manufactured source, by element
], ids=["cooling", "two-design", "zero", "manufactured"])
def test_loads_are_bitwise_the_full_grid_ones(spec):
    # the source is called on a row of nodes and a column of times; on the
    # full (levels x nodes) grid it gives the same values
    fe = fe_assemble(spec, np.full(spec.n_elements, 0.5))
    times = np.linspace(0.0, spec.horizon, 1025)
    T, X = np.broadcast_arrays(times[:, None], fe.nodes[None, :])
    full = np.asarray(spec.f(X.copy(), T.copy()), dtype=float) @ fe.mass
    if spec.bc_left == "neumann":
        full[:, 0] -= np.asarray(spec.h(times), dtype=float)
    if spec.bc_right == "neumann":
        full[:, -1] += np.asarray(spec.g(times), dtype=float)
    assert baselines._load_matrix(fe, times).tobytes() == full.tobytes()


@pytest.mark.parametrize("aao", [False, True], ids=["march", "aao"])
def test_design_loop_stays_on_numpys_blas(monkeypatch, aao):
    # NumPy and SciPy wheels each bundle an OpenBLAS with its own thread
    # pool; a loop that switches between them leaves the other pool's
    # workers spinning, so the backward-Euler loop calls NumPy's alone.
    # f2py's BLAS and LAPACK wrappers carry no __module__: match them by
    # identity, before any is patched below
    wrappers = {id(value) for module in (sla.blas, sla.lapack) for value in vars(module).values()
                if type(value).__name__ == "fortran"}

    def from_scipy_linalg(value):
        if isinstance(value, ModuleType):
            return value.__name__.startswith("scipy.linalg")
        origin = getattr(value, "__module__", None) or ""
        return origin.startswith("scipy.linalg") or id(value) in wrappers

    assert [name for name, value in vars(baselines).items() if from_scipy_linalg(value)] == []

    def refuse(name):
        def wrapper(*args, **kwargs):
            raise AssertionError(f"the backward-Euler loop called scipy.linalg {name}")
        return wrapper

    for name in ("lu_factor", "lu_solve", "solve", "inv"):
        monkeypatch.setattr(sla, name, refuse(name))
    monkeypatch.setattr(sla.blas, "dgemm", refuse("dgemm"))
    spec, _ = counting_problem()
    trace = run_topology_optimization_be(spec, 0.5, 16, aao=aao, max_iters=2)
    assert trace.iterations == 2


@pytest.mark.parametrize("rho", [np.float64(0.5), np.array([0.5]), np.full(7, 0.5)],
                         ids=["scalar", "size-1", "size-K+1"])
def test_fe_assemble_rejects_design_of_wrong_shape(rho):
    spec, _ = cooling_benchmark(n_elements=6)
    message = re.escape(f"design must have 6 entries, got shape {np.shape(rho)}")
    with pytest.raises(ValueError, match=message):
        fe_assemble(spec, rho)
