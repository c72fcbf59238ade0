from dataclasses import replace

import numpy as np
import pytest
from oracle import NEUMANN_SIGN, objectives

from stheat import baselines, optimize
from stheat.adjoint import objective
from stheat.assembly import Discretization, assemble_global
from stheat.baselines import (
    be_aao_solve,
    be_march,
    be_objective,
    fe_assemble,
    run_topology_optimization_be,
)
from stheat.blocksolve import solve_system
from stheat.errors import NumericalError
from stheat.optimize import run_topology_optimization, uniform_feasible_design
from stheat.presets import cooling_benchmark, two_design_benchmark
from stheat.problem import MaterialModel, ProblemSpec

SOLVERS = ("st-se", "be-fe", "be-fe-aao")
BE_STEPS = 64


def _cooling_run(solver, **kwargs):
    """One design loop on the six-cell cooling preset with the given solver."""
    spec, vstar = cooling_benchmark(n_elements=6)
    if solver == "st-se":
        trace = run_topology_optimization(spec, vstar, **kwargs)
    else:
        trace = run_topology_optimization_be(
            spec, vstar, BE_STEPS, aao=solver == "be-fe-aao", **kwargs
        )
    return spec, vstar, trace


def _fresh_objective(solver, spec, rho):
    """J at rho from a forward solve built outside the design loop."""
    if solver == "st-se":
        disc = Discretization(spec)
        u, _ = solve_system(assemble_global(disc, rho))
        return objective(u, disc)
    fe = fe_assemble(spec, rho)
    solve = be_aao_solve if solver == "be-fe-aao" else be_march
    return be_objective(solve(fe, BE_STEPS))


def test_uniform_feasible_design():
    rho = uniform_feasible_design(np.array([0.5, 0.5]), 0.375)
    np.testing.assert_allclose(rho, 0.375)
    rho = uniform_feasible_design(np.array([1.0, 1.0]), 5.0)
    np.testing.assert_allclose(rho, 1.0)


def test_two_design_optimum_moves_heat_toward_cold_boundary():
    # cooling the left (cold, zero) boundary harder: optimal kappa_1 > kappa_2
    spec, vstar = two_design_benchmark(nx=12, nt=10)
    trace = run_topology_optimization(spec, vstar, tol_design=1e-8, max_iters=100)
    rho = trace.final_rho
    assert rho[0] > rho[1]
    assert rho @ spec.element_volumes <= vstar + 1e-9
    assert trace.stop_reason in ("design_change", "max_iterations")


def test_inert_material_stops_immediately():
    material = MaterialModel(kappa_min=0.3, kappa_max=0.3, p=1.0)
    spec = ProblemSpec(
        domain=(0.0, 1.0), horizon=0.5, n_elements=3, nx=4, nt=4, material=material,
        q=lambda x: np.sin(np.pi * np.asarray(x, float)),
    )
    trace = run_topology_optimization(spec, volume_bound=1.0, tol_design=1e-8)
    assert trace.iterations == 1
    assert trace.records[0].design_change == 0.0
    assert trace.stop_reason == "design_change"


@pytest.mark.parametrize("solver", SOLVERS)
def test_trace_metrics_definitions(solver):
    spec, vstar, trace = _cooling_run(solver, tol_design=1e-3, max_iters=20)
    rhos = [r.rho for r in trace.records]
    start = uniform_feasible_design(spec.element_volumes, vstar)
    prev = start
    for rec in trace.records:
        assert rec.design_change == pytest.approx(
            np.max(np.abs(rec.rho - prev)), abs=0
        )
        prev = rec.rho
    js = objectives(trace)
    for i in range(1, len(js)):
        expected = abs(js[i] - js[i - 1]) / max(abs(js[i - 1]), 1e-12)
        assert trace.records[i].objective_rel_change == pytest.approx(expected)
    assert trace.records[0].objective_rel_change == np.inf
    assert all(r.wall_time >= 0 for r in trace.records)
    # the three parts are timed back to back inside the iteration's wall time
    for r in trace.records:
        parts = (r.forward_s, r.gradient_s, r.update_s)
        assert min(parts) >= 0 and sum(parts) <= r.wall_time
    np.testing.assert_allclose(trace.final_rho, rhos[-1], atol=0)
    assert trace.final_objective == pytest.approx(
        _fresh_objective(solver, spec, trace.final_rho), rel=1e-13, abs=0
    )


@pytest.mark.parametrize("solver", SOLVERS)
def test_capped_run_stops_at_max_iterations(solver):
    spec, _, trace = _cooling_run(solver, tol_design=1e-12, max_iters=2)
    assert trace.stop_reason == "max_iterations" and not trace.converged
    assert trace.iterations == 2
    np.testing.assert_array_equal(trace.final_rho, trace.records[-1].rho)
    assert trace.final_objective == pytest.approx(
        _fresh_objective(solver, spec, trace.final_rho), rel=1e-13, abs=0
    )


def test_marching_and_all_at_once_traces_agree():
    _, _, march = _cooling_run("be-fe", tol_design=1e-3, max_iters=20)
    _, _, aao = _cooling_run("be-fe-aao", tol_design=1e-3, max_iters=20)
    # the all-at-once driver is the march plus accounting: identical numbers
    assert march.iterations == aao.iterations and march.stop_reason == aao.stop_reason
    for a, b in zip(march.records, aao.records):
        assert a.objective == b.objective and a.design_change == b.design_change
        np.testing.assert_array_equal(a.rho, b.rho)
    assert march.final_objective == aao.final_objective


@pytest.mark.parametrize("solver", ("st-se", "be-fe"))
def test_start_design_shape_checked_before_any_solve(solver, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the start design was checked")

    monkeypatch.setattr(optimize, "assemble_global", no_solve)
    monkeypatch.setattr(baselines, "fe_assemble", no_solve)
    with pytest.raises(ValueError, match=r"design must have 6 entries, got shape \(1,\)"):
        _cooling_run(solver, initial_rho=[0.5])


def test_design_independent_pieces_are_built_before_the_loop(monkeypatch):
    # built on first use, they would land in iteration 1's forward_s
    built = []
    assemble = optimize.assemble_global

    def record(disc, rho):
        built.append({name for name in ("schur", "rhs", "spatial_terms") if name in vars(disc)})
        return assemble(disc, rho)

    monkeypatch.setattr(optimize, "assemble_global", record)
    _cooling_run("st-se", max_iters=1)
    assert built[0] == {"schur", "rhs", "spatial_terms"}


def test_feasibility_throughout():
    spec, vstar = two_design_benchmark(nx=8, nt=8)
    trace = run_topology_optimization(spec, vstar, tol_design=1e-8, max_iters=40)
    volumes = spec.element_volumes
    for rec in trace.records:
        assert rec.rho @ volumes <= vstar + 1e-9
        assert np.all(rec.rho >= -1e-12) and np.all(rec.rho <= 1 + 1e-12)


@pytest.mark.parametrize("j", [np.inf, np.nan])
def test_non_finite_objective_refused_before_its_gradient(j):
    js = iter([1.0, j])

    def forward(rho):
        return next(js), None

    gradients = []

    def gradient(rho, state):
        gradients.append(rho)
        return np.ones_like(rho)

    with pytest.raises(NumericalError, match=f"iteration 2: the objective J = {j} is not finite"):
        optimize._run_design_loop(forward, gradient, np.full(4, 0.25), 0.5, None, 0.0, 5)
    assert len(gradients) == 1


@NEUMANN_SIGN
@pytest.mark.parametrize("ends", [("neumann", "dirichlet"), ("dirichlet", "neumann")],
                         ids=["neumann-dirichlet", "dirichlet-neumann"])
@pytest.mark.parametrize("K", [6, 8])
def test_neumann_cooling_optimum_agrees_with_backward_euler(K, ends):
    # two independent discretizations of the same design problem: the st-se
    # optimum's J lies within 5e-2 of be-fe's at 2048 steps.  With the sign of
    # the FE loads the gaps read 0.031, 0.033, 0.027 and 0.018 (K = 6 and 8,
    # each mix); at the defect's, 7.1e3, 3.2e5, 1.3 and 0.57
    spec, vstar = cooling_benchmark(n_elements=K)
    spec = replace(spec, bc_left=ends[0], bc_right=ends[1])
    j_st = run_topology_optimization(spec, vstar).final_objective
    j_be = run_topology_optimization_be(spec, vstar, 2048).final_objective
    assert abs(j_st - j_be) <= 5e-2 * j_be
