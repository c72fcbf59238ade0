"""Verification studies: manufactured solutions, convergence sweeps,
energy-estimate checks, and cross-validation of the optimization pipeline.

These routines are the library's acceptance machinery: everything here
compares the discretization against an independent reference (closed-form
solutions, high-order quadrature of exact expressions, or a derivative-free
scalar optimizer) rather than against itself.
"""

from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss

from .adjoint import objective
from .assembly import Discretization, assemble_global, north_trace
from .blocksolve import solve_system
from .mma import scalar_minimize
from .optimize import run_topology_optimization
from .presets import manufactured_design, manufactured_state, two_design_benchmark
from .problem import MaterialModel, ProblemSpec, kappa
from .sbp import build_sbp_1d, verify_sbp


def mms_source(u_exact, u_t, u_x, u_xx, rho, spec):
    """Source term making ``u_exact`` solve the heat equation at design rho.

    The returned callable is element aware (it must be: the per-element
    diffusivity jumps at interfaces, so the source has one-sided values at
    shared interface nodes): ``element`` is one element index, or an array
    of one per point as ``Discretization.rhs`` passes it.  The supplied derivative callables are
    cross-checked against finite differences at 20 seeded sample points.
    """
    rng = np.random.default_rng(7)
    a, b = spec.domain
    xs = rng.uniform(a + 0.05 * (b - a), b - 0.05 * (b - a), 20)
    ts = rng.uniform(0.0, spec.horizon, 20)
    h = 1e-5
    fd_t = (u_exact(xs, ts + h) - u_exact(xs, ts - h)) / (2 * h)
    fd_x = (u_exact(xs + h, ts) - u_exact(xs - h, ts)) / (2 * h)
    fd_xx = (u_x(xs + h, ts) - u_x(xs - h, ts)) / (2 * h)
    scale = max(1.0, np.max(np.abs(u_exact(xs, ts))))
    for fd, exact, name in (
        (fd_t, u_t(xs, ts), "u_t"),
        (fd_x, u_x(xs, ts), "u_x"),
        (fd_xx, u_xx(xs, ts), "u_xx"),
    ):
        if np.max(np.abs(fd - exact)) > 1e-6 * scale:
            raise ValueError(f"derivative callable {name} disagrees with finite differences")
    kap = kappa(np.asarray(rho, dtype=float), spec.material)

    def source(x, t, element=None):
        x = np.asarray(x, dtype=float)
        if element is None:
            idx = np.clip(
                np.searchsorted(spec.element_edges, x, side="right") - 1,
                0,
                spec.n_elements - 1,
            )
            k_loc = kap[idx]
        else:
            k_loc = kap[element]
        return u_t(x, t) - k_loc * u_xx(x, t)

    source.element_aware = True
    return source


def _tensor_gauss_objective(u_exact, spec):
    """Quadrature oracle for the exact space-time squared integral, 100
    Gauss points a direction on each element."""
    xg, wg = leggauss(100)
    tq = 0.5 * spec.horizon * (xg + 1.0)
    wt = 0.5 * spec.horizon * wg
    total = 0.0
    edges = spec.element_edges
    for lo, hi in zip(edges[:-1], edges[1:]):
        xq = 0.5 * (hi - lo) * xg + 0.5 * (hi + lo)
        wx = 0.5 * (hi - lo) * wg
        vals = u_exact(xq[None, :], tq[:, None]) ** 2
        total += wt @ vals @ wx
    return float(total)


@dataclass
class ConvergencePoint:
    n: int
    state_error: float
    objective_error: float


def forward_convergence_spec(n):
    """Manufactured forward problem at per-element degree n in both
    directions: ten elements on [-2, 1] x [0, 1], the seeded two-level
    design, and the source that makes ``manufactured_state`` exact."""
    rho = manufactured_design(10)
    u, u_t, u_x, u_xx = manufactured_state()
    spec = ProblemSpec(
        domain=(-2.0, 1.0), horizon=1.0, n_elements=10, nx=n, nt=n,
        material=MaterialModel(kappa_min=0.1, kappa_max=1.0, p=3.0),
        q=lambda x: u(x, np.zeros_like(np.asarray(x, dtype=float))),
    )
    return replace(spec, f=mms_source(u, u_t, u_x, u_xx, rho, spec)), rho, u


def convergence_study(n_values):
    """Fixed-design forward sweep: discrete error and objective error per n."""
    points = []
    j_exact = None
    for n in n_values:
        spec, rho, u = forward_convergence_spec(n)
        if j_exact is None:
            j_exact = _tensor_gauss_objective(u, spec)
        disc = Discretization(spec)
        system = assemble_global(disc, rho)
        uh, _ = solve_system(system)
        exact = u(*disc.coordinates())
        p = disc.global_p()
        err = float(np.sqrt((uh - exact) @ (p * (uh - exact))))
        points.append(
            ConvergencePoint(
                n=n,
                state_error=err,
                objective_error=abs(objective(uh, disc) - j_exact),
            )
        )
    return points


def monotone_with_plateau(errors, plateau=1e-12, slack=1.5):
    """True if errors decrease until they reach the round-off plateau."""
    for a, b in zip(errors, errors[1:]):
        if a > plateau and b > slack * a:
            return False
    return True


def energy_estimate_sides(spec, rho, sigma_0=1.0):
    """Both sides of the terminal-energy bound for a data-free problem.

    Solves with the spec's initial data but zero source/boundary data (the
    spec must be built that way) and initial penalty ``sigma_0``, and
    returns (terminal energy, bound).  The bound needs sigma_0 > 1/2.
    """
    disc = Discretization(spec, sigma_0=sigma_0)
    system = assemble_global(disc, rho)
    u, _ = solve_system(system)
    lhs = 0.0
    for op_x, tr in zip(disc.ops_x, north_trace(disc, u)):
        lhs += tr @ (op_x.weights * tr)
    rhs = 0.0
    for op_x in disc.ops_x:
        qk = np.asarray(spec.q(op_x.nodes), dtype=float)
        rhs += qk @ (op_x.weights * qk)
    bound = rhs / (2.0 * sigma_0 - 1.0)
    return float(lhs), float(bound)


def operator_suite_report(seed=3):
    """Worst violations of the SBP operator invariants over 2 to 16 nodes,
    with six random vector pairs a size for integration by parts."""
    worst = {"sbp_identity": 0.0, "accuracy": 0.0, "spd": 0.0, "ibp_relative": 0.0}
    rng = np.random.default_rng(seed)
    for n in range(2, 17):
        op = build_sbp_1d(n, (0.0, 1.0))
        rep = verify_sbp(op)
        for key in ("sbp_identity", "accuracy", "spd"):
            worst[key] = max(worst[key], rep[key])
        # x-direction operators of the space-time element op (x) op
        Q, E = np.kron(op.P, op.Q), np.kron(op.P, op.E)
        for _ in range(6):
            u = rng.standard_normal(n * n)
            v = rng.standard_normal(n * n)
            gap = abs(u @ (Q + Q.T) @ v - u @ E @ v)
            worst["ibp_relative"] = max(
                worst["ibp_relative"], gap / (np.linalg.norm(u) * np.linalg.norm(v))
            )
    return worst


@dataclass
class CrossValidation:
    reference_rho: np.ndarray
    reference_objective: float
    nx_sweep: list  # (n, design_relerr, objective_relerr)
    nt_sweep: list


def reference_optimum(nx, nt):
    """The two-design optimum (design, J) at resolution nx x nt, found
    without gradients: ``scalar_minimize`` over kappa_1 on the
    volume-saturated line kappa_1 + kappa_2 = 0.75, one forward solve a point."""
    spec, vstar = two_design_benchmark(nx=nx, nt=nt)
    disc = Discretization(spec)

    def j_of_k1(k1):
        system = assemble_global(disc, np.array([k1, 0.75 - k1]))
        u, _ = solve_system(system)
        return objective(u, disc)

    k1, j_star = scalar_minimize(j_of_k1, (1e-4, 0.75 - 1e-4), tol=1e-8)
    return np.array([k1, 0.75 - k1]), j_star


def crossvalidate_optimum():
    """Compare the gradient-based optimizer against the scalar reference.

    The reference is ``reference_optimum`` at 80 x 60; the sweeps rerun
    the full MMA pipeline (tol_design 1e-8, at most 100 iterations) over
    nx at nt = 30 and over nt at nx = 40, and report relative design and
    objective errors against the reference.
    """
    ref_rho, ref_j = reference_optimum(80, 60)

    def mma_point(nx, nt):
        spec, vstar = two_design_benchmark(nx=nx, nt=nt)
        trace = run_topology_optimization(spec, vstar, tol_design=1e-8, max_iters=100)
        d_err = np.max(np.abs(trace.final_rho - ref_rho)) / np.max(np.abs(ref_rho))
        j_err = abs(trace.final_objective - ref_j) / abs(ref_j)
        return float(d_err), float(j_err)

    return CrossValidation(
        reference_rho=ref_rho,
        reference_objective=ref_j,
        nx_sweep=[(n, *mma_point(n, 30)) for n in (2, 3, 4, 5, 6, 8, 40)],
        nt_sweep=[(n, *mma_point(40, n)) for n in (2, 3, 4, 5, 6, 8, 30)],
    )


def fitted_slope(ns, errors, floor=5e-8):
    """Least-squares log-log slope over the points above the error floor."""
    ns_f, errs_f = [], []
    for n, e in zip(ns, errors):
        if e > floor:
            ns_f.append(n)
            errs_f.append(e)
    if len(ns_f) < 2:
        return np.inf  # everything already converged past the floor
    return float(-np.polyfit(np.log(ns_f), np.log(errs_f), 1)[0])
