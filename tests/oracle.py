"""Reference solvers and checks for tests: dense oracles of the space-time
system, the per-element loop that builds the spatial operator's triples, a
complex-step gradient, the block elimination of the backward-Euler
all-at-once system and a complex-step gradient through it, the
cross-validation of the design loop against the scalar reference optimum,
the fluxes and time derivative of the closed-form two-domain solution, a
smooth exact solution with either kind of left end, and the mark of the
tests that the open Neumann sign defect fails."""

from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from stheat.baselines import _dirichlet_values, _load_matrix, fe_assemble
from stheat.optimize import run_topology_optimization
from stheat.presets import two_design_benchmark
from stheat.problem import MaterialModel, ProblemSpec
from stheat.twodomain import _eigencondition
from stheat.verification import reference_optimum

BlockSolution = namedtuple("BlockSolution", "times states")

NEUMANN_SIGN = pytest.mark.xfail(
    strict=True,
    reason="open defect: the Neumann flux terms double the SBP boundary term instead of "
           "cancelling it (ROADMAP item 1)",
)


def smooth_problem(K=16, bc_left="dirichlet", material=None, nx=1, nt=1):
    """u = sin(pi x) exp(-t) on [0, 1] x [0, 1] with kappa = 1, as (spec, exact).

    The right end is Dirichlet (u = 0); the left end is Dirichlet (u = 0) or
    Neumann with h = kappa u_x(0, t) = pi exp(-t).
    """
    kap = 1.0

    def exact(x, t):
        return np.sin(np.pi * x) * np.exp(-t)

    def f(x, t):
        return (-1.0 + kap * np.pi**2) * np.sin(np.pi * x) * np.exp(-t)

    def flux(t):
        return kap * np.pi * np.exp(-np.asarray(t, float))

    spec = ProblemSpec(
        domain=(0.0, 1.0), horizon=1.0, n_elements=K, nx=nx, nt=nt,
        material=material or MaterialModel(kap, kap, 1.0),
        bc_left=bc_left, h=flux if bc_left == "neumann" else ProblemSpec.h,
        q=lambda x: np.sin(np.pi * np.asarray(x, float)),
        f=f,
    )
    return spec, exact


def to_dense(system):
    """The matrix that ``system.matvec`` applies, built column by column."""
    return np.column_stack([system.matvec(e) for e in np.eye(system.n_unknowns)])


def kronecker_dense(system):
    """T (x) W + P_t (x) M as a dense matrix."""
    disc = system.disc
    return np.kron(disc.T, np.diag(disc.W)) + np.kron(np.diag(disc.op_t.weights), system.M.toarray())


def spatial_terms_by_element(disc):
    """``disc.spatial_terms`` built one element and one dense n x n factor at a time.

    Each term of element k is the Kronecker-free spatial factor of one SAT or
    diffusion term, written with the unit vectors e_w, e_e of its end nodes;
    its nonzero entries are taken row by row with ``np.nonzero``.
    """
    spec, sat, op_x = disc.spec, disc.sat, disc.op_x
    last = spec.n_elements - 1
    e_w, e_e = np.eye(disc.n_x)[[0, -1]]
    Eww, Eee, Ewe, Eew = (np.outer(a, b) for a, b in ((e_w, e_w), (e_e, e_e), (e_w, e_e), (e_e, e_w)))
    terms = []
    for k in range(spec.n_elements):
        Dx = op_x.D[k]
        terms.append((k, k, -(op_x.Q[k] @ Dx), 1.0, k))  # -kappa P D_x^2
        if k == 0:
            if spec.bc_left == "dirichlet":
                terms.append((k, k, Eww, sat.sigma_w, None))
            else:
                terms.append((k, k, Eww @ Dx, 1.0, k))
        else:
            Dx_left = op_x.D[k - 1]
            terms += [
                (k, k, Eww, sat.sigma_1, None),
                (k, k, Eww @ Dx, sat.sigma_2, k),
                (k, k, Dx.T @ Eww, sat.tau_1, k),
                (k, k - 1, Ewe, -sat.sigma_1, None),
                (k, k - 1, Ewe @ Dx_left, -sat.sigma_2, k - 1),
                (k, k - 1, Dx.T @ Ewe, -sat.tau_1, k),
            ]
        if k == last:
            if spec.bc_right == "dirichlet":
                terms.append((k, k, Eee, sat.sigma_e, None))
            else:
                terms.append((k, k, Eee @ Dx, -1.0, k))
        else:
            Dx_right = op_x.D[k + 1]
            terms += [
                (k, k, Eee, sat.sigma_3, None),
                (k, k, Eee @ Dx, sat.sigma_4, k),
                (k, k, Dx.T @ Eee, sat.tau_2, k),
                (k, k + 1, Eew, -sat.sigma_3, None),
                (k, k + 1, Eew @ Dx_right, -sat.sigma_4, k + 1),
                (k, k + 1, Dx.T @ Eew, -sat.tau_2, k),
            ]
    rows, cols, values, owner = [], [], [], []
    for row, col, factor, coefficient, kappa_of in terms:
        i, j = np.nonzero(factor)
        rows.append(row * disc.n_x + i)
        cols.append(col * disc.n_x + j)
        values.append(coefficient * factor[i, j])
        owner.append(np.full(i.size, -1 if kappa_of is None else kappa_of))
    return tuple(np.concatenate(a) for a in (rows, cols, values, owner))


COMPLEX_STEP = 1e-30


def complex_step_gradient(disc, rho):
    """dJ/drho by complex step (Squire-Trapp 1998), one dense complex solve per element.

    kappa is the power law evaluated here at rho + i h e_k, so an exact 0 or
    1 entry of rho needs no clamping; M(kappa) comes from ``disc.spatial_terms``
    and A = T (x) W + P_t (x) M is solved densely.  J = u^T P u takes no
    conjugate, so dJ/drho_k = Im(J) / h to within h^2 of the exact derivative.
    """
    material, rows, cols, values, owner = disc.spec.material, *disc.spatial_terms
    n_s = disc.W.size
    grad = np.empty(rho.size)
    for k in range(rho.size):
        rho_k = rho.astype(complex)
        rho_k[k] += 1j * COMPLEX_STEP
        kap = material.kappa_min + (material.kappa_max - material.kappa_min) * rho_k**material.p
        M = np.zeros((n_s, n_s), dtype=complex)
        np.add.at(M, (rows, cols), values * np.append(kap, 1.0)[owner])
        A = np.kron(disc.T, np.diag(disc.W)) + np.kron(np.diag(disc.op_t.weights), M)
        u = np.linalg.solve(A, disc.rhs)
        grad[k] = (u @ (disc.global_p() * u)).imag / COMPLEX_STEP
    return grad


def mma_dual_bisection(p, q, low, upp, alfa, beta, volumes, volume_bound):
    """The MMA dual solved by nested bisection: 64 halvings of [alfa, beta] per
    component, inside a bisection on the volume multiplier mu.

    Returns the subproblem minimizer at the upper end of the final mu
    bracket, as ``stheat.mma._solve_dual`` does, and that mu (0 when the
    unconstrained minimizer is feasible).
    """

    def minimizer(mu):
        lo, hi = alfa.copy(), beta.copy()
        c = mu * volumes

        def dphi(x):
            return p / (upp - x) ** 2 - q / (x - low) ** 2 + c

        take_lo = dphi(lo) >= 0.0
        take_hi = dphi(hi) <= 0.0
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            positive = dphi(mid) > 0.0
            hi = np.where(positive, mid, hi)
            lo = np.where(positive, lo, mid)
        x = 0.5 * (lo + hi)
        x[take_lo] = alfa[take_lo]
        x[take_hi] = beta[take_hi]
        return x

    x0 = minimizer(0.0)
    if x0 @ volumes <= volume_bound:
        return x0, 0.0
    mu_lo, mu_hi = 0.0, 1.0
    while minimizer(mu_hi) @ volumes > volume_bound:
        mu_hi *= 2.0
        assert mu_hi <= 1e12, "volume multiplier bracket not found"
    while mu_hi - mu_lo > 1e-12 * max(1.0, mu_hi):
        mid = 0.5 * (mu_lo + mu_hi)
        if minimizer(mid) @ volumes > volume_bound:
            mu_lo = mid
        else:
            mu_hi = mid
    return minimizer(mu_hi), mu_hi


def be_block_elimination(fe, n_steps):
    """The backward-Euler all-at-once system solved by block forward elimination.

    The system stacks every time level: diagonal blocks M/dt + K,
    subdiagonal blocks -M/dt.  Each level is one ``lu_solve`` of the step
    matrix against the previous level; the step matrix is factored here, so
    the oracle shares neither the modal basis nor the sweep of ``be_march``.
    Its arrays take the stiffness's dtype, so a complex stiffness marches a
    complex step.
    """
    spec = fe.spec
    m_dt = fe.mass / (spec.horizon / n_steps)
    step = m_dt + fe.stiffness
    times = np.linspace(0.0, spec.horizon, n_steps + 1)
    fr, dr = fe.free, fe.dirichlet
    n_free = fr.size
    lu = sla.lu_factor(step[np.ix_(fr, fr)])
    u_d = _dirichlet_values(fe, times).T
    loads = _load_matrix(fe, times).T
    rhs = np.empty((n_free, n_steps), dtype=fe.stiffness.dtype)
    rhs[:] = loads[fr, 1:] - step[np.ix_(fr, dr)] @ u_d[:, 1:]
    q0 = np.asarray(spec.q(fe.nodes), dtype=float)
    sub_free = m_dt[np.ix_(fr, fr)]
    sub_dir = m_dt[np.ix_(fr, dr)]
    u = np.zeros((fe.n_nodes, n_steps + 1), dtype=fe.stiffness.dtype)
    u[:, 0] = q0
    u[dr, :] = u_d
    # block forward elimination down the lower-bidiagonal system
    prev = q0[fr]
    for n in range(n_steps):
        b_n = rhs[:, n] + sub_free @ prev + sub_dir @ u_d[:, n]
        prev = sla.lu_solve(lu, b_n)
        u[fr, n + 1] = prev
    return BlockSolution(times=times, states=u)


def be_complex_step_gradient(spec, rho, n_steps):
    """dJ/drho of the backward-Euler J = sum_n dt u_n^T M u_n, n = 1 .. N_t, by
    complex step through ``be_block_elimination``.

    ``fe_assemble`` refuses a complex design, so the stiffness D^T diag(w) D,
    w = kappa / h, is built here with kappa at rho + i h e_k.  J takes no
    conjugate, so dJ/drho_k = Im(J) / h to within h^2.
    """
    fe = fe_assemble(spec, rho)
    material, widths = spec.material, np.diff(fe.nodes)
    diff = np.diff(np.eye(fe.n_nodes), axis=0)
    grad = np.empty(rho.size)
    for k in range(rho.size):
        rho_k = rho.astype(complex)
        rho_k[k] += 1j * COMPLEX_STEP
        kap = material.kappa_min + (material.kappa_max - material.kappa_min) * rho_k**material.p
        stepped = replace(fe, stiffness=diff.T @ ((kap / widths)[:, None] * diff))
        u = be_block_elimination(stepped, n_steps).states[:, 1:]
        j = spec.horizon / n_steps * np.einsum("in,ij,jn->", u, fe.mass, u)
        grad[k] = j.imag / COMPLEX_STEP
    return grad


def be_block_back_substitution(fe, n_steps, rhs):
    """The transposed all-at-once system solved by block back substitution.

    ``rhs`` holds the free-node right-hand side of levels 1..N_t, one row per
    level.  Each level is one transposed ``lu_solve`` of a step matrix
    factored here, against its own row plus (M/dt)^T times the level after.
    """
    fr = fe.free
    m_dt = (fe.mass / (fe.spec.horizon / n_steps))[np.ix_(fr, fr)]
    lu = sla.lu_factor(m_dt + fe.stiffness[np.ix_(fr, fr)])
    lam = np.empty((n_steps, fr.size))
    after = np.zeros(fr.size)
    for n in range(n_steps - 1, -1, -1):
        after = lam[n] = sla.lu_solve(lu, rhs[n] + m_dt.T @ after, trans=1)
    return lam


def be_block_system(fe, n_steps):
    """The all-at-once matrix over the free nodes of levels 1..N_t, sparse and
    level-major: M/dt + K on the diagonal, -M/dt below it."""
    fr = fe.free
    m_dt = (fe.mass / (fe.spec.horizon / n_steps))[np.ix_(fr, fr)]
    step = m_dt + fe.stiffness[np.ix_(fr, fr)]
    return (sp.kron(sp.eye(n_steps), step) - sp.kron(sp.eye(n_steps, k=-1), m_dt)).tocsr()


def objectives(trace):
    """The objective of every iteration of an ``OptimizationTrace``."""
    return np.array([r.objective for r in trace.records])


@dataclass
class CrossValidation:
    reference_rho: np.ndarray
    reference_objective: float
    nx_sweep: list  # (n, design_relerr, objective_relerr)
    nt_sweep: list


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


def eigencondition_residual(sol):
    """Residual of the transcendental decay-rate condition at sol.lam."""
    return abs(_eigencondition(sol.lam, sol.kappa_1, sol.kappa_2, sol.interface))


def steady_flux(sol, x):
    """kappa(x) * u_s'(x) of a ``TwoDomainSolution``; continuous across the interface."""
    x = np.asarray(x, dtype=float)
    left = sol.kappa_1 * (-sol.source / sol.kappa_1 * x + sol.A1)
    right = sol.kappa_2 * (-sol.source / sol.kappa_2 * x + sol.A2)
    return np.where(x <= sol.interface, left, right)


def mode_flux(sol, x):
    """kappa(x) * w'(x) of the transient mode w of a ``TwoDomainSolution``."""
    x = np.asarray(x, dtype=float)
    left = sol.kappa_1 * sol.alpha_1 * np.cos(sol.alpha_1 * x)
    right = (
        -sol.kappa_2
        * sol.amplitude_ratio
        * sol.alpha_2
        * np.cos(sol.alpha_2 * (1.0 - x))
    )
    return np.where(x <= sol.interface, left, right)


def time_derivative(sol, x, t):
    """u_t(x, t) = -lam exp(-lam t) w(x) of a ``TwoDomainSolution``."""
    t = np.asarray(t, dtype=float)
    return -sol.lam * np.exp(-sol.lam * t) * sol.mode(x)
