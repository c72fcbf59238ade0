"""Low-order reference solvers: linear finite elements with backward Euler.

``be_march`` factors the step matrix M/dt + K once and sweeps the time
levels, storing the full history that the adjoint march consumes.
``be_aao_solve`` is the same march reported with the size of the
all-at-once system it solves: every time level stacked into one block
lower-bidiagonal system, which eliminated level by level is the march.
The discrete adjoint runs the transposed step matrix backward in time,
giving gradients of the right-endpoint-quadrature objective

    J = sum_n dt * u_n^T M u_n,   n = 1 .. N_t

that match finite differences to solver precision.

``run_topology_optimization_be`` drives either through the MMA loop shared
with the space-time optimizer in ``optimize``.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .optimize import _run_design_loop
from .problem import dkappa_drho, kappa


@dataclass
class FeDiscretization:
    """P1 mass/stiffness pair on the element partition of a problem spec."""

    spec: object
    nodes: np.ndarray
    mass: np.ndarray
    stiffness: np.ndarray
    free: np.ndarray
    dirichlet: np.ndarray

    @property
    def n_nodes(self):
        return self.nodes.size

    @property
    def element_lengths(self):
        return np.diff(self.nodes)


def _stiffness_matrix(spec, nodes, rho):
    kap = kappa(np.asarray(rho, dtype=float), spec.material)
    h = np.diff(nodes)
    n = nodes.size
    K = np.zeros((n, n))
    w = kap / h
    idx = np.arange(n - 1)
    K[idx, idx] += w
    K[idx + 1, idx + 1] += w
    K[idx, idx + 1] -= w
    K[idx + 1, idx] -= w
    return K


def fe_assemble(spec, rho):
    """Assemble consistent mass and design-dependent stiffness matrices."""
    nodes = spec.element_edges
    n = nodes.size
    h = np.diff(nodes)
    M = np.zeros((n, n))
    idx = np.arange(n - 1)
    M[idx, idx] += h / 3.0
    M[idx + 1, idx + 1] += h / 3.0
    M[idx, idx + 1] += h / 6.0
    M[idx + 1, idx] += h / 6.0
    K = _stiffness_matrix(spec, nodes, rho)
    fixed = []
    if spec.bc_left == "dirichlet":
        fixed.append(0)
    if spec.bc_right == "dirichlet":
        fixed.append(n - 1)
    dirichlet = np.array(fixed, dtype=int)
    free = np.setdiff1d(np.arange(n), dirichlet)
    return FeDiscretization(
        spec=spec, nodes=nodes, mass=M, stiffness=K, free=free, dirichlet=dirichlet
    )


@dataclass
class MarchingSolution:
    """Full time history of a backward-Euler run."""

    times: np.ndarray
    states: np.ndarray  # (n_nodes, n_levels) including the initial level
    fe: FeDiscretization
    aao_unknowns: int = None
    aao_memory_bytes: int = None

    @property
    def n_steps(self):
        return self.times.size - 1


def _dirichlet_values(spec, fe, times):
    vals = np.zeros((fe.dirichlet.size, times.size))
    for i, node in enumerate(fe.dirichlet):
        data = spec.h if node == 0 else spec.g
        vals[i] = np.asarray(data(times), dtype=float)
    return vals


def _load_matrix(spec, fe, times):
    """Nodal loads M f(t_n) plus Neumann flux data, one column per level."""
    X, T = np.broadcast_arrays(fe.nodes[:, None], times[None, :])
    f_nodes = np.asarray(spec.f(X.copy(), T.copy()), dtype=float)
    loads = fe.mass @ f_nodes
    if spec.bc_left == "neumann":
        loads[0] -= np.asarray(spec.h(times), dtype=float)
    if spec.bc_right == "neumann":
        loads[-1] += np.asarray(spec.g(times), dtype=float)
    return loads


def _step_pieces(spec, fe, n_steps):
    dt = spec.horizon / n_steps
    times = np.linspace(0.0, spec.horizon, n_steps + 1)
    fr = fe.free
    m_dt = fe.mass / dt
    step = m_dt + fe.stiffness
    lu = sla.lu_factor(step[np.ix_(fr, fr)])
    return dt, times, m_dt, step, lu


def be_march(fe, spec, n_steps):
    """Sequential backward-Euler time stepping."""
    if n_steps < 1:
        raise ValueError("need at least one time step")
    dt, times, m_dt, step, lu = _step_pieces(spec, fe, n_steps)
    fr, dr = fe.free, fe.dirichlet
    u_d = _dirichlet_values(spec, fe, times)
    loads = _load_matrix(spec, fe, times)
    # everything but the free-node propagation, all steps in one batched solve
    rhs = loads[fr, 1:] - step[np.ix_(fr, dr)] @ u_d[:, 1:] + m_dt[np.ix_(fr, dr)] @ u_d[:, :-1]
    prop = sla.lu_solve(lu, m_dt[np.ix_(fr, fr)])
    x = np.empty((n_steps + 1, fr.size))  # free nodes, time-major
    x[0] = np.asarray(spec.q(fe.nodes), dtype=float)[fr]
    x[1:] = sla.lu_solve(lu, rhs).T
    for n in range(n_steps):
        x[n + 1] += prop @ x[n]
    u = np.empty((fe.n_nodes, n_steps + 1))
    u[fr] = x.T
    u[dr] = u_d
    return MarchingSolution(times=times, states=u, fe=fe)


def be_aao_solve(fe, spec, n_steps):
    """``be_march`` plus the size of the equivalent all-at-once system.

    Stacking every level gives a block lower-bidiagonal system (diagonal
    blocks M/dt + K, subdiagonal -M/dt); eliminated level by level it is
    the march, so only the accounting differs: the unknowns of all levels
    and the float64 bytes of its right-hand side, the two blocks and the
    stored history, which grow linearly with the number of steps.
    """
    sol = be_march(fe, spec, n_steps)
    n_nodes, n_levels = sol.states.shape
    sol.aao_unknowns = n_nodes * n_levels
    sol.aao_memory_bytes = 8 * (fe.free.size * n_steps + 2 * n_nodes**2 + n_nodes * n_levels)
    return sol


def be_objective(fe, solution):
    """Right-endpoint quadrature of u^T M u over the marched history."""
    u = solution.states[:, 1:]
    dt = solution.times[1] - solution.times[0]
    return float(dt * np.einsum("in,in->", u, fe.mass @ u))


def _adjoint_march(fe, solution, spec):
    """Adjoint states of levels 1..N_t, one row per level, free nodes only."""
    dt, _, m_dt, _, lu = _step_pieces(spec, fe, solution.n_steps)
    fr = fe.free
    prop = sla.lu_solve(lu, m_dt[np.ix_(fr, fr)].T, trans=1)
    dj_du = 2.0 * dt * (fe.mass @ solution.states)[fr, 1:]
    lam = sla.lu_solve(lu, dj_du, trans=1).T.copy()  # all sources in one batched solve
    for n in range(solution.n_steps - 2, -1, -1):
        lam[n] += prop @ lam[n + 1]
    return lam


def be_adjoint_and_sensitivity(fe, solution, spec, rho):
    """Backward adjoint march and the design gradient of be_objective."""
    lam = np.zeros((fe.n_nodes, solution.n_steps))
    lam[fe.free] = _adjoint_march(fe, solution, spec).T
    # dJ/drho_k = -sum_n lambda_n^T (dK/drho_k) u_n over the element pair
    u = solution.states[:, 1:]
    du = u[:-1, :] - u[1:, :]
    dl = lam[:-1, :] - lam[1:, :]
    dkap = dkappa_drho(np.asarray(rho, dtype=float), spec.material)
    h = fe.element_lengths
    return -(dkap / h) * np.sum(dl * du, axis=1)


def run_topology_optimization_be(
    spec,
    volume_bound,
    n_steps,
    aao=False,
    initial_rho=None,
    tol_design=1e-4,
    max_iters=300,
    mma_config=None,
):
    """MMA loop driven by the backward-Euler forward/adjoint pair; ``aao``
    reports each forward solve with its all-at-once accounting."""
    solver = be_aao_solve if aao else be_march

    def forward(rho):
        fe = fe_assemble(spec, rho)
        sol = solver(fe, spec, n_steps)
        return be_objective(fe, sol), (fe, sol)

    def gradient(rho, state):
        return be_adjoint_and_sensitivity(*state, spec, rho)

    return _run_design_loop(forward, gradient, spec.element_volumes, volume_bound,
                            initial_rho, tol_design, max_iters, mma_config)
