"""Low-order reference solvers: linear finite elements with backward Euler.

``be_march`` factors the step matrix M/dt + K once and solves every level's
sources in one batched solve, leaving the recurrence x_(n+1) += P x_n with
the constant propagator P = (M/dt + K)^-1 M/dt.  ``_propagate`` sweeps it
in blocks of about sqrt(N_t) levels (the two-level time-parallel reduction
of a block-bidiagonal system): all blocks from a zero start at once, then
each block's start state carried across blocks by P^L, then P^k times that
start added to level k of every block in one product, so the interpreter
takes about 2 sqrt(N_t) steps instead of N_t.  The adjoint is the same
march run backward in time on the forward's step LU and P, which it finds
in the ``MarchingSolution`` (valid because M and K are symmetric, see
``_adjoint_march``).  Its gradients of the right-endpoint-quadrature objective

    J = sum_n dt * u_n^T M u_n,   n = 1 .. N_t

match finite differences to solver precision.  ``be_aao_solve`` is the
march reported with the size of the all-at-once system it solves: every
time level stacked into one block lower-bidiagonal system.

``run_topology_optimization_be`` drives either through the MMA loop shared
with the space-time optimizer in ``optimize``.  The times, Dirichlet values
and loads of the march do not depend on the design, so the loop builds
them on its first march and every later design reuses them.
"""

from dataclasses import dataclass, field
from math import isqrt

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
    # design-independent march data by step count, shared by the designs of one loop
    march_cache: dict = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_nodes(self):
        return self.nodes.size


def _p1_matrix(diagonal, off_diagonal):
    """Symmetric tridiagonal sum of 2x2 element matrices [[d, o], [o, d]]."""
    n = diagonal.size + 1
    A = np.zeros((n, n))
    idx = np.arange(n - 1)
    A[idx, idx] += diagonal
    A[idx + 1, idx + 1] += diagonal
    A[idx, idx + 1] += off_diagonal
    A[idx + 1, idx] += off_diagonal
    return A


def fe_assemble(spec, rho):
    """Assemble consistent mass and design-dependent stiffness matrices."""
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (spec.n_elements,):
        raise ValueError(f"design must have {spec.n_elements} entries, got shape {rho.shape}")
    nodes = spec.element_edges
    n = nodes.size
    h = np.diff(nodes)
    w = kappa(rho, spec.material) / h
    fixed = []
    if spec.bc_left == "dirichlet":
        fixed.append(0)
    if spec.bc_right == "dirichlet":
        fixed.append(n - 1)
    dirichlet = np.array(fixed, dtype=int)
    free = np.setdiff1d(np.arange(n), dirichlet)
    return FeDiscretization(
        spec=spec, nodes=nodes, mass=_p1_matrix(h / 3.0, h / 6.0), stiffness=_p1_matrix(w, -w),
        free=free, dirichlet=dirichlet,
    )


@dataclass
class MarchingSolution:
    """Full time history of a backward-Euler run."""

    times: np.ndarray
    states: np.ndarray  # (n_nodes, n_levels) including the initial level
    fe: FeDiscretization
    # free-node step LU of M/dt + K and propagator (M/dt + K)^-1 M/dt of the march
    step_lu: tuple = None
    propagator: np.ndarray = None
    aao_unknowns: int = None
    aao_memory_bytes: int = None

    @property
    def n_steps(self):
        return self.times.size - 1


def _dirichlet_values(fe, times):
    vals = np.zeros((fe.dirichlet.size, times.size))
    for i, node in enumerate(fe.dirichlet):
        data = fe.spec.h if node == 0 else fe.spec.g
        vals[i] = np.asarray(data(times), dtype=float)
    return vals


def _load_matrix(fe, times):
    """Nodal loads M f(t_n) plus Neumann flux data, one column per level."""
    spec = fe.spec
    X, T = np.broadcast_arrays(fe.nodes[:, None], times[None, :])
    f_nodes = np.asarray(spec.f(X.copy(), T.copy()), dtype=float)
    loads = fe.mass @ f_nodes
    if spec.bc_left == "neumann":
        loads[0] -= np.asarray(spec.h(times), dtype=float)
    if spec.bc_right == "neumann":
        loads[-1] += np.asarray(spec.g(times), dtype=float)
    return loads


def _march_data(fe, n_steps):
    """Times, Dirichlet values and loads of an ``n_steps`` march.

    None depends on the design; a design loop keeps them in
    ``fe.march_cache``, filled by its first march.
    """
    cache = {} if fe.march_cache is None else fe.march_cache
    if n_steps not in cache:
        times = np.linspace(0.0, fe.spec.horizon, n_steps + 1)
        cache[n_steps] = times, _dirichlet_values(fe, times), _load_matrix(fe, times)
    return cache[n_steps]


def _propagate(prop, x):
    """``x[n + 1] += prop @ x[n]`` for n = 0 .. N - 1 in turn, in place.

    ``x`` is C-contiguous with N + 1 rows.  The levels 1 .. nb L are cut
    into nb blocks of L = isqrt(N) levels.  The recurrence runs inside all
    blocks at once from a zero start, while the powers prop^1 .. prop^L
    are formed; each block's start state is carried to the next by
    prop^L; then prop^k times its start state is added to the k-th level
    of every block in one product.  The last N - nb L (< L) levels are
    stepped directly.
    """
    n_steps, n = x.shape[0] - 1, x.shape[1]
    if n_steps < 1:
        return
    size = isqrt(n_steps)
    n_blocks = n_steps // size
    blocks = np.reshape(x[1:n_blocks * size + 1], (n_blocks, size, n), copy=False)
    powers = np.empty((n, size, n))  # powers[:, k] = (prop^(k + 1))^T
    powers[:, 0] = prop.T
    for k in range(1, size):
        blocks[:, k] += blocks[:, k - 1] @ prop.T
        powers[:, k] = powers[:, k - 1] @ prop.T
    starts = np.empty((n_blocks, n))  # the level before each block
    starts[0] = x[0]
    for j in range(1, n_blocks):
        starts[j] = blocks[j - 1, -1] + starts[j - 1] @ powers[:, -1]
    blocks += (starts @ powers.reshape(n, size * n)).reshape(n_blocks, size, n)
    for level in range(n_blocks * size, n_steps):
        x[level + 1] += prop @ x[level]


def be_march(fe, n_steps):
    """Backward-Euler time stepping, swept in blocks by ``_propagate``."""
    if n_steps < 1:
        raise ValueError("need at least one time step")
    times, u_d, loads = _march_data(fe, n_steps)
    fr, dr = fe.free, fe.dirichlet
    m_dt = fe.mass / (fe.spec.horizon / n_steps)
    step = m_dt + fe.stiffness
    lu = sla.lu_factor(step[np.ix_(fr, fr)])
    # everything but the free-node propagation, all steps in one batched solve
    rhs = loads[fr, 1:] - step[np.ix_(fr, dr)] @ u_d[:, 1:] + m_dt[np.ix_(fr, dr)] @ u_d[:, :-1]
    x = np.empty((n_steps + 1, fr.size))  # free nodes, time-major
    x[0] = np.asarray(fe.spec.q(fe.nodes), dtype=float)[fr]
    x[1:] = sla.lu_solve(lu, rhs).T
    prop = sla.lu_solve(lu, m_dt[np.ix_(fr, fr)])
    _propagate(prop, x)
    u = np.empty((fe.n_nodes, n_steps + 1))
    u[fr] = x.T
    u[dr] = u_d
    return MarchingSolution(times=times, states=u, fe=fe, step_lu=lu, propagator=prop)


def be_aao_solve(fe, n_steps):
    """``be_march`` plus the size of the equivalent all-at-once system.

    Stacking every level gives a block lower-bidiagonal system (diagonal
    blocks M/dt + K, subdiagonal -M/dt); eliminated level by level it is
    the march, so only the accounting differs: the unknowns of all levels
    and the float64 bytes of its right-hand side, the two blocks and the
    stored history, which grow linearly with the number of steps.
    """
    sol = be_march(fe, n_steps)
    n_nodes, n_levels = sol.states.shape
    sol.aao_unknowns = n_nodes * n_levels
    sol.aao_memory_bytes = 8 * (fe.free.size * n_steps + 2 * n_nodes**2 + n_nodes * n_levels)
    return sol


def be_objective(solution):
    """Right-endpoint quadrature of u^T M u over the marched history."""
    u = solution.states[:, 1:]
    dt = solution.times[1] - solution.times[0]
    return float(dt * np.einsum("in,in->", u, solution.fe.mass @ u))


def _adjoint_march(solution):
    """Adjoint states of levels 1..N_t, one row per level, free nodes only."""
    fe = solution.fe
    # the transposed march, backward in time: M and K are symmetric (by
    # construction in _p1_matrix), so its step solve and propagator
    # (M/dt + K)^-T (M/dt)^T = P are the forward's
    dt = fe.spec.horizon / solution.n_steps
    # every level's dJ/du in one batched solve, levels reversed so the sweep runs forward
    lam = sla.lu_solve(solution.step_lu, 2.0 * dt * (fe.mass @ solution.states)[fe.free, :0:-1]).T
    _propagate(solution.propagator, lam)
    return lam[::-1]


def be_adjoint_and_sensitivity(solution, rho):
    """Backward adjoint march and the design gradient of be_objective."""
    fe = solution.fe
    lam = np.zeros((fe.n_nodes, solution.n_steps))
    lam[fe.free] = _adjoint_march(solution).T
    # dJ/drho_k = -sum_n lambda_n^T (dK/drho_k) u_n over the element pair
    u = solution.states[:, 1:]
    du = u[:-1, :] - u[1:, :]
    dl = lam[:-1, :] - lam[1:, :]
    dkap = dkappa_drho(np.asarray(rho, dtype=float), fe.spec.material)
    return -(dkap / np.diff(fe.nodes)) * np.sum(dl * du, axis=1)


def run_topology_optimization_be(
    spec,
    volume_bound,
    n_steps,
    aao=False,
    initial_rho=None,
    tol_design=1e-4,
    max_iters=300,
):
    """MMA loop driven by the backward-Euler forward/adjoint pair; ``aao``
    reports each forward solve with its all-at-once accounting."""
    solver = be_aao_solve if aao else be_march
    march_cache = {}

    def forward(rho):
        fe = fe_assemble(spec, rho)
        fe.march_cache = march_cache
        sol = solver(fe, n_steps)
        return be_objective(sol), sol

    def gradient(rho, sol):
        return be_adjoint_and_sensitivity(sol, rho)

    return _run_design_loop(forward, gradient, spec.element_volumes, volume_bound,
                            initial_rho, tol_design, max_iters)
