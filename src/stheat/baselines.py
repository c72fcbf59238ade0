"""Low-order reference solvers: linear finite elements with backward Euler.

``be_march`` solves the step matrix M/dt + K of a design once, against
[I | M/dt] on the free nodes, for its inverse S and the constant
propagator P = (M/dt + K)^-1 M/dt.  S is accurate to cond * eps (Higham
2002, ch. 14), and M/dt keeps the step matrix well conditioned: on the
50-cell cooling preset its condition number is about 1000 at most at 8
steps and under 5 at 8192.  Every level's sources then come out of one
product with S, leaving the recurrence x_(n+1) += P x_n.  ``_propagate``
sweeps it in blocks of L = isqrt(N_t) levels (the two-level time-parallel
reduction of a block-bidiagonal system): all blocks from a zero start at
once, then each block's start state carried across blocks by P^L, then
P^k times that start added to level k of every block in one product, so
the interpreter takes about 2 sqrt(N_t) steps instead of N_t.  The powers
P^1 .. P^L are formed once per design, by the forward.  The adjoint is the
same march run backward in time on the forward's S and powers, which it
finds in the ``MarchingSolution`` (valid because M and K are symmetric,
see ``_adjoint_march``), so no design solves against more than those
2 n_free columns.  Its gradients of the right-endpoint-quadrature objective

    J = sum_n dt * u_n^T M u_n,   n = 1 .. N_t

match finite differences to solver precision; the product M u_n is formed
once per design and serves J and the adjoint's right-hand side.
``be_aao_solve`` is the march reported with the size of the all-at-once
system it solves: every time level stacked into one block lower-bidiagonal
system.

``run_topology_optimization_be`` drives either through the MMA loop shared
with the space-time optimizer in ``optimize``.  The times, Dirichlet values
and loads of the march do not depend on the design, so the loop builds
them on its first march and every later design reuses them.

Every solve and product here runs on NumPy's BLAS at its default threads:
the NumPy and SciPy wheels each bundle an OpenBLAS with its own worker pool,
and switching between them leaves one pool spinning while the other works.
On 2 CPUs a cooling loop at 8192 steps took 0.79-0.89 s on both (median of
5), 0.40-0.45 s with either pool at one thread, and 0.42 s on NumPy's alone.
"""

from dataclasses import dataclass, field
from functools import cached_property
from math import isqrt

import numpy as np

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
    # free-node inverse S of the step matrix M/dt + K, and the powers of the
    # propagator P = (M/dt + K)^-1 M/dt that the march's sweep ran on
    # (see _propagate)
    step_inverse: np.ndarray = None
    powers: np.ndarray = None
    aao_unknowns: int = None
    aao_memory_bytes: int = None

    @property
    def n_steps(self):
        return self.times.size - 1

    @cached_property
    def mass_states(self):
        """M u_n of levels 1 .. N_t, one column per level: J and dJ/du both need it."""
        return self.fe.mass @ self.states[:, 1:]


def _dirichlet_values(fe, times):
    """Dirichlet data of every level, one row per level."""
    vals = np.empty((times.size, fe.dirichlet.size))
    for i, node in enumerate(fe.dirichlet):
        data = fe.spec.h if node == 0 else fe.spec.g
        vals[:, i] = np.asarray(data(times), dtype=float)
    return vals


def _load_matrix(fe, times):
    """Nodal loads M f(t_n) plus Neumann flux data, one row per level."""
    spec = fe.spec
    T, X = np.broadcast_arrays(times[:, None], fe.nodes[None, :])
    f_nodes = np.asarray(spec.f(X.copy(), T.copy()), dtype=float)
    loads = f_nodes @ fe.mass  # M is symmetric
    if spec.bc_left == "neumann":
        loads[:, 0] -= np.asarray(spec.h(times), dtype=float)
    if spec.bc_right == "neumann":
        loads[:, -1] += np.asarray(spec.g(times), dtype=float)
    return loads


def _march_data(fe, n_steps):
    """Times, Dirichlet values and design-independent sources of an ``n_steps`` march.

    Over the free nodes (f; d are the Dirichlet nodes, with values g_n)
    level n's step equation is

        (M_ff/dt + K_ff) x_n = M_ff/dt x_(n-1) + b_n - K_fd g_n,
        b_n = loads_n - M_fd (g_n - g_(n-1)) / dt,

    where only K depends on the design.  Returned time-major: the times, g
    of every level, and the rows [b_n | g_n] of levels 1 .. N_t, so that a
    design's sources are one product with [I; -K_df].  A design loop keeps
    them in ``fe.march_cache``, filled by its first march.
    """
    cache = {} if fe.march_cache is None else fe.march_cache
    if n_steps not in cache:
        fr, dr = fe.free, fe.dirichlet
        times = np.linspace(0.0, fe.spec.horizon, n_steps + 1)
        g = _dirichlet_values(fe, times)
        m_fd = fe.mass[np.ix_(fr, dr)] / (fe.spec.horizon / n_steps)
        b = _load_matrix(fe, times)[1:, fr] - np.diff(g, axis=0) @ m_fd.T
        cache[n_steps] = times, g, np.hstack([b, g[1:]])
    return cache[n_steps]


def _propagator_powers(prop, size):
    """``powers[:, k] = (prop^(k + 1))^T`` for k = 0 .. size - 1."""
    n = prop.shape[0]
    powers = np.empty((n, size, n))
    powers[:, 0] = prop.T
    for k in range(1, size):
        np.matmul(powers[:, k - 1], prop.T, out=powers[:, k])
    return powers


def _propagate(x, powers):
    """``x[n + 1] += P @ x[n]`` for n = 0 .. N - 1 in turn, in place.

    ``x`` is C-contiguous with N + 1 rows; ``powers`` holds P^1 .. P^L as
    ``_propagator_powers`` lays them out, with L <= N.  The levels
    1 .. nb L are cut into nb blocks of L levels.  The recurrence runs
    inside all blocks at once from a zero start; each block's start state is
    carried to the next by P^L; then P^k times its start state is added to
    the k-th level of every block in one product.  The last N - nb L (< L)
    levels are stepped directly.
    """
    n_steps, n = x.shape[0] - 1, x.shape[1]
    if n_steps < 1 or n == 0:
        return
    size = powers.shape[1]
    prop_t = powers[:, 0]
    n_blocks = n_steps // size
    blocks = np.reshape(x[1:n_blocks * size + 1], (n_blocks, size, n), copy=False)
    for k in range(1, size):
        blocks[:, k] += blocks[:, k - 1] @ prop_t
    starts = np.empty((n_blocks, n))  # the level before each block
    starts[0] = x[0]
    for j in range(1, n_blocks):
        starts[j] = blocks[j - 1, -1] + starts[j - 1] @ powers[:, -1]
    # on NumPy's BLAS only (see the module docstring); 3.2 MB at 8192 steps
    blocks += (starts @ powers.reshape(n, size * n)).reshape(n_blocks, size, n)
    for level in range(n_blocks * size, n_steps):
        x[level + 1] += x[level] @ prop_t


def be_march(fe, n_steps):
    """Backward-Euler time stepping, swept in blocks by ``_propagate``."""
    if n_steps < 1:
        raise ValueError("need at least one time step")
    times, u_d, sources = _march_data(fe, n_steps)
    fr, dr = fe.free, fe.dirichlet
    m_dt = fe.mass[np.ix_(fr, fr)] / (fe.spec.horizon / n_steps)
    # S and P from one solve: P as S M/dt took the 16384-step oracle gap 5.1e-13 -> 7.9e-13
    inv, prop = np.hsplit(np.linalg.solve(m_dt + fe.stiffness[np.ix_(fr, fr)],
                                          np.hstack([np.eye(fr.size), m_dt])), 2)
    x = np.empty((n_steps + 1, fr.size))  # free nodes, time-major
    x[0] = np.asarray(fe.spec.q(fe.nodes), dtype=float)[fr]
    # every level's S (b_n - K_fd g_n) in one product: rows [b_n | g_n] [I; -K_df] S^T
    lift = np.vstack([np.eye(fr.size), -fe.stiffness[np.ix_(dr, fr)]])
    np.matmul(sources, lift @ inv.T, out=x[1:])
    # block size isqrt(N) serves both sweeps: N levels forward, N - 1 back
    powers = _propagator_powers(prop, isqrt(n_steps))
    _propagate(x, powers)
    u = np.empty((fe.n_nodes, n_steps + 1))
    u[fr] = x.T
    u[dr] = u_d.T
    return MarchingSolution(times=times, states=u, fe=fe, step_inverse=inv, powers=powers)


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
    dt = solution.times[1] - solution.times[0]
    return float(dt * np.einsum("in,in->", solution.states[:, 1:], solution.mass_states))


def _adjoint_march(solution):
    """Adjoint states of levels 1..N_t, one row per level, free nodes only."""
    fe = solution.fe
    # the transposed march, backward in time: M and K are symmetric (by
    # construction in _p1_matrix), so its propagator (M/dt + K)^-T (M/dt)^T
    # is the forward's P, and the forward's powers of P serve its sweep
    dt = fe.spec.horizon / solution.n_steps
    # every level's S^T dJ/du in one product, levels reversed so the sweep runs forward
    lam = solution.mass_states[fe.free, ::-1].T @ ((2.0 * dt) * solution.step_inverse)
    _propagate(lam, solution.powers)
    return lam[::-1]


def be_adjoint_and_sensitivity(solution, rho):
    """Backward adjoint march and the design gradient of be_objective."""
    fe = solution.fe
    lam = _adjoint_march(solution)
    u = solution.states[:, 1:]
    du = u[:-1] - u[1:]  # per element, one column per level
    # dJ/drho_k = -(dkappa_k / h_k) sum_n (lambda_n[k] - lambda_n[k + 1]) du_n[k],
    # with lambda zero on the Dirichlet nodes.  lam's columns are the free
    # nodes lo .. hi - 1, and node i is the left node of element i (i < n_el)
    # and the right node of element i - 1 (i > 0).
    n_el = du.shape[0]
    lo = int(fe.spec.bc_left == "dirichlet")
    hi = lo + fe.free.size
    pairs = np.zeros(n_el)
    left_end, right_start = min(hi, n_el), max(lo, 1)
    pairs[lo:left_end] = np.einsum("nj,jn->j", lam[:, :left_end - lo], du[lo:left_end])
    pairs[right_start - 1:hi - 1] -= np.einsum(
        "nj,jn->j", lam[:, right_start - lo:], du[right_start - 1:hi - 1])
    dkap = dkappa_drho(np.asarray(rho, dtype=float), fe.spec.material)
    return -(dkap / np.diff(fe.nodes)) * pairs


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
