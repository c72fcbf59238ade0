"""Low-order reference solvers: linear finite elements with backward Euler.

``be_march`` diagonalizes the backward-Euler step of a design once and
marches in its eigenbasis.  The free-node pencil (K_ff, M_ff) has an
M-orthonormal eigenbasis V, V^T M_ff V = I and K_ff V = M_ff V diag(lam)
(``_modal_basis``), so in the modes y_n of x_n = V y_n every level's step
is the scalar recurrence

    y_n = mu y_(n-1) + c_n,   mu = 1 / (1 + dt lam),

and the sources c_n of all levels come out of one product with the
design-independent rows that ``_march_data`` caches.  ``_sweep`` runs the
recurrence in blocks of L = isqrt(N_t) levels (the two-level time-parallel
reduction of a bidiagonal system): all blocks from a zero start at once,
then each block's start carried across blocks by mu^L, then mu^k times that
start added to level k of every block, so the interpreter takes about
3 sqrt(N_t) elementwise steps instead of N_t.  The adjoint is the same
sweep run backward in time on the same mu (M and K are symmetric), and
neither J nor the gradient of the right-endpoint-quadrature objective

    J = sum_n dt * u_n^T M u_n,   n = 1 .. N_t

needs the nodal states: with R = M_df V (d the Dirichlet nodes, g_n their
values) J is dt sum_n (|y_n|^2 + 2 g_n^T R y_n + g_n^T M_dd g_n), and the
gradient is two small Gram products of the modal adjoint with y and g.  The
nodal history ``MarchingSolution.states`` is formed only when read.  The
gradients match finite differences to solver precision.
``be_aao_solve`` is the march under the all-at-once name: stacking every
time level gives one block lower-bidiagonal system, and eliminating it
level by level is the march.  ``stheat compare`` reports that system's size.

``run_topology_optimization_be`` drives either through the MMA loop shared
with the space-time optimizer in ``optimize``.  The times, Dirichlet values
and loads of the march do not depend on the design, so the loop builds
them on its first march and every later design reuses them.

Every decomposition and product here runs on NumPy's LAPACK and BLAS at
their default threads: the NumPy and SciPy wheels each bundle an OpenBLAS
with its own worker pool, and a loop that switches between them leaves one
pool spinning while the other works (that doubled the loop's time while the
march solved against dense step matrices).  The decompositions here are
only n_free x n_free, and the loop's time goes to two GEMMs and the
elementwise sweeps: on 2 CPUs a cooling loop at 8192 steps took 0.20-0.26 s
on NumPy's pool alone, 0.20-0.27 s with the Cholesky factor, inverse and
SVD on SciPy's, and 0.21-0.31 s with every pool at one thread (medians of 7
loops in each of three rounds; the shared host drifts by more than they
differ).  A backward-Euler process maps only NumPy's OpenBLAS: it builds no
space-time ``Discretization``, so SciPy's solver subpackages and their
OpenBLAS are never loaded (``assembly.load_scipy``), which keeps about 30 MB
and 0.3 s of start-up out of every backward-Euler run.
"""

from dataclasses import dataclass, field
from functools import cached_property
from math import isqrt

import numpy as np

from .errors import ResourceLimitError
from .optimize import _run_design_loop
from .problem import dkappa_drho, kappa

# cap on the (levels x nodes) values of one march array, and on the (nodes x
# nodes) values of one dense FE matrix: 160 MB of float64, of which a march
# and its adjoint hold about four at once.  The default compare sweep's
# largest cell, 16384 steps on 51 nodes, has 835 635.
MAX_MARCH_VALUES = 20_000_000


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


def _differences(n_nodes):
    """The element difference matrix D, (D u)_e = u_(e+1) - u_e, so that K = D^T diag(w) D."""
    return np.diff(np.eye(n_nodes), axis=0)


def fe_assemble(spec, rho):
    """Assemble consistent mass and design-dependent stiffness matrices."""
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (spec.n_elements,):
        raise ValueError(f"design must have {spec.n_elements} entries, got shape {rho.shape}")
    nodes = spec.element_edges
    h = np.diff(nodes)
    w = kappa(rho, spec.material) / h
    dirichlet = np.arange(nodes.size)[[end.node for end in spec.ends if end.kind == "dirichlet"]]
    free = np.setdiff1d(np.arange(nodes.size), dirichlet)
    return FeDiscretization(
        spec=spec, nodes=nodes, mass=_p1_matrix(h / 3.0, h / 6.0), stiffness=_p1_matrix(w, -w),
        free=free, dirichlet=dirichlet,
    )


@dataclass
class _MarchData:
    """The design-independent data of an ``n_steps`` march (see ``_march_data``)."""

    times: np.ndarray
    initial: np.ndarray  # the free nodes' initial state x_0
    dirichlet: np.ndarray  # g of every level, one row per level
    sources: np.ndarray  # rows [b_n | g_n] of levels 1 .. N_t, in sweep order
    order: np.ndarray  # the level of each row in sweep order, 0 for level 1


@dataclass
class MarchingSolution:
    """A backward-Euler run, held in the modes it was marched in."""

    fe: FeDiscretization
    data: _MarchData
    modes: np.ndarray  # y_n of levels 1 .. N_t, one row per level in sweep order
    basis: np.ndarray  # V: the free-node state of level n is V y_n
    decay: np.ndarray  # mu^1 .. mu^L, one row per power (see _decay_powers)

    @property
    def times(self):
        return self.data.times

    @property
    def n_steps(self):
        return self.times.size - 1

    def free_levels(self, modes):
        """Free-node values V z_n of the modal rows z_n in sweep order, one row
        per level in time order."""
        out = np.empty_like(modes)
        out[self.data.order] = modes @ self.basis.T
        return out

    @cached_property
    def states(self):
        """Nodal history (n_nodes, N_t + 1) with the initial level; the design
        loop never reads it."""
        fe = self.fe
        u = np.empty((fe.n_nodes, self.n_steps + 1))
        u[fe.free, 0] = self.data.initial
        u[fe.free, 1:] = self.free_levels(self.modes).T
        u[fe.dirichlet] = self.data.dirichlet.T
        return u


def _dirichlet_values(fe, times):
    """Dirichlet data of every level, one row per level."""
    vals = np.empty((times.size, fe.dirichlet.size))
    for i, end in enumerate(end for end in fe.spec.ends if end.kind == "dirichlet"):
        vals[:, i] = np.asarray(end.data(times), dtype=float)
    return vals


def _load_matrix(fe, times):
    """Nodal loads M f(t_n) plus Neumann flux data, one row per level."""
    # the source broadcasts a row of nodes against a column of times, so a
    # term in t alone is evaluated once per level, not once per node
    f_nodes = np.asarray(fe.spec.f(fe.nodes[None, :], times[:, None]), dtype=float)
    loads = np.broadcast_to(f_nodes, (times.size, fe.n_nodes)) @ fe.mass  # M is symmetric
    for end in (end for end in fe.spec.ends if end.kind == "neumann"):
        loads[:, end.node] += end.outward * np.asarray(end.data(times), dtype=float)
    return loads


def _sweep_order(n_steps):
    """The level of each row of a march in sweep order, counted from 0 for level 1.

    The first nb L levels, cut into nb blocks of L = isqrt(N), are stored
    level-interleaved: level k of every block side by side, so that
    ``_sweep`` steps through contiguous (nb, n) slabs.  The last N - nb L
    levels follow in time order.
    """
    size = isqrt(n_steps)
    n_blocks = n_steps // size
    blocked = np.arange(n_blocks * size).reshape(n_blocks, size).T.ravel()
    return np.concatenate([blocked, np.arange(n_blocks * size, n_steps)])


def _march_data(fe, n_steps):
    """Times, initial state, Dirichlet values and sources of an ``n_steps`` march.

    Over the free nodes (f; d are the Dirichlet nodes, with values g_n)
    level n's step equation is

        (M_ff/dt + K_ff) x_n = M_ff/dt x_(n-1) + b_n - K_fd g_n,
        b_n = loads_n - M_fd (g_n - g_(n-1)) / dt,

    where only K depends on the design.  The rows [b_n | g_n] are kept in
    sweep order, so that a design's sources are one product with [I; -K_df].
    A design loop keeps the data in ``fe.march_cache``, filled by its first
    march.
    """
    cache = {} if fe.march_cache is None else fe.march_cache
    if n_steps not in cache:
        fr, dr = fe.free, fe.dirichlet
        times = np.linspace(0.0, fe.spec.horizon, n_steps + 1)
        g = _dirichlet_values(fe, times)
        m_fd = fe.mass[np.ix_(fr, dr)] / (fe.spec.horizon / n_steps)
        b = _load_matrix(fe, times)[1:, fr] - np.diff(g, axis=0) @ m_fd.T
        order = _sweep_order(n_steps)
        cache[n_steps] = _MarchData(
            times=times, initial=np.asarray(fe.spec.q(fe.nodes), dtype=float)[fr], dirichlet=g,
            sources=np.hstack([b, g[1:]])[order], order=order,
        )
    return cache[n_steps]


def _modal_basis(fe):
    """Eigenvalues lam and M-orthonormal eigenvectors V of the free-node pencil (K_ff, M_ff).

    With K = D^T diag(w) D, w = kappa / h, and M_ff = L L^T, the pencil's
    eigenvalues are the squared singular values of diag(sqrt w) D_f L^-T =
    U S Q^T and V = L^-T Q.  Each eigenvalue then carries an error relative
    to itself; eigh of L^-1 K_ff L^-T would put eps lam_max into every one,
    which took a 0/1 design's 8192-step march 2.0e-12 from block elimination.
    Where the free nodes outnumber the elements (Neumann at both ends) the
    constants span a null space, and lam is padded with zeros.
    """
    fr = fe.free
    w = -np.diagonal(fe.stiffness, 1)  # _p1_matrix stores -w there exactly
    l_inv_t = np.linalg.inv(np.linalg.cholesky(fe.mass[np.ix_(fr, fr)])).T
    scaled = (np.sqrt(w)[:, None] * _differences(fe.n_nodes)[:, fr]) @ l_inv_t
    _, sigma, q_t = np.linalg.svd(scaled, full_matrices=True)
    lam = np.zeros(fr.size)
    lam[:sigma.size] = sigma**2
    return lam, l_inv_t @ q_t.T


def _decay_powers(dt, lam, size):
    """mu^k = (1 + dt lam)^-k for k = 1 .. size, one row per power.

    Formed as exp(-k log1p(dt lam)), whose error is relative to the exponent
    k log1p(dt lam).  Powers of the rounded mu carry k times its rounding
    error instead, which the block starts of ``_sweep`` compound over all N
    levels: 1.6e-12 from block elimination at 16384 steps, against 3.1e-13.
    """
    return np.exp(-np.arange(1, size + 1)[:, None] * np.log1p(dt * lam))


def _sweep_blocks(slabs, powers, start, reverse):
    """``slabs[k, j] += mu * (level before)`` over blocks of L levels, in place.

    ``slabs`` is (L, nb, n), with level k of block j at [k, j] in the order
    of the sweep; the sweep runs through the blocks j = 0 .. nb - 1, or
    nb - 1 .. 0 with ``reverse``, and ``start`` is the level before the
    first.  ``powers`` holds mu^1 .. mu^L.  Every block is swept from a zero
    start at once; each block's start is carried to the next by mu^L; then
    mu^(k+1) times its start is added to level k of every block.  Returns
    the final level, as it was stored.
    """
    for k in range(1, slabs.shape[0]):
        slabs[k] += powers[0] * slabs[k - 1]
    starts = np.empty(slabs.shape[1:])  # the level before each block
    blocks = range(starts.shape[0])
    for j in reversed(blocks) if reverse else blocks:
        starts[j] = start
        start = slabs[-1, j] + powers[-1] * start
    for k in range(slabs.shape[0]):
        slabs[k] += powers[k] * starts
    return start


def _sweep_levels(levels, mu, start):
    """``levels[i] += mu * (level before)`` one level at a time, in place; returns the last."""
    for row in levels:
        row += mu * start
        start = row
    return start


def _sweep(x, powers, start, reverse=False):
    """The recurrence x_n += mu x_(n-1) over levels 1 .. N in sweep order, in place.

    ``start`` is x_0.  With ``reverse`` the recurrence runs from level N down
    to level 1, x_n += mu x_(n+1), and ``start`` is x_(N+1): the tail first,
    then the blocks from the last, each from its last level.
    """
    size = powers.shape[0]
    n_blocks = x.shape[0] // size
    slabs = x[:n_blocks * size].reshape(size, n_blocks, x.shape[1])
    tail = x[n_blocks * size:]
    if reverse:
        _sweep_blocks(slabs[::-1], powers, _sweep_levels(tail[::-1], powers[0], start), True)
    else:
        _sweep_levels(tail, powers[0], _sweep_blocks(slabs, powers, start, False))


def _check_history(n_steps, n_nodes):
    values = (n_steps + 1) * n_nodes
    if values > MAX_MARCH_VALUES:
        raise ResourceLimitError(f"{n_steps} steps on {n_nodes} nodes: {values} values per "
                                 f"history, above the cap of {MAX_MARCH_VALUES}")


def be_march(fe, n_steps):
    """Backward-Euler time stepping in the step's eigenbasis, swept in blocks by ``_sweep``."""
    if n_steps < 1:
        raise ValueError("need at least one time step")
    _check_history(n_steps, fe.n_nodes)
    data = _march_data(fe, n_steps)
    fr, dr = fe.free, fe.dirichlet
    dt = fe.spec.horizon / n_steps
    lam, basis = _modal_basis(fe)
    # block size isqrt(N) serves both sweeps: N levels forward and back
    decay = _decay_powers(dt, lam, isqrt(n_steps))
    # every level's dt mu V^T (b_n - K_fd g_n) in one product: rows [b_n | g_n] [I; -K_df] V dt mu
    lift = np.vstack([basis, -fe.stiffness[np.ix_(dr, fr)] @ basis]) * (dt * decay[0])
    modes = data.sources @ lift
    _sweep(modes, decay, basis.T @ (fe.mass[np.ix_(fr, fr)] @ data.initial))
    return MarchingSolution(fe=fe, data=data, modes=modes, basis=basis, decay=decay)


def be_aao_solve(fe, n_steps):
    """The all-at-once backward-Euler solve, which is ``be_march``.

    Stacking every level gives a block lower-bidiagonal system (diagonal
    blocks M/dt + K, subdiagonal -M/dt); eliminated level by level it is
    the march.  ``stheat compare`` reports its (n_el + 1)(N + 1) unknowns.
    """
    return be_march(fe, n_steps)


def _dirichlet_coupling(solution):
    """g_n of levels 1 .. N_t in sweep order, and R = M_df V."""
    fe = solution.fe
    g = solution.data.sources[:, fe.free.size:]
    return g, fe.mass[np.ix_(fe.dirichlet, fe.free)] @ solution.basis


def be_objective(solution):
    """Right-endpoint quadrature of u^T M u over the marched history.

    With u_n = [V y_n; g_n] and V^T M_ff V = I, u_n^T M u_n is
    |y_n|^2 + 2 g_n^T R y_n + g_n^T M_dd g_n.
    """
    fe, y = solution.fe, solution.modes
    dt = solution.times[1] - solution.times[0]
    g, r = _dirichlet_coupling(solution)
    m_dd = fe.mass[np.ix_(fe.dirichlet, fe.dirichlet)]
    return float(dt * (np.vdot(y, y) + 2.0 * np.vdot(r, g.T @ y) + np.vdot(g @ m_dd, g)))


def _adjoint_modes(solution):
    """Modal adjoint states zeta_n of levels 1 .. N_t, in sweep order.

    The transposed march, backward in time: with lambda_n = V zeta_n its
    level n is zeta_n = mu zeta_(n+1) + 2 dt^2 mu (y_n + R^T g_n), the
    forward's mu because M and K are symmetric (by construction in
    ``_p1_matrix``), and 2 dt (M u_n)_f = dJ/dx_n on the right.
    """
    dt = solution.fe.spec.horizon / solution.n_steps
    g, r = _dirichlet_coupling(solution)
    zeta = g @ r
    zeta += solution.modes
    zeta *= (2.0 * dt * dt) * solution.decay[0]
    _sweep(zeta, solution.decay, np.zeros(zeta.shape[1]), reverse=True)
    return zeta


def be_adjoint_and_sensitivity(solution, rho):
    """Backward adjoint march and the design gradient of be_objective.

    dJ/drho_k = -(dkappa_k / h_k) sum_n (D lambda_n)_k (D u_n)_k, with lambda
    zero on the Dirichlet nodes.  With A = D_f V, D lambda_n = A zeta_n and
    D u_n = A y_n + D_d g_n, so the sum over levels is the diagonal of
    A H_1 A^T + A H_2 D_d^T, with H_1 = sum_n zeta_n y_n^T and
    H_2 = sum_n zeta_n g_n^T.
    """
    fe = solution.fe
    zeta = _adjoint_modes(solution)
    g, _ = _dirichlet_coupling(solution)
    diff = _differences(fe.n_nodes)
    a = diff[:, fe.free] @ solution.basis
    pairs = np.sum((a @ (zeta.T @ solution.modes)) * a, axis=1)
    pairs += np.sum((a @ (zeta.T @ g)) * diff[:, fe.dirichlet], axis=1)
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
    runs each forward solve as ``be_aao_solve``."""
    # refused before the element edges, the dense (K+1) x (K+1) matrices or a history is built
    n_nodes = spec.n_elements + 1
    _check_history(n_steps, n_nodes)
    if n_nodes * n_nodes > MAX_MARCH_VALUES:
        raise ResourceLimitError(f"{spec.n_elements} elements: {n_nodes * n_nodes} values per "
                                 f"mass or stiffness matrix, above the cap of {MAX_MARCH_VALUES}")
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
