"""Monolithic space-time SBP-SAT assembly of the heat equation.

The space-time domain is split into K elements in x (one element in t).
Every term of the scheme is a Kronecker product of a time factor and a
spatial factor, and every term except the time derivative and the weak
initial condition has the time factor P_t.  Ordered time-major (all spatial
nodes of time level 0, then of level 1, ...), the global matrix is therefore

    A = T (x) W + P_t (x) M(kappa),        T = Q_t + sigma_0 e_s e_s^T,

where W is the diagonal spatial quadrature of all elements and
M(kappa) = M0 + sum_k kappa_k M_k is a sparse spatial operator holding the
diffusion term and the boundary and interface penalties.  M couples element
k to its neighbours k-1 and k+1 only.  The whole system is premultiplied by
the quadrature matrix P, which symmetrizes the penalty structure and makes
the algebraic transpose the natural dual scheme.  The penalty coefficients
are chosen in one place, ``Discretization``, from the spatial operators of
the elements they act on.

States are stacked in that time-major order: entry j*n_s + s holds spatial
node s = k*n_x + i (node i of element k) at time level j, so
``u.reshape(n_t, -1)`` is the (time level, spatial node) view of a state,
with no copy.  Interface nodes appear once per element.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy

from .errors import ResourceLimitError
from .problem import choose_sat_coefficients, kappa
from .sbp import build_sbp_1d, build_sbp_elements

# cap on the values of one run's states (K n_x n_t values each) and element
# operators D and Q (K n_x^2, like the entries of M), checked before any is
# built.  The largest run of the presets, the tests and the default sweeps,
# the criterion-6 reference at 80 x 60, has 2 x 81 x 81 = 13 122.
MAX_RUN_VALUES = 1_000_000
# cap on the values of one factorization, a run's largest arrays: n_t modes,
# each an n x n LU in min(n, 2 kl + ku + 1) rows of band storage (SuperLU's
# fill is bounded by the full n x n), checked before the operators or the
# Schur form are built.  It allows as many values as the backward-Euler
# history cap, ``baselines.MAX_MARCH_VALUES``.  The largest factorization of
# the presets and the tests, the criterion-6 reference at 80 x 60, holds
# 61 x 162 x 162 = 1 600 884.
MAX_FACTOR_VALUES = 20_000_000


def load_scipy():
    """Import the SciPy subpackages of the space-time solver, once per process.

    They take about 0.3 s and 30 MB, and only the space-time solver calls
    them.  ``Discretization`` loads them on construction, so the import
    falls outside every timed solve, and a run that builds none, such as a
    backward-Euler design loop, runs on NumPy alone.
    """
    import scipy.linalg  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401


@dataclass
class GlobalSystem:
    """The space-time system A = T (x) W + P_t (x) M(kappa) of one design.

    Only the sparse spatial operator ``M`` depends on the design; T, W and
    P_t belong to ``disc``.  ``rhs`` is independent of the design.
    """

    disc: object
    M: object  # scipy.sparse.csc_matrix
    rhs: np.ndarray

    @property
    def n_blocks(self):  # outside the tests, only perfbench/tracing.py reads this
        return self.disc.n_elements

    @property
    def block_size(self):  # outside the tests, only perfbench/tracing.py reads this
        return self.disc.block_size

    @property
    def n_unknowns(self):
        return self.disc.n_unknowns

    def rhs_vector(self):  # outside the tests, only perfbench/tracing.py reads this
        return self.rhs

    def matvec(self, u):
        return self._apply(self.disc.T, self.M, u)

    def rmatvec(self, v):
        return self._apply(self.disc.T.T, self.M.T, v)

    def _apply(self, T, M, u):
        """(T (x) W + P_t (x) M) u."""
        disc = self.disc
        U = np.asarray(u).reshape(disc.op_t.n_nodes, -1)
        return ((T @ U) * disc.W + disc.op_t.weights[:, None] * (M @ U.T).T).ravel()


class Discretization:
    """The 1D SBP operators and SAT coefficients of one problem setup.

    Element k is the tensor product of the time operator ``op_t`` and
    element k of the stacked spatial operator ``op_x`` on ``n_x`` nodes.
    The penalties ``sat`` come from ``choose_sat_coefficients`` with the
    interface parameter ``s``, the boundary ``safety`` factor and the initial
    penalty ``sigma_0``; each Dirichlet penalty is sized on the boundary
    element it acts on.  The pieces of the Kronecker form (T, W, the Schur form of
    P_t^-1 T and the kappa-affine terms of M) and the right-hand side are
    built on first use and kept, so reassembly at a new design only
    rescales the kappa-dependent entries.
    """

    def __init__(self, spec, s=0.5, safety=1.0, sigma_0=1.0):
        self.spec = spec
        self.n_x = spec.nx + 1
        values = spec.n_elements * self.n_x * max(self.n_x, spec.nt + 1)
        if values > MAX_RUN_VALUES:
            raise ResourceLimitError(
                f"{spec.n_elements} elements of {self.n_x} x {spec.nt + 1} nodes: {values} "
                f"values per state or operator array, above the cap of {MAX_RUN_VALUES}"
            )
        # M couples an element to its neighbours alone, so kl = ku = n_x (``blocksolve.factor``)
        n_t, n = spec.nt + 1, spec.n_elements * self.n_x
        values = n_t * n * min(n, 3 * self.n_x + 1)
        if values > MAX_FACTOR_VALUES:
            raise ResourceLimitError(
                f"{n_t} time modes of {n} x {n} spatial factors would hold {values} LU values, "
                f"above the cap of {MAX_FACTOR_VALUES}")
        self.op_t = build_sbp_1d(spec.nt + 1, (0.0, spec.horizon))
        self.op_x = build_sbp_elements(self.n_x, spec.element_edges)
        self.sat = choose_sat_coefficients(self.op_x, spec.material, s, safety, sigma_0)
        # each end's SAT coefficient on M and data: a penalty or -outward (ROADMAP item 1's defect)
        self._end_sats = [(end, sigma if end.kind == "dirichlet" else -end.outward)
                          for end, sigma in zip(spec.ends, (self.sat.sigma_w, self.sat.sigma_e))]
        load_scipy()

    @property
    def n_elements(self):
        return self.spec.n_elements

    @property
    def block_size(self):
        return self.n_x * self.op_t.n_nodes

    @property
    def n_unknowns(self):
        return self.n_elements * self.block_size

    def kappa_of(self, rho):
        rho = np.asarray(rho, dtype=float)
        if rho.shape != (self.n_elements,):
            raise ValueError(
                f"design must have {self.n_elements} entries, got shape {rho.shape}"
            )
        return kappa(rho, self.spec.material)

    def coordinates(self):
        """Flat (X, T) coordinates of every node, in the order of a state."""
        x = self.op_x.nodes.ravel()
        return np.tile(x, self.op_t.n_nodes), np.repeat(self.op_t.nodes, x.size)

    def global_p(self):
        """Diagonal of P = P_t (x) W; read-only."""
        return self._p

    @cached_property
    def _p(self):
        p = np.outer(self.op_t.weights, self.W).ravel()
        p.flags.writeable = False
        return p

    @cached_property
    def T(self):
        """Time factor Q_t + sigma_0 e_s e_s^T of the time derivative and initial penalty."""
        T = self.op_t.Q.copy()
        T[0, 0] += self.sat.sigma_0
        return T

    @cached_property
    def W(self):
        """Diagonal of W: the spatial quadrature weights of all elements."""
        return self.op_x.weights.ravel()

    @cached_property
    def schur(self):
        """Complex Schur form (R, Z) of P_t^-1 T = Z R Z^H: R upper triangular, Z unitary."""
        return scipy.linalg.schur(self.T / self.op_t.weights[:, None], output="complex")

    @cached_property
    def rhs(self):
        """The right-hand side; independent of the design, read-only.

        The source enters on every node, the initial penalty on time level 0
        and the boundary data on the first and last spatial nodes.
        """
        spec, wt = self.spec, self.op_t.weights
        n_t, n_s = wt.size, self.W.size
        X, T = self.coordinates()
        if getattr(spec.f, "element_aware", False):
            # sources built from a per-element diffusivity are one-sided at
            # interface nodes, so they need to know which element each node is in
            element = np.tile(np.repeat(np.arange(self.n_elements), self.n_x), n_t)
            f_vals = spec.f(X, T, element=element)
        else:
            f_vals = spec.f(X, T)
        B = (self.global_p() * np.asarray(f_vals, dtype=float)).reshape(n_t, n_s)
        B[0] += self.sat.sigma_0 * (self.W * np.asarray(spec.q(X[:n_s]), dtype=float))
        for end, sigma in self._end_sats:
            B[:, end.node] += sigma * (wt * np.asarray(end.data(self.op_t.nodes), dtype=float))
        rhs = B.ravel()
        rhs.flags.writeable = False
        return rhs

    @cached_property
    def spatial_terms(self):
        """M(kappa) as COO triples ``(rows, cols, values, owner)``.

        An entry adds ``values * kappa[owner]`` to M, or ``values`` where
        ``owner`` is -1: those entries make up M0, the ones owned by element
        k make up M_k.  Duplicate positions add up.  Physical boundaries get
        a Dirichlet penalty or a flux penalty on kappa u_x.  Each interface
        penalizes the jumps of the value and of the flux kappa u_x between an
        element and its neighbour.

        Each term is built for all K elements at once.  The triples come
        element by element, term by term, each term's nonzero entries row by
        row: the order of a loop over the elements and their dense factors.
        """
        sat, n, D = self.sat, self.n_x, self.op_x.D
        k = np.arange(self.n_elements)[:, None]
        node, one = np.arange(n), np.ones((k.size, 1))
        # (elements, column-element offset, local rows, local columns, factor
        #  of shape (K, m), coefficient, owner offset or None for M0)
        terms = [(k >= 0, 0, np.repeat(node, n), np.tile(node, n),
                  -(self.op_x.Q @ D).reshape(k.size, -1), 1.0, 0)]  # -kappa P D_x^2
        for (end, sigma), (s_a, s_b, t) in zip(self._end_sats, (
                (sat.sigma_1, sat.sigma_2, sat.tau_1), (sat.sigma_3, sat.sigma_4, sat.tau_2))):
            near, far, offset = end.node % n, (-1 - end.node) % n, end.outward
            inner = k != end.node % k.size  # the elements with a neighbour `offset` away
            # the near end's row of each D_x, and the far end's row of the neighbour's
            Dn, Df = D[:, near], np.roll(D[:, far], -offset, axis=0)
            terms += [
                (~inner, 0, near, near, one, sigma, None) if end.kind == "dirichlet"
                else (~inner, 0, near, node, Dn, sigma, 0),
                (inner, 0, near, near, one, s_a, None),
                (inner, 0, near, node, Dn, s_b, 0),
                (inner, 0, node, near, Dn, t, 0),
                (inner, offset, near, far, one, -s_a, None),
                (inner, offset, near, node, Df, -s_b, offset),
                (inner, offset, node, far, Dn, -t, 0),
            ]
        entries = []  # rows, cols, values, owner and kept entries of each term, all (K, m)
        for elements, offset, i, j, factor, coefficient, owned_by in terms:
            owned = -1 if owned_by is None else k + owned_by
            kept = elements & (factor != 0)  # exact zeros of a factor are no entries
            entries.append([np.broadcast_to(a, factor.shape) for a in (
                k * n + i, (k + offset) * n + j, coefficient * factor, owned, kept)])
        *triples, keep = (np.hstack(a) for a in zip(*entries))
        return tuple(a[keep] for a in triples)

    def spatial_operator(self, kap):
        """M(kappa) = M0 + sum_k kappa_k M_k as a sparse CSC matrix."""
        rows, cols, values, owner = self.spatial_terms
        scale = np.append(kap, 1.0)[owner]  # owner -1 picks the trailing 1
        n_s = self.W.size
        return scipy.sparse.csc_matrix((values * scale, (rows, cols)), shape=(n_s, n_s))


def assemble_global(disc, rho):
    """The design's spatial operator M(kappa) and the design-independent rhs."""
    return GlobalSystem(disc=disc, M=disc.spatial_operator(disc.kappa_of(rho)), rhs=disc.rhs)


def residual(u, system):
    """A(rho) u - b for a stacked state vector."""
    u = np.asarray(u, dtype=float)
    if u.shape != (system.n_unknowns,):
        raise ValueError(
            f"state has shape {u.shape}, expected ({system.n_unknowns},)"
        )
    return system.matvec(u) - system.rhs


def north_trace(disc, u):
    """Terminal-time traces of all elements for a stacked state, a (K, n_x) view."""
    return np.asarray(u).reshape(disc.op_t.n_nodes, disc.n_elements, disc.n_x)[-1]
