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
the algebraic transpose the natural dual scheme.

States are stacked element-major (element after element, each stacked as in
``spacetime``); ``Discretization.time_major`` and ``element_major`` convert
between the two orders.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .problem import choose_sat_coefficients, kappa
from .sbp import build_sbp_1d
from .spacetime import build_element_ops, restrict


@dataclass
class GlobalSystem:
    """The space-time system A = T (x) W + P_t (x) M(kappa) of one design.

    Only the sparse spatial operator ``M`` depends on the design; T, W and
    P_t belong to ``disc``.  ``rhs`` is element-major and independent of the
    design.
    """

    disc: object
    M: sp.csc_matrix
    rhs: np.ndarray

    @property
    def n_blocks(self):
        return self.disc.n_elements

    @property
    def block_size(self):
        return self.disc.block_size

    @property
    def n_unknowns(self):
        return self.disc.n_unknowns

    def rhs_vector(self):
        return self.rhs

    def matvec(self, u):
        return self._apply(self.disc.T, self.M, u)

    def rmatvec(self, v):
        return self._apply(self.disc.T.T, self.M.T, v)

    def _apply(self, T, M, u):
        """(T (x) W + P_t (x) M) u for an element-major u."""
        disc = self.disc
        U = disc.time_major(np.asarray(u))
        return disc.element_major((T @ U) * disc.W + disc.op_t.weights[:, None] * (M @ U.T).T)


class Discretization:
    """Element operators and SAT coefficients for one problem setup.

    The pieces of the Kronecker form (T, W, the Schur form of P_t^-1 T and
    the kappa-affine terms of M) are built on first use and kept, so
    reassembly at a new design only rescales the kappa-dependent entries.
    """

    def __init__(self, spec, sat=None):
        self.spec = spec
        edges = spec.element_edges
        op_t = build_sbp_1d(spec.nt + 1, (0.0, spec.horizon))
        self.ops = [
            build_element_ops(
                build_sbp_1d(spec.nx + 1, (edges[k], edges[k + 1])), op_t
            )
            for k in range(spec.n_elements)
        ]
        self.op_t = op_t
        self.sat = sat if sat is not None else choose_sat_coefficients(
            self.ops[0].op_x, spec.material
        )

    @property
    def n_elements(self):
        return self.spec.n_elements

    @property
    def block_size(self):
        return self.ops[0].n

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

    def element_coordinates(self, k):
        return self.ops[k].layout.coordinates()

    def global_p(self):
        """Quadrature weights of all elements, concatenated."""
        return np.concatenate([ops.p_vec for ops in self.ops])

    @cached_property
    def T(self):
        """Time factor Q_t + sigma_0 e_s e_s^T of the time derivative and initial penalty."""
        T = self.op_t.Q.copy()
        T[0, 0] += self.sat.sigma_0
        return T

    @cached_property
    def W(self):
        """Diagonal of W: the spatial quadrature weights of all elements."""
        return np.concatenate([ops.op_x.weights for ops in self.ops])

    @cached_property
    def schur(self):
        """Complex Schur form (R, Z) of P_t^-1 T = Z R Z^H: R upper triangular, Z unitary."""
        return sla.schur(self.T / self.op_t.weights[:, None], output="complex")

    @cached_property
    def spatial_terms(self):
        """M(kappa) as COO triples ``(rows, cols, values, owner)``.

        An entry adds ``values * kappa[owner]`` to M, or ``values`` where
        ``owner`` is -1: those entries make up M0, the ones owned by element
        k make up M_k.  Duplicate positions add up.
        """
        n_x = self.ops[0].n_x
        rows, cols, values, owner = [], [], [], []
        for row, col, factor, coefficient, kappa_of in _spatial_terms(self):
            i, j = np.nonzero(factor)
            rows.append(row * n_x + i)
            cols.append(col * n_x + j)
            values.append(coefficient * factor[i, j])
            owner.append(np.full(i.size, -1 if kappa_of is None else kappa_of))
        return tuple(np.concatenate(a) for a in (rows, cols, values, owner))

    def spatial_operator(self, kap):
        """M(kappa) = M0 + sum_k kappa_k M_k as a sparse CSC matrix."""
        rows, cols, values, owner = self.spatial_terms
        scale = np.append(kap, 1.0)[owner]  # owner -1 picks the trailing 1
        n_s = self.W.size
        return sp.csc_matrix((values * scale, (rows, cols)), shape=(n_s, n_s))

    def time_major(self, u):
        """Element-major state as a (time level, spatial node) array."""
        n_t, n_x = self.op_t.n_nodes, self.ops[0].n_x
        return u.reshape(self.n_elements, n_t, n_x).transpose(1, 0, 2).reshape(n_t, -1)

    def element_major(self, U):
        """Inverse of ``time_major``: a flat element-major state."""
        n_t, n_x = U.shape[0], self.ops[0].n_x
        return U.reshape(n_t, self.n_elements, n_x).transpose(1, 0, 2).ravel()


def _spatial_terms(disc):
    """Every P_t-weighted term of the scheme, as (row element, column element,
    spatial factor, coefficient, owner).

    A term adds coefficient * kappa_owner * (P_t (x) factor) to the block
    (row, column), or coefficient * (P_t (x) factor) when owner is None.
    Physical boundaries get a Dirichlet penalty or a flux penalty on kappa u_x.
    Each interface penalizes the jumps of the value and of the flux kappa u_x
    between an element and its neighbour.
    """
    spec, sat = disc.spec, disc.sat
    last = spec.n_elements - 1
    e_w, e_e = np.eye(disc.ops[0].n_x)[[0, -1]]
    Eww, Eee, Ewe, Eew = (np.outer(a, b) for a, b in ((e_w, e_w), (e_e, e_e), (e_w, e_e), (e_e, e_w)))
    terms = []
    for k in range(spec.n_elements):
        op_x = disc.ops[k].op_x
        Dx = op_x.D
        terms.append((k, k, -(op_x.Q @ Dx), 1.0, k))  # -kappa P D_x^2
        if k == 0:
            if spec.bc_left == "dirichlet":
                terms.append((k, k, Eww, sat.sigma_w, None))
            else:
                terms.append((k, k, Eww @ Dx, 1.0, k))
        else:
            Dx_left = disc.ops[k - 1].op_x.D
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
            Dx_right = disc.ops[k + 1].op_x.D
            terms += [
                (k, k, Eee, sat.sigma_3, None),
                (k, k, Eee @ Dx, sat.sigma_4, k),
                (k, k, Dx.T @ Eee, sat.tau_2, k),
                (k, k + 1, Eew, -sat.sigma_3, None),
                (k, k + 1, Eew @ Dx_right, -sat.sigma_4, k + 1),
                (k, k + 1, Dx.T @ Eew, -sat.tau_2, k),
            ]
    return terms


def _element_rhs(k, disc):
    spec, sat = disc.spec, disc.sat
    ops = disc.ops[k]
    wt, wx = ops.op_t.weights, ops.op_x.weights
    X, T = ops.layout.coordinates()
    if getattr(spec.f, "element_aware", False):
        # sources built from a per-element diffusivity are one-sided at
        # interface nodes, so they need to know which element is asking
        f_vals = spec.f(X, T, element=k)
    else:
        f_vals = spec.f(X, T)
    b = ops.p_vec * np.asarray(f_vals, dtype=float)
    q_nodes = np.asarray(spec.q(ops.op_x.nodes), dtype=float)
    e_s = np.zeros(ops.n_t)
    e_s[0] = 1.0
    b += sat.sigma_0 * np.kron(e_s, wx * q_nodes)
    e_w = np.zeros(ops.n_x)
    e_w[0] = 1.0
    e_e = np.zeros(ops.n_x)
    e_e[-1] = 1.0
    if k == 0:
        data = np.asarray(spec.h(ops.op_t.nodes), dtype=float)
        scale = sat.sigma_w if spec.bc_left == "dirichlet" else 1.0
        b += scale * np.kron(wt * data, e_w)
    if k == spec.n_elements - 1:
        data = np.asarray(spec.g(ops.op_t.nodes), dtype=float)
        scale = sat.sigma_e if spec.bc_right == "dirichlet" else -1.0
        b += scale * np.kron(wt * data, e_e)
    return b


def assemble_global(disc, rho):
    """The design's spatial operator M(kappa) and the design-independent rhs."""
    M = disc.spatial_operator(disc.kappa_of(rho))
    rhs = np.concatenate([_element_rhs(k, disc) for k in range(disc.n_elements)])
    return GlobalSystem(disc=disc, M=M, rhs=rhs)


def residual(u, system):
    """A(rho) u - b for a stacked state vector."""
    u = np.asarray(u, dtype=float)
    if u.shape != (system.n_unknowns,):
        raise ValueError(
            f"state has shape {u.shape}, expected ({system.n_unknowns},)"
        )
    return system.matvec(u) - system.rhs_vector()


def north_trace(disc, u):
    """Terminal-time traces of all elements for a stacked state."""
    ub = u.reshape(disc.n_elements, disc.block_size)
    return [restrict("north", disc.ops[k], ub[k]) for k in range(disc.n_elements)]
