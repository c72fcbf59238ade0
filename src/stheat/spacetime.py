"""Tensor-product space-time operators for a single element.

One element covers [a_k, b_k] x [0, T].  States are stacked space-fastest:
entry j*(N_x+1) + i holds the value at spatial node i, time level j, so a
state reshaped to (n_t, n_x) has time as the leading axis.  With that
ordering the space-time operators are Kronecker products of the 1D factors,

    P   = P_t (x) P_x          Q_x = P_t (x) Q_x^1D      Q_t = Q_t^1D (x) P_x
    D_x = I_t (x) D_x^1D       D_t = D_t^1D (x) I_x

and the four face-restriction operators reduce to contiguous slices.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ResourceLimitError
from .sbp import SbpOperator1D

FACES = ("west", "east", "south", "north")

NODE_CAP = 100_000


@dataclass(frozen=True)
class GridLayout:
    """Node ordering and coordinates of one space-time element."""

    x: np.ndarray
    t: np.ndarray

    @property
    def n_x(self):
        return self.x.size

    @property
    def n_t(self):
        return self.t.size

    def index(self, i, j):
        """Flat index of spatial node i at time level j."""
        return j * self.n_x + i

    def coordinates(self):
        """Flat (X, T) arrays in stacking order."""
        X = np.tile(self.x, self.n_t)
        T = np.repeat(self.t, self.n_x)
        return X, T


@dataclass(frozen=True)
class SpaceTimeElementOps:
    """Operators of one space-time element, built from two 1D SBP operators.

    The dense N x N matrices are exposed as cached properties; assembly uses
    the small Kronecker factors directly, so the dense forms are only
    materialized when inspected.
    """

    op_x: SbpOperator1D
    op_t: SbpOperator1D

    @property
    def n_x(self):
        return self.op_x.n_nodes

    @property
    def n_t(self):
        return self.op_t.n_nodes

    @property
    def n(self):
        return self.n_x * self.n_t

    @cached_property
    def layout(self):
        return GridLayout(x=self.op_x.nodes, t=self.op_t.nodes)

    @cached_property
    def p_vec(self):
        """Diagonal of P = P_t (x) P_x as a flat vector."""
        return np.kron(self.op_t.weights, self.op_x.weights)

    @property
    def p_hat_w(self):
        """West endpoint quadrature weight of the spatial norm."""
        return self.op_x.weights[0]

    @property
    def p_hat_e(self):
        """East endpoint quadrature weight of the spatial norm."""
        return self.op_x.weights[-1]

    @cached_property
    def P(self):
        return np.diag(self.p_vec)

    @cached_property
    def Q_x(self):
        return np.kron(self.op_t.P, self.op_x.Q)

    @cached_property
    def Q_t(self):
        return np.kron(self.op_t.Q, self.op_x.P)

    @cached_property
    def D_x(self):
        return np.kron(np.eye(self.n_t), self.op_x.D)

    @cached_property
    def D_t(self):
        return np.kron(self.op_t.D, np.eye(self.n_x))

    @cached_property
    def E_x(self):
        r_e, r_w = self.restriction("east"), self.restriction("west")
        pt = self.op_t.P
        return r_e.T @ pt @ r_e - r_w.T @ pt @ r_w

    @cached_property
    def E_t(self):
        r_n, r_s = self.restriction("north"), self.restriction("south")
        px = self.op_x.P
        return r_n.T @ px @ r_n - r_s.T @ px @ r_s

    def restriction(self, face):
        """Dense restriction matrix extracting one face trace."""
        if face == "west":
            return np.kron(np.eye(self.n_t), _unit(self.n_x, 0)[None, :])
        if face == "east":
            return np.kron(np.eye(self.n_t), _unit(self.n_x, -1)[None, :])
        if face == "south":
            return np.kron(_unit(self.n_t, 0)[None, :], np.eye(self.n_x))
        if face == "north":
            return np.kron(_unit(self.n_t, -1)[None, :], np.eye(self.n_x))
        raise ValueError(f"unknown face {face!r}, expected one of {FACES}")


def _unit(n, k):
    e = np.zeros(n)
    e[k] = 1.0
    return e


def build_element_ops(op_x, op_t):
    """Assemble the operator set of one element; fails above the node cap."""
    n = op_x.n_nodes * op_t.n_nodes
    if n > NODE_CAP:
        raise ResourceLimitError(
            f"element would hold {n} nodes, above the cap of {NODE_CAP}"
        )
    return SpaceTimeElementOps(op_x=op_x, op_t=op_t)


def restrict(face, ops, u):
    """Face trace of an element state, as R_face @ u but via slicing."""
    if u.shape != (ops.n,):
        raise ValueError(f"state has shape {u.shape}, expected ({ops.n},)")
    grid = u.reshape(ops.n_t, ops.n_x)
    if face == "west":
        return grid[:, 0].copy()
    if face == "east":
        return grid[:, -1].copy()
    if face == "south":
        return grid[0, :].copy()
    if face == "north":
        return grid[-1, :].copy()
    raise ValueError(f"unknown face {face!r}, expected one of {FACES}")

