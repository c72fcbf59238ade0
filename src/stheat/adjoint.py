"""Discrete objective, adjoint solve, and design sensitivities.

The objective is the quadrature of the squared temperature over space-time,
J = u^T P u.  Because the assembled system is premultiplied by P, the
adjoint of the scheme is the plain algebraic transpose, A^T Lambda = 2 P u,
solved with the block LU factors of the forward solve.  With the default
penalty choices the transpose is itself a consistent terminal-value
discretization of the dual heat equation, which is what buys
superconvergent objective values.

Sensitivities contract the adjoint with the kappa-linear parts of the
blocks.  Only the blocks of an element and its two neighbour couplings
depend on that element's design value, and the right-hand side carries no
design dependence at all, so each component costs a handful of small
matrix-vector products.
"""

from dataclasses import dataclass

import numpy as np

from .blocksolve import solve_transposed
from .problem import dkappa_drho


@dataclass
class AdjointSolution:
    """Stacked adjoint state and the objective value it certifies."""

    lam: np.ndarray
    objective: float


def objective(u, disc):
    """Space-time quadrature of u^2 summed over elements."""
    p = disc.global_p()
    u = np.asarray(u, dtype=float)
    return float(u @ (p * u))


def solve_adjoint(disc, system, u, fact):
    """Solve A^T Lambda = 2 P u with ``fact``, the factors ``solve_system(system)`` returned.

    ``system`` is not read; the perfbench tracer takes it to check the residual.
    """
    rhs = 2.0 * disc.global_p() * np.asarray(u, dtype=float)
    lam = solve_transposed(fact, rhs)
    return AdjointSolution(lam=lam, objective=objective(u, disc))


def _apply_spatial(wt, m_x, u_block):
    """Apply (diag(wt) (x) m_x) to a stacked element state."""
    n_t = wt.size
    n_x = m_x.shape[0]
    return (wt[:, None] * (u_block.reshape(n_t, n_x) @ m_x.T)).ravel()


def _own_block_kappa_part(disc, k):
    """Spatial factor of dA_k/dkappa_k (time factor is always P_t)."""
    spec, sat = disc.spec, disc.sat
    ops = disc.ops[k]
    Dx = ops.op_x.D
    first, last = k == 0, k == spec.n_elements - 1
    m = -(ops.op_x.Q @ Dx)
    if first:
        if spec.bc_left == "neumann":
            m[0, :] += Dx[0, :]
    else:
        m[0, :] += sat.sigma_2 * Dx[0, :]
        m[:, 0] += sat.tau_1 * Dx[0, :]
    if last:
        if spec.bc_right == "neumann":
            m[-1, :] -= Dx[-1, :]
    else:
        m[-1, :] += sat.sigma_4 * Dx[-1, :]
        m[:, -1] += sat.tau_2 * Dx[-1, :]
    return m


def sensitivities(disc, system, u, lam, rho):
    """Gradient of the objective with respect to the design vector.

    dJ/drho_k = -Lambda^T (dA/drho_k) u, expanded blockwise over the five
    blocks touched by element k (its own diagonal block plus the four
    neighbour couplings).
    """
    spec, sat = disc.spec, disc.sat
    K = spec.n_elements
    ub = system.blocks_of(np.asarray(u, dtype=float))
    lb = system.blocks_of(np.asarray(lam, dtype=float))
    rho = np.asarray(rho, dtype=float)
    dkap = dkappa_drho(rho, spec.material)
    grad = np.zeros(K)
    wt = disc.op_t.weights
    for k in range(K):
        ops = disc.ops[k]
        Dx = ops.op_x.D
        n_x = ops.n_x
        acc = lb[k] @ _apply_spatial(wt, _own_block_kappa_part(disc, k), ub[k])
        if k + 1 < K:
            n_right = disc.ops[k + 1].n_x
            # dB_k/dkappa_k = -tau_2 P_t (x) (Dx_k^T e_e e_w^T)  applied to u_{k+1}
            m = np.zeros((n_x, n_right))
            m[:, 0] = -sat.tau_2 * Dx[-1, :]
            acc += lb[k] @ _apply_spatial(wt, m, ub[k + 1])
            # dC_{k+1}/dkappa_k = -sigma_2 P_t (x) (e_w e_e^T Dx_k)  applied to u_k
            m = np.zeros((n_right, n_x))
            m[0, :] = -sat.sigma_2 * Dx[-1, :]
            acc += lb[k + 1] @ _apply_spatial(wt, m, ub[k])
        if k > 0:
            n_left = disc.ops[k - 1].n_x
            # dB_{k-1}/dkappa_k = -sigma_4 P_t (x) (e_e e_w^T Dx_k)  applied to u_k
            m = np.zeros((n_left, n_x))
            m[-1, :] = -sat.sigma_4 * Dx[0, :]
            acc += lb[k - 1] @ _apply_spatial(wt, m, ub[k])
            # dC_k/dkappa_k = -tau_1 P_t (x) (Dx_k^T e_w e_e^T)  applied to u_{k-1}
            m = np.zeros((n_x, n_left))
            m[:, -1] = -sat.tau_1 * Dx[0, :]
            acc += lb[k] @ _apply_spatial(wt, m, ub[k - 1])
        grad[k] = -dkap[k] * acc
    return grad
