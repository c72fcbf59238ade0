"""Discrete objective, adjoint solve, and design sensitivities.

The objective is the quadrature of the squared temperature over space-time,
J = u^T P u.  Because the assembled system is premultiplied by P, the
adjoint of the scheme is the plain algebraic transpose, A^T Lambda = 2 P u,
solved with the factors of the forward solve.  With the default
penalty choices the transpose is itself a consistent terminal-value
discretization of the dual heat equation, which is what buys
superconvergent objective values.

Only the spatial operator M(kappa) = M0 + sum_k kappa_k M_k of the system
depends on the design, and the right-hand side carries none, so the
sensitivities contract the adjoint and the state with the kappa-linear
pieces M_k, time level by time level.
"""

from dataclasses import dataclass

import numpy as np

from .blocksolve import solve_transposed
from .problem import dkappa_drho


@dataclass
class AdjointSolution:
    """Stacked adjoint state."""

    lam: np.ndarray


def objective(u, disc):
    """Space-time quadrature of u^2 over the whole domain."""
    p = disc.global_p()
    u = np.asarray(u, dtype=float)
    return float(u @ (p * u))


def solve_adjoint(disc, system, u, fact):
    """Solve A^T Lambda = 2 P u with ``fact``, the factors ``solve_system(system)`` returned.

    ``system`` is not read; the perfbench tracer takes it to check the residual.
    """
    rhs = 2.0 * disc.global_p() * np.asarray(u, dtype=float)
    return AdjointSolution(lam=solve_transposed(fact, rhs))


def sensitivities(disc, u, lam, rho):
    """Gradient of the objective with respect to the design vector.

    dJ/drho_k = -Lambda^T (dA/drho_k) u = -dkappa_k sum_j p_t,j lambda_j^T M_k u_j,
    with lambda_j, u_j the time-level-j slices and M_k the entries of
    ``disc.spatial_terms`` owned by element k.
    """
    rows, cols, values, owner = disc.spatial_terms
    n_t = disc.op_t.n_nodes
    U = np.asarray(u, dtype=float).reshape(n_t, -1)
    L = np.asarray(lam, dtype=float).reshape(n_t, -1)
    per_entry = values * np.einsum("j,jn,jn->n", disc.op_t.weights, L[:, rows], U[:, cols])
    # bin 0 collects the entries of M0 (owner -1), which carry no design
    acc = np.bincount(owner + 1, per_entry, minlength=disc.n_elements + 1)[1:]
    return -dkappa_drho(np.asarray(rho, dtype=float), disc.spec.material) * acc
