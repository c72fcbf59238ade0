"""Direct block-tridiagonal solves by block LU (block Thomas algorithm).

Elimination proceeds block row by block row with LAPACK partial-pivoted LU
inside each pivot block; no pivoting happens across blocks, which preserves
the banded layout.  Transposed systems A^T x = b are solved with the same
factors A = L U, as U^T y = b followed by L^T x = y.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .errors import SingularSystemError


@dataclass
class BlockTriFactorization:
    """Pivot-block LU factors and elimination multipliers."""

    pivot_lus: list
    multipliers: list
    uppers: list

    @property
    def n_blocks(self):
        return len(self.pivot_lus)

    @property
    def block_size(self):
        return self.pivot_lus[0][0].shape[0]


def _pivot_lu(block, element):
    with warnings.catch_warnings():
        # singularity is detected below and raised as a typed error
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = sla.lu_factor(block, check_finite=False)
    if np.min(np.abs(np.diag(lu))) == 0.0:
        raise SingularSystemError(element)
    return lu, piv


def factor(system):
    """Block LU of the system."""
    diag, upper, lower = system.diag, system.upper, system.lower
    pivot_lus = [_pivot_lu(diag[0], 0)]
    multipliers = []
    for k in range(1, len(diag)):
        lu_prev = pivot_lus[k - 1]
        # L_k = C_k U_{k-1}^{-1}, obtained from U_{k-1}^T L_k^T = C_k^T
        L_k = sla.lu_solve(lu_prev, lower[k - 1].T, trans=1, check_finite=False).T
        U_k = diag[k] - L_k @ upper[k - 1]
        multipliers.append(L_k)
        pivot_lus.append(_pivot_lu(U_k, k))
    return BlockTriFactorization(pivot_lus, multipliers, list(upper))


def _stacked(fact, rhs):
    K, n = fact.n_blocks, fact.block_size
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (K * n,):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({K * n},)")
    return rhs.reshape(K, n).copy()


def solve(fact, rhs):
    """Solve A x = b by forward/back substitution: L y = b, then U x = y."""
    K = fact.n_blocks
    y = _stacked(fact, rhs)
    for k in range(1, K):
        y[k] -= fact.multipliers[k - 1] @ y[k - 1]
    for k in range(K - 1, -1, -1):
        if k < K - 1:
            y[k] -= fact.uppers[k] @ y[k + 1]
        y[k] = sla.lu_solve(fact.pivot_lus[k], y[k], check_finite=False)
    return y.ravel()


def solve_transposed(fact, rhs):
    """Solve A^T x = b with the factors of A: U^T y = b, then L^T x = y."""
    K = fact.n_blocks
    y = _stacked(fact, rhs)
    for k in range(K):
        if k > 0:
            y[k] -= fact.uppers[k - 1].T @ y[k - 1]
        y[k] = sla.lu_solve(fact.pivot_lus[k], y[k], trans=1, check_finite=False)
    for k in range(K - 2, -1, -1):
        y[k] -= fact.multipliers[k].T @ y[k + 1]
    return y.ravel()


def solve_system(system):
    """Factor once and solve A x = b for the assembled right-hand side."""
    fact = factor(system)
    return solve(fact, system.rhs_vector()), fact


def to_dense(system):
    """Materialize the block-tridiagonal matrix (testing/small systems only)."""
    K, n = system.n_blocks, system.block_size
    dense = np.zeros((K * n, K * n))
    for k in range(K):
        dense[k * n:(k + 1) * n, k * n:(k + 1) * n] = system.diag[k]
        if k + 1 < K:
            dense[k * n:(k + 1) * n, (k + 1) * n:(k + 2) * n] = system.upper[k]
            dense[(k + 1) * n:(k + 2) * n, k * n:(k + 1) * n] = system.lower[k]
    return dense


def one_norm(system):
    """Exact 1-norm of the block-tridiagonal matrix."""
    K = system.n_blocks
    worst = 0.0
    for k in range(K):
        cols = np.abs(system.diag[k]).sum(axis=0)
        if k > 0:
            cols = cols + np.abs(system.upper[k - 1]).sum(axis=0)
        if k + 1 < K:
            cols = cols + np.abs(system.lower[k]).sum(axis=0)
        worst = max(worst, float(cols.max()))
    return worst


def condition_estimate(system):
    """Hager-style 1-norm condition estimate via forward/transpose solves."""
    try:
        fact = factor(system)
    except SingularSystemError:
        return np.inf
    m = system.n_unknowns
    inv_op = spla.LinearOperator(
        (m, m),
        matvec=lambda v: solve(fact, np.ravel(v)),
        rmatvec=lambda v: solve_transposed(fact, np.ravel(v)),
        dtype=float,
    )
    inv_norm = spla.onenormest(inv_op)
    return one_norm(system) * inv_norm
