"""Direct solves of the space-time system through a Schur form in time.

In the time-major order of ``assembly`` the system is
A = T (x) W + P_t (x) M.  With U the (time level, spatial node) array of the
unknowns and B that of the right-hand side, A u = b reads

    S U W + U M^T = P_t^-1 B,        S = P_t^-1 T = Z R Z^H,

where Z R Z^H is the complex Schur form of S (Bartels-Stewart 1972).  In
the basis V = Z^H U the time operator is upper triangular, so the rows of V
follow by back substitution, each from one sparse spatial solve with
R_jj W + M.  Z is unitary, so the change of basis costs no accuracy, unlike
the eigenvector basis of a high-order time operator.

Transposed systems A^T x = b reuse the same factors: with Y = P_t X and
V = Z^T Y they read R^T V W + V M = Z^T B, solved by forward substitution
with the transposed spatial factors.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SingularSystemError


@dataclass
class SchurFactorization:
    """Sparse LU factors of R_jj W + M for every time mode j of ``disc.schur``."""

    disc: object
    lus: list


def factor(system):
    """One sparse LU of the spatial factor R_jj W + M per time mode j."""
    R, _ = system.disc.schur
    W = sp.diags(system.disc.W)
    lus = []
    for j, r in enumerate(np.diag(R)):
        try:
            lus.append(spla.splu((r * W + system.M).tocsc()))
        except RuntimeError as err:  # SuperLU: "Factor is exactly singular"
            raise SingularSystemError(j) from err
    return SchurFactorization(system.disc, lus)


def _time_major(fact, rhs):
    disc = fact.disc
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (disc.n_unknowns,):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({disc.n_unknowns},)")
    return disc.time_major(rhs)


def solve(fact, rhs):
    """Solve A x = b: back substitution on R V W + V M^T = Z^H P_t^-1 B, then X = Z V."""
    disc = fact.disc
    R, Z = disc.schur
    C = Z.conj().T @ (_time_major(fact, rhs) / disc.op_t.weights[:, None])
    V = np.empty_like(C)
    for j in range(len(fact.lus) - 1, -1, -1):
        V[j] = fact.lus[j].solve(C[j] - disc.W * (R[j, j + 1:] @ V[j + 1:]))
    return disc.element_major((Z @ V).real)


def solve_transposed(fact, rhs):
    """Solve A^T x = b: forward substitution on R^T V W + V M = Z^T B, then P_t X = conj(Z) V."""
    disc = fact.disc
    R, Z = disc.schur
    C = Z.T @ _time_major(fact, rhs)
    V = np.empty_like(C)
    for j in range(len(fact.lus)):
        V[j] = fact.lus[j].solve(C[j] - disc.W * (R[:j, j] @ V[:j]), trans="T")
    return disc.element_major((Z.conj() @ V).real / disc.op_t.weights[:, None])


def solve_system(system):
    """Factor once and solve A x = b for the assembled right-hand side."""
    fact = factor(system)
    return solve(fact, system.rhs_vector()), fact


def one_norm(system):
    """Exact 1-norm of A, from its sparse Kronecker form."""
    disc = system.disc
    A = sp.kron(disc.T, sp.diags(disc.W)) + sp.kron(sp.diags(disc.op_t.weights), system.M)
    return float(abs(A).sum(axis=0).max())


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
