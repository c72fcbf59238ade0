"""Dense oracles of the space-time system, for small systems in tests."""

import numpy as np


def to_dense(system):
    """The matrix that ``system.matvec`` applies, built column by column."""
    return np.column_stack([system.matvec(e) for e in np.eye(system.n_unknowns)])


def kronecker_dense(system):
    """T (x) W + P_t (x) M, permuted from time-major into element-major order."""
    disc = system.disc
    a = np.kron(disc.T, np.diag(disc.W)) + np.kron(np.diag(disc.op_t.weights), system.M.toarray())
    # entry j*n_s + s of the time-major order is unknown order[j*n_s + s] element-major
    order = disc.time_major(np.arange(system.n_unknowns)).ravel()
    dense = np.empty_like(a)
    dense[np.ix_(order, order)] = a
    return dense
