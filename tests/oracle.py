"""Reference solvers for tests: dense oracles of the space-time system and
the block elimination of the backward-Euler all-at-once system."""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from stheat.baselines import MarchingSolution, _dirichlet_values, _load_matrix


def to_dense(system):
    """The matrix that ``system.matvec`` applies, built column by column."""
    return np.column_stack([system.matvec(e) for e in np.eye(system.n_unknowns)])


def kronecker_dense(system):
    """T (x) W + P_t (x) M as a dense matrix."""
    disc = system.disc
    return np.kron(disc.T, np.diag(disc.W)) + np.kron(np.diag(disc.op_t.weights), system.M.toarray())


def mma_dual_bisection(p, q, low, upp, alfa, beta, volumes, volume_bound):
    """The MMA dual solved by nested bisection: 64 halvings of [alfa, beta] per
    component, inside a bisection on the volume multiplier mu.

    Returns the subproblem minimizer at the upper end of the final mu
    bracket, as ``stheat.mma._solve_dual`` does, and that mu (0 when the
    unconstrained minimizer is feasible).
    """

    def minimizer(mu):
        lo, hi = alfa.copy(), beta.copy()
        c = mu * volumes

        def dphi(x):
            return p / (upp - x) ** 2 - q / (x - low) ** 2 + c

        take_lo = dphi(lo) >= 0.0
        take_hi = dphi(hi) <= 0.0
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            positive = dphi(mid) > 0.0
            hi = np.where(positive, mid, hi)
            lo = np.where(positive, lo, mid)
        x = 0.5 * (lo + hi)
        x[take_lo] = alfa[take_lo]
        x[take_hi] = beta[take_hi]
        return x

    x0 = minimizer(0.0)
    if x0 @ volumes <= volume_bound:
        return x0, 0.0
    mu_lo, mu_hi = 0.0, 1.0
    while minimizer(mu_hi) @ volumes > volume_bound:
        mu_hi *= 2.0
        assert mu_hi <= 1e12, "volume multiplier bracket not found"
    while mu_hi - mu_lo > 1e-12 * max(1.0, mu_hi):
        mid = 0.5 * (mu_lo + mu_hi)
        if minimizer(mid) @ volumes > volume_bound:
            mu_lo = mid
        else:
            mu_hi = mid
    return minimizer(mu_hi), mu_hi


def be_block_elimination(fe, n_steps):
    """The backward-Euler all-at-once system solved by block forward elimination.

    The system stacks every time level: diagonal blocks M/dt + K,
    subdiagonal blocks -M/dt.  Each level is one ``lu_solve`` of the step
    matrix against the previous level; the step matrix is factored here, so
    the oracle shares neither the factors nor the propagator of ``be_march``.
    """
    spec = fe.spec
    m_dt = fe.mass / (spec.horizon / n_steps)
    step = m_dt + fe.stiffness
    times = np.linspace(0.0, spec.horizon, n_steps + 1)
    fr, dr = fe.free, fe.dirichlet
    n_free = fr.size
    lu = sla.lu_factor(step[np.ix_(fr, fr)])
    u_d = _dirichlet_values(fe, times).T
    loads = _load_matrix(fe, times).T
    rhs = np.empty((n_free, n_steps))
    rhs[:] = loads[fr, 1:] - step[np.ix_(fr, dr)] @ u_d[:, 1:]
    q0 = np.asarray(spec.q(fe.nodes), dtype=float)
    sub_free = m_dt[np.ix_(fr, fr)]
    sub_dir = m_dt[np.ix_(fr, dr)]
    u = np.zeros((fe.n_nodes, n_steps + 1))
    u[:, 0] = q0
    u[dr, :] = u_d
    # block forward elimination down the lower-bidiagonal system
    prev = q0[fr]
    for n in range(n_steps):
        b_n = rhs[:, n] + sub_free @ prev + sub_dir @ u_d[:, n]
        prev = sla.lu_solve(lu, b_n)
        u[fr, n + 1] = prev
    return MarchingSolution(times=times, states=u, fe=fe)


def be_block_back_substitution(fe, n_steps, rhs):
    """The transposed all-at-once system solved by block back substitution.

    ``rhs`` holds the free-node right-hand side of levels 1..N_t, one row per
    level.  Each level is one transposed ``lu_solve`` of a step matrix
    factored here, against its own row plus (M/dt)^T times the level after.
    """
    fr = fe.free
    m_dt = (fe.mass / (fe.spec.horizon / n_steps))[np.ix_(fr, fr)]
    lu = sla.lu_factor(m_dt + fe.stiffness[np.ix_(fr, fr)])
    lam = np.empty((n_steps, fr.size))
    after = np.zeros(fr.size)
    for n in range(n_steps - 1, -1, -1):
        after = lam[n] = sla.lu_solve(lu, rhs[n] + m_dt.T @ after, trans=1)
    return lam


def be_block_system(fe, n_steps):
    """The all-at-once matrix over the free nodes of levels 1..N_t, sparse and
    level-major: M/dt + K on the diagonal, -M/dt below it."""
    fr = fe.free
    m_dt = (fe.mass / (fe.spec.horizon / n_steps))[np.ix_(fr, fr)]
    step = m_dt + fe.stiffness[np.ix_(fr, fr)]
    return (sp.kron(sp.eye(n_steps), step) - sp.kron(sp.eye(n_steps, k=-1), m_dt)).tocsr()
