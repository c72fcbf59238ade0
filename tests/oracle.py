"""Reference solvers for tests: dense oracles of the space-time system, the
per-element loop that builds the spatial operator's triples, and the block
elimination of the backward-Euler all-at-once system."""

from collections import namedtuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from stheat.baselines import _dirichlet_values, _load_matrix

BlockSolution = namedtuple("BlockSolution", "times states")


def to_dense(system):
    """The matrix that ``system.matvec`` applies, built column by column."""
    return np.column_stack([system.matvec(e) for e in np.eye(system.n_unknowns)])


def kronecker_dense(system):
    """T (x) W + P_t (x) M as a dense matrix."""
    disc = system.disc
    return np.kron(disc.T, np.diag(disc.W)) + np.kron(np.diag(disc.op_t.weights), system.M.toarray())


def spatial_terms_by_element(disc):
    """``disc.spatial_terms`` built one element and one dense n x n factor at a time.

    Each term of element k is the Kronecker-free spatial factor of one SAT or
    diffusion term, written with the unit vectors e_w, e_e of its end nodes;
    its nonzero entries are taken row by row with ``np.nonzero``.
    """
    spec, sat, op_x = disc.spec, disc.sat, disc.op_x
    last = spec.n_elements - 1
    e_w, e_e = np.eye(disc.n_x)[[0, -1]]
    Eww, Eee, Ewe, Eew = (np.outer(a, b) for a, b in ((e_w, e_w), (e_e, e_e), (e_w, e_e), (e_e, e_w)))
    terms = []
    for k in range(spec.n_elements):
        Dx = op_x.D[k]
        terms.append((k, k, -(op_x.Q[k] @ Dx), 1.0, k))  # -kappa P D_x^2
        if k == 0:
            if spec.bc_left == "dirichlet":
                terms.append((k, k, Eww, sat.sigma_w, None))
            else:
                terms.append((k, k, Eww @ Dx, 1.0, k))
        else:
            Dx_left = op_x.D[k - 1]
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
            Dx_right = op_x.D[k + 1]
            terms += [
                (k, k, Eee, sat.sigma_3, None),
                (k, k, Eee @ Dx, sat.sigma_4, k),
                (k, k, Dx.T @ Eee, sat.tau_2, k),
                (k, k + 1, Eew, -sat.sigma_3, None),
                (k, k + 1, Eew @ Dx_right, -sat.sigma_4, k + 1),
                (k, k + 1, Dx.T @ Eew, -sat.tau_2, k),
            ]
    rows, cols, values, owner = [], [], [], []
    for row, col, factor, coefficient, kappa_of in terms:
        i, j = np.nonzero(factor)
        rows.append(row * disc.n_x + i)
        cols.append(col * disc.n_x + j)
        values.append(coefficient * factor[i, j])
        owner.append(np.full(i.size, -1 if kappa_of is None else kappa_of))
    return tuple(np.concatenate(a) for a in (rows, cols, values, owner))


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
    the oracle shares neither the modal basis nor the sweep of ``be_march``.
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
    return BlockSolution(times=times, states=u)


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
