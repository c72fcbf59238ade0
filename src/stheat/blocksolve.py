"""Direct solves of the space-time system through a Schur form in time.

In the time-major order of ``assembly`` the system is
A = T (x) W + P_t (x) M.  With U = u.reshape(n_t, -1) the (time level,
spatial node) view of the unknowns and B that of the right-hand side,
A u = b reads

    S U W + U M^T = P_t^-1 B,        S = P_t^-1 T = Z R Z^H,

where Z R Z^H is the complex Schur form of S (Bartels-Stewart 1972).  In
the basis V = Z^H U the time operator is upper triangular, so the rows of V
follow by back substitution, each from one sparse spatial solve with
R_jj W + M.  Z is unitary, so the change of basis costs no accuracy, unlike
the eigenvector basis of a high-order time operator.

Transposed systems A^T x = b reuse the same factors: with Y = P_t X and
V = Z^T Y they read R^T V W + V M = Z^T B, solved by forward substitution
with the transposed spatial factors.

Each R_jj W + M is banded: M couples an element only to its neighbours, so
in the element-by-element node order of ``assembly`` its lower and upper
bandwidths are n_x.  Where LAPACK's band storage (2 kl + ku + 1 rows) is
smaller than the matrix, as on the fifty-element cooling preset, ``zgbtrf``
factors each mode in that storage.  Where the band spans the matrix, as on
two elements, SuperLU factors it in its natural column order.

The module holds only what a design runs: ``factor`` and the two solves.
``stheat verify`` logs the exact 1-norm condition number of one fixed
system from its dense matrix, not through these factors.

SciPy's subpackages are reached as attributes of ``scipy``; every system
solved here has a ``Discretization``, whose construction has loaded them
(``assembly.load_scipy``).
"""

from dataclasses import dataclass

import numpy as np
import scipy

from .errors import NumericalError, SingularSystemError


@dataclass
class SchurFactorization:
    """LU factors of R_jj W + M for every time mode j of ``disc.schur``."""

    disc: object
    lus: list


@dataclass
class BandLU:
    """``zgbtrf``'s LU factors of one banded matrix, solved as a SuperLU object is."""

    lu: np.ndarray
    piv: np.ndarray
    kl: int
    ku: int

    def solve(self, rhs, trans="N"):
        x, info = scipy.linalg.lapack.zgbtrs(
            self.lu, self.kl, self.ku, rhs, self.piv, trans={"N": 0, "T": 1}[trans])
        if info != 0:
            raise ValueError(f"zgbtrs rejected its argument {-info}")
        return x


def factor(system):
    """One LU of the spatial factor R_jj W + M per time mode j.

    The lower and upper bandwidths kl and ku are read here from M's stored
    entries; ``assembly``'s element order makes both n_x, as
    ``Discretization``'s factor cap assumes.
    Which path runs depends on the band alone:

    - The band LU, where LAPACK's band storage of 2 kl + ku + 1 rows is
      smaller than the order n of M (the cooling preset's 300 x 300 modes
      take 19 rows).  M is written once into a complex band array; each
      mode copies it, adds R_jj W to the diagonal row and factors it with
      ``zgbtrf``, several times faster than SuperLU on the same matrix.
    - SuperLU otherwise (two elements, whose band would take 124 rows for
      82 columns).  It factors each matrix in the natural column order: the
      element layout is already a band order, so a COLAMD ordering
      (SuperLU's default) buys nothing.  One complex CSC matrix, M's
      nonzero entries plus every diagonal entry, serves every mode: its
      diagonal is rewritten for each mode before ``splu``, whose factors
      are new arrays that keep no reference to the matrix.

    SuperLU stays only while the two-design bracket search counts roundoff
    (ROADMAP item 2): a band LU there moves its evaluation count.  Once that
    search is pinned by the gradient, the band LU serves every problem and
    the SuperLU branch goes (item 3).

    A non-finite entry of M is refused with ``NumericalError`` before any
    LU (LAPACK does not flag NaN), and an exactly singular mode j with
    ``SingularSystemError(j)``.  Factors of more than
    ``assembly.MAX_FACTOR_VALUES`` values never get here: ``Discretization``
    refuses their layout before it builds anything.
    """
    M = scipy.sparse.csc_matrix(system.M)
    if not M.has_canonical_format:
        M = M.copy()
        M.sum_duplicates()
    if not np.all(np.isfinite(M.data)):
        raise NumericalError("the spatial operator M has non-finite entries")
    n = M.shape[0]
    cols = np.repeat(np.arange(n), np.diff(M.indptr))
    offsets = M.indices - cols  # i - j of every stored entry
    kl, ku = int(offsets.max(initial=0)), int(-offsets.min(initial=0))
    R, _ = system.disc.schur
    if 2 * kl + ku + 1 < n:
        lus = _band_factors(M, offsets, cols, kl, ku, np.diag(R), system.disc.W)
    else:
        lus = _superlu_factors(M, np.diag(R), system.disc.W)
    return SchurFactorization(system.disc, lus)


def _band_factors(M, offsets, cols, kl, ku, shifts, W):
    """``zgbtrf`` of r W + M for every r in ``shifts``, in LAPACK band storage:
    entry (i, j) at row kl + ku + i - j, below kl rows of room for the fill."""
    band = np.zeros((2 * kl + ku + 1, M.shape[0]), dtype=complex, order="F")
    band[kl + ku + offsets, cols] = M.data
    lus = []
    for j, r in enumerate(shifts):
        ab = band.copy(order="F")
        ab[kl + ku] += r * W
        lu, piv, info = scipy.linalg.lapack.zgbtrf(ab, kl, ku, overwrite_ab=1)
        if info > 0:
            raise SingularSystemError(j)
        lus.append(BandLU(lu, piv, kl, ku))
    return lus


def _superlu_factors(M, shifts, W):
    """SuperLU's ``splu`` of r W + M for every r in ``shifts``, natural column order.

    The matrix holds the pattern of the sparse sum r W + M: M's nonzero
    entries (the sum drops the zeros M stores where kappa = 0 scales whole
    element terms away) and the whole diagonal, each mode's M_ii + r W_i.
    A diagonal entry that cancels stays stored as a zero, as in the band
    array.
    """
    base_diagonal = M.diagonal()
    A = M.astype(complex)
    A.eliminate_zeros()
    A = A + scipy.sparse.diags((base_diagonal == 0).astype(float), format="csc")
    diagonal = A.indices == np.repeat(np.arange(A.shape[1]), np.diff(A.indptr))
    lus = []
    for j, r in enumerate(shifts):
        A.data[diagonal] = base_diagonal + r * W
        try:
            lus.append(scipy.sparse.linalg.splu(A, permc_spec="NATURAL"))
        except RuntimeError as err:  # SuperLU: "Factor is exactly singular"
            raise SingularSystemError(j) from err
    return lus


def _grid(fact, rhs):
    """The (time level, spatial node) view of a right-hand side."""
    disc = fact.disc
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (disc.n_unknowns,):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({disc.n_unknowns},)")
    return rhs.reshape(disc.op_t.n_nodes, -1)


def _refuse_non_finite(V, order, direction):
    """LAPACK and SuperLU overflow silently: refuse a non-finite solution,
    naming the first mode, in substitution order, that holds one."""
    if not np.isfinite(V).all():
        j = next(j for j in order if not np.isfinite(V[j]).all())
        raise NumericalError(f"the {direction} solve is not finite at time mode {j}")


def solve(fact, rhs):
    """Solve A x = b: back substitution on R V W + V M^T = Z^H P_t^-1 B, then X = Z V."""
    disc = fact.disc
    R, Z = disc.schur
    C = Z.conj().T @ (_grid(fact, rhs) / disc.op_t.weights[:, None])
    V = np.empty_like(C)
    order = range(len(fact.lus) - 1, -1, -1)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, by mode
        for j in order:
            V[j] = fact.lus[j].solve(C[j] - disc.W * (R[j, j + 1:] @ V[j + 1:]))
    _refuse_non_finite(V, order, "forward")
    return (Z @ V).real.ravel()


def solve_transposed(fact, rhs):
    """Solve A^T x = b: forward substitution on R^T V W + V M = Z^T B, then P_t X = conj(Z) V."""
    disc = fact.disc
    R, Z = disc.schur
    C = Z.T @ _grid(fact, rhs)
    V = np.empty_like(C)
    order = range(len(fact.lus))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, by mode
        for j in order:
            V[j] = fact.lus[j].solve(C[j] - disc.W * (R[:j, j] @ V[:j]), trans="T")
    _refuse_non_finite(V, order, "transposed")
    return ((Z.conj() @ V).real / disc.op_t.weights[:, None]).ravel()


def solve_system(system):
    """Factor once and solve A x = b for the assembled right-hand side."""
    fact = factor(system)
    return solve(fact, system.rhs), fact

