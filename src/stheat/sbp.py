"""One-dimensional summation-by-parts operators on Legendre-Gauss-Lobatto nodes.

A diagonal-norm SBP operator on an interval [a, b] consists of a dense
differentiation matrix D, a positive diagonal quadrature matrix P and
Q = P @ D satisfying Q + Q.T = E = diag(-1, 0, ..., 0, 1).  Pseudospectral
collocation on LGL nodes produces such operators for free: the LGL rule is
exact for polynomials of degree 2n - 3, which covers u * v' for any pair of
degree n - 1 polynomials, and the boundary terms of the discrete
integration by parts reduce to the endpoint values.

Operators on the elements of a partition share one node count, and each is
the reference operator on [-1, 1] mapped affinely, so
``build_sbp_elements`` forms the reference D once and scales it to every
element in one array pass, into one operator stacked along a leading element
axis; ``build_sbp_1d`` is its one-interval case, without that axis.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ResourceLimitError

_NEWTON_TOL = 1e-15
_NEWTON_MAXIT = 100
# products of doubled LGL node differences overflow from 1099 nodes on
MAX_OPERATOR_NODES = 1000


@dataclass(frozen=True)
class LglRule:
    """Legendre-Gauss-Lobatto quadrature rule on the reference interval [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class SbpOperator1D:
    """Dense SBP differentiation operator on an interval, or on K intervals at once.

    A stacked operator (``build_sbp_elements``) gives every array below a
    leading element axis: element k's D is ``D[k]``.  The properties work
    on both forms.

    Attributes
    ----------
    interval : (a, b) with a < b; two arrays of shape (K,) when stacked.
    nodes    : mapped LGL nodes, shape (n,).
    weights  : mapped LGL weights = diagonal of P, shape (n,).
    D        : differentiation matrix, exact for monomials up to degree n_nodes - 1.
    Q        : P @ D, the nearly skew-symmetric part (Q + Q.T = E).
    """

    interval: tuple
    nodes: np.ndarray
    weights: np.ndarray
    D: np.ndarray
    Q: np.ndarray

    @property
    def n_nodes(self):
        return self.nodes.shape[-1]

    @property
    def P(self):
        """Quadrature matrix as a dense diagonal array."""
        return self.weights[..., None] * np.eye(self.n_nodes)

    @property
    def E(self):
        """Boundary matrix diag(-1, 0, ..., 0, 1)."""
        e = np.zeros(self.D.shape)
        e[..., 0, 0] = -1.0
        e[..., -1, -1] = 1.0
        return e


def _legendre_pair(n, x):
    """Values of P_{n-1} and P_{n-2} at x via the three-term recurrence, for n >= 2."""
    p_prev = np.ones_like(x)  # P_0
    p = x.copy()  # P_1
    for k in range(1, n - 1):
        p, p_prev = ((2 * k + 1) * x * p - k * p_prev) / (k + 1), p
    return p, p_prev


@functools.cache
def lgl_rule(n_nodes):
    """Compute the LGL nodes and weights on [-1, 1].

    The nodes are the roots of (1 - x^2) P'_{n-1}(x), found by Newton
    iteration on g(x) = x P_{n-1}(x) - P_{n-2}(x) (same root set, and
    g'(x) = n P_{n-1}(x) by the Legendre derivative recurrence), starting
    from Chebyshev-Gauss-Lobatto points.  Weights follow the closed form
    w_i = 2 / (n (n-1) P_{n-1}(x_i)^2).

    The rule is computed once per node count and shared by every caller, so
    its arrays are read-only; ``lgl_rule.__wrapped__`` is the uncached solve.
    """
    if n_nodes < 2:
        raise ValueError(f"n_nodes must be >= 2, got {n_nodes}")
    n = n_nodes
    x = -np.cos(np.pi * np.arange(n) / (n - 1))
    for _ in range(_NEWTON_MAXIT):
        p, p_prev = _legendre_pair(n, x)
        dx = (x * p - p_prev) / (n * p)
        x = np.clip(x - dx, -1.0, 1.0)
        if np.max(np.abs(dx)) <= _NEWTON_TOL:
            break
    else:
        raise NumericalError(
            f"LGL Newton iteration did not reach {_NEWTON_TOL} in {_NEWTON_MAXIT} steps"
        )
    # pin the exact endpoints and symmetrize against roundoff drift
    x[0], x[-1] = -1.0, 1.0
    x = 0.5 * (x - x[::-1])
    p, _ = _legendre_pair(n, x)
    w = 2.0 / (n * (n - 1) * p**2)
    x.flags.writeable = False
    w.flags.writeable = False
    return LglRule(nodes=x, weights=w)


def _barycentric_diff(x):
    """Lagrange differentiation matrix via barycentric weights.

    The weights are products of node differences, which on [-1, 1]
    (logarithmic capacity 1/2) underflow past about 750 nodes, so
    ``build_sbp_elements`` passes the doubled nodes of [-2, 2] (capacity 1).
    Diagonal entries use the negative-row-sum trick, which enforces exact
    differentiation of constants and is the best-conditioned classical form.
    """
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    c = np.prod(dx, axis=1)
    D = (c[:, None] / c[None, :]) / dx
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


def build_sbp_elements(n_nodes, edges):
    """The LGL SBP operators of ``n_nodes`` points on the K intervals between
    ``edges``, as one stacked operator: (K, n) nodes and weights, (K, n, n) D and Q.

    Every operator is the reference one on [-1, 1] mapped affinely, so
    operators on different intervals are exactly covariant: D scales by
    2/(b-a) and P by (b-a)/2.  The reference D is formed once and mapped to
    all K intervals in one array pass, the same elementwise arithmetic as a
    single interval's, so each element's operator is bitwise the one built
    alone.  Only the LGL rule, O(n) per node count, is cached: it holds the
    Newton solve.  The reference D is not, because a cache of n x n matrices
    would grow with every node count a refinement sweep visits.
    """
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1], edges[1:]
    with np.errstate(invalid="ignore", over="ignore"):
        width = b - a
        # a finite width b - a also rules out an infinite end; a < b rules out nan
        bad = ~((a < b) & np.isfinite(width))
    if bad.any():
        k = np.argmax(bad)
        raise ValueError(f"interval needs a < b and a finite width b - a, "
                         f"got [{float(a[k])}, {float(b[k])}]")
    if n_nodes > MAX_OPERATOR_NODES:
        raise ResourceLimitError(f"{n_nodes} nodes: operators are built for at most "
                                 f"{MAX_OPERATOR_NODES}, where their products stay finite")
    rule = lgl_rule(n_nodes)
    scale = 0.5 * width
    nodes = a[:, None] + scale[:, None] * (rule.nodes + 1.0)
    # LGL nodes lie closest at the ends, so distinct end pairs mean distinct nodes
    narrow = ~((nodes[:, 1] > nodes[:, 0]) & (nodes[:, -1] > nodes[:, -2]))
    if narrow.any():
        k = np.argmax(narrow)
        raise ValueError(f"interval [{float(a[k])}, {float(b[k])}] is too narrow "
                         f"for {n_nodes} distinct nodes")
    weights = scale[:, None] * rule.weights
    # doubling is exact and halves D exactly: bitwise the D of [-1, 1] / scale
    D = _barycentric_diff(2.0 * rule.nodes) / (0.5 * scale)[:, None, None]
    Q = weights[:, :, None] * D
    return SbpOperator1D((a, b), nodes, weights, D, Q)


def build_sbp_1d(n_nodes, interval):
    """The LGL SBP operator of ``n_nodes`` points on ``interval``: the
    one-interval case of ``build_sbp_elements``, its element axis dropped."""
    op = build_sbp_elements(n_nodes, (interval[0], interval[1]))
    (a,), (b,) = op.interval
    return SbpOperator1D((float(a), float(b)), op.nodes[0], op.weights[0], op.D[0], op.Q[0])


def verify_sbp(op):
    """Return the maximum violation of each SBP invariant of a one-interval operator.

    Keys: ``sbp_identity`` for ||Q + Q.T - E||_max, ``accuracy`` for the
    worst monomial differentiation error up to degree n_nodes - 1, and
    ``spd`` for any non-positivity of the quadrature weights.
    """
    e = op.E
    sbp_identity = np.max(np.abs(op.Q + op.Q.T - e))
    acc = 0.0
    x = op.nodes
    for s in range(op.n_nodes):
        exact = np.zeros_like(x) if s == 0 else s * x ** (s - 1)
        # scale by the monomial magnitude so the metric stays meaningful on
        # intervals reaching outside [-1, 1]
        scale = max(1.0, np.max(np.abs(x)) ** s)
        acc = max(acc, np.max(np.abs(op.D @ x**s - exact)) / scale)
    spd = max(0.0, -np.min(op.weights))
    return {"sbp_identity": sbp_identity, "accuracy": acc, "spd": spd}
