"""Problem data for transient heat conduction on a designed material layout.

The temperature field u(x, t) on [a, b] x [0, T] obeys

    u_t = (kappa(rho(x)) u_x)_x + f(x, t)

with Dirichlet or Neumann data at each end, initial data q(x), and a
per-element design value rho_k in [0, 1] controlling the diffusivity
through a power-law interpolation between kappa_min and kappa_max.  The
SAT penalty coefficients of the scheme are derived here from the material
and the spatial operators of the elements they act on.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

BoundaryEnd = namedtuple("BoundaryEnd", "node kind data outward")  # see ProblemSpec.ends


@dataclass(frozen=True)
class MaterialModel:
    """Power-law interpolation kappa(rho) = k_min + (k_max - k_min) rho^p."""

    kappa_min: float
    kappa_max: float
    p: float = 1.0

    def __post_init__(self):
        # equal bounds are allowed: a design-insensitive material is the
        # degenerate case exercised by gradient sanity checks
        if self.kappa_min < 0 or self.kappa_max < self.kappa_min:
            raise ValueError("need 0 <= kappa_min <= kappa_max")
        if self.p < 1:
            raise ValueError("penalization exponent must satisfy p >= 1")


def _clamp_rho(rho):
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < -1e-12) or np.any(rho > 1 + 1e-12):
        raise ValueError("design value outside [0, 1]")
    return np.clip(rho, 0.0, 1.0)


def kappa(rho_k, material):
    """Diffusivity of a design value (scalar or array)."""
    rho_k = _clamp_rho(rho_k)
    return material.kappa_min + (material.kappa_max - material.kappa_min) * rho_k**material.p


def dkappa_drho(rho_k, material):
    """Derivative of the interpolation law with respect to the design value."""
    rho_k = _clamp_rho(rho_k)
    return material.p * (material.kappa_max - material.kappa_min) * rho_k ** (material.p - 1)


def _zero_t(t):
    return np.zeros_like(np.asarray(t, dtype=float))


def _zero_x(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _zero_xt(x, t):
    return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class ProblemSpec:
    """Continuous problem data plus the per-element resolution.

    ``nx`` and ``nt`` are the polynomial degrees per element, so each
    element carries (nx + 1) x (nt + 1) collocation nodes.  Boundary kinds
    are 'dirichlet' (data = temperature) or 'neumann' (data = heat flux
    kappa u_x, with outward sign handled by the discretization).
    """

    domain: tuple
    horizon: float
    n_elements: int
    nx: int
    nt: int
    material: MaterialModel
    bc_left: str = "dirichlet"
    bc_right: str = "dirichlet"
    h: callable = _zero_t
    g: callable = _zero_t
    q: callable = _zero_x
    f: callable = _zero_xt
    breakpoints: tuple = None

    def __post_init__(self):
        a, b = self.domain
        if not (a < b and self.horizon > 0):
            raise ValueError("need a < b and T > 0")
        if self.n_elements < 1 or self.nx < 1 or self.nt < 1:
            raise ValueError("need at least one element and degree >= 1")
        for kind in (self.bc_left, self.bc_right):
            if kind not in ("dirichlet", "neumann"):
                raise ValueError(f"unknown boundary kind {kind!r}")
        if self.breakpoints is not None:
            edges = np.asarray(self.breakpoints, dtype=float)
            if edges.size != self.n_elements + 1:
                raise ValueError("breakpoints must have n_elements + 1 entries")
            if not (np.all(np.diff(edges) > 0) and edges[0] == a and edges[-1] == b):
                raise ValueError("breakpoints must increase from a to b")

    @property
    def ends(self):
        """Left, then right end: node, kind, data, outward normal. The solvers read nothing else."""
        return (BoundaryEnd(0, self.bc_left, self.h, -1), BoundaryEnd(-1, self.bc_right, self.g, 1))

    @property
    def element_edges(self):
        if self.breakpoints is not None:
            return np.asarray(self.breakpoints, dtype=float)
        return np.linspace(self.domain[0], self.domain[1], self.n_elements + 1)

    @property
    def element_volumes(self):
        return np.diff(self.element_edges)


@dataclass(frozen=True)
class SatCoefficients:
    """Penalty coefficients of the SBP-SAT scheme.

    The interface coefficients live on the one-parameter family
    sigma_2 = s, sigma_4 = 1 + s, tau_1 = -(1 + s), tau_2 = -s, which is
    what makes the interface energy contribution negative semidefinite.
    """

    sigma_0: float
    sigma_w: float
    sigma_e: float
    sigma_1: float
    s: float

    @property
    def sigma_2(self):
        return self.s

    @property
    def sigma_3(self):
        return self.sigma_1

    @property
    def sigma_4(self):
        return 1.0 + self.s

    @property
    def tau_1(self):
        return -(1.0 + self.s)

    @property
    def tau_2(self):
        return -self.s


def choose_sat_coefficients(op_x, material, s=0.5, safety=1.0, sigma_0=1.0):
    """Stability-compliant SAT coefficients for the stacked spatial operator ``op_x``.

    Each boundary penalty is sized on the element it acts on: sigma_w on
    the first quadrature weight of element 0, sigma_e on the last one of
    element K-1, each ``safety`` times its lower bound kappa_max / (2 w).
    The interface penalty is kappa_max over the width of element 0, a
    diffusive scale (any positive value is admissible).  Note sigma_0 = 1
    exactly cancels the initial-face term produced by transposing the time
    derivative, which keeps the transposed system a clean terminal-value
    scheme; the energy estimate needs sigma_0 > 1/2.
    """
    if s <= 0:
        raise ValueError("interface parameter s must be positive")
    if safety < 1:
        raise ValueError("safety factor must be >= 1")
    a, b = op_x.interval
    return SatCoefficients(
        sigma_0=sigma_0,
        sigma_w=safety * material.kappa_max / (2.0 * op_x.weights[0, 0]),
        sigma_e=safety * material.kappa_max / (2.0 * op_x.weights[-1, -1]),
        sigma_1=material.kappa_max / float(b[0] - a[0]),
        s=s,
    )
