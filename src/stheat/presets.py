"""Ready-made benchmark problems used by tests, demos, and the CLI."""

import numpy as np

from .problem import MaterialModel, ProblemSpec
from .twodomain import two_domain_solution


def _const_t(value):
    return lambda t: np.full_like(np.asarray(t, dtype=float), value)


def _const_xt(value):
    return lambda x, t: np.full_like(np.asarray(x, dtype=float), value)


def two_domain_problem(sol, nx, nt, horizon=1.0):
    """The problem the closed-form solution ``sol`` solves, as two elements.

    The domain [0, 1] splits at 0.5 (``sol`` must have its interface there)
    into two design cells with linear material interpolation between
    kappa = 0 and 1; the boundary value, initial state and source are those
    of ``sol``, and the design (kappa_1, kappa_2) reproduces ``sol``.
    """
    return ProblemSpec(
        domain=(0.0, 1.0),
        horizon=horizon,
        n_elements=2,
        nx=nx,
        nt=nt,
        material=MaterialModel(kappa_min=0.0, kappa_max=1.0, p=1.0),
        g=_const_t(sol.u_right),
        q=sol.initial,
        f=_const_xt(sol.source),
    )


def two_design_benchmark(nx=40, nt=30, horizon=1.0):
    """Two-element cooling benchmark with an analytic initial condition.

    The initial state is the closed-form solution at the uniform nominal
    design kappa = 0.375, held fixed for every candidate design so that all
    optimizers minimize the identical function of (rho_1, rho_2).  Volume
    bound 0.375 makes the constraint equivalent to kappa_1 + kappa_2 <= 0.75.
    """
    return two_domain_problem(two_domain_solution(0.375, 0.375), nx, nt, horizon), 0.375


def cooling_benchmark(nx=5, nt=15, n_elements=50, p=3.0, kappa_min_ratio=1e-3,
                      source_offset=10.0, horizon=1.0):
    """Fifty-cell cooling design problem with an oscillatory heat load.

    Insulated (zero-flux) left boundary, cold Dirichlet sink at the right,
    zero initial temperature, and source 10 + sin(10(x+t)) + sin(10t).
    Cubic penalization drives the design toward 0/1 values; half the
    material volume is available.
    """
    material = MaterialModel(kappa_min=kappa_min_ratio, kappa_max=1.0, p=p)

    def source(x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        return source_offset + np.sin(10.0 * (x + t)) + np.sin(10.0 * t)

    spec = ProblemSpec(
        domain=(0.0, 1.0),
        horizon=horizon,
        n_elements=n_elements,
        nx=nx,
        nt=nt,
        material=material,
        bc_left="neumann",
        bc_right="dirichlet",
        f=source,
    )
    return spec, 0.5


def manufactured_design(n_elements):
    """Seeded two-level design whose diffusivity jumps only at mid-domain.

    The manufactured state below has zero spatial slope exactly at the
    domain midpoint, so a design field with a single kappa jump there keeps
    the interface flux condition consistent; jumps at any other interface
    would make the manufactured state violate the flux coupling and stall
    convergence at O(1).
    """
    if n_elements % 2 != 0:
        raise ValueError("two-level design needs an even element count")
    rng = np.random.default_rng(20240817)
    left, right = rng.uniform(0.2, 0.95, size=2)
    rho = np.empty(n_elements)
    rho[: n_elements // 2] = left
    rho[n_elements // 2:] = right
    return rho


def manufactured_state():
    """Smooth space-time state for forward convergence studies on [-2, 1].

    u = sin(pi (x+2) / 3) exp(-t): homogeneous Dirichlet traces at x = -2
    and x = 1, and zero spatial slope at the midpoint x = -0.5 where the
    two-level design places its diffusivity jump.
    """
    freq = np.pi / 3.0

    def u(x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        return np.exp(-t) * np.sin(freq * (x + 2.0))

    def u_t(x, t):
        return -u(x, t)

    def u_x(x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        return np.exp(-t) * freq * np.cos(freq * (x + 2.0))

    def u_xx(x, t):
        return -(freq**2) * u(x, t)

    return u, u_t, u_x, u_xx
