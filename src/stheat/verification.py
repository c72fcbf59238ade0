"""Verification studies: manufactured solutions, convergence sweeps, the
operator and energy-estimate checks of ``stheat verify``, and the
derivative-free reference optimum of the two-design problem.

These routines are the library's acceptance machinery: everything here
compares the discretization against an independent reference (closed-form
solutions, high-order quadrature of exact expressions, the SBP identities,
or a derivative-free scalar optimizer) rather than against itself.  The
cross-validation of the design loop against ``reference_optimum`` is a test
and lives with the tests.
"""

from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss

from .adjoint import objective
from .assembly import Discretization, assemble_global, north_trace
from .blocksolve import solve_system
from .mma import scalar_minimize
from .presets import manufactured_design, manufactured_state, two_design_benchmark
from .problem import MaterialModel, ProblemSpec, kappa
from .sbp import build_sbp_1d, verify_sbp


def mms_source(u_exact, u_t, u_x, u_xx, rho, spec):
    """Source term making ``u_exact`` solve the heat equation at design rho.

    The returned callable is element aware (it must be: the per-element
    diffusivity jumps at interfaces, so the source has one-sided values at
    shared interface nodes): ``element`` is one element index, or an array
    of one per point as ``Discretization.rhs`` passes it.  The supplied derivative callables are
    cross-checked against finite differences at 20 seeded sample points.
    """
    rng = np.random.default_rng(7)
    a, b = spec.domain
    xs = rng.uniform(a + 0.05 * (b - a), b - 0.05 * (b - a), 20)
    ts = rng.uniform(0.0, spec.horizon, 20)
    h = 1e-5
    fd_t = (u_exact(xs, ts + h) - u_exact(xs, ts - h)) / (2 * h)
    fd_x = (u_exact(xs + h, ts) - u_exact(xs - h, ts)) / (2 * h)
    fd_xx = (u_x(xs + h, ts) - u_x(xs - h, ts)) / (2 * h)
    scale = max(1.0, np.max(np.abs(u_exact(xs, ts))))
    for fd, exact, name in (
        (fd_t, u_t(xs, ts), "u_t"),
        (fd_x, u_x(xs, ts), "u_x"),
        (fd_xx, u_xx(xs, ts), "u_xx"),
    ):
        if np.max(np.abs(fd - exact)) > 1e-6 * scale:
            raise ValueError(f"derivative callable {name} disagrees with finite differences")
    kap = kappa(np.asarray(rho, dtype=float), spec.material)

    def source(x, t, element=None):
        x = np.asarray(x, dtype=float)
        if element is None:
            idx = np.clip(
                np.searchsorted(spec.element_edges, x, side="right") - 1,
                0,
                spec.n_elements - 1,
            )
            k_loc = kap[idx]
        else:
            k_loc = kap[element]
        return u_t(x, t) - k_loc * u_xx(x, t)

    source.element_aware = True
    return source


def _tensor_gauss_objective(u_exact, spec):
    """Quadrature oracle for the exact space-time squared integral, 100
    Gauss points a direction on each element."""
    xg, wg = leggauss(100)
    tq = 0.5 * spec.horizon * (xg + 1.0)
    wt = 0.5 * spec.horizon * wg
    total = 0.0
    edges = spec.element_edges
    for lo, hi in zip(edges[:-1], edges[1:]):
        xq = 0.5 * (hi - lo) * xg + 0.5 * (hi + lo)
        wx = 0.5 * (hi - lo) * wg
        vals = u_exact(xq[None, :], tq[:, None]) ** 2
        total += wt @ vals @ wx
    return float(total)


@dataclass
class ConvergencePoint:
    n: int
    state_error: float
    objective_error: float


def forward_convergence_spec(n):
    """Manufactured forward problem at per-element degree n in both
    directions: ten elements on [-2, 1] x [0, 1], the seeded two-level
    design, and the source that makes ``manufactured_state`` exact."""
    rho = manufactured_design(10)
    u, u_t, u_x, u_xx = manufactured_state()
    spec = ProblemSpec(
        domain=(-2.0, 1.0), horizon=1.0, n_elements=10, nx=n, nt=n,
        material=MaterialModel(kappa_min=0.1, kappa_max=1.0, p=3.0),
        q=lambda x: u(x, np.zeros_like(np.asarray(x, dtype=float))),
    )
    return replace(spec, f=mms_source(u, u_t, u_x, u_xx, rho, spec)), rho, u


def convergence_study(n_values):
    """Fixed-design forward sweep: discrete error and objective error per n."""
    points = []
    j_exact = None
    for n in n_values:
        spec, rho, u = forward_convergence_spec(n)
        if j_exact is None:
            j_exact = _tensor_gauss_objective(u, spec)
        disc = Discretization(spec)
        system = assemble_global(disc, rho)
        uh, _ = solve_system(system)
        exact = u(*disc.coordinates())
        p = disc.global_p()
        err = float(np.sqrt((uh - exact) @ (p * (uh - exact))))
        points.append(
            ConvergencePoint(
                n=n,
                state_error=err,
                objective_error=abs(objective(uh, disc) - j_exact),
            )
        )
    return points


def monotone_with_plateau(errors, plateau=1e-12, slack=1.5):
    """True if errors decrease until they reach the round-off plateau."""
    for a, b in zip(errors, errors[1:]):
        if a > plateau and b > slack * a:
            return False
    return True


def energy_estimate_sides(spec, rho, sigma_0=1.0):
    """Both sides of the terminal-energy bound for a data-free problem.

    Solves with the spec's initial data but zero source/boundary data (the
    spec must be built that way) and initial penalty ``sigma_0``, and
    returns (terminal energy, bound).  The bound needs sigma_0 > 1/2.
    """
    disc = Discretization(spec, sigma_0=sigma_0)
    system = assemble_global(disc, rho)
    u, _ = solve_system(system)
    lhs = rhs = 0.0
    for w, x, tr in zip(disc.op_x.weights, disc.op_x.nodes, north_trace(disc, u)):
        qk = np.asarray(spec.q(x), dtype=float)
        lhs += tr @ (w * tr)
        rhs += qk @ (w * qk)
    bound = rhs / (2.0 * sigma_0 - 1.0)
    return float(lhs), float(bound)


def cosine_initial_spec(n_elements, coeffs):
    """A data-free problem on [0, 1] x [0, 0.5]: ``n_elements`` elements of
    degree ``len(coeffs)`` in x and t, material (0.05, 1, 2), and the initial
    temperature sum_j coeffs[j] cos(j pi x)."""
    def q(x, cs=coeffs):
        x = np.asarray(x, dtype=float)
        return sum(cj * np.cos(j * np.pi * x) for j, cj in enumerate(cs))

    return ProblemSpec(
        domain=(0.0, 1.0), horizon=0.5, n_elements=n_elements, nx=len(coeffs),
        nt=len(coeffs), material=MaterialModel(0.05, 1.0, 2.0), q=q,
    )


def energy_margin_sweep(rng, draws, degree, ends=("dirichlet", "dirichlet")):
    """Worst relative margin (energy - bound) / bound of the terminal-energy
    bound over ``draws`` random problems each on 1, 2 and 5 elements.

    Each problem is a ``cosine_initial_spec`` of ``degree`` coefficients at a
    random design, with the (left, right) boundary conditions ``ends``;
    ``rng`` draws the coefficients, then the design.  A margin above 0
    violates the bound.
    """
    worst = -np.inf
    for K in (1, 2, 5):
        for _ in range(draws):
            spec = replace(cosine_initial_spec(K, rng.standard_normal(degree)),
                           bc_left=ends[0], bc_right=ends[1])
            lhs, bound = energy_estimate_sides(spec, rng.uniform(0.0, 1.0, K))
            worst = max(worst, (lhs - bound) / max(bound, 1e-300))
    return float(worst)


def operator_suite_report(seed=3):
    """Worst violations of the SBP operator invariants over 2 to 16 nodes,
    with six random vector pairs a size for integration by parts.

    Returns ``(check, value, tolerance)`` triples; a check passes when its
    value is at most its tolerance.
    """
    worst = {"sbp_identity": 0.0, "accuracy": 0.0, "spd": 0.0, "ibp_relative": 0.0}
    rng = np.random.default_rng(seed)
    for n in range(2, 17):
        op = build_sbp_1d(n, (0.0, 1.0))
        rep = verify_sbp(op)
        for key in ("sbp_identity", "accuracy", "spd"):
            worst[key] = max(worst[key], rep[key])
        # x-direction operators of the space-time element op (x) op
        Q, E = np.kron(op.P, op.Q), np.kron(op.P, op.E)
        for _ in range(6):
            u = rng.standard_normal(n * n)
            v = rng.standard_normal(n * n)
            gap = abs(u @ (Q + Q.T) @ v - u @ E @ v)
            worst["ibp_relative"] = max(
                worst["ibp_relative"], gap / (np.linalg.norm(u) * np.linalg.norm(v))
            )
    return [
        ("sbp_identity", worst["sbp_identity"], 1e-13),
        ("monomial_accuracy", worst["accuracy"], 1e-11),
        ("quadrature_positivity", worst["spd"], 0.0),
        ("integration_by_parts", worst["ibp_relative"], 1e-12),
    ]


def reference_optimum(nx, nt):
    """The two-design optimum (design, J) at resolution nx x nt, found
    without gradients: ``scalar_minimize`` over kappa_1 on the
    volume-saturated line kappa_1 + kappa_2 = 0.75, one forward solve a point."""
    spec, vstar = two_design_benchmark(nx=nx, nt=nt)
    disc = Discretization(spec)

    def j_of_k1(k1):
        system = assemble_global(disc, np.array([k1, 0.75 - k1]))
        u, _ = solve_system(system)
        return objective(u, disc)

    k1, j_star = scalar_minimize(j_of_k1, (1e-4, 0.75 - 1e-4), tol=1e-8)
    return np.array([k1, 0.75 - k1]), j_star
