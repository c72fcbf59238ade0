"""Method of moving asymptotes for one linear constraint, plus a scalar
bracket minimizer used as an independent optimization reference.

The MMA update builds the usual separable rational approximation of the
objective around the current design, with asymptotes adapted by oscillation
detection.  Because the volume constraint is linear it is kept exact in the
subproblem rather than approximated (Svanberg 1987), so the dual is a
monotone one-dimensional root-find on the volume multiplier, and so is each
component of the subproblem for a fixed multiplier.  One routine solves
both, by Newton's method inside a bracket with bisection as the safeguard
(Brent 1973, ch. 4), and every update is feasible by construction.
Successive updates solve nearby duals, so each starts where the last ended:
the multiplier search opens at the previous update's accepted multiplier
(see MmaState), and within one update each component's root-find starts at
its root for the previously tried multiplier.  Only the starting points
move; the bracket, both stopping rules and the subproblem are those of a
cold start, so the returned design stays within the dual's 1e-12 width.
Gradients are normalized by the first iteration's magnitude (see MmaState),
which makes whole trajectories invariant to positive rescaling of the
objective without losing the step damping near optima.  The update's
constants (asymptote adaptation, move limit, curvature floor) are fixed at
Svanberg's standard values below.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

# initial asymptote distance, and its growth and shrink factors when a
# component keeps moving the same way or oscillates
_ASY_INIT = 0.5
_ASY_INCR = 1.2
_ASY_DECR = 0.7
# largest change of a component in one update
_MOVE_LIMIT = 0.5
# curvature floor of the approximation, relative to the normalized gradient
_RAA0 = 1e-5
# fraction of the asymptote distance the subproblem bounds keep clear
_ALBEFA = 0.1


@dataclass
class MmaState:
    """Iteration memory: previous two designs, the moving asymptotes, the gradient
    normalization and the last volume multiplier.

    ``gradient_scale`` freezes the normalization at the first iteration's
    gradient magnitude.  Later gradients then shrink relative to the _RAA0
    curvature floor as the optimum is approached, which is what damps the
    steps, while uniform rescaling of the objective still leaves the whole
    trajectory unchanged.

    ``mu`` is the volume multiplier the last update accepted, in normalized
    gradient units, and 0 before any update or while the bound is inactive.
    The next update's dual search only opens there: it still brackets the
    smallest feasible multiplier and stops at the same relative width, so a
    carried ``mu`` moves the result by no more than that width, not by the
    distance between the two duals.
    """

    iteration: int = 0
    x_prev1: np.ndarray = None
    x_prev2: np.ndarray = None
    low: np.ndarray = None
    upp: np.ndarray = None
    gradient_scale: float = None
    mu: float = 0.0


def _update_asymptotes(x, state):
    if state.iteration < 2 or state.x_prev2 is None:
        low = x - _ASY_INIT
        upp = x + _ASY_INIT
    else:
        osc = (x - state.x_prev1) * (state.x_prev1 - state.x_prev2)
        factor = np.ones_like(x)
        factor[osc > 0] = _ASY_INCR
        factor[osc < 0] = _ASY_DECR
        low = x - factor * (state.x_prev1 - state.low)
        upp = x + factor * (state.upp - state.x_prev1)
        # the lower clamp bounds the achievable resolution of an interior
        # optimum (limit cycles scale with it), so keep it tight
        low = np.clip(low, x - 10.0, x - 1e-5)
        upp = np.clip(upp, x + 1e-5, x + 10.0)
    return low, upp


# |phi'| below this multiple of its terms' magnitude is rounding noise
_ROUNDOFF = 4.0 * np.finfo(float).eps
# Newton steps allowed per root-find before plain bisection takes over; the
# cooling, two-design and BE cooling runs take at most 12 per component, 6 for mu
_NEWTON_STEPS = 64


def _newton_in_bracket(step, lo, hi, active, rtol=0.0, start=np.nan):
    """Roots of increasing functions, one per component, by Newton inside a bracket.

    ``step(x)`` returns f(x), the Newton point from x, and where x is a root
    to working precision; x then replaces the bracket end of its sign.  The
    iterates are ``start``, then Newton points, where they fall inside the
    open bracket, and midpoints otherwise or after _NEWTON_STEPS steps.  A
    component stops at a root, when its iterate stops moving, or once its
    bracket is no wider than rtol * max(1, hi); Newton points keep half that
    width from the ends, so that Newton's method converging from one side
    still closes the bracket.  Inactive components return their midpoint.
    """
    x = np.where((lo < start) & (start < hi), start, 0.5 * (lo + hi))
    active = active.copy()
    for k in range(_NEWTON_STEPS + 64):
        if not active.any():
            break
        f, newton, at_root = step(x)
        active &= ~at_root
        hi = np.where(active & (f > 0.0), x, hi)
        lo = np.where(active & (f < 0.0), x, lo)
        inside = (lo < newton) & (newton < hi) & (k < _NEWTON_STEPS)
        if rtol:  # skipped at rtol = 0, where it would add 40 % to each step
            width = rtol * np.maximum(1.0, hi)
            active &= hi - lo > width
            newton = np.clip(newton, lo + 0.5 * width, hi - 0.5 * width)
        x_new = np.where(inside, newton, 0.5 * (lo + hi))
        active &= x_new != x
        x = np.where(active, x_new, x)
    return x


def _subproblem_minimizer(mu, p, q, low, upp, alfa, beta, volumes, start=np.nan):
    """Componentwise minimizer x(mu) of the separable dual Lagrangian, and dx/dmu.

    phi_j'(x) = p/(U-x)^2 - q/(x-L)^2 + mu V is strictly increasing on
    (L, U), with phi_j''(x) = 2p/(U-x)^3 + 2q/(x-L)^3 > 0.  A point x is
    the root to working precision once |phi_j'(x)| is at roundoff of its own
    terms, or once the Newton step from x rounds away (the nearest float to
    the root need not zero phi_j' to roundoff).  A component whose root lies
    at or beyond an end of [alfa, beta] takes that end and has dx/dmu = 0.
    Differentiating phi_j'(x(mu)) = 0 gives dx/dmu = -V/phi_j''.  Each
    component's Newton iteration opens at ``start`` where that lies inside
    (alfa, beta), and at the midpoint otherwise.
    """
    c = mu * volumes

    def newton_step(x):
        """phi_j'(x), the Newton point, and where x is the root to working precision."""
        a = p / (upp - x) ** 2
        b = q / (x - low) ** 2
        g = a - b + c
        newton = x - g / (2.0 * a / (upp - x) + 2.0 * b / (x - low))
        return g, newton, (np.abs(g) <= _ROUNDOFF * (a + b + np.abs(c))) | (newton == x)

    g, _, at_root = newton_step(alfa)
    take_lo = (g >= 0.0) | at_root
    g, _, at_root = newton_step(beta)
    take_hi = (g <= 0.0) | at_root
    x = _newton_in_bracket(newton_step, alfa, beta, ~(take_lo | take_hi), start=start)
    x = np.where(take_lo, alfa, np.where(take_hi, beta, x))
    curvature = 2.0 * p / (upp - x) ** 3 + 2.0 * q / (x - low) ** 3
    return x, np.where(take_lo | take_hi, 0.0, -volumes / curvature)


def _solve_dual(p, q, low, upp, alfa, beta, volumes, volume_bound, mu=0.0):
    """The subproblem minimizer x(mu) at the smallest feasible volume multiplier, and mu.

    The volume x(mu) . V falls monotonically in mu towards alfa . V.  The
    search opens at the given ``mu``, the previous update's multiplier, and
    brackets the smallest feasible one from there: below a feasible positive
    ``mu`` by [0, mu], unless 0 is feasible too, and above an infeasible
    ``mu``, once alfa . V is feasible, by doubling from max(2 mu, 1).  The
    shortfall bound - x(mu) . V is then solved to a relative width of 1e-12
    from the Newton point of ``mu`` or of the last infeasible doubling.
    Returns the minimizer at the last feasible multiplier tried, a root or
    the top end, and that multiplier.  Each subproblem solve starts at the
    minimizer of the one before.
    """
    feasible = []
    previous = np.nan  # the minimizer at the multiplier tried last

    def shortfall(m):
        nonlocal previous
        x, dx_dmu = _subproblem_minimizer(m, p, q, low, upp, alfa, beta, volumes, previous)
        previous = x
        f, slope = volume_bound - x @ volumes, -(dx_dmu @ volumes)
        if f >= 0.0:
            feasible.append((x, float(m)))
        return f, m - f / slope if slope > 0.0 else np.nan, f == 0.0

    f, start, _ = shortfall(mu)
    if f >= 0.0:
        if mu == 0.0 or f == 0.0 or shortfall(0.0)[0] >= 0.0:
            return feasible[-1]
        lo, hi = 0.0, mu
    else:
        if alfa @ volumes > volume_bound:
            raise NumericalError(f"the move limits leave no feasible update: their lower "
                                 f"ends hold volume {alfa @ volumes!r} > bound {volume_bound!r}")
        lo, hi = mu, max(2.0 * mu, 1.0)
        f, newton, _ = shortfall(hi)
        while f < 0.0:
            lo, hi, start = hi, 2.0 * hi, newton
            if hi > 1e12:
                raise NumericalError("volume multiplier bracket not found")
            f, newton, _ = shortfall(hi)
    _newton_in_bracket(shortfall, lo, hi, np.array(True), rtol=1e-12, start=start)
    return feasible[-1]


def mma_update(rho, dj, volumes, volume_bound, state):
    """One MMA design update under sum(rho * volumes) <= volume_bound."""
    rho = np.asarray(rho, dtype=float)
    dj = np.asarray(dj, dtype=float)
    volumes = np.asarray(volumes, dtype=float)
    if not np.all(np.isfinite(dj)):
        raise ValueError("objective gradient contains non-finite entries")
    if rho @ volumes > volume_bound + 1e-6:
        raise ValueError("current design violates the volume constraint")

    if state.gradient_scale is None:
        scale = np.max(np.abs(dj))
        if scale == 0.0:
            state.iteration += 1
            state.x_prev2, state.x_prev1 = state.x_prev1, rho.copy()
            return rho.copy()
        state.gradient_scale = scale
    d = dj / state.gradient_scale

    low, upp = _update_asymptotes(rho, state)
    alfa = np.maximum.reduce(
        [np.zeros_like(rho), low + _ALBEFA * (rho - low), rho - _MOVE_LIMIT]
    )
    beta = np.minimum.reduce(
        [np.ones_like(rho), upp - _ALBEFA * (upp - rho), rho + _MOVE_LIMIT]
    )

    dpos = np.maximum(d, 0.0)
    dneg = np.maximum(-d, 0.0)
    p = (upp - rho) ** 2 * (1.001 * dpos + 0.001 * dneg + _RAA0)
    q = (rho - low) ** 2 * (0.001 * dpos + 1.001 * dneg + _RAA0)

    new_rho, state.mu = _solve_dual(p, q, low, upp, alfa, beta, volumes, volume_bound, state.mu)

    state.low, state.upp = low, upp
    state.x_prev2, state.x_prev1 = state.x_prev1, rho.copy()
    state.iteration += 1
    return new_rho


_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
# parabolic and golden steps allowed per search; a search that needs more
# is not converging
_SCALAR_STEPS = 10_000


def scalar_minimize(f, bracket, tol=1e-8, width_history=None):
    """Brent-style bounded scalar minimization.

    Parabolic interpolation through the three best points, with
    golden-section fallback whenever the parabola is untrustworthy.  The
    bracket shrinks monotonically and the search stops once its width drops
    below ``tol``; for unimodal f the returned point is within tol of the
    minimizer.
    """
    a, b = float(bracket[0]), float(bracket[1])
    if not a < b:
        raise ValueError("bracket must satisfy lo < hi")

    def safe_eval(x):
        val = f(x)
        if not np.isfinite(val):
            raise NumericalError(f"objective returned non-finite value at {x}")
        return val

    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = safe_eval(x)
    d = e = b - a
    if width_history is not None:
        width_history.append(b - a)
    for _ in range(_SCALAR_STEPS):
        if b - a <= tol:
            break
        m = 0.5 * (a + b)
        tol1 = 0.25 * tol + 1e-15 * abs(x)
        use_golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            qq = (x - v) * (fx - fw)
            pp = (x - v) * qq - (x - w) * r
            qq = 2.0 * (qq - r)
            if qq > 0:
                pp = -pp
            qq = abs(qq)
            e_prev, e = e, d
            if abs(pp) < abs(0.5 * qq * e_prev) and qq * (a - x) < pp < qq * (b - x):
                d = pp / qq
                use_golden = False
        if use_golden:
            e = (b - x) if x < m else (a - x)
            d = _GOLDEN * e
        if abs(d) < tol1:
            d = tol1 if d >= 0 else -tol1
        u = x + d
        fu = safe_eval(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, w = w, u
                fv, fw = fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        if width_history is not None:
            width_history.append(b - a)
    else:
        raise NumericalError("scalar minimizer exceeded the iteration cap")
    return x, fx
