"""Method of moving asymptotes for one linear constraint, plus a scalar
bracket minimizer used as an independent optimization reference.

The MMA update builds the usual separable rational approximation of the
objective around the current design, with asymptotes adapted by oscillation
detection.  Because the volume constraint is linear it is kept exact in the
subproblem rather than approximated (Svanberg 1987), so the dual is a
monotone one-dimensional root-find on the volume multiplier, and so is each
component of the subproblem for a fixed multiplier.  Both are solved by
Newton's method inside a bracket, with bisection as the safeguard, and
every update is feasible by construction.  Gradients are normalized by the
first iteration's magnitude (see MmaState), which makes whole trajectories
invariant to positive rescaling of the objective without losing the step
damping near optima.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError


@dataclass
class MmaConfig:
    asy_init: float = 0.5
    asy_incr: float = 1.2
    asy_decr: float = 0.7
    move_limit: float = 0.5
    raa0: float = 1e-5
    albefa: float = 0.1


@dataclass
class MmaState:
    """Iteration memory: previous two designs and the moving asymptotes.

    ``gradient_scale`` freezes the normalization at the first iteration's
    gradient magnitude.  Later gradients then shrink relative to the raa0
    curvature floor as the optimum is approached, which is what damps the
    steps, while uniform rescaling of the objective still leaves the whole
    trajectory unchanged.
    """

    config: MmaConfig = field(default_factory=MmaConfig)
    iteration: int = 0
    x_prev1: np.ndarray = None
    x_prev2: np.ndarray = None
    low: np.ndarray = None
    upp: np.ndarray = None
    gradient_scale: float = None


def _update_asymptotes(x, state):
    cfg = state.config
    if state.iteration < 2 or state.x_prev2 is None:
        low = x - cfg.asy_init
        upp = x + cfg.asy_init
    else:
        osc = (x - state.x_prev1) * (state.x_prev1 - state.x_prev2)
        factor = np.ones_like(x)
        factor[osc > 0] = cfg.asy_incr
        factor[osc < 0] = cfg.asy_decr
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
# cooling and two-design runs need at most 13
_NEWTON_STEPS = 64


def _subproblem_minimizer(mu, p, q, low, upp, alfa, beta, volumes):
    """Componentwise minimizer x(mu) of the separable dual Lagrangian, and dx/dmu.

    phi_j'(x) = p/(U-x)^2 - q/(x-L)^2 + mu V is strictly increasing on
    (L, U), with phi_j''(x) = 2p/(U-x)^3 + 2q/(x-L)^3 > 0.  A point x is
    the root to working precision once |phi_j'(x)| is at roundoff of its own
    terms, or once the Newton step from x rounds away (the nearest float to
    the root need not zero phi_j' to roundoff).  A component whose root lies
    at or beyond an end of [alfa, beta] takes that end and has dx/dmu = 0.
    The others run Newton's method inside a bracket that every step shrinks,
    with bisection wherever the Newton point leaves the open bracket.  After
    _NEWTON_STEPS steps only bisection is left, up to 64 halvings of what
    remains of the bracket, so every component ends at least as exact as 64
    halvings of [alfa, beta] leave it.  Differentiating phi_j'(x(mu)) = 0
    gives dx/dmu = -V/phi_j''.
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
    lo, hi = alfa.copy(), beta.copy()
    x = 0.5 * (lo + hi)
    active = ~(take_lo | take_hi)
    for step in range(_NEWTON_STEPS + 64):
        if not active.any():
            break
        g, newton, at_root = newton_step(x)
        active &= ~at_root
        hi = np.where(active & (g > 0.0), x, hi)
        lo = np.where(active & (g < 0.0), x, lo)
        inside = (lo < newton) & (newton < hi) & (step < _NEWTON_STEPS)
        x_new = np.where(inside, newton, 0.5 * (lo + hi))
        active &= x_new != x
        x = np.where(active, x_new, x)
    x[take_lo] = alfa[take_lo]
    x[take_hi] = beta[take_hi]
    curvature = 2.0 * p / (upp - x) ** 3 + 2.0 * q / (x - low) ** 3
    return x, np.where(take_lo | take_hi, 0.0, -volumes / curvature)


def _solve_dual(p, q, low, upp, alfa, beta, volumes, volume_bound):
    """The subproblem minimizer x(mu) at the smallest feasible volume multiplier.

    The volume x(mu) . V falls monotonically in mu, with slope dx/dmu . V.
    After the unconstrained minimizer (mu = 0) is found infeasible, mu is
    bracketed by doubling and then located by Newton's method from whichever
    end of the bracket has the smaller volume excess, or from the other end.
    A Newton point is taken if it lies inside the bracket, or within half
    the tolerance of the end it starts from (Newton has converged there);
    otherwise, and after _NEWTON_STEPS trials, the trial bisects.  Every
    trial keeps half the tolerance away from both ends, so a converged
    Newton step lands on the far side of the root and closes the bracket.
    The bracket ends at a relative width of 1e-12, and the result is x at
    its upper end, which is feasible by construction.
    """

    def excess(mu):
        x, dx_dmu = _subproblem_minimizer(mu, p, q, low, upp, alfa, beta, volumes)
        return x, x @ volumes - volume_bound, dx_dmu @ volumes

    x, f, df = excess(0.0)
    if f <= 0.0:
        return x
    lo = (0.0, f, df)
    mu = 1.0
    x, f, df = excess(mu)
    while f > 0.0:
        lo, mu = (mu, f, df), 2.0 * mu
        if mu > 1e12:
            raise NumericalError("volume multiplier bracket not found")
        x, f, df = excess(mu)
    hi, x_hi = (mu, f, df), x
    trials = 0
    while hi[0] - lo[0] > 1e-12 * max(1.0, hi[0]):
        half_tol = 0.5e-12 * max(1.0, hi[0])
        trial = 0.5 * (lo[0] + hi[0])
        for end_mu, end_f, end_df in sorted((lo, hi), key=lambda end: abs(end[1])):
            newton = end_mu - end_f / end_df if end_df < 0.0 else np.nan
            if trials < _NEWTON_STEPS and (lo[0] < newton < hi[0] or abs(newton - end_mu) <= half_tol):
                trial = newton
                break
        trials += 1
        mu = min(max(trial, lo[0] + half_tol), hi[0] - half_tol)
        x, f, df = excess(mu)
        if f > 0.0:
            lo = (mu, f, df)
        else:
            hi, x_hi = (mu, f, df), x
    return x_hi


def mma_update(rho, dj, volumes, volume_bound, state):
    """One MMA design update under sum(rho * volumes) <= volume_bound."""
    rho = np.asarray(rho, dtype=float)
    dj = np.asarray(dj, dtype=float)
    volumes = np.asarray(volumes, dtype=float)
    if not np.all(np.isfinite(dj)):
        raise ValueError("objective gradient contains non-finite entries")
    if rho @ volumes > volume_bound + 1e-6:
        raise ValueError("current design violates the volume constraint")
    cfg = state.config

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
        [np.zeros_like(rho), low + cfg.albefa * (rho - low), rho - cfg.move_limit]
    )
    beta = np.minimum.reduce(
        [np.ones_like(rho), upp - cfg.albefa * (upp - rho), rho + cfg.move_limit]
    )

    dpos = np.maximum(d, 0.0)
    dneg = np.maximum(-d, 0.0)
    p = (upp - rho) ** 2 * (1.001 * dpos + 0.001 * dneg + cfg.raa0)
    q = (rho - low) ** 2 * (0.001 * dpos + 1.001 * dneg + cfg.raa0)

    new_rho = _solve_dual(p, q, low, upp, alfa, beta, volumes, volume_bound)

    state.low, state.upp = low, upp
    state.x_prev2, state.x_prev1 = state.x_prev1, rho.copy()
    state.iteration += 1
    return new_rho


_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def scalar_minimize(f, bracket, tol=1e-8, max_iter=10_000, width_history=None):
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
    for _ in range(max_iter):
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
