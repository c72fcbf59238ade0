"""Closed-form solution of the heat equation on two material subdomains.

On [0, 1] with a constant source f, piecewise diffusivity (kappa_1 on
[0, xi], kappa_2 on (xi, 1]), u(0, t) = 0 and u(1, t) = u_R, the solution

    u(x, t) = u_s(x) + exp(-lam t) w(x)

combines a piecewise-quadratic steady profile u_s absorbing the source and
boundary data with a decaying transient mode w.  Value and flux continuity
at the interface fix the steady coefficients in closed form and pin the
decay rate lam to a root of a transcendental equation in the two
diffusivities.  This exact solution drives the forward-solver convergence
checks and the two-design optimization cross-validation.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError


@dataclass(frozen=True)
class TwoDomainSolution:
    """The closed form of five inputs; the other fields derive from them on construction.

    ``dataclasses.replace`` re-derives them too, so a solution never holds
    coefficients or a decay rate of other inputs.
    """

    kappa_1: float
    kappa_2: float
    interface: float = 0.5
    source: float = 1.0
    u_right: float = 1.0
    A1: float = field(init=False)
    A2: float = field(init=False)
    B2: float = field(init=False)
    lam: float = field(init=False)
    alpha_1: float = field(init=False)
    alpha_2: float = field(init=False)
    amplitude_ratio: float = field(init=False)

    def __post_init__(self):
        k1, k2, xi = self.kappa_1, self.kappa_2, self.interface
        if k1 <= 0 or k2 <= 0:
            raise ValueError("diffusivities must be positive")
        if not 0 < xi < 1:
            raise ValueError("interface must lie inside (0, 1)")
        a1, a2, b2 = _steady_coefficients(k1, k2, xi, self.source, self.u_right)
        lam = _transient_eigenvalue(k1, k2, xi)
        alpha_1, alpha_2 = np.sqrt(lam / k1), np.sqrt(lam / k2)
        ratio = np.sin(alpha_1 * xi) / np.sin(alpha_2 * (1.0 - xi))
        for name, value in (("A1", a1), ("A2", a2), ("B2", b2), ("lam", lam), ("alpha_1", alpha_1),
                            ("alpha_2", alpha_2), ("amplitude_ratio", ratio)):
            object.__setattr__(self, name, value)  # frozen: set here, once

    def steady(self, x):
        x = np.asarray(x, dtype=float)
        left = -self.source / (2 * self.kappa_1) * x**2 + self.A1 * x
        right = -self.source / (2 * self.kappa_2) * x**2 + self.A2 * x + self.B2
        return np.where(x <= self.interface, left, right)

    def mode(self, x):
        x = np.asarray(x, dtype=float)
        left = np.sin(self.alpha_1 * x)
        right = self.amplitude_ratio * np.sin(self.alpha_2 * (1.0 - x))
        return np.where(x <= self.interface, left, right)

    def __call__(self, x, t):
        """Pointwise u(x, t) = u_s(x) + exp(-lam t) w(x)."""
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        return self.steady(x) + np.exp(-self.lam * t) * self.mode(x)

    def initial(self, x):
        return self.steady(x) + self.mode(x)


def _steady_coefficients(kappa_1, kappa_2, interface, source, u_right):
    """Closed-form coefficients of the piecewise-quadratic steady profile."""
    xi = interface
    a1 = (
        kappa_2 * u_right + 0.5 * source * (1.0 + xi**2 * (kappa_2 / kappa_1 - 1.0))
    ) / (xi * kappa_2 + (1.0 - xi) * kappa_1)
    a2 = kappa_1 / kappa_2 * a1
    b2 = u_right + source / (2.0 * kappa_2) - a2
    return a1, a2, b2


def _eigencondition(lam, kappa_1, kappa_2, interface):
    a1 = np.sqrt(lam / kappa_1)
    a2 = np.sqrt(lam / kappa_2)
    return np.sqrt(kappa_1) / np.tan(a1 * interface) + np.sqrt(kappa_2) / np.tan(
        a2 * (1.0 - interface)
    )


def _transient_eigenvalue(kappa_1, kappa_2, interface):
    """Smallest positive decay rate of the transient mode.

    The condition sqrt(k1) cot(a1 xi) + sqrt(k2) cot(a2 (1 - xi)) = 0
    decreases monotonically from +inf to -inf between 0 and the first pole
    of either cotangent, with exactly one root there, so bisection inside
    that cell is bulletproof.
    """
    xi = interface
    pole = min(kappa_1 * (np.pi / xi) ** 2, kappa_2 * (np.pi / (1.0 - xi)) ** 2)
    lo, hi = 1e-9 * pole, pole - 1e-9 * pole
    g_lo, g_hi = _eigencondition(lo, kappa_1, kappa_2, xi), _eigencondition(
        hi, kappa_1, kappa_2, xi
    )
    # a stiff thin cell can put the root inside the pad: step toward the pole while g > 0
    for pad in (1e-11, 1e-13):
        if g_hi <= 0:
            break
        hi = pole - pad * pole
        g_hi = _eigencondition(hi, kappa_1, kappa_2, xi)
    if not (g_lo > 0 > g_hi):
        raise NumericalError(
            f"no sign change in [{lo:.6g}, {hi:.6g}] (g: {g_lo:.3g}, {g_hi:.3g})"
        )
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        if _eigencondition(mid, kappa_1, kappa_2, xi) > 0:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    # polish with Newton to push the condition residual to roundoff level
    for _ in range(4):
        g = _eigencondition(lam, kappa_1, kappa_2, xi)
        a1 = np.sqrt(lam / kappa_1)
        a2 = np.sqrt(lam / kappa_2)
        dg = -(
            xi / np.sin(a1 * xi) ** 2 + (1.0 - xi) / np.sin(a2 * (1.0 - xi)) ** 2
        ) / (2.0 * np.sqrt(lam))
        step = g / dg
        if not np.isfinite(step) or abs(step) > 0.25 * (hi - lo) + 1e-6 * lam:
            break
        lam -= step
    return lam
