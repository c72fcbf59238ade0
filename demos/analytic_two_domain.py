"""Exact two-material solution and how fast the solver reproduces it.

The closed form combines a piecewise-quadratic steady profile with one
decaying transient mode whose rate solves a transcendental matching
condition at the material interface.  Initializing the discretization with
the exact initial state, the space-time solve tracks the analytic solution
to near machine precision by modest polynomial degrees.
"""

import numpy as np

from stheat import Discretization, assemble_global, solve_system
from stheat.presets import two_domain_problem
from stheat.twodomain import TwoDomainSolution

sol = TwoDomainSolution(kappa_1=0.45, kappa_2=0.30, interface=0.5, source=1.0, u_right=1.0)
print(f"decay rate lambda = {sol.lam:.12f}")
print(f"steady coefficients: A1={sol.A1:.6f} A2={sol.A2:.6f} B2={sol.B2:.6f}")

for n in (4, 8, 12, 16):
    disc = Discretization(two_domain_problem(sol, n, n))
    u, _ = solve_system(assemble_global(disc, np.array([sol.kappa_1, sol.kappa_2])))
    exact = sol(*disc.coordinates())
    p = disc.global_p()
    err = np.sqrt((u - exact) @ (p * (u - exact)))
    print(f"  n={n:2d}: discrete L2 error {err:.3e}")
