"""Cross-validate the gradient pipeline on a two-cell design problem.

Two independent optimizers minimize the same discrete objective: a
derivative-free bracket search over the volume-saturated line, and the
full adjoint + moving-asymptotes pipeline.  Their optima agree to many
digits, which validates the assembled sensitivities end to end.
"""

from stheat.optimize import run_topology_optimization
from stheat.presets import two_design_benchmark
from stheat.verification import reference_optimum

(k1_ref, k2_ref), j_ref = reference_optimum(20, 16)
print(f"bracket search : kappa = ({k1_ref:.6f}, {k2_ref:.6f})  J = {j_ref:.8f}")

spec, vstar = two_design_benchmark(nx=20, nt=16)
trace = run_topology_optimization(spec, vstar, tol_design=1e-8, max_iters=100)
rho = trace.final_rho
print(f"adjoint + MMA  : kappa = ({rho[0]:.6f}, {rho[1]:.6f})  J = {trace.final_objective:.8f}")
print(f"agreement      : |d kappa| = {abs(rho[0] - k1_ref):.2e}  "
      f"({trace.iterations} gradient iterations)")
print("more material goes to the cell at the cold (zero) boundary, as physics demands")
