"""Space-time spectral-element topology optimization of transient heat conduction.

The package builds summation-by-parts collocation operators, assembles a
monolithic space-time discretization of the heat equation with weakly
enforced initial/boundary/interface conditions, solves it (and its exact
transpose, the adjoint) through a Schur form of its time operator, and drives
density-based design optimization with a moving-asymptotes update.  Low
order backward-Euler finite-element baselines and closed-form verification
problems round out the toolbox.
"""

__version__ = "0.1.0"

from .adjoint import AdjointSolution, objective, sensitivities, solve_adjoint
from .assembly import Discretization, GlobalSystem, assemble_global, residual
from .baselines import (
    FeDiscretization,
    MarchingSolution,
    be_adjoint_and_sensitivity,
    be_aao_solve,
    be_march,
    be_objective,
    fe_assemble,
    run_topology_optimization_be,
)
from .blocksolve import SchurFactorization, factor, solve, solve_system, solve_transposed
from .errors import ConfigError, NumericalError, ResourceLimitError, SingularSystemError
from .mma import MmaState, mma_update, scalar_minimize
from .optimize import OptimizationTrace, run_topology_optimization, uniform_feasible_design
from .problem import (
    MaterialModel,
    ProblemSpec,
    SatCoefficients,
    choose_sat_coefficients,
    dkappa_drho,
    kappa,
)
from .sbp import SbpOperator1D, build_sbp_1d, lgl_rule, verify_sbp
from .twodomain import TwoDomainSolution
from .verification import convergence_study, mms_source
