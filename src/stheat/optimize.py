"""Gradient-based topology optimization loop.

Each iteration performs one forward solve, one adjoint solve, a sensitivity
contraction, and an MMA design update; the loop stops when the max design
update drops below tolerance or the iteration cap is reached.  The whole
time history lives in the monolithic space-time state, so no checkpointing
is involved.

The loop is written once, in ``_run_design_loop``, and shared with the
backward-Euler drivers of ``baselines``.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .adjoint import objective, sensitivities, solve_adjoint
from .assembly import Discretization, assemble_global
from .blocksolve import solve_system
from .mma import MmaState, mma_update

REL_EPS = 1e-12


@dataclass
class IterationRecord:
    iteration: int
    rho: np.ndarray
    objective: float
    design_change: float
    objective_rel_change: float
    wall_time: float
    # the parts of wall_time spent in the forward solve, the adjoint and
    # sensitivities, and the MMA update
    forward_s: float
    gradient_s: float
    update_s: float


@dataclass
class OptimizationTrace:
    records: list = field(default_factory=list)
    stop_reason: str = ""
    final_rho: np.ndarray = None
    final_objective: float = np.nan

    @property
    def iterations(self):
        return len(self.records)

    def design_changes(self):
        return np.array([r.design_change for r in self.records])

    def objectives(self):
        return np.array([r.objective for r in self.records])

    @property
    def converged(self):
        """True when the design change fell below tolerance before the cap."""
        return self.stop_reason == "design_change"


def uniform_feasible_design(volumes, volume_bound):
    """Uniform design saturating the volume bound (the standard start)."""
    volumes = np.asarray(volumes, dtype=float)
    return np.full(volumes.size, min(1.0, volume_bound / volumes.sum()))


def _run_design_loop(forward, gradient, volumes, volume_bound, initial_rho, tol_design,
                     max_iters):
    """The MMA design loop shared by every solver.

    ``forward(rho) -> (J, state)`` and ``gradient(rho, state) -> dJ/drho``
    supply the physics; the final design is re-evaluated by ``forward`` alone.
    """
    rho = (
        uniform_feasible_design(volumes, volume_bound)
        if initial_rho is None
        else np.asarray(initial_rho, dtype=float).copy()
    )
    if rho.shape != volumes.shape:
        raise ValueError(f"design must have {volumes.size} entries, got shape {rho.shape}")
    mma_state = MmaState()
    trace = OptimizationTrace(stop_reason="max_iterations")
    prev_j = None
    for it in range(1, max_iters + 1):
        t0 = time.perf_counter()
        j, state = forward(rho)
        t1 = time.perf_counter()
        grad = gradient(rho, state)
        del state  # else it lives on beside the next forward's system and factors
        t2 = time.perf_counter()
        new_rho = mma_update(rho, grad, volumes, volume_bound, mma_state)
        t3 = time.perf_counter()
        change = float(np.max(np.abs(new_rho - rho)))
        j_rel = np.inf if prev_j is None else abs(j - prev_j) / max(abs(prev_j), REL_EPS)
        trace.records.append(
            IterationRecord(
                iteration=it,
                rho=new_rho.copy(),
                objective=j,
                design_change=change,
                objective_rel_change=j_rel,
                wall_time=time.perf_counter() - t0,
                forward_s=t1 - t0,
                gradient_s=t2 - t1,
                update_s=t3 - t2,
            )
        )
        rho, prev_j = new_rho, j
        if change < tol_design:
            trace.stop_reason = "design_change"
            break
    trace.final_rho = rho.copy()
    trace.final_objective = forward(rho)[0]
    return trace


def run_topology_optimization(
    spec,
    volume_bound,
    initial_rho=None,
    tol_design=1e-4,
    max_iters=100,
    disc=None,
):
    """Minimize the space-time squared temperature over the design box.

    ``disc`` is a prebuilt ``Discretization(spec)``, e.g. with non-default
    penalties.  Returns the per-iteration trace; the final design is
    re-evaluated once so the reported objective belongs to the returned
    design.
    """
    if disc is None:
        disc = Discretization(spec)

    def forward(rho):
        system = assemble_global(disc, rho)
        u, fact = solve_system(system)
        return objective(u, disc), (system, u, fact)

    def gradient(rho, state):
        system, u, fact = state
        adj = solve_adjoint(disc, system, u, fact)
        return sensitivities(disc, u, adj.lam, rho)

    return _run_design_loop(forward, gradient, spec.element_volumes, volume_bound,
                            initial_rho, tol_design, max_iters)
