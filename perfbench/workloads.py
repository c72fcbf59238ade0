"""The four benchmark workloads: set-up, one full design, and its correctness gate.

Each workload is a closed loop: one design at a time in one process.  Layer
functions are called through their modules (``optimize.run_...``, not a
name imported here) so that a traced run sees the wrapped versions.

The reference values were recorded from the package as first committed.
They are compared with tolerances, not bit equality: the final objective of
the two-design problem already differs at 1e-13 between one and two BLAS
threads.
"""

import time
from dataclasses import dataclass

import numpy as np

from stheat import adjoint, assembly, baselines, blocksolve, mma, optimize, presets

# Seed s != 0 scales each start density by 1 + START_JITTER U(-1, 1).  From
# the uniform start, the tenth iteration's design change on the cooling
# preset is only 3-4 % above the stop tolerance 1e-4.  So a 2 % jitter moves
# the iteration count between 9 and 12 and the final J by up to 1.3e-8, and
# 1e-4 still moved one seed in ten from 11 to 10 iterations on cooling-be;
# this amplitude keeps the work per design the same for every seed.
START_JITTER = 1e-5
VOLUME_SLACK = 1e-12  # relative; MMA keeps the volume exact to roundoff

# final cooling design at the uniform start (seed 0), 11 iterations
COOLING_RHO = np.array(
    [0.0] * 17
    + [
        0.2295182497, 0.2997873463, 0.3572484102, 0.4073713173, 0.4522520768,
        0.4933459790, 0.5314152744, 0.5670117198, 0.6005087425, 0.6321611632,
        0.6622436753, 0.6908617256, 0.7181837735, 0.7442826641, 0.7692674540,
        0.7932014073, 0.8161603657, 0.8381686560, 0.8592811029, 0.8795359795,
        0.8989688431, 0.9176062666, 0.9354777872, 0.9526084768, 0.9690211913,
        0.9847366916, 0.9997736603,
    ]
    + [1.0] * 6
)


@dataclass
class Reference:
    """Expected final objective and design, with the tolerances of the gate."""

    objective: float
    objective_rtol: float
    rho: np.ndarray = None
    rho_atol: float = np.inf


COOLING_ST_REF = Reference(13.760026399944, 1e-8, COOLING_RHO, 1e-4)
# MMA and the bracket search agree to 4.5e-8 in rho and 2e-13 in J
TWO_DESIGN_REF = Reference(0.85721344096, 1e-10, np.array([0.5523373, 0.1976627]), 1e-6)
COOLING_BE_REF = Reference(13.7511793424, 1e-8)
BE_PAIR_TOL = 1e-10  # marching and all-at-once solve the same system


@dataclass
class Problem:
    """Everything a design needs that is built before its first iteration."""

    spec: object
    volume_bound: float
    disc: object = None
    bracket: tuple = None
    start: np.ndarray = None  # benchmark input, set by `build`


@dataclass
class Outcome:
    """Final design of one run plus its per-iteration wall times."""

    rho: np.ndarray
    objective: float
    iterations: int
    iteration_s: list
    pair: "Outcome" = None  # the all-at-once twin of a marching run


def seeded_start(volumes, volume_bound, seed):
    """Uniform start for seed 0; otherwise jittered, clipped, rescaled onto the bound."""
    rho = optimize.uniform_feasible_design(volumes, volume_bound)
    if seed == 0:
        return rho
    rng = np.random.default_rng(seed)
    rho = np.clip(rho * (1.0 + START_JITTER * rng.uniform(-1.0, 1.0, rho.size)), 0.0, 1.0)
    return rho * (volume_bound / float(volumes @ rho))


def build(workload, seed):
    """Set the workload up and give it its seeded start design.

    Only ``workload.setup()`` is timed as set-up; the start design is input
    the benchmark makes, so the random generator's cost stays out of setup_s.
    """
    problem = workload.setup()
    problem.start = seeded_start(problem.spec.element_volumes, problem.volume_bound, seed)
    return problem


def check(outcome, problem, reference):
    """Return the gate violations of one outcome (empty when it passes)."""
    volumes, bound = problem.spec.element_volumes, problem.volume_bound
    problems = []
    for label, out in (("", outcome), ("aao ", outcome.pair)):
        if out is None:
            continue
        rel = abs(out.objective - reference.objective) / abs(reference.objective)
        if not rel <= reference.objective_rtol:
            problems.append(f"{label}J={out.objective!r}: relative error {rel:.2e}")
        if reference.rho is not None:
            gap = float(np.max(np.abs(out.rho - reference.rho)))
            if not gap <= reference.rho_atol:
                problems.append(f"{label}rho off the reference by {gap:.2e}")
        volume = float(volumes @ out.rho)
        if not volume <= bound * (1.0 + VOLUME_SLACK):
            problems.append(f"{label}volume {volume!r} above bound {bound!r}")
    if outcome.pair is not None:
        pair = outcome.pair
        gap_j = abs(pair.objective - outcome.objective) / abs(outcome.objective)
        gap_rho = float(np.max(np.abs(pair.rho - outcome.rho)))
        if not (gap_j <= BE_PAIR_TOL and gap_rho <= BE_PAIR_TOL):
            problems.append(f"march and aao differ: J {gap_j:.2e}, rho {gap_rho:.2e}")
        if pair.iterations != outcome.iterations:
            problems.append(f"march took {outcome.iterations} iterations, aao {pair.iterations}")
    return problems


def _loop_outcome(trace):
    return Outcome(
        rho=trace.final_rho,
        objective=trace.final_objective,
        iterations=trace.iterations,
        iteration_s=[r.wall_time for r in trace.records],
    )


class SpaceTimeDesign:
    """`run_topology_optimization` on a preset, as `stheat optimize` runs it."""

    def __init__(self, name, make_preset, tol_design, reference):
        self.name = name
        self.make_preset = make_preset
        self.tol_design = tol_design
        self.reference = reference

    def setup(self):
        spec, bound = self.make_preset()
        return Problem(spec=spec, volume_bound=bound, disc=assembly.Discretization(spec))

    def design(self, problem):
        trace = optimize.run_topology_optimization(
            problem.spec,
            problem.volume_bound,
            initial_rho=problem.start,
            tol_design=self.tol_design,
            disc=problem.disc,
        )
        return _loop_outcome(trace)


class TwoDesignBracket:
    """Bracket search over rho_1 on the volume-saturated line, forward solves only.

    Built from the public functions the criterion-6 reference uses, so it
    measures the forward factor and assembly without any adjoint or MMA step.
    The bracket is the same for every seed.  Pulling its ends inward by up
    to 1 % gave 16 to 28 evaluations over 16 seeds, and pulls under 1e-6
    still gave 17 to 28, so a seeded bracket would measure the seed rather
    than the code.
    """

    name = "two-design-bracket"

    def __init__(self, nx=40, nt=30, tol=1e-8, reference=TWO_DESIGN_REF):
        self.nx, self.nt, self.tol = nx, nt, tol
        self.reference = reference

    def setup(self):
        spec, bound = presets.two_design_benchmark(nx=self.nx, nt=self.nt)
        return Problem(
            spec=spec,
            volume_bound=bound,
            disc=assembly.Discretization(spec),
            bracket=(1e-4, self._rho2(spec, bound, 0.0) - 1e-4),
        )

    @staticmethod
    def _rho2(spec, bound, rho1):
        v1, v2 = spec.element_volumes
        return (bound - v1 * rho1) / v2

    def design(self, problem):
        disc, spec, bound = problem.disc, problem.spec, problem.volume_bound
        times = []

        def j_of_rho1(rho1):
            t0 = time.perf_counter()
            system = assembly.assemble_global(disc, np.array([rho1, self._rho2(spec, bound, rho1)]))
            u, _ = blocksolve.solve_system(system)
            j = adjoint.objective(u, disc)
            times.append(time.perf_counter() - t0)
            return j

        rho1, j = mma.scalar_minimize(j_of_rho1, problem.bracket, tol=self.tol)
        return Outcome(
            rho=np.array([rho1, self._rho2(spec, bound, rho1)]),
            objective=j,
            iterations=len(times),
            iteration_s=times,
        )


class CoolingBackwardEuler:
    """The backward-Euler design loop, marching and then all-at-once.

    An iteration's time is that of one marching iteration plus the matching
    all-at-once iteration, so the pooled samples are not split between two
    clusters.
    """

    name = "cooling-be"

    def __init__(self, n_elements=50, n_steps=8192, tol_design=1e-4, reference=COOLING_BE_REF):
        self.n_elements, self.n_steps, self.tol_design = n_elements, n_steps, tol_design
        self.reference = reference

    def setup(self):
        """The preset and its FE discretization at the uniform start.

        `fe_assemble` is the backward-Euler counterpart of `Discretization`.
        The loop rebuilds it every iteration; it is built once here as well
        because the preset alone is a few microseconds of dataclass
        construction, whose timing spread by 41 % between runs.
        """
        spec, bound = presets.cooling_benchmark(n_elements=self.n_elements)
        start = optimize.uniform_feasible_design(spec.element_volumes, bound)
        return Problem(spec=spec, volume_bound=bound, disc=baselines.fe_assemble(spec, start))

    def design(self, problem):
        march, aao = (
            _loop_outcome(
                baselines.run_topology_optimization_be(
                    problem.spec,
                    problem.volume_bound,
                    self.n_steps,
                    aao=flag,
                    initial_rho=problem.start,
                    tol_design=self.tol_design,
                )
            )
            for flag in (False, True)
        )
        march.pair = aao
        march.iteration_s = [a + b for a, b in zip(march.iteration_s, aao.iteration_s)]
        return march


def make_workloads():
    """The benchmark's workloads by name, at their full sizes."""
    return {
        w.name: w
        for w in (
            SpaceTimeDesign("cooling-st", presets.cooling_benchmark, 1e-4, COOLING_ST_REF),
            SpaceTimeDesign(
                "two-design-st",
                lambda: presets.two_design_benchmark(nx=40, nt=30),
                1e-8,
                TWO_DESIGN_REF,
            ),
            TwoDesignBracket(),
            CoolingBackwardEuler(),
        )
    }
