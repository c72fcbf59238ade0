"""Command-line front end: verify / converge / optimize / compare.

Every command writes CSV tables plus a ``summary.json`` into the output
directory; nothing is plotted.  With a fixed config and seed the data
columns are reproducible bit for bit; only wall-time columns vary.
Exit codes: 0 done, 1 a check failed or a run stopped at ``max_iters``,
2 a configuration error, 3 a typed numerical or resource error.
"""

import argparse
import csv
import json
import os
import platform
import statistics
import sys
import time
from dataclasses import asdict, fields, replace

import numpy as np

from . import __version__
from .assembly import Discretization, assemble_global, load_scipy, residual
from .baselines import run_topology_optimization_be
from .config import parse_config, problem_from_config
from .errors import ConfigError, NumericalError, ResourceLimitError, SingularSystemError
from .optimize import IterationRecord, run_topology_optimization
from .presets import two_design_benchmark
from .problem import MaterialModel, ProblemSpec, constant
from .verification import (
    convergence_study,
    energy_margin_sweep,
    monotone_with_plateau,
    operator_suite_report,
)


def _environment():
    return {
        "stheat": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
    }


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_summary(out_dir, command, cfg, **fields):
    """``summary.json``: the command, its config and environment, then ``fields``."""
    payload = {"command": command, "config": asdict(cfg), "environment": _environment(), **fields}
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)


def _dense_matrix(system):
    """A = T (x) W + P_t (x) M as a dense matrix, in ``assembly``'s time-major order."""
    disc = system.disc
    return np.kron(disc.T, np.diag(disc.W)) + np.kron(np.diag(disc.op_t.weights), system.M.toarray())


def cmd_verify(cfg, out_dir):
    """Operator, exactness, and stability checks; nonzero exit on failure."""
    checks = operator_suite_report(seed=cfg.seed + 3)

    # constant-state exactness on a heterogeneous design
    c = 2.0
    spec = ProblemSpec(
        domain=(0.0, 1.0), horizon=1.0, n_elements=3, nx=5, nt=5,
        material=MaterialModel(0.0, 1.0, 3.0), h=constant(c), g=constant(c), q=constant(c),
    )
    disc = Discretization(spec)
    system = assemble_global(disc, np.array([0.2, 0.8, 0.5]))
    r = residual(np.full(disc.n_unknowns, c), system)
    n_t, n_s, n_x = disc.op_t.n_nodes, disc.W.size, disc.n_x
    # scale: the largest entry of element 0's diagonal block
    block0 = _dense_matrix(system).reshape(n_t, n_s, n_t, n_s)[:, :n_x, :, :n_x]
    scale = max(np.max(np.abs(block0)), 1.0)
    checks.append(("constant_state_residual", float(np.max(np.abs(r)) / scale), 1e-11))

    # terminal-energy bound for random initial data
    worst_margin = energy_margin_sweep(np.random.default_rng(cfg.seed), draws=5, degree=5)
    checks.append(("energy_estimate_margin", worst_margin, 0.0))

    # the exact 1-norm condition number of a representative two-design
    # system (882 unknowns), logged not gated
    spec20, _ = two_design_benchmark(nx=20, nt=20)
    system20 = assemble_global(Discretization(spec20), np.array([0.45, 0.3]))
    cond = float(np.linalg.cond(_dense_matrix(system20), 1))

    rows = [(name, f"{value:.3e}", f"{tol:.1e}", "pass" if value <= tol else "FAIL")
            for name, value, tol in checks]
    _write_csv(os.path.join(out_dir, "verify.csv"),
               ["check", "value", "tolerance", "status"], rows)
    ok = all(value <= tol for _, value, tol in checks)
    _write_summary(
        out_dir, "verify", cfg,
        checks=[{"name": n, "value": v, "tolerance": t} for n, v, t in checks],
        condition_estimate_two_design_n20=cond,
        passed=ok,
    )
    for name, value, tol in checks:
        print(f"{'PASS' if value <= tol else 'FAIL'}  {name}: {value:.3e} (tol {tol:.1e})")
    print(f"condition estimate (two-design, n=20): {cond:.3e}")
    return 0 if ok else 1


def cmd_converge(cfg, out_dir):
    """Fixed-design forward convergence sweep against the manufactured state."""
    points = convergence_study(cfg.converge_n)
    rows = [(p.n, f"{p.state_error:.16e}", f"{p.objective_error:.16e}") for p in points]
    _write_csv(os.path.join(out_dir, "converge.csv"), ["N", "l2_error", "j_error"], rows)
    errs = [p.state_error for p in points]
    ok = monotone_with_plateau(errs) and min(errs) <= 1e-10
    _write_summary(
        out_dir, "converge", cfg,
        monotone_with_plateau=ok,
        min_state_error=min(errs),
        min_objective_error=min(p.objective_error for p in points),
    )
    for p in points:
        print(f"N={p.n:3d}  state={p.state_error:.3e}  J={p.objective_error:.3e}")
    return 0 if ok else 1


def _optimize_once(cfg, solver, level=None):
    """One design loop of ``solver`` at ``level``: st-se's sets nt, the time
    degree (nt + 1 nodes), be-fe's is its step count, and None is optimize's,
    ``cfg.nt`` or the largest of ``nt_steps_sweep``.  Returns the spec, volume
    bound, trace and the unknowns of one forward solve."""
    if solver == "st-se":
        spec, vstar = problem_from_config(cfg if level is None else replace(cfg, nt=level))
        disc = Discretization(spec, s=cfg.sat_s, safety=cfg.sat_safety, sigma_0=cfg.sigma_0)
        trace = run_topology_optimization(
            spec, vstar, tol_design=cfg.tol_design, max_iters=cfg.max_iters, disc=disc
        )
        return spec, vstar, trace, disc.n_unknowns
    spec, vstar = problem_from_config(cfg)
    n_steps = max(cfg.nt_steps_sweep) if level is None else level
    trace = run_topology_optimization_be(
        spec, vstar, n_steps, tol_design=cfg.tol_design, max_iters=cfg.max_iters,
    )
    return spec, vstar, trace, spec.n_elements + 1


def cmd_optimize(cfg, out_dir):
    """Run the configured design problem once and dump design and trace;
    exit 1 if it stopped at ``max_iters`` instead of converging."""
    solver = cfg.solvers[0]
    spec, vstar, trace, _ = _optimize_once(cfg, solver)
    edges = spec.element_edges
    rows = [
        (k + 1, f"{edges[k]:.16e}", f"{edges[k + 1]:.16e}", f"{r:.16e}")
        for k, r in enumerate(trace.final_rho)
    ]
    _write_csv(os.path.join(out_dir, "design.csv"),
               ["element", "x_left", "x_right", "rho"], rows)
    columns = [f for f in fields(IterationRecord) if "column" in f.metadata]
    _write_csv(
        os.path.join(out_dir, "trace.csv"),
        [f.metadata["column"] for f in columns],
        [[format(getattr(r, f.name), f.metadata["format"]) for f in columns]
         for r in trace.records],
    )
    _write_summary(
        out_dir, "optimize", cfg,
        solver=solver,
        iterations=trace.iterations,
        stop_reason=trace.stop_reason,
        converged=trace.converged,
        final_objective=trace.final_objective,
        final_design=trace.final_rho.tolist(),
        volume=float(trace.final_rho @ spec.element_volumes),
        volume_bound=vstar,
        ignored_keys=cfg.unread_keys("optimize", solver),
    )
    print(f"{solver}: J={trace.final_objective:.6f} after {trace.iterations} iterations "
          f"({trace.stop_reason})")
    return 0 if trace.converged else 1


def _compare_point(cfg, solver, level):
    """One (solver, level) cell of the comparison table."""
    times = []
    for _ in range(cfg.repeats):
        t0 = time.perf_counter()
        _, _, trace, dof = _optimize_once(cfg, solver, level)
        times.append(time.perf_counter() - t0)
    return {
        "solver": solver,
        "level": level,
        "dof": dof,
        "wall_s": statistics.median(times),
        "J": trace.final_objective,
        "rho": trace.final_rho.tolist(),
        "iterations": trace.iterations,
        "converged": trace.converged,
    }


def declared_convergence_level(levels, changes, tol):
    """First level at which the cross-level design change stays below tol
    for two consecutive sweeps."""
    for i in range(1, len(changes)):
        if changes[i] is not None and changes[i - 1] is not None:
            if changes[i] <= tol and changes[i - 1] <= tol:
                return levels[i]
    return None


def compare(cfg):
    """Run every (solver, level) cell of the configured sweep in table order,
    one after another in this process, and leave ``cfg`` as it was.

    Returns ``(cells, solvers, converged)``: the cells in table order, each
    with its ``delta_rho_inf`` from the level before (None at the first),
    the per-solver block of ``summary.json``, and whether every cell
    converged rather than stopping at ``max_iters``.
    """
    if "st-se" in cfg.solvers:
        load_scipy()  # before any cell is timed
    cells = [_compare_point(cfg, solver, level) for solver in cfg.solvers
             for level in sorted(cfg.nt_nodes_sweep if solver == "st-se" else cfg.nt_steps_sweep)]
    solvers = {}
    for solver in cfg.solvers:
        run = [c for c in cells if c["solver"] == solver]
        for prev, cur in zip([None] + run, run):
            cur["delta_rho_inf"] = None if prev is None else float(
                np.max(np.abs(np.array(cur["rho"]) - np.array(prev["rho"]))))
        levels, changes = [c["level"] for c in run], [c["delta_rho_inf"] for c in run]
        solvers[solver] = {
            "levels": levels,
            "dof": [c["dof"] for c in run],
            "delta_rho_inf": changes,
            "J": [c["J"] for c in run],
            "iterations": [c["iterations"] for c in run],
            "converged": [c["converged"] for c in run],
            "declared_converged_at": declared_convergence_level(levels, changes, cfg.tol_design),
            "final_design": run[-1]["rho"],
            "ignored_keys": cfg.unread_keys("compare", solver),
        }
        if solver == "be-fe":
            # the size of the all-at-once system whose level-by-level
            # elimination the march is: (n_el + 1)(N + 1) unknowns
            solvers[solver]["aao_unknowns"] = [c["dof"] * (c["level"] + 1) for c in run]
    return cells, solvers, all(c["converged"] for c in cells)


def cmd_compare(cfg, out_dir):
    """Timing / design-change table across the configured forward solvers.

    Exits 1 when any cell stopped at ``max_iters``; the tables are still written.
    """
    cells, solvers, converged = compare(cfg)
    rows = [
        (c["solver"], c["level"], c["dof"], f"{c['wall_s']:.4f}",
         "" if c["delta_rho_inf"] is None else f"{c['delta_rho_inf']:.6e}", f"{c['J']:.16e}")
        for c in cells
    ]
    _write_csv(
        os.path.join(out_dir, "compare.csv"),
        ["solver", "Nt", "dof", "wall_s", "delta_rho_inf", "J"],
        rows,
    )
    _write_summary(out_dir, "compare", cfg, solvers=solvers)
    for row in rows:
        print(",".join(str(c) for c in row))
    return 0 if converged else 1


COMMANDS = {"verify": cmd_verify, "converge": cmd_converge, "optimize": cmd_optimize,
            "compare": cmd_compare}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="stheat",
        description="Space-time spectral-element topology optimization of 1D heat conduction",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed of verify's random checks, as [run] seed; only verify reads it")
    parser.add_argument("--out", default=None, help="output directory, as [run] out_dir")
    args = parser.parse_args(argv)
    try:
        flags = {"run.seed": args.seed, "run.out_dir": args.out}
        cfg = parse_config(args.config, args.command, flags)
        os.makedirs(cfg.out_dir, exist_ok=True)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except OSError as err:  # out_dir names a path no directory can be made at
        print(f"configuration error: run.out_dir: {err}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command](cfg, cfg.out_dir)
    except (NumericalError, SingularSystemError, ResourceLimitError) as err:
        # the input is beyond what the numerics can do; any other error is a bug
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
