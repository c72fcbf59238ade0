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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .assembly import Discretization, assemble_global, residual
from .baselines import run_topology_optimization_be
from .blocksolve import condition_estimate
from .config import parse_config, problem_from_config
from .errors import ConfigError, NumericalError, ResourceLimitError, SingularSystemError
from .optimize import run_topology_optimization
from .presets import two_design_benchmark
from .problem import MaterialModel, ProblemSpec
from .verification import (
    convergence_study,
    energy_estimate_sides,
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


def _write_summary(out_dir, payload):
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=_jsonable)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def cmd_verify(cfg, out_dir):
    """Operator, exactness, and stability checks; nonzero exit on failure."""
    checks = []

    rep = operator_suite_report(seed=cfg.seed + 3)
    checks.append(("sbp_identity", rep["sbp_identity"], 1e-13))
    checks.append(("monomial_accuracy", rep["accuracy"], 1e-11))
    checks.append(("quadrature_positivity", rep["spd"], 0.0))
    checks.append(("integration_by_parts", rep["ibp_relative"], 1e-12))

    # constant-state exactness on a heterogeneous design
    c = 2.0
    const_t = lambda t: np.full_like(np.asarray(t, float), c)
    spec = ProblemSpec(
        domain=(0.0, 1.0), horizon=1.0, n_elements=3, nx=5, nt=5,
        material=MaterialModel(0.0, 1.0, 3.0),
        h=const_t, g=const_t,
        q=lambda x: np.full_like(np.asarray(x, float), c),
    )
    disc = Discretization(spec)
    system = assemble_global(disc, np.array([0.2, 0.8, 0.5]))
    r = residual(np.full(disc.n_unknowns, c), system)
    n_x = disc.n_x  # scale: the largest entry of element 0's diagonal block
    block0 = np.kron(disc.T, np.diag(disc.W[:n_x])) + np.kron(
        np.diag(disc.op_t.weights), system.M[:n_x, :n_x].toarray())
    scale = max(np.max(np.abs(block0)), 1.0)
    checks.append(("constant_state_residual", float(np.max(np.abs(r)) / scale), 1e-11))

    # terminal-energy bound for random initial data
    rng = np.random.default_rng(cfg.seed)
    worst_margin = -np.inf
    for K in (1, 2, 5):
        for _ in range(5):
            coeffs = rng.standard_normal(5)
            espec = ProblemSpec(
                domain=(0.0, 1.0), horizon=0.5, n_elements=K, nx=5, nt=5,
                material=MaterialModel(0.05, 1.0, 2.0),
                q=lambda x, cs=coeffs: sum(
                    cj * np.cos(j * np.pi * np.asarray(x, float))
                    for j, cj in enumerate(cs)
                ),
            )
            lhs, bound = energy_estimate_sides(espec, rng.uniform(0, 1, K))
            worst_margin = max(worst_margin, (lhs - bound) / max(bound, 1e-300))
    checks.append(("energy_estimate_margin", float(worst_margin), 0.0))

    # conditioning of a representative two-design system, logged not gated
    spec20, _ = two_design_benchmark(nx=20, nt=20)
    disc20 = Discretization(spec20)
    cond = condition_estimate(assemble_global(disc20, np.array([0.45, 0.3])))

    rows = [(name, f"{value:.3e}", f"{tol:.1e}", "pass" if value <= tol else "FAIL")
            for name, value, tol in checks]
    _write_csv(os.path.join(out_dir, "verify.csv"),
               ["check", "value", "tolerance", "status"], rows)
    ok = all(value <= tol for _, value, tol in checks)
    _write_summary(out_dir, {
        "command": "verify",
        "config": asdict(cfg),
        "environment": _environment(),
        "checks": [
            {"name": n, "value": v, "tolerance": t} for n, v, t in checks
        ],
        "condition_estimate_two_design_n20": cond,
        "passed": ok,
    })
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
    _write_summary(out_dir, {
        "command": "converge",
        "config": asdict(cfg),
        "environment": _environment(),
        "monotone_with_plateau": ok,
        "min_state_error": min(errs),
        "min_objective_error": min(p.objective_error for p in points),
    })
    for p in points:
        print(f"N={p.n:3d}  state={p.state_error:.3e}  J={p.objective_error:.3e}")
    return 0 if ok else 1


def _optimize_once(cfg, solver, n_steps):
    """One design loop of ``solver``; be-fe alone reads ``n_steps``."""
    spec, vstar = problem_from_config(cfg)
    if solver == "st-se":
        disc = Discretization(spec, s=cfg.sat_s, safety=cfg.sat_safety, sigma_0=cfg.sigma_0)
        trace = run_topology_optimization(
            spec, vstar, tol_design=cfg.tol_design, max_iters=cfg.max_iters, disc=disc
        )
    else:
        trace = run_topology_optimization_be(
            spec, vstar, n_steps, tol_design=cfg.tol_design, max_iters=cfg.max_iters,
        )
    return spec, vstar, trace


def cmd_optimize(cfg, out_dir):
    """Run the configured design problem once and dump design and trace;
    exit 1 if it stopped at ``max_iters`` instead of converging."""
    solver = cfg.solvers[0]
    spec, vstar, trace = _optimize_once(cfg, solver, max(cfg.nt_steps_sweep))
    edges = spec.element_edges
    rows = [
        (k + 1, f"{edges[k]:.16e}", f"{edges[k + 1]:.16e}", f"{r:.16e}")
        for k, r in enumerate(trace.final_rho)
    ]
    _write_csv(os.path.join(out_dir, "design.csv"),
               ["element", "x_left", "x_right", "rho"], rows)
    _write_csv(
        os.path.join(out_dir, "trace.csv"),
        ["iter", "J", "delta_rho_inf", "J_rel", "wall_s", "forward_s", "gradient_s", "update_s",
         "mu", "volume_slack"],
        [
            (r.iteration, f"{r.objective:.16e}", f"{r.design_change:.16e}",
             f"{r.objective_rel_change:.16e}", f"{r.wall_time:.4f}",
             f"{r.forward_s:.4f}", f"{r.gradient_s:.4f}", f"{r.update_s:.4f}",
             f"{r.mu:.16e}", f"{r.volume_slack:.16e}")
            for r in trace.records
        ],
    )
    _write_summary(out_dir, {
        "command": "optimize",
        "config": asdict(cfg),
        "environment": _environment(),
        "solver": solver,
        "iterations": trace.iterations,
        "stop_reason": trace.stop_reason,
        "converged": trace.converged,
        "final_objective": trace.final_objective,
        "final_design": trace.final_rho,
        "volume": float(trace.final_rho @ spec.element_volumes),
        "volume_bound": vstar,
        "ignored_keys": cfg.unread_keys("optimize", solver),
    })
    print(f"{solver}: J={trace.final_objective:.6f} after {trace.iterations} iterations "
          f"({trace.stop_reason})")
    return 0 if trace.converged else 1


def _compare_point(payload):
    """One (solver, level) cell of the comparison table; top level so it pickles."""
    cfg, solver, level = payload
    if solver == "st-se":  # its levels are time node counts; be-fe's are step counts
        cfg = replace(cfg, nt=level)
    times = []
    for _ in range(cfg.repeats):
        t0 = time.perf_counter()
        spec, vstar, trace = _optimize_once(cfg, solver, n_steps=level)
        times.append(time.perf_counter() - t0)
    if solver == "st-se":
        dof = spec.n_elements * (spec.nx + 1) * (spec.nt + 1)
    else:
        dof = spec.n_elements + 1
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
    """Run every (solver, level) cell of the configured sweep, in this
    process or on ``cfg.jobs`` workers, and leave ``cfg`` as it was.

    Returns ``(cells, solvers, converged)``: the cells in table order, each
    with its ``delta_rho_inf`` from the level before (None at the first),
    the per-solver block of ``summary.json``, and whether every cell
    converged rather than stopping at ``max_iters``.
    """
    tasks = [(cfg, solver, level) for solver in cfg.solvers
             for level in sorted(cfg.nt_nodes_sweep if solver == "st-se" else cfg.nt_steps_sweep)]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            cells = list(pool.map(_compare_point, tasks))
    else:
        cells = [_compare_point(t) for t in tasks]
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
    _write_summary(out_dir, {
        "command": "compare",
        "config": asdict(cfg),
        "environment": _environment(),
        "solvers": solvers,
    })
    for row in rows:
        print(",".join(str(c) for c in row))
    return 0 if converged else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="stheat",
        description="Space-time spectral-element topology optimization of 1D heat conduction",
    )
    parser.add_argument("command", choices=["verify", "converge", "optimize", "compare"])
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--jobs", type=int, default=None, help="worker pool size")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed")
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)
    overrides = {"jobs": args.jobs, "seed": args.seed, "out_dir": args.out}
    try:
        cfg = parse_config(args.config, overrides=overrides)
        if args.command == "optimize":
            # optimize runs solvers[0] alone: hold the file's keys to that solver
            parse_config(args.config, overrides={**overrides, "solvers": cfg.solvers[:1]})
        if args.command in ("verify", "converge"):
            # they run no solver, so they refuse every key they do not read
            unread = cfg.unread_keys(args.command)
            if unread:
                raise ConfigError(f"{' '.join(unread)}: not used by {args.command}")
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    out_dir = cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    command = {
        "verify": cmd_verify,
        "converge": cmd_converge,
        "optimize": cmd_optimize,
        "compare": cmd_compare,
    }[args.command]
    try:
        return command(cfg, out_dir)
    except (NumericalError, SingularSystemError, ResourceLimitError) as err:
        # the input is beyond what the numerics can do; any other error is a bug
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
