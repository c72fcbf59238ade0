#!/usr/bin/env python3
"""stheat benchmark: run one design workload end to end, or traced per layer.

    python3 perfbench/run.py --workload cooling-st --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

``--trace 0`` runs full designs back to back until ``--seconds`` have
passed, at least one, and gates every design against its reference values.
Before each design and after the last it times single set-ups for half a
second; ``setup_s`` is the fastest of them.  It prints the end-to-end
metrics.

``--trace 1`` ignores ``--seconds``.  It runs one design with every layer
function wrapped (see tracing.py), then the same design untraced, whose
difference is ``trace.overhead_s``.  It then repeats the traced design in a
child process with BLAS pinned to one thread, reported with the suffix
``.blas1``.  It prints the per-layer metrics.

``--workload all`` runs every workload in its own child process, so peak
memory is still per workload, and prints every metric of each.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (designs run), ``failed`` (designs that raised or
failed the gate) and ``metrics`` ({name: {"value", "unit"}}).  Machine
metadata, per-design records and spans are written under ``.perfbench/``
at the root of the checkout.  The package is imported from ``src/``; without
it the benchmark exits with status 2 and prints no result.
"""

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

SETUP_POINT_S = 0.5  # set-ups are timed for this long before each design and after the last
SETUP_POINT_MIN = 3  # and at least this many times
CHILD_TIMEOUT_S = 150
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "time_to_design_s": "s",
    "iteration_s.p50": "s",
    "iteration_s.p90": "s",
    "setup_s": "s",
    "iterations": "count",
    "peak_rss_mb": "MB",
}

# per-layer metrics of one traced design; each is reported again with .blas1
LAYER_METRICS = {
    "assembly.Discretization.calls": "count",
    "assembly.Discretization.busy_s": "s",
    "assembly.assemble_global.calls": "count",
    "assembly.assemble_global.busy_s": "s",
    "assembly.assemble_global.self_s": "s",
    "blocksolve.factor.calls": "count",
    "blocksolve.factor.busy_s": "s",
    "blocksolve.factor.gflops": "GFLOP/s",
    "blocksolve.factor_T.calls": "count",
    "blocksolve.factor_T.busy_s": "s",
    "blocksolve.factor_T.gflops": "GFLOP/s",
    "blocksolve.solve.calls": "count",
    "blocksolve.solve.busy_s": "s",
    "blocksolve.factors_per_iteration": "count",
    "blocksolve.gflop_per_factor": "GFLOP",
    "blocksolve.mbytes_per_factor": "MB",
    "blocksolve.flop_per_byte": "flop/B",
    "adjoint.solve_adjoint.calls": "count",
    "adjoint.solve_adjoint.busy_s": "s",
    "adjoint.solve_adjoint.self_s": "s",
    "adjoint.sensitivities.busy_s": "s",
    "adjoint.objective.busy_s": "s",
    "adjoint.forward_residual_rel.max": "ratio",
    "adjoint.adjoint_residual_rel.max": "ratio",
    "mma.mma_update.calls": "count",
    "mma.mma_update.busy_s": "s",
    "mma.scalar_minimize.calls": "count",
    "mma.scalar_minimize.self_s": "s",
    "baselines.fe_assemble.busy_s": "s",
    "baselines.be_march.busy_s": "s",
    "baselines.be_aao_solve.busy_s": "s",
    "baselines.be_objective.busy_s": "s",
    "baselines.be_adjoint_and_sensitivity.busy_s": "s",
    "optimize.run_topology_optimization.self_s": "s",
    "baselines.run_topology_optimization_be.self_s": "s",
    "trace.design_s": "s",
}
OVERHEAD = {"trace.overhead_s": "s"}  # measured in the parent process only
PER_LAYER = {
    **LAYER_METRICS,
    **OVERHEAD,
    **{f"{name}.blas1": unit for name, unit in LAYER_METRICS.items()},
}


@dataclass
class Design:
    """One full design: wall time, outcome, and gate violations."""

    wall: float
    outcome: object  # workloads.Outcome, None if the design raised
    violations: list

    @property
    def failed(self):
        return bool(self.violations)

    def record(self):
        out = self.outcome
        return {
            "wall_s": self.wall,
            "iterations": None if out is None else out.iterations,
            "objective": None if out is None else out.objective,
            "violations": self.violations,
        }


def run_design(workload, problem):
    from workloads import check

    t0 = time.perf_counter()
    try:
        outcome = workload.design(problem)
    except Exception as exc:  # a design that raises is a failed run, not a crash
        return Design(time.perf_counter() - t0, None, [f"{type(exc).__name__}: {exc}"])
    wall = time.perf_counter() - t0
    return Design(wall, outcome, check(outcome, problem, workload.reference))


def setup_samples(workload):
    """Times of single set-ups, repeated for SETUP_POINT_S and at least SETUP_POINT_MIN times."""
    samples = []
    start = time.perf_counter()
    while len(samples) < SETUP_POINT_MIN or time.perf_counter() - start < SETUP_POINT_S:
        t0 = time.perf_counter()
        workload.setup()
        samples.append(time.perf_counter() - t0)
    return samples


def measure(workload, seed, seconds):
    """Untraced run: designs until `seconds` have passed, set-ups timed between them.

    The set-up is pure-Python and numpy work of a few milliseconds.  On a
    shared host it runs at two speeds, up to 2x apart, in stretches that last
    seconds, so the median of a run's set-ups depends on which stretch the run
    fell into.  Set-ups are therefore timed at several points spread over the
    run, and setup_s is the fastest: the cost of the work itself.
    """
    from workloads import build

    problem = build(workload, seed)  # also warms the set-up before it is timed
    setup_s, designs = [], []
    t0 = time.perf_counter()
    while not designs or time.perf_counter() - t0 < seconds:
        setup_s += setup_samples(workload)
        designs.append(run_design(workload, problem))
    setup_s += setup_samples(workload)
    done = [d for d in designs if d.outcome is not None]
    if not done:
        return designs, None
    samples = [t for d in done for t in d.outcome.iteration_s]
    values = {
        "time_to_design_s": statistics.median(d.wall for d in done),
        "iteration_s.p50": float(np.percentile(samples, 50)),
        "iteration_s.p90": float(np.percentile(samples, 90)),
        "setup_s": min(setup_s),
        "iterations": statistics.median(d.outcome.iterations for d in done),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "designs": len(done),
        **tail_percentile("time_to_design_s", [d.wall for d in done]),
        "setup_samples": len(setup_s),
        "setup_s.median": statistics.median(setup_s),
        "iteration_samples": len(samples),
        **tail_percentile("iteration_s", samples),
    }
    return designs, (values, notes)


def tail_percentile(name, samples):
    """The highest percentile with at least ten samples beyond it, with its value.

    With ten samples or fewer no percentile qualifies, and the maximum is
    given instead; a 20-second run holds only 2 to 4 designs.
    """
    if len(samples) <= 10:
        return {f"{name}.max": max(samples)}
    rank = math.floor(100 * (len(samples) - 10) / len(samples))
    return {f"{name}.p{rank}": float(np.percentile(samples, rank))}


def layer_values(tracer, design):
    """Per-layer metrics of one traced design, from its spans and counters."""
    summary = tracer.summary()
    factor_calls = summary["blocksolve.factor"]["calls"] + summary["blocksolve.factor_T"]["calls"]
    flop = tracer.counters["blocksolve.factor.flop"] + tracer.counters["blocksolve.factor_T.flop"]
    moved = tracer.counters["blocksolve.factor.bytes"] + tracer.counters["blocksolve.factor_T.bytes"]
    iterations = 0 if design.outcome is None else design.outcome.iterations
    special = {
        "blocksolve.factors_per_iteration": factor_calls / iterations if iterations else 0.0,
        "blocksolve.gflop_per_factor": flop / factor_calls / 1e9 if factor_calls else 0.0,
        "blocksolve.mbytes_per_factor": moved / factor_calls / 1e6 if factor_calls else 0.0,
        "blocksolve.flop_per_byte": flop / moved if moved else 0.0,
        "adjoint.forward_residual_rel.max": tracer.maxima["adjoint.forward_residual_rel"],
        "adjoint.adjoint_residual_rel.max": tracer.maxima["adjoint.adjoint_residual_rel"],
        "trace.design_s": design.wall,
    }
    values = {}
    for name in LAYER_METRICS:
        if name in special:
            values[name] = special[name]
            continue
        span, stat = name.rsplit(".", 1)
        if stat == "gflops":
            busy = summary[span]["busy_s"]
            values[name] = tracer.counters[span + ".flop"] / busy / 1e9 if busy else 0.0
        else:
            values[name] = summary[span][stat]
    return values


def trace_run(workload, seed, tag, with_overhead):
    """One traced design; optionally the untraced twin for the overhead."""
    from tracing import Tracer
    from workloads import build

    tracer = Tracer()
    with tracer.installed():
        problem = build(workload, seed)
        tracer.run = 1
        traced = run_design(workload, problem)
    designs = [traced]
    values = layer_values(tracer, traced)
    if with_overhead:
        plain = run_design(workload, problem)
        designs.append(plain)
        values["trace.overhead_s"] = traced.wall - plain.wall
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"{workload.name}-s{seed}-spans{tag}.jsonl")
    return designs, values


def run_child(args, extra_env=None, timeout=CHILD_TIMEOUT_S):
    """Run this script again in a fresh process and parse its result line."""
    cmd = [sys.executable, str(Path(__file__).resolve())] + args
    env = {**os.environ, **(extra_env or {})}
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def openblas_threads():
    """Threads and core type of each OpenBLAS the process has loaded (Linux only)."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return {}
    found = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        info = {}
        for suffix in ("64_", ""):
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            get_core = getattr(lib, f"scipy_openblas_get_corename{suffix}", None)
            if get_threads is not None:
                get_threads.restype = ctypes.c_int
                info["threads"] = get_threads()
            if get_core is not None:
                get_core.restype = ctypes.c_char_p
                info["core"] = get_core().decode()
            if info:
                break
        found[Path(path).name] = info
    return found


def metadata():
    import scipy

    blas = {}
    for mod in (np, scipy):
        try:
            cfg = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas[mod.__name__] = f"{cfg.get('name')} {cfg.get('version')}"
        except (TypeError, KeyError):
            blas[mod.__name__] = "unknown"
    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read_lines("/proc/cpuinfo") if line.startswith("model name")),
        platform.processor(),
    )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": openblas_threads(),
        "blas_env": {k: os.environ.get(k) for k in ONE_THREAD},
        "cpu": cpu,
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
    }


def _read_lines(path):
    try:
        with open(path) as f:
            return f.readlines()
    except OSError:
        return []


def emit(designs, values, units, notes, meta, path, child=None):
    """Print the metrics and the result line; keep the full record under .perfbench/."""
    attempted = len(designs) + (child["attempted"] if child else 0)
    failed = sum(d.failed for d in designs) + (child["failed"] if child else 0)
    for d in designs:
        for v in d.violations:
            print(f"FAILED: {v}")
    for name, value in notes.items():
        print(f"# {name} = {value}")
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    print(f"failed_fraction = {failed / attempted:.6g} ({failed} of {attempted} designs)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(path, "w") as out:
        json.dump({**result, "meta": meta, "notes": notes, "designs": [d.record() for d in designs]}, out, indent=1)
    print(json.dumps(result))


def run_all(args):
    """Every workload in its own child process, one after the other."""
    from workloads import make_workloads

    attempted = failed = 0
    metrics = {}
    for name in make_workloads():
        child_args = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                      "--trace", str(args.trace)]
        lines, result = run_child(child_args, timeout=900)
        print(f"## {name}")
        print("\n".join(lines))
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas1", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # benchmark the checkout's own sources, never an installed copy
    source = ROOT / "src"
    if not (source / "stheat" / "__init__.py").is_file():
        print(f"perfbench: no stheat package under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    from workloads import make_workloads

    if args.workload == "all":
        return run_all(args)
    workloads = make_workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads)} or all")
    workload = workloads[args.workload]
    meta = metadata()
    stem = OUT / f"{workload.name}-s{args.seed}-t{args.trace}"

    if args.trace == 0:
        designs, measured = measure(workload, args.seed, args.seconds)
        if measured is None:
            for d in designs:
                print(f"FAILED: {d.violations}", file=sys.stderr)
            return 1
        values, notes = measured
        emit(designs, values, END_TO_END, {**notes, "blas": meta["blas"], "blas_threads": meta["blas_threads"]},
             meta, stem.with_suffix(".json"))
        return 0

    if args.blas1:
        designs, values = trace_run(workload, args.seed, ".blas1", with_overhead=False)
        emit(designs, values, LAYER_METRICS, {"blas_threads": meta["blas_threads"]}, meta,
             stem.with_name(stem.name + ".blas1.json"))
        return 0

    designs, values = trace_run(workload, args.seed, "", with_overhead=True)
    child_args = ["--workload", workload.name, "--seed", str(args.seed), "--trace", "1", "--blas1"]
    lines, child = run_child(child_args, extra_env=ONE_THREAD)
    for line in lines:
        if line.startswith("FAILED"):
            print(f"{line} (blas1)")
    values.update({f"{k}.blas1": v["value"] for k, v in child["metrics"].items()})
    emit(designs, values, PER_LAYER, {"blas": meta["blas"], "blas_threads": meta["blas_threads"]}, meta,
         stem.with_suffix(".json"), child=child)
    return 0


if __name__ == "__main__":
    sys.exit(main())
