"""Smoke test of the benchmark harness on tiny versions of its workloads.

    python3 -m pytest perfbench/test_harness.py -q

Checks that every metric declared in BENCHMARK.json is emitted with its
unit, that the traced run sees the layers each workload should (and only
those), and that a corrupted reference value trips the correctness gate.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from stheat import presets  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name):
    return {
        "cooling-st": lambda: wl.SpaceTimeDesign(
            "cooling-st", lambda: presets.cooling_benchmark(n_elements=6), 1e-4, None
        ),
        "two-design-st": lambda: wl.SpaceTimeDesign(
            "two-design-st", lambda: presets.two_design_benchmark(nx=6, nt=6), 1e-8, None
        ),
        "two-design-bracket": lambda: wl.TwoDesignBracket(nx=6, nt=6, reference=None),
        "cooling-be": lambda: wl.CoolingBackwardEuler(n_elements=6, n_steps=64, reference=None),
    }[name]()


@pytest.fixture(params=["cooling-st", "two-design-st", "two-design-bracket", "cooling-be"])
def workload(request):
    """A tiny workload whose reference is its own seed-0 result."""
    w = tiny(request.param)
    problem = wl.build(w, 0)
    out = w.design(problem)
    w.reference = wl.Reference(out.objective, 1e-8, out.rho, 1e-6)
    return w


def declared(section):
    return {m["name"]: m["unit"] for m in DECLARED[section]}


def test_declared_workloads_match_the_harness():
    assert [w["name"] for w in DECLARED["workloads"]] == list(wl.make_workloads())
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == run.PER_LAYER


def test_untraced_run_emits_every_end_to_end_metric(workload):
    designs, (values, _) = run.measure(workload, seed=0, seconds=0.0)
    assert [d.violations for d in designs] == [[]]
    assert set(values) == set(declared("end_to_end"))
    assert all(np.isfinite(v) and v > 0 for v in values.values())


def test_traced_run_emits_every_layer_metric(workload):
    designs, values = run.trace_run(workload, 0, ".smoke", with_overhead=True)
    assert all(not d.violations for d in designs)
    assert set(values) == set(run.LAYER_METRICS) | set(run.OVERHEAD)
    iterations = designs[0].outcome.iterations
    if workload.name == "two-design-bracket":
        assert values["mma.scalar_minimize.calls"] == 1
        assert values["blocksolve.factors_per_iteration"] == 1
        assert values["adjoint.solve_adjoint.calls"] == 0
        assert values["mma.mma_update.calls"] == 0
    elif workload.name == "cooling-be":
        assert values["baselines.be_march.busy_s"] > 0 and values["baselines.be_aao_solve.busy_s"] > 0
        assert values["assembly.assemble_global.calls"] == 0
        assert values["blocksolve.factor.calls"] == 0
    else:
        assert values["adjoint.solve_adjoint.calls"] == iterations
        assert values["blocksolve.factor_T.calls"] == iterations
        assert values["blocksolve.factor.calls"] == iterations + 1  # plus the final re-evaluation
        assert 0 < values["adjoint.adjoint_residual_rel.max"] < 1e-3
        assert values["blocksolve.factor_T.gflops"] > 0


def test_tail_percentile_has_ten_samples_beyond_it():
    assert run.tail_percentile("x", [3.0, 1.0, 2.0]) == {"x.max": 3.0}
    samples = [float(i) for i in range(100)]
    assert run.tail_percentile("x", samples) == {"x.p90": pytest.approx(89.1)}
    assert sum(v > 89.1 for v in samples) == 10


@pytest.mark.parametrize("field", ["objective", "rho"])
def test_corrupted_reference_trips_the_gate(workload, field):
    ref = workload.reference
    workload.reference = dataclasses.replace(ref, **{field: getattr(ref, field) * (1 + 1e-6) + 1e-5})
    problem = wl.build(workload, 0)
    assert run.run_design(workload, problem).failed


def test_seeded_start_stays_on_the_volume_bound():
    volumes = np.full(50, 0.02)
    base = wl.seeded_start(volumes, 0.5, 0)
    jittered = wl.seeded_start(volumes, 0.5, 3)
    assert np.all(base == 0.5)
    assert 0 < np.max(np.abs(jittered - base)) <= wl.START_JITTER
    assert volumes @ jittered == pytest.approx(0.5, rel=1e-14)
    assert np.array_equal(jittered, wl.seeded_start(volumes, 0.5, 3))


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    cmd = DECLARED["command"] + ["--workload", "cooling-st", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
