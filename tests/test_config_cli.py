import json
import os
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from stheat.assembly import Discretization
from stheat.baselines import run_topology_optimization_be
from stheat.cli import _optimize_once, compare, declared_convergence_level, main
from stheat.config import RunConfig, parse_config, problem_from_config
from stheat.errors import ConfigError
from stheat.optimize import run_topology_optimization
from stheat.presets import cooling_benchmark

ROOT = Path(__file__).resolve().parent.parent


def test_default_config_is_cooling_benchmark():
    cfg = parse_config()
    assert cfg.preset == "cooling"
    assert cfg.elements == 50
    assert cfg.nx == 5
    assert cfg.penalization == 3.0
    assert cfg.volume_bound == 0.5
    assert cfg.tol_design == 1e-4
    spec, vstar = problem_from_config(cfg)
    assert spec.n_elements == 50
    assert spec.bc_left == "neumann" and spec.bc_right == "dirichlet"
    assert vstar == 0.5
    # displayed-equation source: constant part is 10
    assert spec.f(np.array([0.0]), np.array([0.0]))[0] == pytest.approx(10.0)


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "[problem]\nelements = 10\nnx = 4\nnt = 7\n"
        "[sat]\nsigma_0 = 1.0\ns = 0.25\nsafety = 2.0\n"
        "[optimizer]\ntol_design = 1e-5\n"
        "[run]\nnt_steps_sweep = 8 16 32\nseed = 4\n"
    )
    cfg = parse_config(str(path))
    assert cfg.elements == 10 and cfg.nx == 4 and cfg.nt == 7
    assert cfg.tol_design == 1e-5
    assert cfg.nt_steps_sweep == (8, 16, 32)
    assert cfg.seed == 4
    assert cfg.sat_s == 0.25 and cfg.sat_safety == 2.0


def test_unknown_key_fails_fast(tmp_path):
    path = tmp_path / "bad.cfg"
    # the stop rule is design change only, so there is no objective tolerance
    for text, key in (("[problem]\nelemnts = 10\n", "problem.elemnts"),
                      ("[optimizer]\ntol_objective = 1e-8\n", "optimizer.tol_objective")):
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"unknown key {key}"):
            parse_config(str(path))


def test_unknown_section_fails(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[quantum]\nflux = 1\n")
    with pytest.raises(ConfigError, match="quantum"):
        parse_config(str(path))


def test_negative_horizon_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[problem]\nhorizon = -2.0\n")
    with pytest.raises(ConfigError, match="horizon"):
        parse_config(str(path))


def test_horizon_reaches_cooling_preset(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[problem]\nhorizon = 3\n")
    spec, _ = problem_from_config(parse_config(str(path)))
    assert spec.horizon == 3.0
    assert problem_from_config(parse_config())[0].horizon == 1.0


@pytest.mark.parametrize("key", ["elements", "kappa_min_ratio", "penalization", "source_offset"])
def test_cooling_keys_rejected_for_two_design(tmp_path, key):
    path = tmp_path / "bad.cfg"
    path.write_text(f"[problem]\npreset = two-design\n{key} = 2\n")
    with pytest.raises(ConfigError, match=f"problem.{key}"):
        parse_config(str(path))


@pytest.mark.parametrize(
    "solvers, text, key",
    [("be-fe", "[problem]\nnx = 9\n", "problem.nx"),
     ("be-fe", "[sat]\ns = 2.0\n", "sat.s"),
     ("be-fe", "[problem]\nnt = 7\n", "problem.nt")],
    ids=["be-fe-nx", "be-fe-sat-s", "be-fe-nt"],
)
def test_space_time_keys_rejected_without_st_se(tmp_path, solvers, text, key):
    path = tmp_path / "bad.cfg"
    path.write_text(f"{text}[run]\nsolvers = {solvers}\n")
    with pytest.raises(ConfigError, match=key):
        parse_config(str(path))


def test_space_time_keys_accepted_with_st_se_or_as_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[problem]\nnx = 9\n[sat]\ns = 2.0\n[run]\nsolvers = be-fe st-se\n")
    cfg = parse_config(str(path))
    assert cfg.nx == 9 and cfg.sat_s == 2.0
    # only keys read from the file are held to the configured solvers
    cfg = parse_config(overrides={"solvers": ("be-fe",), "nx": 9, "nt": 7, "sat_s": 2.0})
    assert cfg.nx == 9 and cfg.nt == 7 and cfg.sat_s == 2.0


@pytest.mark.parametrize(
    "text, key",
    [("[problem]\nnx = 9\n", "problem.nx"), ("[sat]\nsafety = 2.0\n", "sat.safety")],
    ids=["problem-nx", "sat-safety"],
)
def test_cli_optimize_rejects_space_time_keys_its_solver_ignores(tmp_path, capsys, text, key):
    # optimize runs only solvers[0]; a later st-se does not make be-fe read the key
    path = tmp_path / "run.cfg"
    path.write_text(f"{text}[optimizer]\nmax_iters = 1\n"
                    "[run]\nsolvers = be-fe st-se\nnt_steps_sweep = 8\n")
    assert main(["optimize", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # compare runs st-se as well, so the file itself stays valid
    assert parse_config(str(path)).solvers == ("be-fe", "st-se")


@pytest.mark.parametrize(
    "key, value",
    [("nt_steps_sweep", "0 8"), ("nt_steps_sweep", "8 -4"), ("nt_nodes_sweep", "0 3"),
     ("converge_n", "4 -2"),
     # a repeated entry would run one cell twice and list it twice
     ("solvers", "be-fe be-fe"), ("nt_steps_sweep", "4 8 8"), ("nt_nodes_sweep", "3 4 3"),
     ("converge_n", "4 6 4")],
)
def test_cli_rejects_nonpositive_sweep_entries(tmp_path, capsys, key, value):
    path = tmp_path / "run.cfg"
    path.write_text("[problem]\nelements = 4\n[optimizer]\nmax_iters = 1\n"
                    f"[run]\nrepeats = 1\n{key} = {value}\n")
    command = "converge" if key == "converge_n" else "compare"
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"run.{key}" in capsys.readouterr().err


def test_optimize_once_takes_zero_steps_literally():
    # 0 steps is an error of the caller, which the backward-Euler loop refuses
    cfg = parse_config(overrides={"solvers": ("be-fe",), "elements": 4, "max_iters": 1})
    with pytest.raises(ValueError, match="at least one time step"):
        _optimize_once(cfg, "be-fe", n_steps=0)


def test_type_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[problem]\nelements = many\n")
    with pytest.raises(ConfigError, match="problem.elements"):
        parse_config(str(path))


def test_missing_file_rejected():
    with pytest.raises(ConfigError, match="not found"):
        parse_config("/nonexistent/run.cfg")


def test_declared_convergence_rule():
    levels = [8, 16, 32, 64]
    changes = [None, 2e-4, 5e-5, 3e-5]
    assert declared_convergence_level(levels, changes, 1e-4) == 64
    assert declared_convergence_level(levels, [None, 1e-3, 2e-4, 1.5e-4], 1e-4) is None


def test_cli_verify_passes(tmp_path):
    code = main(["verify", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "verify.csv").exists()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["passed"] is True
    assert np.isfinite(summary["condition_estimate_two_design_n20"])


def test_cli_optimize_writes_design(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(
        "[problem]\nelements = 10\nnx = 3\nnt = 5\n"
        "[optimizer]\ntol_design = 1e-3\nmax_iters = 40\n"
    )
    code = main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    design = (tmp_path / "out" / "design.csv").read_text().splitlines()
    assert design[0] == "element,x_left,x_right,rho"
    assert len(design) == 11
    trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert trace[0] == ("iter,J,delta_rho_inf,J_rel,wall_s,forward_s,gradient_s,update_s,"
                        "mu,volume_slack")
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    vol = summary["volume"]
    assert vol <= summary["volume_bound"] + 1e-9
    assert summary["converged"] is True
    assert summary["ignored_keys"] == []  # it reads every key the file sets
    # the last update's slack is that of the design written out
    assert float(trace[-1].split(",")[9]) == summary["volume_bound"] - vol


def test_cli_optimize_trace_times_each_part(tmp_path):
    # the backward-Euler solver writes the same trace: the old columns, then
    # the iteration's forward, gradient and update times inside its wall time,
    # then the update's volume multiplier and the volume it leaves unused
    cfg = tmp_path / "be.cfg"
    cfg.write_text(
        "[problem]\nelements = 6\n[optimizer]\nmax_iters = 3\n"
        "[run]\nsolvers = be-fe\nnt_steps_sweep = 64\n"
    )
    main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out")])
    header, *rows = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert header == ("iter,J,delta_rho_inf,J_rel,wall_s,forward_s,gradient_s,update_s,"
                      "mu,volume_slack")
    assert len(rows) == 3
    for row in rows:
        wall, *parts = (float(v) for v in row.split(",")[4:8])
        assert min(parts) >= 0 and sum(parts) <= wall + 2e-4  # each rounded to 1e-4 s
    # every update adds material up to the bound: a positive multiplier and a
    # feasible design at the bound to roundoff
    mu, slack = (np.array([float(row.split(",")[k]) for row in rows]) for k in (8, 9))
    assert np.all(mu > 0) and np.all((slack >= 0) & (slack <= 1e-12))
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert slack[-1] == summary["volume_bound"] - summary["volume"]


@pytest.mark.parametrize("key, value", [("s", 0.25), ("safety", 2.0), ("sigma_0", 2.0)])
def test_cli_optimize_sat_keys_reach_the_discretization(tmp_path, key, value):
    # each [sat] key moves st-se's final J, exactly as the Discretization
    # argument it names does
    base = "[problem]\nelements = 4\nnx = 3\nnt = 4\n[optimizer]\nmax_iters = 3\n"
    final_j = []
    for name, text in (("default", base), (key, f"{base}[sat]\n{key} = {value}\n")):
        path = tmp_path / f"{name}.cfg"
        path.write_text(text)
        main(["optimize", "--config", str(path), "--out", str(tmp_path / name)])
        final_j.append(json.loads((tmp_path / name / "summary.json").read_text())["final_objective"])
    spec, vstar = problem_from_config(parse_config(overrides={"elements": 4, "nx": 3, "nt": 4}))
    direct = run_topology_optimization(
        spec, vstar, tol_design=1e-4, max_iters=3, disc=Discretization(spec, **{key: value}))
    assert final_j[1] != final_j[0]
    assert final_j[1] == direct.final_objective


def capped_config(tmp_path, run_section=""):
    """A small problem whose optimizer stops at max_iters = 1."""
    cfg = tmp_path / "capped.cfg"
    cfg.write_text(
        "[problem]\nelements = 10\nnx = 3\nnt = 5\n"
        "[optimizer]\ntol_design = 1e-3\nmax_iters = 1\n" + run_section
    )
    return cfg


def test_cli_optimize_capped_run_exits_nonzero(tmp_path):
    cfg = capped_config(tmp_path)
    code = main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["converged"] is False
    assert summary["stop_reason"] == "max_iterations"
    assert summary["iterations"] == 1
    design = (tmp_path / "out" / "design.csv").read_text().splitlines()
    assert len(design) == 11
    trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert len(trace) == 2


def test_cli_compare_capped_cells_exit_nonzero(tmp_path):
    sweep = "[run]\nnt_nodes_sweep = 3 4\nnt_steps_sweep = 4 8\nrepeats = 1\n"
    cfg = capped_config(tmp_path, sweep)
    code = main(["compare", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert set(summary["solvers"]) == {"st-se", "be-fe"}
    for cells in summary["solvers"].values():
        assert cells["converged"] == [False, False]
        assert cells["iterations"] == [1, 1]
    table = (tmp_path / "out" / "compare.csv").read_text().splitlines()
    assert len(table) == 5


def test_cli_compare_small_table_deterministic(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(
        "[problem]\nelements = 8\nnx = 2\nnt = 3\n"
        "[optimizer]\ntol_design = 1e-3\nmax_iters = 30\n"
        "[run]\nnt_nodes_sweep = 3 4\nnt_steps_sweep = 4 8\nrepeats = 1\n"
    )
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["compare", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["compare", "--config", str(cfg), "--out", str(out2)]) == 0

    def strip_wall(text):
        rows = [line.split(",") for line in text.splitlines()]
        return [row[:3] + row[4:] for row in rows]

    t1 = (out1 / "compare.csv").read_text()
    assert t1.splitlines()[0] == "solver,Nt,dof,wall_s,delta_rho_inf,J"
    assert strip_wall(t1) == strip_wall((out2 / "compare.csv").read_text())
    summary = json.loads((out1 / "summary.json").read_text())
    assert set(summary["solvers"]) == {"st-se", "be-fe"}
    # be-fe also reports the size of the all-at-once system it eliminates
    # level by level: (n_el + 1)(N + 1) unknowns per step count N
    assert summary["solvers"]["be-fe"]["aao_unknowns"] == [9 * 5, 9 * 9]
    assert "aao_unknowns" not in summary["solvers"]["st-se"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_compare_cells_are_the_direct_runs_and_leave_the_config(jobs):
    # acceptance criteria 7 and 8 read compare's cells as these direct runs
    cfg = parse_config(overrides={
        "elements": 6, "nx": 2, "nt": 5, "tol_design": 1e-3, "max_iters": 60,
        "nt_nodes_sweep": (4, 3), "nt_steps_sweep": (4, 8), "repeats": 1, "jobs": jobs,
    })
    before = asdict(cfg)
    cells, _, converged = compare(cfg)
    assert asdict(cfg) == before and converged
    assert [(c["solver"], c["level"]) for c in cells] == [
        ("st-se", 3), ("st-se", 4), ("be-fe", 4), ("be-fe", 8)]
    for c in cells:
        if c["solver"] == "st-se":
            spec, vstar = cooling_benchmark(nx=2, nt=c["level"], n_elements=6)
            trace = run_topology_optimization(spec, vstar, tol_design=1e-3, max_iters=60)
        else:
            spec, vstar = cooling_benchmark(n_elements=6)
            trace = run_topology_optimization_be(spec, vstar, c["level"], tol_design=1e-3,
                                                 max_iters=60)
        assert (c["J"], c["rho"]) == (trace.final_objective, trace.final_rho.tolist())


def test_cli_compare_parallel_matches_serial(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(
        "[problem]\nelements = 6\n"
        "[optimizer]\ntol_design = 1e-3\nmax_iters = 20\n"
        "[run]\nnt_nodes_sweep = 3\nnt_steps_sweep = 4 8\nrepeats = 1\n"
        "solvers = be-fe\n"
    )
    serial, parallel = tmp_path / "s", tmp_path / "p"
    assert main(["compare", "--config", str(cfg), "--out", str(serial)]) == 0
    assert main(["compare", "--config", str(cfg), "--jobs", "2", "--out", str(parallel)]) == 0

    def strip_wall(text):
        return [r.split(",")[:3] + r.split(",")[4:] for r in text.splitlines()]

    assert strip_wall((serial / "compare.csv").read_text()) == strip_wall(
        (parallel / "compare.csv").read_text()
    )


def test_cli_converge_small(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[run]\nconverge_n = 4 6 8 10\n")
    code = main(["converge", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    table = (tmp_path / "out" / "converge.csv").read_text().splitlines()
    assert table[0] == "N,l2_error,j_error"
    assert len(table) == 5


@pytest.mark.parametrize(
    "text, key",
    [("[problem]\nhorizon = -1\n", "horizon"),
     # below 1 the boundary penalties undercut the stability bound
     ("[sat]\nsafety = 0.5\n", "sat.safety"),
     # the energy estimate divides by 2 sigma_0 - 1
     ("[sat]\nsigma_0 = 0.2\n", "sat.sigma_0"),
     ("[sat]\nsigma_0 = 0.5\n", "sat.sigma_0"),
     # the power law kappa(rho) = k_min + (k_max - k_min) rho^p needs p >= 1
     ("[problem]\npenalization = 0.5\n", "problem.penalization"),
     ("[problem]\nnx = 4\n[problem]\nnt = 5\n", "bad.cfg: malformed config file"),
     ("[problem]\nnx = 4\nnx = 5\n", "bad.cfg: malformed config file"),
     ("nx = 4\n", "bad.cfg: malformed config file")],
    ids=["horizon", "sat-safety", "sat-sigma_0", "sat-sigma_0-half", "penalization",
         "repeated-section", "repeated-key", "no-section-header"],
)
def test_cli_bad_config_exit_code(tmp_path, capsys, text, key):
    # optimize reads every key here, so only RunConfig.validate or, for the
    # malformed files, the INI parser can refuse them
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_typed_numerical_error_is_one_line_and_exit_3(tmp_path, capsys):
    # 1001 time nodes exceed the operator cap before anything is allocated
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[problem]\nnt = 1000\n")
    assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ResourceLimitError: 1001 nodes") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("solver, sweep", [("st-se", ""), ("be-fe", "nt_steps_sweep = 16\n")],
                         ids=["st-se", "be-fe"])
def test_cli_non_finite_objective_is_one_line_and_exit_3(tmp_path, capsys, solver, sweep):
    # a source of 1e300 overflows J in the first forward solve: refused there,
    # before any gradient, and without a RuntimeWarning on the way (pyproject
    # turns every warning into an error)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[problem]\nsource_offset = 1e300\n[run]\nsolvers = {solver}\n{sweep}")
    assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err == "NumericalError: iteration 1: the objective J = inf is not finite\n"


def test_cli_run_above_the_size_cap_is_exit_3(tmp_path, capsys):
    # 10^9 elements are refused before their edges or operators are built
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[problem]\nelements = 1000000000\n")
    assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ResourceLimitError: 1000000000 elements of 6 x 16 nodes")
    assert err.count("\n") == 1


def test_cli_march_above_the_history_cap_is_exit_3(tmp_path, capsys):
    # 10^12 steps on 51 nodes are refused before their arrays are allocated
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nsolvers = be-fe\nnt_steps_sweep = 1000000000000\n")
    assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ResourceLimitError: 1000000000000 steps on 51 nodes")
    assert err.count("\n") == 1


@pytest.mark.parametrize("elements, sweep, message", [
    (1000000000, "", "16384 steps on 1000000001 nodes"),
    (5000000, "nt_steps_sweep = 1\n", "5000000 elements: 25000010000001 values per mass"),
], ids=["history", "matrix"])
def test_cli_be_fe_above_the_size_cap_is_exit_3(tmp_path, capsys, elements, sweep, message):
    # refused before the element edges or the dense FE matrices are built
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[problem]\nelements = {elements}\n[run]\nsolvers = be-fe\n{sweep}")
    assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"ResourceLimitError: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("s, message", [
    # M stays finite (its largest entry is 6.0e300); the band solve overflows
    ("1e300", "NumericalError: the forward solve is not finite at time mode 3\n"),
    # M holds inf: refused before any LU
    ("1e308", "NumericalError: the spatial operator M has non-finite entries\n"),
])
def test_cli_huge_interface_penalty_is_one_line_and_exit_3(tmp_path, capsys, s, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[problem]\nelements = 4\nnx = 3\nnt = 3\n[sat]\ns = {s}\n")
    assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == message


def test_cli_import_leaves_scipy_special_out():
    code = "import sys, stheat.cli; print('scipy.special' in sys.modules)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "key",
    [f.metadata["path"] for f in fields(RunConfig) if f.metadata["kind"] is float],
)
def test_cli_rejects_non_finite_floats(tmp_path, capsys, key, value):
    section, name = key.split(".")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[{section}]\n{name} = {value}\n")
    assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"{key}: must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, text, key",
    [("verify", "[problem]\nnx = 9\n", "problem.nx"),
     ("verify", "[sat]\ns = 2.0\n", "sat.s"),
     ("verify", "[run]\nconverge_n = 4 6\n", "run.converge_n"),
     ("converge", "[problem]\nelements = 4\n[run]\nconverge_n = 4 6\n", "problem.elements"),
     ("converge", "[run]\nseed = 3\n", "run.seed")],
    ids=["verify-nx", "verify-sat-s", "verify-converge_n", "converge-elements", "converge-seed"],
)
def test_cli_verify_and_converge_reject_keys_they_do_not_read(tmp_path, capsys, command, text, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"{key}: not used by {command}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_compare_two_design_dof(tmp_path):
    # the two-design preset has 2 elements whatever `elements` defaults to
    nx, levels = 2, (3, 4)
    cfg = tmp_path / "two.cfg"
    cfg.write_text(
        f"[problem]\npreset = two-design\nnx = {nx}\nnt = 3\n"
        "[optimizer]\ntol_design = 1e-3\nmax_iters = 20\n"
        "[run]\nsolvers = st-se\nnt_nodes_sweep = 3 4\nrepeats = 1\n"
    )
    main(["compare", "--config", str(cfg), "--out", str(tmp_path / "out")])
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["solvers"]["st-se"]["dof"] == [2 * (nx + 1) * (level + 1) for level in levels]


def test_cli_compare_names_keys_each_solver_ignored(tmp_path):
    cfg = tmp_path / "mixed.cfg"
    cfg.write_text(
        "[problem]\nelements = 4\nnx = 2\nnt = 3\n[sat]\nsafety = 2.0\n"
        "[optimizer]\nmax_iters = 1\n"
        "[run]\nsolvers = st-se be-fe\nnt_nodes_sweep = 3\nnt_steps_sweep = 4\nrepeats = 1\n"
        "seed = 3\nconverge_n = 4 6\n"
    )
    main(["compare", "--config", str(cfg), "--out", str(tmp_path / "out")])
    solvers = json.loads((tmp_path / "out" / "summary.json").read_text())["solvers"]
    # st-se sweeps nt itself; the backward-Euler cells read no space-time
    # key; the seed is verify's and converge_n converge's
    assert solvers["st-se"]["ignored_keys"] == [
        "problem.nt", "run.converge_n", "run.nt_steps_sweep", "run.seed"
    ]
    assert solvers["be-fe"]["ignored_keys"] == [
        "problem.nt", "problem.nx", "run.converge_n", "run.nt_nodes_sweep", "run.seed",
        "sat.safety"
    ]


@pytest.mark.parametrize(
    "solvers, space_time, ignored",
    [("st-se be-fe", "nx = 2\nnt = 3\n",
      ["run.converge_n", "run.jobs", "run.nt_nodes_sweep", "run.nt_steps_sweep", "run.repeats",
       "run.seed"]),
     ("be-fe st-se", "",
      ["run.converge_n", "run.jobs", "run.nt_nodes_sweep", "run.repeats", "run.seed"])],
    ids=["st-se", "be-fe"],
)
def test_cli_optimize_reports_run_keys_it_does_not_read(tmp_path, solvers, space_time, ignored):
    # optimize runs solvers[0] once: it reports the run keys it skips, and
    # accepts them, since the same file also serves compare
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"[problem]\nelements = 4\n{space_time}[optimizer]\nmax_iters = 1\n"
        f"[run]\nsolvers = {solvers}\nnt_nodes_sweep = 3\nnt_steps_sweep = 4\n"
        "repeats = 1\nseed = 3\nconverge_n = 4 6\njobs = 2\n"
    )
    assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out")]) != 2
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["ignored_keys"] == ignored


@pytest.mark.parametrize("solvers", ["be-fe-aao", "st-se be-fe-aao"])
def test_cli_rejects_the_retired_all_at_once_solver(tmp_path, capsys, solvers):
    # be-fe is the only backward-Euler solver; its compare summary carries the
    # all-at-once unknowns that be-fe-aao used to print
    cfg = tmp_path / "aao.cfg"
    cfg.write_text(f"[run]\nsolvers = {solvers}\n")
    assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "run.solvers: unknown solver 'be-fe-aao'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
