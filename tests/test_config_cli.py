import json
import os
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg

from oracle import kronecker_dense
from stheat.assembly import Discretization, assemble_global
from stheat.baselines import run_topology_optimization_be
from stheat.cli import _optimize_once, compare, declared_convergence_level, main
from stheat.config import RunConfig, parse_config, problem_from_config
from stheat.errors import ConfigError
from stheat.optimize import run_topology_optimization
from stheat.presets import cooling_benchmark, two_design_benchmark

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
    # a config built in Python is not held to its solvers
    cfg = RunConfig(solvers=("be-fe",), nx=9, nt=7, sat_s=2.0).validate()
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
    cfg = RunConfig(solvers=("be-fe",), elements=4, max_iters=1).validate()
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


def test_cli_verify_logs_the_exact_condition_number(tmp_path):
    # kappa_1 of the fixed two-design system, whatever NumPy's global RNG holds
    spec, _ = two_design_benchmark(nx=20, nt=20)
    system = assemble_global(Discretization(spec), np.array([0.45, 0.3]))
    exact = np.linalg.cond(kronecker_dense(system), 1)
    logged = []
    for seed in (1, 2):
        np.random.seed(seed)
        assert main(["verify", "--out", str(tmp_path / str(seed))]) == 0
        summary = json.loads((tmp_path / str(seed) / "summary.json").read_text())
        logged.append(summary["condition_estimate_two_design_n20"])
    assert logged[0] == logged[1]
    assert logged[0] == pytest.approx(exact, rel=1e-12)


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


def test_cli_volume_bound_above_the_total_volume_is_no_constraint(tmp_path, capsys):
    # the four elements hold volume 1: bound 2 starts and stays at full material
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[problem]\nelements = 4\nnx = 3\nnt = 3\nvolume_bound = 2\n")
    assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out == "st-se: J=6.752834 after 1 iterations (design_change)\n"
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["final_design"] == [1.0] * 4 and summary["volume"] == 1.0
    header, row = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    mu, slack = (float(v) for v in row.split(",")[8:10])
    assert (mu, slack) == (0.0, 1.0)


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
    spec, vstar = problem_from_config(RunConfig(elements=4, nx=3, nt=4).validate())
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


def test_compare_cells_are_the_direct_runs_and_leave_the_config():
    # acceptance criteria 7 and 8 read compare's cells as these direct runs
    cfg = RunConfig(
        elements=6, nx=2, nt=5, tol_design=1e-3, max_iters=60,
        nt_nodes_sweep=(4, 3), nt_steps_sweep=(4, 8), repeats=1,
    ).validate()
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


@pytest.mark.parametrize("key, value", [
    ("problem.elements", "0"), ("problem.nx", "0"), ("problem.nt", "0"),
    ("optimizer.max_iters", "0"), ("run.repeats", "0"),
    ("problem.horizon", "0"), ("problem.volume_bound", "0"), ("optimizer.tol_design", "0"),
    ("sat.s", "0"), ("problem.penalization", "0.5"), ("sat.safety", "0.5"),
    ("sat.sigma_0", "0.5"), ("problem.kappa_min_ratio", "1"),
    ("run.solvers", ""), ("run.nt_nodes_sweep", ""), ("run.nt_steps_sweep", ""),
    ("run.converge_n", ""),
])
def test_cli_validation_errors_name_the_key(tmp_path, capsys, key, value):
    # each message starts with the section.key a file writes, not a field name
    section, name = key.split(".")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[{section}]\n{name} = {value}\n")
    assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {key}: ")


@pytest.mark.parametrize("horizon", ["1e-300", "1e300"])
def test_cli_refuses_a_horizon_outside_its_range(tmp_path, capsys, horizon):
    # on 4-element cooling at nx = nt = 3 the parent ran both to exit 0:
    # J = 0 after one iteration, and J = 5.2e302 on st-se
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[problem]\nhorizon = {horizon}\nelements = 4\nnx = 3\nnt = 3\n")
    assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == ("configuration error: problem.horizon: must lie in "
                                       f"[1e-6, 1e6], got {float(horizon):g}\n")
    assert not (tmp_path / "out").exists()


def test_horizon_range_is_inclusive():
    for horizon in (1e-6, 1e6):
        RunConfig(horizon=horizon).validate()
    for horizon in (np.nextafter(1e-6, 0.0), np.nextafter(1e6, np.inf)):
        with pytest.raises(ConfigError, match=r"^problem\.horizon: must lie in \[1e-6, 1e6\]"):
            RunConfig(horizon=float(horizon)).validate()


@pytest.mark.parametrize("horizon", [1e-6, 1e6], ids=["shortest", "longest"])
@pytest.mark.parametrize("solver", ["st-se", "be-fe"])
def test_both_solvers_converge_at_the_ends_of_the_horizon_range(solver, horizon):
    # 4-element cooling at nx = nt = 3 and 64 steps: J reads 3.5e-17 and 3.3e-17
    # at the short end, 4.3e8 and 3.7e8 at the long one
    cfg = RunConfig(horizon=horizon, elements=4, nx=3, nt=3).validate()
    _, _, trace = _optimize_once(cfg, solver, n_steps=64)
    assert trace.converged
    assert np.finfo(float).tiny <= trace.final_objective < np.inf


@pytest.mark.parametrize("args, text", [(["--seed", "-1"], None), ([], "[run]\nseed = -5\n")],
                         ids=["flag", "file"])
def test_cli_verify_refuses_a_negative_seed(tmp_path, capsys, args, text):
    # refused before the operator suite runs, not inside NumPy's generator
    if text is not None:
        (tmp_path / "run.cfg").write_text(text)
        args = ["--config", str(tmp_path / "run.cfg")]
    assert main(["verify", *args, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: run.seed") and captured.err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_cli_typed_numerical_error_is_one_line_and_exit_3(tmp_path, capsys):
    # 1001 time nodes exceed the operator cap before anything is allocated
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[problem]\nnt = 1000\n")
    assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ResourceLimitError: 1001 nodes") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("problem, solver, sweep, message", [
    ("source_offset = 1e300", "st-se", "", "the objective J = inf is not finite"),
    ("source_offset = 1e300", "be-fe", "nt_steps_sweep = 16\n",
     "the objective J = inf is not finite"),
    ("penalization = 1e308\nvolume_bound = 1", "be-fe", "nt_steps_sweep = 16\n",
     "the gradient dJ/drho is not finite"),
], ids=["st-se", "be-fe", "be-fe-gradient"])
def test_cli_non_finite_objective_is_one_line_and_exit_3(tmp_path, capsys, problem, solver, sweep,
                                                         message):
    # a source of 1e300 overflows J in the first forward solve: refused there,
    # before any gradient.  A penalization of 1e308 at the full design (rho = 1,
    # where dkappa/drho = p) leaves J finite but overflows the gradient:
    # refused before the MMA update.  Neither warns on the way (pyproject
    # turns every warning into an error)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[problem]\n{problem}\n[run]\nsolvers = {solver}\n{sweep}")
    assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"NumericalError: iteration 1: {message}\n"


def test_cli_run_above_the_size_cap_is_exit_3(tmp_path, capsys):
    # 10^9 elements are refused before their edges or operators are built
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[problem]\nelements = 1000000000\n")
    assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ResourceLimitError: 1000000000 elements of 6 x 16 nodes")
    assert err.count("\n") == 1


def test_cli_factors_above_the_factor_cap_are_exit_3(tmp_path, capsys):
    # within the run cap (4 x 250 x 400 and 1 x 1000 x 1000 values), but the
    # LUs of the time modes would hold 400 x 1000 x 751 values, about 4.8 GB,
    # and 1000 x 1000 x 1000: refused before the Schur form of the time
    # operator is built, so before any LU
    cases = [
        ("elements = 4\nnx = 249\nnt = 399\n",
         "400 time modes of 1000 x 1000 spatial factors would hold 300400000 LU values"),
        ("elements = 1\nnx = 999\nnt = 999\n",
         "1000 time modes of 1000 x 1000 spatial factors would hold 1000000000 LU values"),
    ]
    cfg = tmp_path / "run.cfg"
    for problem, message in cases:
        cfg.write_text(f"[problem]\n{problem}")
        with mock.patch.object(scipy.linalg, "schur",
                               side_effect=AssertionError("Schur form built")) as schur:
            assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        schur.assert_not_called()
        assert capsys.readouterr().err == (
            f"ResourceLimitError: {message}, above the cap of 20000000\n")


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


# the SciPy subpackages of the space-time solver, and modules no command needs at import
SOLVER_MODULES = ("scipy.linalg", "scipy.sparse")
UNUSED_AT_IMPORT = ("scipy.special", "concurrent.futures.process")

BE_LOOP = """
from stheat.baselines import run_topology_optimization_be
from stheat.presets import cooling_benchmark
spec, bound = cooling_benchmark(n_elements=6)
assert run_topology_optimization_be(spec, bound, 64).converged
"""
CLI_RUN = """
from stheat.cli import main
assert main({argv!r}) == {code}
"""
CLI_HELP = """
from stheat.cli import main
try:
    main(["--help"])
except SystemExit as stop:
    assert stop.code == 0
"""
DISCRETIZATION = """
from stheat.assembly import Discretization
from stheat.presets import two_design_benchmark
Discretization(two_design_benchmark(nx=2, nt=2)[0])
"""
# stops compare where it would time its first cell
COMPARE = """
from stheat import cli
from stheat.config import parse_config
class FirstCell(Exception):
    pass
def first_cell(cfg, solver, level):
    raise FirstCell
cli._compare_point = first_cell
try:
    cli.compare(parse_config({config!r}))
except FirstCell:
    pass
"""


def loaded_modules(code, modules):
    """Run ``code`` in a fresh interpreter on this checkout's src/ and return
    which of ``modules`` it left loaded, space-separated."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = f"{code}\nimport sys\nprint(' '.join(m for m in {modules!r} if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_package_and_cli_import_on_numpy_alone():
    modules = SOLVER_MODULES + UNUSED_AT_IMPORT
    assert loaded_modules("import stheat, stheat.cli", modules) == ""


@pytest.mark.parametrize("case", ["be-loop", "be-fe-optimize", "config-error", "help"])
def test_backward_euler_and_cli_errors_run_on_numpy_alone(tmp_path, case):
    cfg = tmp_path / "run.cfg"
    out = str(tmp_path / "out")
    if case == "be-fe-optimize":
        cfg.write_text("[problem]\nelements = 6\n[run]\nsolvers = be-fe\nnt_steps_sweep = 64\n")
        code = CLI_RUN.format(argv=["optimize", "--config", str(cfg), "--out", out], code=0)
    elif case == "config-error":
        cfg.write_text("[problem]\nnx = 0\n")
        code = CLI_RUN.format(argv=["optimize", "--config", str(cfg), "--out", out], code=2)
    else:
        code = {"be-loop": BE_LOOP, "help": CLI_HELP}[case]
    assert loaded_modules(code, SOLVER_MODULES) == ""


def test_discretization_loads_the_solver_modules():
    assert loaded_modules(DISCRETIZATION, SOLVER_MODULES) == " ".join(SOLVER_MODULES)


@pytest.mark.parametrize("solvers, loaded", [("st-se", SOLVER_MODULES), ("be-fe", ())])
def test_compare_loads_the_solver_modules_before_its_first_cell(tmp_path, solvers, loaded):
    # so the one-time import stays out of every cell's wall_s
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[run]\nsolvers = {solvers}\n")
    assert loaded_modules(COMPARE.format(config=str(cfg)), SOLVER_MODULES) == " ".join(loaded)


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


@pytest.mark.parametrize("args, text", [(["--out", ""], None), ([], "[run]\nout_dir =\n"),
                                        (["--out", "{file}/sub"], None)],
                         ids=["empty-flag", "empty-file", "below-a-file"])
def test_cli_refuses_an_output_directory_it_cannot_make(tmp_path, capsys, args, text):
    # one configuration error line, not the traceback of os.makedirs
    (tmp_path / "file").write_text("")
    args = [arg.format(file=tmp_path / "file") for arg in args]
    if text is not None:
        (tmp_path / "run.cfg").write_text(text)
        args += ["--config", str(tmp_path / "run.cfg")]
    assert main(["verify", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: run.out_dir: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "command, text, flags, key",
    [("verify", "[problem]\nnx = 9\n", [], "problem.nx"),
     ("verify", "[sat]\ns = 2.0\n", [], "sat.s"),
     ("verify", "[run]\nconverge_n = 4 6\n", [], "run.converge_n"),
     ("converge", "[problem]\nelements = 4\n[run]\nconverge_n = 4 6\n", [], "problem.elements"),
     ("converge", "[run]\nseed = 3\n", [], "run.seed"),
     # a flag sets its key as the file does
     ("converge", "[run]\nconverge_n = 4 6\n", ["--seed", "7"], "run.seed")],
    ids=["verify-nx", "verify-sat-s", "verify-converge_n", "converge-elements", "converge-seed",
         "converge-seed-flag"],
)
def test_cli_verify_and_converge_reject_keys_they_do_not_read(tmp_path, capsys, command, text,
                                                              flags, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg), *flags, "--out", str(tmp_path / "out")]) == 2
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
    # the seed is set in the file, then by the flag, which counts alike
    for out, seed_line, flags in (("file", "seed = 3\n", []), ("flag", "", ["--seed", "3"])):
        cfg.write_text(
            "[problem]\nelements = 4\nnx = 2\nnt = 3\n[sat]\nsafety = 2.0\n"
            "[optimizer]\nmax_iters = 1\n"
            "[run]\nsolvers = st-se be-fe\nnt_nodes_sweep = 3\nnt_steps_sweep = 4\nrepeats = 1\n"
            f"{seed_line}converge_n = 4 6\n"
        )
        main(["compare", "--config", str(cfg), *flags, "--out", str(tmp_path / out)])
        solvers = json.loads((tmp_path / out / "summary.json").read_text())["solvers"]
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
    "solvers, space_time, flags, ignored",
    [("st-se be-fe", "nx = 2\nnt = 3\n", [],
      ["run.converge_n", "run.nt_nodes_sweep", "run.nt_steps_sweep", "run.repeats", "run.seed"]),
     ("be-fe st-se", "", [],
      ["run.converge_n", "run.nt_nodes_sweep", "run.repeats", "run.seed"]),
     # the flag sets run.seed as the file's line does
     ("be-fe st-se", "", ["--seed", "3"],
      ["run.converge_n", "run.nt_nodes_sweep", "run.repeats", "run.seed"])],
    ids=["st-se", "be-fe", "be-fe-seed-flag"],
)
def test_cli_optimize_reports_run_keys_it_does_not_read(tmp_path, solvers, space_time, flags,
                                                        ignored):
    # optimize runs solvers[0] once: it reports the run keys it skips, and
    # accepts them, since the same file also serves compare
    cfg = tmp_path / "run.cfg"
    seed_line = "" if flags else "seed = 3\n"
    cfg.write_text(
        f"[problem]\nelements = 4\n{space_time}[optimizer]\nmax_iters = 1\n"
        f"[run]\nsolvers = {solvers}\nnt_nodes_sweep = 3\nnt_steps_sweep = 4\n"
        f"repeats = 1\n{seed_line}converge_n = 4 6\n"
    )
    assert main(["optimize", "--config", str(cfg), *flags, "--out", str(tmp_path / "out")]) != 2
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["ignored_keys"] == ignored


@pytest.mark.parametrize("line, message", [
    ("solvers = be-fe-aao", "run.solvers: unknown solver 'be-fe-aao'"),
    ("solvers = st-se be-fe-aao", "run.solvers: unknown solver 'be-fe-aao'"),
    ("jobs = 2", "configuration error: unknown key run.jobs"),
], ids=["be-fe-aao", "st-se be-fe-aao", "jobs"])
def test_cli_rejects_the_retired_all_at_once_solver(tmp_path, capsys, line, message):
    # be-fe is the only backward-Euler solver; its compare summary carries the
    # all-at-once unknowns that be-fe-aao used to print.  compare runs its
    # cells in one process, so the worker count is retired too
    cfg = tmp_path / "aao.cfg"
    cfg.write_text(f"[run]\n{line}\n")
    assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_rejects_the_retired_jobs_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as stop:
        main(["compare", "--jobs", "2", "--out", str(tmp_path / "out")])
    assert stop.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
