"""Run configuration: plain-text key=value files with section headers.

Each ``RunConfig`` field declares, once, its ``section.key`` path in the
file, the kind of its value, the preset or solver that alone reads it and
the commands that read it.  ``parse_config`` holds a command to those
declarations: the keys set in the file and by the command line's flags
are checked alike.  Unknown sections or keys fail fast with the offending
path, as do keys of the problem that no preset or solver the command runs
reads: the cooling keys under ``preset = two-design`` and the space-time
keys when no ``st-se`` solver runs.  A ``run`` key that a design command
or solver skips is reported, not refused.  Every value is type checked.
A minimal (or absent) file yields the fifty-cell cooling benchmark with
its published defaults.
"""

import configparser
import math
from dataclasses import dataclass, field, fields

from .errors import ConfigError

_SOLVERS = ("st-se", "be-fe")
_PRESETS = ("cooling", "two-design")
_DESIGN = ("optimize", "compare")  # the commands that run design loops


def _key(default, path, kind, only=None, commands=_DESIGN):
    """A field read from ``path`` of the file, by ``commands`` alone and, when
    ``only`` names a preset or solver, only where that one runs."""
    meta = {"path": path, "kind": kind, "only": only, "commands": commands}
    return field(default=default, metadata=meta)


@dataclass
class RunConfig:
    preset: str = _key("cooling", "problem.preset", str)
    elements: int = _key(50, "problem.elements", int, only="cooling")
    nx: int = _key(5, "problem.nx", int, only="st-se")
    # compare's st-se cells set nt to their level
    nt: int = _key(15, "problem.nt", int, only="st-se", commands=("optimize",))
    horizon: float = _key(1.0, "problem.horizon", float)
    kappa_min_ratio: float = _key(1e-3, "problem.kappa_min_ratio", float, only="cooling")
    penalization: float = _key(3.0, "problem.penalization", float, only="cooling")
    volume_bound: float = _key(0.5, "problem.volume_bound", float)
    source_offset: float = _key(10.0, "problem.source_offset", float, only="cooling")
    sigma_0: float = _key(1.0, "sat.sigma_0", float, only="st-se")
    sat_s: float = _key(0.5, "sat.s", float, only="st-se")
    sat_safety: float = _key(1.0, "sat.safety", float, only="st-se")
    tol_design: float = _key(1e-4, "optimizer.tol_design", float)
    max_iters: int = _key(300, "optimizer.max_iters", int)
    solvers: tuple = _key(_SOLVERS, "run.solvers", "strlist")
    # compare's st-se levels: each sets nt, the time degree, so level n has n + 1 time nodes
    nt_nodes_sweep: tuple = _key((11, 13, 15), "run.nt_nodes_sweep", "intlist",
                                 only="st-se", commands=("compare",))
    nt_steps_sweep: tuple = _key((8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384),
                                 "run.nt_steps_sweep", "intlist", only="be-fe")
    converge_n: tuple = _key(tuple(range(4, 21, 2)), "run.converge_n", "intlist",
                             commands=("converge",))
    repeats: int = _key(3, "run.repeats", int, commands=("compare",))
    seed: int = _key(0, "run.seed", int, commands=("verify",))
    out_dir: str = _key("stheat-out", "run.out_dir", str, commands=_DESIGN + ("verify", "converge"))
    # not a field: the "section.key" paths that parse_config's file and flags set
    set_keys = frozenset()

    def validate(self):
        """Refuse a value no run can use, naming its ``section.key``."""
        paths = {f.name: f.metadata["path"] for f in fields(self)}

        def error(name, message):
            return ConfigError(f"{paths[name]}: {message}")

        for f in fields(self):
            value = getattr(self, f.name)
            if f.metadata["kind"] is float and not math.isfinite(value):
                raise error(f.name, f"must be finite, got {value}")
        if self.preset not in _PRESETS:
            raise error("preset", f"unknown preset {self.preset!r}")
        for name in ("elements", "nx", "nt", "max_iters", "repeats"):
            if getattr(self, name) < 1:
                raise error(name, "must be a positive integer")
        if self.seed < 0:  # NumPy's generators take no negative seed
            raise error("seed", f"must be a non-negative integer, got {self.seed}")
        if not self.out_dir:
            raise error("out_dir", "must not be empty")
        for name in ("volume_bound", "tol_design", "sat_s"):
            if getattr(self, name) <= 0:
                raise error(name, "must be positive")
        if not 1e-6 <= self.horizon <= 1e6:  # six decades either side of L^2 / kappa_max = 1
            raise error("horizon", f"must lie in [1e-6, 1e6], got {self.horizon:g}")
        if self.penalization < 1:  # the power law kappa(rho) needs p >= 1
            raise error("penalization", "must be >= 1")
        if self.sat_safety < 1:
            raise error("sat_safety", "must be >= 1")
        if self.sigma_0 <= 0.5:
            raise error("sigma_0", "must exceed 1/2, where the energy estimate holds")
        if not 0 <= self.kappa_min_ratio < 1:
            raise error("kappa_min_ratio", "must lie in [0, 1)")
        for s in self.solvers:
            if s not in _SOLVERS:
                raise error("solvers", f"unknown solver {s!r}")
        for name in ("solvers", "nt_nodes_sweep", "nt_steps_sweep", "converge_n"):
            values = getattr(self, name)
            if not values:
                raise error(name, "must not be empty")
            if name != "solvers" and min(values) < 1:
                raise error(name, "entries must be positive integers")
            # a repeat would run the same cell twice and list it twice
            if len(set(values)) < len(values):
                raise error(name, "entries must not repeat")
        return self

    def unread_keys(self, command, solver=None):
        """The set keys that ``command`` never reads when it runs ``solver``."""
        return sorted(
            f.metadata["path"] for f in fields(self)
            if f.metadata["path"] in self.set_keys
            and (command not in f.metadata["commands"]
                 or f.metadata["only"] not in (None, self.preset, solver))
        )


_FIELDS = {f.metadata["path"]: f for f in fields(RunConfig)}


def _convert(kind, raw, path):
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is str:
            return raw.strip()
        if kind == "intlist":
            return tuple(int(tok) for tok in raw.split())
        if kind == "strlist":
            return tuple(tok for tok in raw.split())
    except ValueError as err:
        raise ConfigError(f"{path}: cannot parse {raw!r}") from err
    raise AssertionError(kind)


def parse_config(path=None, command="compare", flags=None):
    """Load and validate the RunConfig that ``command`` runs.

    ``flags`` maps ``section.key`` paths to the command line's values (None:
    not given); they win over the file, and their keys count as set, as the
    file's do.
    """
    cfg = RunConfig()
    set_keys = set()
    if path is not None:
        parser = configparser.ConfigParser()
        try:
            read = parser.read(path)
            sections = {section: dict(parser[section]) for section in parser.sections()}
        except configparser.Error as err:  # a repeated section or key, no header, ...
            raise ConfigError(f"{path}: malformed config file: {' '.join(str(err).split())}") from err
        if not read:
            raise ConfigError(f"config file not found: {path}")
        for section, items in sections.items():
            if not any(p.startswith(f"{section}.") for p in _FIELDS):
                raise ConfigError(f"unknown section [{section}]")
            for key, raw in items.items():
                key_path = f"{section}.{key}"
                if key_path not in _FIELDS:
                    raise ConfigError(f"unknown key {key_path}")
                f = _FIELDS[key_path]
                setattr(cfg, f.name, _convert(f.metadata["kind"], raw, key_path))
                set_keys.add(key_path)
    for key_path, value in (flags or {}).items():
        if value is not None:
            setattr(cfg, _FIELDS[key_path].name, value)
            set_keys.add(key_path)
    cfg.set_keys = frozenset(set_keys)
    cfg.validate()
    if command in _DESIGN:
        # refuse a problem key that no run reads; unread_keys reports the rest a run skips
        solvers = cfg.solvers[:1] if command == "optimize" else cfg.solvers
        unused = sorted(p for p in set_keys if not p.startswith("run.")
                        and _FIELDS[p].metadata["only"] not in (None, cfg.preset, *solvers))
        runs = f" (preset {cfg.preset}, solvers {' '.join(solvers)})"
    else:  # verify and converge run no solver: they refuse every key they skip
        unused, runs = cfg.unread_keys(command), ""
    if unused:
        raise ConfigError(f"{' '.join(unused)}: not used by {command}{runs}")
    return cfg


def problem_from_config(cfg):
    """Instantiate the configured benchmark problem and its volume bound."""
    from .presets import cooling_benchmark, two_design_benchmark

    if cfg.preset == "cooling":
        spec, _ = cooling_benchmark(
            nx=cfg.nx,
            nt=cfg.nt,
            n_elements=cfg.elements,
            p=cfg.penalization,
            kappa_min_ratio=cfg.kappa_min_ratio,
            source_offset=cfg.source_offset,
            horizon=cfg.horizon,
        )
    else:
        spec, _ = two_design_benchmark(nx=cfg.nx, nt=cfg.nt, horizon=cfg.horizon)
    return spec, cfg.volume_bound
