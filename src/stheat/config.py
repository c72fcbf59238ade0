"""Run configuration: plain-text key=value files with section headers.

Each ``RunConfig`` field declares, once, its ``section.key`` path in the
file, the kind of its value, the preset or solver that alone reads it and
the commands that read it.  Unknown sections or keys fail fast with the
offending path, as do keys of the problem that no configured preset or
solver reads: the cooling keys under ``preset = two-design`` and the
space-time keys when no ``st-se`` solver runs.  A ``run`` key that a
command or solver skips is reported by the command line, not refused.
Every value is type checked.  A minimal (or absent) file yields the
fifty-cell cooling benchmark with its published defaults.
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
    nt_nodes_sweep: tuple = _key((11, 13, 15), "run.nt_nodes_sweep", "intlist",
                                 only="st-se", commands=("compare",))
    nt_steps_sweep: tuple = _key((8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384),
                                 "run.nt_steps_sweep", "intlist", only="be-fe")
    converge_n: tuple = _key(tuple(range(4, 21, 2)), "run.converge_n", "intlist",
                             commands=("converge",))
    repeats: int = _key(3, "run.repeats", int, commands=("compare",))
    seed: int = _key(0, "run.seed", int, commands=("verify",))
    jobs: int = _key(1, "run.jobs", int, commands=("compare",))
    out_dir: str = _key("stheat-out", "run.out_dir", str, commands=_DESIGN + ("verify", "converge"))
    # not a field: the "section.key" paths that parse_config read from the file
    file_keys = frozenset()

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.metadata["kind"] is float and not math.isfinite(value):
                raise ConfigError(f"{f.metadata['path']}: must be finite, got {value}")
        if self.preset not in _PRESETS:
            raise ConfigError(f"problem.preset: unknown preset {self.preset!r}")
        for name in ("elements", "nx", "nt", "max_iters", "repeats"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive integer")
        for name in ("horizon", "volume_bound", "tol_design", "sat_s"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.penalization < 1:  # the power law kappa(rho) needs p >= 1
            raise ConfigError("problem.penalization must be >= 1")
        if self.sat_safety < 1:
            raise ConfigError("sat.safety must be >= 1")
        if self.sigma_0 <= 0.5:
            raise ConfigError("sat.sigma_0 must exceed 1/2, where the energy estimate holds")
        if not 0 <= self.kappa_min_ratio < 1:
            raise ConfigError("kappa_min_ratio must lie in [0, 1)")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        for s in self.solvers:
            if s not in _SOLVERS:
                raise ConfigError(f"run.solvers: unknown solver {s!r}")
        if not self.solvers or not self.nt_nodes_sweep or not self.nt_steps_sweep:
            raise ConfigError("sweep lists must be nonempty")
        if not self.converge_n:
            raise ConfigError("converge sweep must be nonempty")
        for name in ("nt_nodes_sweep", "nt_steps_sweep", "converge_n"):
            if min(getattr(self, name)) < 1:
                raise ConfigError(f"run.{name}: entries must be positive integers")
        # a repeat would run the same cell twice and list it twice
        for name in ("solvers", "nt_nodes_sweep", "nt_steps_sweep", "converge_n"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ConfigError(f"run.{name}: entries must not repeat")
        return self

    def unread_keys(self, command, solver=None):
        """The paths set in the file that ``command`` never reads when it runs ``solver``."""
        return sorted(
            f.metadata["path"] for f in fields(self)
            if f.metadata["path"] in self.file_keys
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


def _refuse_unused(from_file, names, used, message):
    """Refuse a problem key from the file that only a preset or solver in
    ``names`` but not in ``used`` reads."""
    for path, f in _FIELDS.items():
        only = f.metadata["only"]
        if path in from_file and not path.startswith("run.") and only in names and only not in used:
            raise ConfigError(f"{path}: {message}")


def parse_config(path=None, overrides=None):
    """Load and validate a RunConfig; ``overrides`` wins over the file."""
    cfg = RunConfig()
    from_file = set()
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
                from_file.add(key_path)
    cfg.file_keys = frozenset(from_file)
    if cfg.preset in _PRESETS:  # validate names an unknown preset
        _refuse_unused(from_file, _PRESETS, (cfg.preset,), f"not used by preset {cfg.preset}")
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if not any(f.name == key for f in fields(RunConfig)):
            raise ConfigError(f"unknown override {key}")
        setattr(cfg, key, value)
    _refuse_unused(from_file, _SOLVERS, cfg.solvers,
                   f"not used by solvers {' '.join(cfg.solvers)}")
    return cfg.validate()


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
