"""Run configuration: plain-text key=value files with section headers.

Unknown sections or keys fail fast with the offending path, as do keys of
the cooling preset set under ``preset = two-design`` and keys of the
space-time solver set when no ``st-se`` solver runs; every value is type
checked.  A minimal (or absent) file yields the fifty-cell cooling
benchmark with its published defaults.
"""

import configparser
import math
from dataclasses import dataclass, fields

from .errors import ConfigError

_SOLVERS = ("st-se", "be-fe", "be-fe-aao")
_PRESETS = ("cooling", "two-design")


@dataclass
class RunConfig:
    # problem
    preset: str = "cooling"
    elements: int = 50
    nx: int = 5
    nt: int = 15
    horizon: float = 1.0
    kappa_min_ratio: float = 1e-3
    penalization: float = 3.0
    volume_bound: float = 0.5
    source_offset: float = 10.0
    # sat overrides (None keeps the stability defaults)
    sigma_0: float = 1.0
    sat_s: float = 0.5
    sat_safety: float = 1.0
    # optimizer
    tol_design: float = 1e-4
    max_iters: int = 300
    # experiment sweeps
    solvers: tuple = _SOLVERS
    nt_nodes_sweep: tuple = (11, 13, 15)
    nt_steps_sweep: tuple = (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384)
    converge_n: tuple = tuple(range(4, 21, 2))
    repeats: int = 3
    # io
    seed: int = 0
    jobs: int = 1
    out_dir: str = "stheat-out"
    # not a field: the "section.key" paths that parse_config read from the file
    file_keys = frozenset()

    def validate(self):
        for section, keys in _SCHEMA.items():
            for key, kind in keys.items():
                value = getattr(self, _RENAME.get((section, key), key))
                if kind is float and not math.isfinite(value):
                    raise ConfigError(f"{section}.{key}: must be finite, got {value}")
        if self.preset not in _PRESETS:
            raise ConfigError(f"problem.preset: unknown preset {self.preset!r}")
        for name in ("elements", "nx", "nt", "max_iters", "repeats"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive integer")
        for name in ("horizon", "penalization", "volume_bound", "tol_design", "sat_s"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
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
        return self


_SCHEMA = {
    "problem": {
        "preset": str,
        "elements": int,
        "nx": int,
        "nt": int,
        "horizon": float,
        "kappa_min_ratio": float,
        "penalization": float,
        "volume_bound": float,
        "source_offset": float,
    },
    "sat": {"sigma_0": float, "s": float, "safety": float},
    "optimizer": {"tol_design": float, "max_iters": int},
    "run": {
        "solvers": "strlist",
        "nt_nodes_sweep": "intlist",
        "nt_steps_sweep": "intlist",
        "converge_n": "intlist",
        "repeats": int,
        "seed": int,
        "jobs": int,
        "out_dir": str,
    },
}

_RENAME = {("sat", "s"): "sat_s", ("sat", "safety"): "sat_safety"}

# keys of the cooling preset that the two-design preset has no use for
_COOLING_ONLY = ("elements", "kappa_min_ratio", "penalization", "source_offset")
# keys that only the space-time solver reads: the backward-Euler baselines
# use the element edges, the material and the data alone
_SPACE_TIME_ONLY = ("problem.nx", "problem.nt", "sat.sigma_0", "sat.s", "sat.safety")


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


def parse_config(path=None, overrides=None):
    """Load and validate a RunConfig; ``overrides`` wins over the file."""
    cfg = RunConfig()
    from_file = set()
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"config file not found: {path}")
        for section in parser.sections():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}]")
            for key, raw in parser[section].items():
                if key not in _SCHEMA[section]:
                    raise ConfigError(f"unknown key {section}.{key}")
                attr = _RENAME.get((section, key), key)
                setattr(cfg, attr, _convert(_SCHEMA[section][key], raw, f"{section}.{key}"))
                from_file.add(f"{section}.{key}")
    cfg.file_keys = frozenset(from_file)
    if cfg.preset == "two-design":
        for key in _COOLING_ONLY:
            if f"problem.{key}" in from_file:
                raise ConfigError(f"problem.{key}: not used by preset two-design")
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if not any(f.name == key for f in fields(RunConfig)):
            raise ConfigError(f"unknown override {key}")
        setattr(cfg, key, value)
    if "st-se" not in cfg.solvers:
        for path in _SPACE_TIME_ONLY:
            if path in from_file:
                raise ConfigError(f"{path}: not used by solvers {' '.join(cfg.solvers)}")
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
