"""Per-layer spans recorded from outside the package.

`Tracer.installed()` replaces every public function of the layer modules
with a wrapper that records a span, in every ``stheat`` module namespace
that binds it, because that is where callers look it up: ``optimize``
calls ``solve_adjoint`` through its own globals, ``adjoint`` calls
``factor`` through its own, and so on.  ``Discretization.__init__`` is
wrapped on the class.  Everything is restored on exit, and no file of the
package is changed.

Spans are kept in memory (name, start, end, parent, run id) and written out
by the caller.  Hooks run after three functions, inside their own
``trace.health`` span so that they count against no layer's self time:

- after ``solve_system`` and ``solve_adjoint``, the forward residual
  ||A u - b|| / ||b|| and the adjoint residual ||A^T lam - 2 P u|| / ||2 P u||,
  from ``GlobalSystem.matvec`` / ``rmatvec``;
- after ``factor``, the computed flop and byte counts of the block LU.
"""

import contextlib
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy as np

LAYERS = ("assembly", "blocksolve", "adjoint", "mma", "optimize", "baselines")
HEALTH = "trace.health"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at top level
    run: int


def factor_flops(n_blocks, n):
    """Block-Thomas LU: K pivot LUs plus, per coupling, one block solve and one GEMM."""
    return n_blocks * (2.0 / 3.0) * n**3 + (n_blocks - 1) * 4.0 * n**3


def factor_bytes(n_blocks, n):
    """Float64 traffic of one factorization if every block is touched once.

    Reads the K diagonal and 2(K-1) coupling blocks, writes K LU factors and
    K-1 multipliers.  Computed from the block sizes; cache misses are ignored.
    """
    return 8.0 * n * n * (2 * n_blocks + 3 * (n_blocks - 1))


def _relative(residual, reference):
    return float(np.linalg.norm(residual) / np.linalg.norm(reference))


class Tracer:
    """Span and counter store for one traced process."""

    def __init__(self):
        self.spans = []
        self.run = 0
        self.counters = defaultdict(float)
        self.maxima = defaultdict(float)
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), np.nan, parent, self.run))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def _after_factor(self, name, args, kwargs, result):
        system = args[0]
        self.counters[name + ".flop"] += factor_flops(system.n_blocks, system.block_size)
        self.counters[name + ".bytes"] += factor_bytes(system.n_blocks, system.block_size)

    def _after_solve_system(self, name, args, kwargs, result):
        system, u = args[0], result[0]
        b = system.rhs_vector()
        self._record_max("adjoint.forward_residual_rel", _relative(system.matvec(u) - b, b))

    def _after_solve_adjoint(self, name, args, kwargs, result):
        disc, system, u = args[:3]
        rhs = 2.0 * disc.global_p() * np.asarray(u, dtype=float)
        self._record_max("adjoint.adjoint_residual_rel", _relative(system.rmatvec(result.lam) - rhs, rhs))

    def _record_max(self, key, value):
        self.maxima[key] = max(self.maxima[key], value)

    def _wrap(self, name, func, after=None):
        tracer = self

        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            with tracer.span(span_name):
                result = func(*args, **kwargs)
            if after is not None:
                with tracer.span(HEALTH):
                    after(span_name, args, kwargs, result)
            return result

        traced.__wrapped__ = func
        return traced

    def _wrappers(self):
        """Map id(original function) -> wrapper, for every public layer function."""
        hooks = {
            "blocksolve.factor": self._after_factor,
            "blocksolve.solve_system": self._after_solve_system,
            "adjoint.solve_adjoint": self._after_solve_adjoint,
        }
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"stheat.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                qualname = f"{layer}.{attr}"
                name = _factor_span_name if qualname == "blocksolve.factor" else qualname
                wrappers[id(obj)] = (obj, self._wrap(name, obj, hooks.get(qualname)))
        return wrappers

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer functions wherever a ``stheat`` module binds them."""
        wrappers = self._wrappers()
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "stheat" and not mod_name.startswith("stheat."):
                continue
            for attr, obj in list(vars(module).items()):
                if callable(obj) and id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)][1])
        disc_cls = importlib.import_module("stheat.assembly").Discretization
        init = disc_cls.__init__
        disc_cls.__init__ = self._wrap("assembly.Discretization", init)
        try:
            yield self
        finally:
            disc_cls.__init__ = init
            for module, attr, obj in patched:
                setattr(module, attr, obj)

    def summary(self):
        """{span name: {calls, busy_s, self_s}} over every recorded span."""
        children = defaultdict(float)
        for s in self.spans:
            if s.parent >= 0:
                children[s.parent] += s.end - s.start
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for i, s in enumerate(self.spans):
            entry = out[s.name]
            entry["calls"] += 1
            entry["busy_s"] += s.end - s.start
            entry["self_s"] += s.end - s.start - children[i]
        return out

    def dump(self, path):
        with open(path, "w") as out:
            for s in self.spans:
                out.write(json.dumps(asdict(s)) + "\n")


def _factor_span_name(args, kwargs):
    transpose = kwargs.get("transpose", args[1] if len(args) > 1 else False)
    return "blocksolve.factor_T" if transpose else "blocksolve.factor"
