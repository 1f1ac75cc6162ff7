"""Span recorder that times calls into the library from outside it.

`Tracer.install` replaces every public function of the traced fracschrod
modules, and the scipy dense kernels they call, with a wrapper that records
a span (name, start, end, parent span, rise of the process's peak RSS).
The replacement happens in every loaded module that holds a reference to
the original, so calls the library makes to itself through
`from .x import y` bindings are timed too.  Nothing under src/ changes.

Spans stay in memory; `layer_metrics` folds them into the per-layer figures
named in BENCHMARK.json.  A layer is the part of a span name before the
dot.  Self time is a span's duration minus the time covered by its direct
child spans of other layers (one thread, so children never overlap); a
call a layer makes into itself, such as `assemble` into `tail_mass`, stays
in the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import os
import resource
import sys
import time
from dataclasses import dataclass

TRACED_MODULES = ("grid", "fraclap", "solver", "cauchy", "calderon", "serialize")
LINALG_KERNELS = ("cho_factor", "cho_solve", "svd")  # scipy.linalg; svdvals calls svd

MIB = 1024.0 * 1024.0


def peak_rss_mib() -> float:
    """High-water mark of this process's resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    rss_rise_mib: float
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """In-memory spans and counters for one workload process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(Span(name, 0.0, 0.0, parent, 0.0))
            self._stack.append(index)
            hwm = peak_rss_mib()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span = self.spans[index]
                span.start, span.end = start, end
                span.rss_rise_mib = peak_rss_mib() - hwm
                caller = self.spans[parent] if parent >= 0 else None
                if caller is not None and _layer(caller.name) != _layer(name):
                    caller.child_time += end - start
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the traced modules' public functions and the linalg kernels."""
        import scipy.linalg

        targets = {}
        for modname in TRACED_MODULES:
            module = sys.modules[f"{package.__name__}.{modname}"]
            for attr, fn in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    targets[fn] = f"{modname}.{attr}"
        for attr in LINALG_KERNELS:
            targets[getattr(scipy.linalg, attr)] = f"linalg.{attr}"

        wrappers = {fn: self.wrap(name, fn) for fn, name in targets.items()}
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                try:
                    wrapper = wrappers.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.self_time
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0) + 1
        return out

    def rss_rise(self, name: str) -> float:
        return sum(s.rss_rise_mib for s in self.spans if s.name == name)


def _layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def _csv_bytes(tracer, args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[0]
    tracer.count("serialize.bytes", os.path.getsize(path))


def _json_bytes(tracer, args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[1]
    tracer.count("serialize.bytes", os.path.getsize(path))


def _operator_bytes(tracer, args, kwargs, op):
    tracer.count("fraclap.operator_mb",
                 (op.a_ii.nbytes + op.a_ie.nbytes + op.tail.nbytes) / MIB)


def _neumann_bytes(tracer, args, kwargs, result):
    # neumann_derivative allocates the (k, ni, dim) coordinate difference and
    # four (k, ni) arrays: distances, their power, kernel, value differences.
    grid = args[0]
    indices = args[3] if len(args) > 3 else kwargs["indices"]
    pairs = len(indices) * grid.n_interior
    tracer.count("cauchy.neumann_mb", pairs * 8 * (grid.dim + 4) / MIB)


def _newton_iters(tracer, args, kwargs, solution):
    tracer.count("solver.newton_iters", solution.iterations)


def _recover_nfev(tracer, args, kwargs, result):
    tracer.count("calderon.recover_nfev", result.n_evaluations)


_OBSERVERS = {
    "serialize.write_csv": _csv_bytes,
    "serialize.dump": _json_bytes,
    "fraclap.assemble": _operator_bytes,
    "cauchy.neumann_derivative": _neumann_bytes,
    "solver.solve_semilinear": _newton_iters,
    "calderon.recover_potential": _recover_nfev,
}


def layer_metrics(tracer: Tracer, import_s: float) -> dict[str, float]:
    """The per-layer figures of one traced process (0 for a layer not run)."""
    st = tracer.self_times()
    n = tracer.calls()
    c = tracer.counters

    def self_of(*names):
        return sum(st.get(x, 0.0) for x in names)

    def calls_of(*names):
        return float(sum(n.get(x, 0) for x in names))

    return {
        "fracschrod.import_s": import_s,
        "grid.build_s": self_of("grid.build_grid"),
        "grid.sample_s": self_of("grid.sample_function", "grid.c3_bump"),
        "fraclap.assemble_s": self_of("fraclap.assemble"),
        "fraclap.operator_mb": c.get("fraclap.operator_mb", 0.0),
        "fraclap.rss_rise_mb": tracer.rss_rise("fraclap.assemble"),
        "fraclap.apply_s": self_of("fraclap.apply_operator"),
        "fraclap.apply_calls": calls_of("fraclap.apply_operator"),
        "fraclap.row_s": self_of("fraclap.operator_row", "fraclap.evaluate_at"),
        "fraclap.row_calls": calls_of("fraclap.operator_row", "fraclap.evaluate_at"),
        "solver.linear_s": self_of("solver.solve_linear"),
        "solver.linear_calls": calls_of("solver.solve_linear"),
        "solver.newton_s": self_of("solver.solve_semilinear"),
        "solver.newton_iters": c.get("solver.newton_iters", 0.0),
        "solver.rss_rise_mb": tracer.rss_rise("solver.solve_semilinear"),
        "solver.barrier_s": self_of("solver.build_barrier"),
        "cauchy.neumann_s": self_of("cauchy.neumann_derivative"),
        "cauchy.neumann_mb": c.get("cauchy.neumann_mb", 0.0),
        "cauchy.rss_rise_mb": tracer.rss_rise("cauchy.neumann_derivative"),
        "calderon.dn_map_s": self_of("calderon.dn_map"),
        "calderon.recover_s": self_of("calderon.recover_potential"),
        "calderon.recover_nfev": c.get("calderon.recover_nfev", 0.0),
        "calderon.probe_s": self_of("calderon.strong_uniqueness_probe"),
        "linalg.cho_factor_calls": calls_of("linalg.cho_factor"),
        "linalg.cho_factor_s": self_of("linalg.cho_factor"),
        "linalg.cho_solve_s": self_of("linalg.cho_solve"),
        "linalg.svd_calls": calls_of("linalg.svd"),
        "linalg.svd_s": self_of("linalg.svd"),
        "serialize.write_s": self_of("serialize.write_csv", "serialize.dump"),
        "serialize.bytes": c.get("serialize.bytes", 0.0),
    }
