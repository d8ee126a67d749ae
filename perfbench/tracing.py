"""Per-layer spans recorded from outside the package.

A Tracer replaces every binding of the traced glomkit functions -- the
name in its defining module and each module or package that imported it --
with a wrapper that records one span per call: inclusive time, self time
(inclusive time minus the time covered by child spans), the parent span,
and a few exact per-function counts.  Spans are aggregated in memory per
function and per (parent, child) edge.  Nothing is wrapped until
`install` is called, and `uninstall` restores the original bindings, so an
untraced run executes the unmodified functions.
"""

from __future__ import annotations

import functools
import sys
import time

# (layer, function): the layer is the glomkit module whose public namespace
# exports the function.  cli.main and hamiltonian.casimirs feed no metric;
# their spans are the parents that make the children's self times exact.
TRACED = (
    ("cli", "main"),
    ("cli", "load_model"),
    ("cli", "dump_report"),
    ("models", "assemble_field"),
    ("models", "check_energy"),
    ("invariants", "build_system"),
    ("invariants", "count_invariants"),
    ("exactmath", "generic_rank"),
    ("exactmath", "rank_rational"),
    ("exactmath", "nullspace_rational"),
    ("exactmath", "nullspace_symbolic"),
    ("exactmath", "divide_exact"),
    ("hamiltonian", "build_J"),
    ("hamiltonian", "jacobi"),
    ("hamiltonian", "casimirs"),
    ("hierarchy", "incremental_jacobi"),
    ("hierarchy", "hierarchy_report"),
    ("hierarchy", "check_recurrence"),
    ("simulate", "integrate"),
    ("simulate", "compile_field"),
)


def _generic_rank_cells(args, kwargs, result):
    m = args[0] if args else kwargs["m"]
    return {"cells": m.rows * m.cols}


# Exact counts taken at the span boundary: function -> hook(args, kwargs,
# result) returning count increments.  A hook runs only when the call
# returns; calls that raise count only toward `calls`.
COUNTERS = {
    "exactmath.generic_rank": _generic_rank_cells,
    "invariants.build_system": lambda a, k, r: {"cells": r.rows * r.cols},
    "exactmath.divide_exact": lambda a, k, r: {"exact": 1},
    "simulate.integrate": lambda a, k, r: {"steps": r.steps},
}


class Stat:
    __slots__ = ("calls", "s", "self_s", "counts", "active")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.counts: dict[str, int] = {}
        self.active = 0


class Tracer:
    def __init__(self):
        self.stats = {f"{layer}.{name}": Stat() for layer, name in TRACED}
        self.edges: dict[tuple[str, str], list] = {}
        self.missing: list[str] = []
        self._stack: list[list] = []  # [key, child seconds] per open span
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> int:
        """Wrap every binding of each traced function; returns the binding count."""
        self.missing = []
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "glomkit" or name.startswith("glomkit."))
        ]
        for layer, name in TRACED:
            key = f"{layer}.{name}"
            layer_module = sys.modules.get(f"glomkit.{layer}")
            if layer_module is None:  # this workload never imports the layer
                continue
            original = getattr(layer_module, name, None)
            if original is None:
                self.missing.append(key)
                continue
            wrapper = self._wrap(key, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
        return len(self._patched)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, key, fn):
        stat = self.stats[key]
        counter = COUNTERS.get(key)
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else "op"
            frame = [key, 0.0]
            stack.append(frame)
            stat.active += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.active -= 1
                if stack:
                    stack[-1][1] += elapsed
                stat.calls += 1
                stat.self_s += elapsed - frame[1]
                if not stat.active:  # re-entrant calls count once toward inclusive time
                    stat.s += elapsed
                edge = edges.get((parent, key))
                if edge is None:
                    edges[(parent, key)] = [1, elapsed]
                else:
                    edge[0] += 1
                    edge[1] += elapsed
            if counter is not None:
                for name, inc in counter(args, kwargs, result).items():
                    stat.counts[name] = stat.counts.get(name, 0) + inc
            return result

        return wrapper

    def metrics(self, ops: int) -> dict[str, float]:
        """Every per-layer statistic the trace can give, by metric name."""
        out: dict[str, float] = {"trace.ops": ops}
        for key, st in self.stats.items():
            out[f"{key}.calls"] = st.calls
            out[f"{key}.s"] = st.s
            out[f"{key}.self_s"] = st.self_s
            out[f"{key}.calls_per_op"] = st.calls / ops if ops else 0.0
            for name, value in st.counts.items():
                out[f"{key}.{name}"] = value
        for key in ("exactmath.generic_rank", "invariants.build_system"):
            out.setdefault(f"{key}.cells", 0)
        div = self.stats["exactmath.divide_exact"]
        out["exactmath.divide_exact.exact_frac"] = (
            div.counts.get("exact", 0) / div.calls if div.calls else 0.0
        )
        integ = self.stats["simulate.integrate"]
        steps = integ.counts.get("steps", 0)
        out["simulate.steps"] = steps
        out["simulate.rk4_steps_per_s"] = steps / integ.s if integ.s else 0.0
        return out

    def edge_lines(self) -> list[str]:
        return [
            f"span {parent} > {child}: calls {calls} s {seconds:.6f}"
            for (parent, child), (calls, seconds) in sorted(self.edges.items())
        ]
