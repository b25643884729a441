"""Outside-in tracing of the kwtorus layers.

The tracer rebinds, for one traced run only, the names through which each
kwtorus module calls into the next one down (``kwsolver._solve_system``,
``linsolve.gmres``, ``cli.write_field`` and so on) to wrappers that record
a span per call.  No file of the package changes: every layer boundary is
found from the module namespaces that resolve it at call time.

A span is (name, start, end, parent span, op id) plus two numbers read
from the call's arguments or return value (points and bytes of a stencil,
Krylov iterations and convergence of a linear solve, bytes of a field
file).  Spans live in compact arrays and are written out when the run
ends, so 10^5 spans cost a few megabytes.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("cli", "kwsolver", "geometry", "linsolve", "operators", "fieldexpr", "grid")


def _points_bytes(arrays):
    """Stencil work from operand sizes: every operand point read once and
    the result written once, 8 bytes each.  Computed, not measured."""
    n = arrays[0].size
    return float(n), 8.0 * n * (len(arrays) + 1)


def _stencil_lap(args, kwargs, out):
    return _points_bytes([args[0]])


def _stencil_pairing(args, kwargs, out):
    return _points_bytes([args[1], *args[0]])


def _stencil_form_field(args, kwargs, out):
    alpha, f = args[0], args[1]
    return _points_bytes([f.values, *(c.values for c in alpha.components)])


def _stencil_form(args, kwargs, out):
    # divergence sup-norm: every component read, a scalar returned
    comps = [c.values for c in args[0].components]
    n = comps[0].size
    return float(n), 8.0 * n * len(comps) + 8.0


def _linear_solve(args, kwargs, out):
    stats = out[1]
    return float(stats.iterations), float(stats.converged)


def _nonlinear_solve(args, kwargs, out):
    return float(out.iterations), float(out.converged)


def _bracket(args, kwargs, out):
    return float(len(out.probes)), 0.0


def _field_bytes(field):
    return float(4 + 4 + 4 * field.spec.rank + 8 * field.spec.npoints)


def _write_field(args, kwargs, out):
    return _field_bytes(args[0]), 0.0


def _read_field(args, kwargs, out):
    return _field_bytes(out), 0.0


# span name -> (layer, bindings that resolve it at call time, reader of
# (a, b) numbers from the call).  Functions reached through several
# modules get one wrapper bound at every such name: solve_meanzero and
# solve_shifted look _solve_system up in linsolve, the monotone and
# Newton loops in kwsolver, and missing either binding loses those solves.
TARGETS = {
    # kwsolver phases and the entry points the CLI binds
    "kwsolver.solve_prescribed": ("kwsolver", ["cli"], None),
    "kwsolver.critical_c_bracket": ("kwsolver", ["cli"], _bracket),
    "kwsolver.construct_unsolvable": ("kwsolver", ["cli"], None),
    "kwsolver.asymptotic_suite": ("kwsolver", ["cli"], None),
    "kwsolver.sufficient_check": ("kwsolver", ["cli"], None),
    "kwsolver.necessary_check": ("kwsolver", ["cli", "kwsolver"], None),
    "kwsolver.build_supersolution": ("kwsolver", ["kwsolver"], None),
    "kwsolver.monotone_solve": ("kwsolver", ["kwsolver"], _nonlinear_solve),
    "kwsolver.newton_solve": ("kwsolver", ["kwsolver"], _nonlinear_solve),
    "kwsolver._solve_negative_c": ("kwsolver", ["kwsolver"], None),
    # geometry
    "geometry.transform_s": ("geometry", ["cli"], None),
    "geometry.transform_s2": ("geometry", ["cli"], None),
    "geometry.reduce_problem": ("geometry", ["cli", "kwsolver"], None),
    "geometry.degenerate_solve": ("geometry", ["cli"], None),
    "geometry.recover_metric": ("geometry", ["kwsolver"], None),
    # linsolve
    "linsolve.estimate_gamma": ("linsolve", ["cli"], None),
    "linsolve.solve_meanzero": ("linsolve", ["kwsolver", "geometry"], None),
    "linsolve.solve_shifted": ("linsolve", ["kwsolver"], None),
    "linsolve._solve_system": ("linsolve", ["kwsolver", "linsolve"], _linear_solve),
    "linsolve._apply": ("linsolve", ["kwsolver", "linsolve"], None),
    "linsolve.gmres": ("linsolve", ["linsolve"], None),
    "linsolve._fft_inverse": ("linsolve", ["linsolve"], None),
    # operators: the stencils the workloads' commands reach
    "operators._laplacian": ("operators", ["linsolve"], _stencil_lap),
    "operators._lee_pairing": ("operators", ["linsolve"], _stencil_pairing),
    "operators.gauduchon_defect": ("operators", ["cli", "kwsolver", "linsolve"], _stencil_form),
    "operators.chern_laplacian": ("operators", ["geometry"], _stencil_form_field),
    # fieldexpr: the CLI calls these through the module object
    "fieldexpr.parse": ("fieldexpr", ["fieldexpr"], None),
    "fieldexpr.evaluate": ("fieldexpr", ["fieldexpr"], None),
    # grid field files
    "grid.read_field": ("grid", ["cli"], _read_field),
    "grid.write_field": ("grid", ["cli"], _write_field),
}

# closures returned by _fft_inverse are the FFT solves (direct path and
# GMRES preconditioner alike)
FFT_APPLY = "linsolve.fft_apply"
CLI_MAIN = "cli.main"
STENCILS = tuple(name for name, (layer, _, _) in TARGETS.items() if layer == "operators")


class Tracer:
    """Span recorder; one instance per traced run, single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.sid = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.a = array("d")
        self.b = array("d")
        self._stack = [-1]
        self.op_id = -1
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, layer: str, reader=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        nid = self._ids[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.t0)
            self.sid.append(nid)
            self.parent.append(self._stack[-1])
            self.op.append(self.op_id)
            self.a.append(0.0)
            self.b.append(0.0)
            self.t1.append(0.0)
            self._stack.append(i)
            self.t0.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.t1[i] = clock()
                self._stack.pop()
            if reader is not None:
                self.a[i], self.b[i] = reader(args, kwargs, out)
            return out

        return traced

    def install(self) -> "Tracer":
        """Rebind every name in TARGETS; uninstall() puts them back."""
        for name, (layer, bindings, reader) in TARGETS.items():
            home, attr = name.split(".")
            fn = getattr(importlib.import_module(f"kwtorus.{home}"), attr)
            if attr == "_fft_inverse":
                wrapped = self.wrap(self._fft_factory(fn), name, layer)
            else:
                wrapped = self.wrap(fn, name, layer, reader)
            for mod_name in bindings:
                mod = importlib.import_module(f"kwtorus.{mod_name}")
                if getattr(mod, attr) is not fn:
                    raise RuntimeError(f"kwtorus.{mod_name}.{attr} is not {name}")
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrapped)
        return self

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _fft_factory(self, fft_inverse):
        @functools.wraps(fft_inverse)
        def build(*args, **kwargs):
            return self.wrap(fft_inverse(*args, **kwargs), FFT_APPLY, "linsolve")

        return build

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "sid": np.array(self.sid, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "t0": np.array(self.t0),
            "t1": np.array(self.t1),
            "a": np.array(self.a),
            "b": np.array(self.b),
        }

    def write(self, path: Path) -> None:
        """All spans as CSV: index, name, layer, op, parent, start, end, a, b."""
        with open(path, "w") as fh:
            fh.write("span,name,layer,op,parent,start_s,end_s,a,b\n")
            for i in range(len(self.t0)):
                nid = self.sid[i]
                fh.write(
                    f"{i},{self.names[nid]},{self.layers[nid]},{self.op[i]},"
                    f"{self.parent[i]},{self.t0[i]!r},{self.t1[i]!r},"
                    f"{self.a[i]!r},{self.b[i]!r}\n"
                )

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds one recorded span adds, from wrapped vs bare no-op calls."""

        def noop():
            return None

        traced = Tracer().wrap(noop, "probe", "probe")
        best = float("inf")
        for _ in range(3):
            t = time.perf_counter()
            for _ in range(calls):
                noop()
            bare = time.perf_counter() - t
            t = time.perf_counter()
            for _ in range(calls):
                traced()
            best = min(best, (time.perf_counter() - t - bare) / calls)
        return max(best, 0.0)

def layer_metrics(tracer: Tracer, op_wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the spans of timed op 0."""
    s = tracer.arrays()
    n = s["t0"].size
    dur = s["t1"] - s["t0"]
    parent = s["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_s = dur - child
    timed = s["op"] == 0
    ids = {name: i for i, name in enumerate(tracer.names)}
    layer_of = np.array([LAYERS.index(l) for l in tracer.layers], dtype=np.int32)

    def mask(*names):
        m = np.zeros(n, dtype=bool)
        for name in names:
            if name in ids:
                m |= s["sid"] == ids[name]
        return m & timed

    def layer_mask(layer):
        return (layer_of[s["sid"]] == LAYERS.index(layer)) & timed

    out: dict[str, tuple[float, str]] = {}

    sten = mask(*STENCILS)
    sten_s = float(dur[sten].sum())
    out["operators.stencil_calls"] = (float(sten.sum()), "count")
    out["operators.stencil_s"] = (sten_s, "s")
    points = float(s["a"][sten].sum())
    out["operators.stencil_mpoints_per_s"] = (
        points / sten_s / 1e6 if sten_s > 0 else 0.0, "Mpoint/s")
    out["operators.stencil_gb_computed"] = (float(s["b"][sten].sum()) / 1e9, "GB")

    solves = mask("linsolve._solve_system")
    gm = mask("linsolve.gmres")
    under_gmres = np.zeros(n, dtype=bool)
    under_gmres[parent[gm]] = True
    gm_solves = solves & under_gmres
    direct = solves & ~under_gmres & (s["a"] >= 1)
    n_solves = float(solves.sum())
    unconverged = float((solves & (s["b"] == 0.0)).sum())
    fft = mask(FFT_APPLY)
    out["linsolve.solves"] = (n_solves, "count")
    out["linsolve.fft_direct_solves"] = (float(direct.sum()), "count")
    out["linsolve.gmres_solves"] = (float(gm_solves.sum()), "count")
    out["linsolve.krylov_iters"] = (float(s["a"][gm_solves].sum()), "count")
    out["linsolve.unconverged"] = (unconverged, "count")
    out["linsolve.converged_ratio"] = (
        (n_solves - unconverged) / n_solves if n_solves else 1.0, "fraction")
    out["linsolve.apply_calls"] = (float(mask("linsolve._apply").sum()), "count")
    out["linsolve.fft_applies"] = (float(fft.sum()), "count")
    out["linsolve.fft_s"] = (float(dur[fft].sum()), "s")
    out["linsolve.gmres_self_s"] = (float(self_s[gm].sum()), "s")
    out["linsolve.self_s"] = (float(self_s[layer_mask("linsolve")].sum()), "s")

    mono = mask("kwsolver.monotone_solve")
    newton = mask("kwsolver.newton_solve")
    n_newton = float(newton.sum())
    out["kwsolver.necessary_s"] = (float(dur[mask("kwsolver.necessary_check")].sum()), "s")
    out["kwsolver.supersolution_s"] = (
        float(dur[mask("kwsolver.build_supersolution")].sum()), "s")
    out["kwsolver.monotone_s"] = (float(dur[mono].sum()), "s")
    out["kwsolver.monotone_iters"] = (float(s["a"][mono].sum()), "count")
    out["kwsolver.newton_s"] = (float(dur[newton].sum()), "s")
    out["kwsolver.newton_iters"] = (float(s["a"][newton].sum()), "count")
    out["kwsolver.newton_converged_ratio"] = (
        float(s["b"][newton].sum()) / n_newton if n_newton else 1.0, "fraction")
    out["kwsolver.bracket_probes"] = (
        float(s["a"][mask("kwsolver.critical_c_bracket")].sum()), "count")
    out["kwsolver.self_s"] = (float(self_s[layer_mask("kwsolver")].sum()), "s")

    for layer in ("geometry", "fieldexpr", "cli"):
        m = layer_mask(layer)
        out[f"{layer}.calls"] = (float(m.sum()), "count")
        out[f"{layer}.self_s"] = (float(self_s[m].sum()), "s")
    io = layer_mask("grid")
    out["grid.io_s"] = (float(dur[io].sum()), "s")
    out["grid.bytes_io"] = (float(s["a"][io].sum()), "B")

    # share of the op's wall time spent below the CLI, in the library
    # entry points that cli.main calls; the rest is CLI self time and gaps
    cli_id = ids.get(CLI_MAIN, -1)
    entry = timed & has_parent & (s["sid"][np.maximum(parent, 0)] == cli_id)
    covered = float(dur[entry].sum())
    out["trace.coverage"] = (covered / op_wall_s if op_wall_s > 0 else 0.0, "fraction")
    out["trace.spans"] = (float(timed.sum()), "count")
    return out
