"""Span tracing of the program's layers, from the benchmark's own files.

The program's modules bind imported names at import time (for example
``from .numerics import hermitian_eigen`` in ``passivity``), so a wrapper
on ``fdpassivity.numerics.hermitian_eigen`` alone would see no calls.
Each binding is patched at every module that calls it, and so is
``admittance`` on every DeviceModel subclass.

A span is (id, parent id, start ns, end ns, name).  Each thread appends
to its own array, so the spans of one thread nest and never interleave
with another's.  A span opened in a worker thread with nothing open in
that thread is linked to the enclosing ``parallel_map`` span.  Self time
is a span's duration minus its children in the same thread; the self time
of a worker item (the per-point closure) is charged to the layer that
called ``parallel_map``.  Spans stay in memory until the run ends.

A hook point that no longer exists (for example after ``_parallel`` is
deleted) makes its layer's metrics absent instead of failing the run.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import os
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

# layer -> the (module, attribute) bindings that reach it
SITES = {
    "numerics.hermitian_eigen": [("passivity", "hermitian_eigen"), ("network", "hermitian_eigen")],
    "numerics.general_eigen": [("stability", "general_eigen")],
    "numerics.inverse": [("network", "inverse"), ("stability", "inverse")],
    "numerics.determinant": [("stability", "determinant")],
    "numerics.adjugate": [("stability", "adjugate")],
    "devices.param_derivative": [("passivity", "param_derivative"), ("network", "param_derivative")],
    "network.assemble": [(m, f) for m in ("network", "stability")
                         for f in ("assemble_nodal", "assemble_net", "assemble_devices")],
    "network.sweep": [("network", "nodal_passivity_sweep"), ("network", "nodal_param_sensitivity"),
                      ("network", "participation_sweep")],
    "network.components": [("network", "components")],
    "passivity.index_sweep": [("passivity", "index_sweep")],
    "passivity.sensitivity": [("passivity", "param_passivity_sensitivity")],
    "stability.gnc": [("stability", "gnc")],
    "stability.loop_gain": [("stability", "loop_gain")],
    "stability.refine_mode": [("stability", "refine_mode")],
    "stability.mode_scan": [("stability", "mode_scan")],
    "stability.xi_coefficient": [("stability", "xi_coefficient")],
    "stability.fd_pf": [("stability", "fd_pf")],
    "parallel.parallel_map": [(m, "parallel_map") for m in ("passivity", "network", "stability")],
    "io_cli.load_scenario": [("io_cli", "load_scenario")],
    "io_cli.run": [("io_cli", "run")],
    "io_cli.emit_csv": [("io_cli", "emit_csv")],
    "io_cli.emit_svg_plot": [("io_cli", "emit_svg_plot")],
}
ADMITTANCE = "devices.admittance"
MAP = "parallel.parallel_map"
ITEM = "parallel.item"
LAYERS = tuple(SITES) + (ADMITTANCE, ITEM)

# Floating-point operations per call for a matrix of order n: textbook
# LAPACK counts, computed from the argument's shape, never measured.
FLOPS = {
    "numerics.hermitian_eigen": lambda n: 9 * n ** 3,     # eigh with vectors
    "numerics.general_eigen": lambda n: 25 * n ** 3,      # eig with vectors
    "numerics.determinant": lambda n: 2 * n ** 3 / 3,     # one LU
    "numerics.inverse": lambda n: 2 * n ** 3,             # LU and inversion
    # up to 8x8 by cofactors (n^2 minors of order n-1); above that each of
    # the n^2 cofactors is an LU of the full n x n matrix
    "numerics.adjugate": lambda n: n * n * 2 * (n - 1 if n <= 8 else n) ** 3 / 3,
}


def _import(module: str):
    try:
        return importlib.import_module(f"fdpassivity.{module}")
    except ImportError:
        return None


class Tracer:
    """Patches the program's layer boundaries; records spans while ``on``."""

    def __init__(self):
        self.on = False
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[array] = []
        self._undo: list[tuple[object, str, object]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.map_workers: dict[int, int] = {}
        self.missing: dict[str, list[str]] = defaultdict(list)

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[key] += value

    # --- recording ------------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return self._name_ids[name]

    def _thread(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = []
            loc.root = 0
            loc.buf = array("q")
            with self._lock:
                self._buffers.append(loc.buf)
        return loc

    def wrap(self, name: str, layer: str, fn, after=None):
        """fn, recording a span while on; after(args, result, exc) counts work."""
        nid = self._name_id(name, layer)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            loc = tracer._thread()
            sid = next(tracer._ids)
            parent = loc.stack[-1] if loc.stack else loc.root
            loc.stack.append(sid)
            result = exc = None
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                t1 = time.perf_counter_ns()
                loc.stack.pop()
                loc.buf.extend((sid, parent, t0, t1, nid))
                if after is not None:
                    after(args, result, exc)

        return traced

    # --- hooks ----------------------------------------------------------------

    def install(self) -> None:
        for layer, sites in SITES.items():
            for module, attr in sites:
                mod = _import(module)
                if mod is None or not hasattr(mod, attr):
                    self.missing[layer].append(f"{module}.{attr}")
                    continue
                fn = getattr(mod, attr)
                name = f"{module}.{attr}"
                if layer == MAP:
                    wrapped = self._wrap_parallel_map(name, fn)
                else:
                    wrapped = self.wrap(name, layer, fn, self._counter(layer))
                self._undo.append((mod, attr, fn))
                setattr(mod, attr, wrapped)
        base = getattr(_import("devices"), "DeviceModel", None)
        if base is None:
            self.missing[ADMITTANCE].append("devices.DeviceModel")
            return
        pending = list(base.__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "admittance" in cls.__dict__:
                fn = cls.__dict__["admittance"]
                self._undo.append((cls, "admittance", fn))
                setattr(cls, "admittance", self.wrap(f"devices.{cls.__name__}.admittance",
                                                     ADMITTANCE, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def _counter(self, layer: str):
        add = self.add
        if layer in FLOPS:
            flops = FLOPS[layer]
            return lambda args, result, exc: add("numerics.flops_computed",
                                                 flops(np.shape(args[0])[0]))
        if layer == "stability.gnc":
            return lambda args, result, exc: add("stability.gnc.points", len(args[1]))
        if layer == "stability.refine_mode":
            def refine(args, result, exc):
                est = result if exc is None else getattr(exc, "partial", None)
                if exc is not None or not result.converged:
                    add("stability.refine_mode.failed", 1)
                if est is not None:
                    add("stability.refine_mode.iterations", est.iterations)
            return refine
        if layer == "stability.mode_scan":
            def modes(args, result, exc):
                if exc is None:
                    add("stability.mode_scan.modes", len(result.modes))
            return modes
        if layer in ("io_cli.emit_csv", "io_cli.emit_svg_plot"):
            def written(args, result, exc):
                if exc is None:
                    add(f"{layer}.bytes", os.path.getsize(args[-1]))
            return written
        return None

    def _wrap_parallel_map(self, name: str, parallel_map):
        tracer = self
        worker_count = getattr(_import("_parallel"), "worker_count", lambda: 1)

        def inside_span(fn, items):
            sid = tracer._thread().stack[-1]
            tracer.map_workers[sid] = min(worker_count(), len(items)) if len(items) > 1 else 1
            tracer.add("parallel.parallel_map.items", len(items))
            item = tracer.wrap(ITEM, ITEM, fn)

            def linked(x):
                loc = tracer._thread()
                saved = loc.root
                if not loc.stack:
                    loc.root = sid
                try:
                    return item(x)
                finally:
                    loc.root = saved

            return parallel_map(linked, items)

        span = self.wrap(name, MAP, inside_span)

        def traced_map(fn, items):
            if not tracer.on:
                return parallel_map(fn, items)
            return span(fn, list(items))

        return traced_map

    # --- output ---------------------------------------------------------------

    def _table(self) -> dict[str, np.ndarray]:
        """All spans as columns: id, parent, t0, t1, name, tid."""
        keys = ("id", "parent", "t0", "t1", "name")
        parts = [np.frombuffer(b, dtype=np.int64).reshape(-1, 5) for b in self._buffers]
        parts = parts or [np.empty((0, 5), np.int64)]
        rows = np.concatenate(parts)
        table = dict(zip(keys, rows.T))
        table["tid"] = np.concatenate([np.full(len(p), k) for k, p in enumerate(parts)])
        return table

    def write_spans(self, path) -> int:
        t = self._table()
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id,parent,thread,start_ns,end_ns,name\n")
            for sid, parent, tid, t0, t1, nid in zip(
                    t["id"].tolist(), t["parent"].tolist(), t["tid"].tolist(),
                    t["t0"].tolist(), t["t1"].tolist(), t["name"].tolist()):
                fh.write(f"{sid},{parent},{tid},{t0},{t1},{self.names[nid]}\n")
        return len(t["id"])

    def layer_metrics(self) -> tuple[dict[str, float], dict[str, int]]:
        """(per-layer metrics, outermost calls per layer) from the spans."""
        t = self._table()
        n = len(t["id"])
        lookup = np.array([LAYERS.index(layer) for layer in self.layer_of] or [0])
        layer = lookup[t["name"]] if n else np.empty(0, np.int64)
        dur = (t["t1"] - t["t0"]) * 1e-9
        row_of = np.full(int(t["id"].max(initial=0)) + 1, -1)
        row_of[t["id"]] = np.arange(n)
        prow = np.where(t["parent"] > 0, row_of[t["parent"]], -1)
        has_parent = prow >= 0
        safe = np.maximum(prow, 0)
        same_thread = has_parent & (t["tid"] == t["tid"][safe])
        children = np.zeros(n)
        np.add.at(children, prow[same_thread], dur[same_thread])
        self_time = dur - children
        # nested spans of one layer (assemble_nodal -> assemble_net) are one call
        outer = ~(has_parent & (layer[safe] == layer))

        # a worker item's self time belongs to the layer that called the map
        charged = layer.copy()
        items = np.flatnonzero(layer == LAYERS.index(ITEM))
        callers = np.where(prow[items] >= 0, prow[np.maximum(prow[items], 0)], -1)
        known = callers >= 0
        charged[items[known]] = layer[callers[known]]

        calls, total, own = {}, {}, {}
        for k, name in enumerate(LAYERS):
            mine = layer == k
            calls[name] = int((mine & outer).sum())
            total[name] = float(dur[mine].sum())
            own[name] = float(self_time[charged == k].sum())

        c = self.counters
        m = {
            "devices.admittance.calls": calls[ADMITTANCE],
            "devices.admittance.s": total[ADMITTANCE],
            "devices.param_derivative.calls": calls["devices.param_derivative"],
            "devices.param_derivative.self_s": own["devices.param_derivative"],
            "network.assemble.calls": calls["network.assemble"],
            "network.assemble.self_s": own["network.assemble"],
            "network.sweep.self_s": own["network.sweep"],
            "network.components.calls": calls["network.components"],
        }
        for name in ("hermitian_eigen", "general_eigen", "inverse", "determinant", "adjugate"):
            m[f"numerics.{name}.calls"] = calls[f"numerics.{name}"]
            m[f"numerics.{name}.s"] = total[f"numerics.{name}"]
        refines = calls["stability.refine_mode"]
        maps = layer == LAYERS.index(MAP)
        capacity = sum(self.map_workers.get(sid, 1) * d
                       for sid, d in zip(t["id"][maps].tolist(), dur[maps].tolist()))
        m.update({
            "numerics.flops_computed": c["numerics.flops_computed"],
            "passivity.index_sweep.calls": calls["passivity.index_sweep"],
            "passivity.index_sweep.self_s": own["passivity.index_sweep"],
            "passivity.sensitivity.self_s": own["passivity.sensitivity"],
            "stability.gnc.calls": calls["stability.gnc"],
            "stability.gnc.points": c["stability.gnc.points"],
            "stability.gnc.self_s": own["stability.gnc"],
            "stability.loop_gain.calls": calls["stability.loop_gain"],
            "stability.loop_gain.self_s": own["stability.loop_gain"],
            "stability.refine_mode.calls": refines,
            "stability.refine_mode.failed": c["stability.refine_mode.failed"],
            "stability.refine_mode.iterations": c["stability.refine_mode.iterations"],
            "stability.mode_scan.useful_ratio": (
                c["stability.mode_scan.modes"] / refines if refines else 0.0),
            "stability.xi_coefficient.self_s": own["stability.xi_coefficient"],
            "stability.fd_pf.s": total["stability.fd_pf"],
            "parallel.parallel_map.calls": calls[MAP],
            "parallel.parallel_map.items": c["parallel.parallel_map.items"],
            "parallel.parallel_map.efficiency": total[ITEM] / capacity if capacity else 0.0,
            "io_cli.load_scenario.s": total["io_cli.load_scenario"],
            "io_cli.run.self_s": own["io_cli.run"],
            "io_cli.emit_csv.s": total["io_cli.emit_csv"],
            "io_cli.emit_csv.bytes": c["io_cli.emit_csv.bytes"],
            "io_cli.emit_svg_plot.s": total["io_cli.emit_svg_plot"],
            "io_cli.emit_svg_plot.bytes": c["io_cli.emit_svg_plot.bytes"],
        })
        for name in self.missing:
            for key in [k for k in m if k.startswith(name + ".")]:
                del m[key]
            if name in FLOPS:
                m.pop("numerics.flops_computed", None)
        return m, calls
