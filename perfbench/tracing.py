"""Layer tracing from outside the program.

:meth:`Tracer.install` replaces the public functions of the program's
modules, the :class:`gradetwo.meshes.Mesh` constructor and the scipy sparse
solver entry points with wrappers that record one span per call: name,
parent span, round, start, end and self time.  User data callables are
too many calls for spans; they are counted and timed in aggregate, and
their time is taken off the self time of the span that called them, so
that within a solve the self times of all spans plus the data time add up
to the solve span.  Spans stay in memory and are written out at the end of
the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import NamedTuple

import scipy.sparse.linalg as spla

LAYER_MODULES = ("meshes", "spaces", "stokes", "transport", "driver",
                 "configio", "exprlang", "vtkio", "cli")
SCIPY_ENTRIES = ("spsolve", "splu", "spilu", "gmres")


class Span(NamedTuple):
    id: int
    parent: object      # span id or None
    name: str           # "<module>.<function>" or "scipy.<function>"
    round: object       # round index or None outside rounds
    start: float
    end: float
    child_s: float      # time inside child spans
    data_s: float       # time inside data callables called directly
    attrs: object       # dict or None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s - self.data_s

    @property
    def layer(self):
        return self.name.split(".", 1)[0]


def _matrix_attrs(args, kwargs, result):
    a = args[0] if args else kwargs.get("A")
    return {"rows": int(a.shape[0]), "nnz": int(a.nnz)}


def _iteration_attrs(args, kwargs, result):
    if result is None:
        return None
    return {"iterations": int(result[3].iterations)}


_ATTRS = {"driver.fixed_point_solve": _iteration_attrs}


class Tracer:
    """Records spans of wrapped calls; one instance per process."""

    def __init__(self):
        self.spans = []
        self.round = None
        self._stack = []      # open frames: [span id, child_s, data_s]
        self._next_id = 0
        self._data = defaultdict(lambda: [0, 0, 0.0])  # calls, points, s
        self._round_data = self._data[None]

    def begin_round(self, index):
        """Attribute the spans and data calls that follow to ``index``."""
        self.round = index
        self._round_data = self._data[index]

    def span(self, name, fn, attrs=None):
        """Wrap ``fn`` so that every call records a span called ``name``."""
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [self._next_id, 0.0, 0.0]
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                self.spans.append(Span(
                    frame[0], parent, name, self.round, start, end, frame[1],
                    frame[2], attrs(args, kwargs, result) if attrs else None))
        return traced

    def data(self, fn, point_arg=0):
        """Wrap a data callable: count calls and points, time in aggregate."""
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                if stack:
                    stack[-1][2] += spent
                agg = self._round_data
                agg[0] += 1
                agg[1] += getattr(args[point_arg], "size", 1)
                agg[2] += spent
        return counted

    def install(self):
        """Wrap the program's layers and the scipy solver entry points."""
        originals = {}
        for short in LAYER_MODULES:
            mod = sys.modules["gradetwo." + short]
            for attr, value in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                if name == "exprlang.evaluate":
                    wrapper = self.data(value, point_arg=1)
                else:
                    wrapper = self.span(name, value, _ATTRS.get(name))
                originals[id(value)] = (value, wrapper)
        # modules import each other's functions by name: replace every alias
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "gradetwo" and not mod_name.startswith("gradetwo."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        mesh_cls = sys.modules["gradetwo.meshes"].Mesh
        mesh_cls.__init__ = self.span("meshes.Mesh", mesh_cls.__init__)
        for name in SCIPY_ENTRIES:
            setattr(spla, name, self.span("scipy." + name,
                                          getattr(spla, name), _matrix_attrs))

    # -- per-round figures --------------------------------------------------

    def round_spans(self, index):
        return [s for s in self.spans if s.round == index]

    def layer_metrics(self, index, output_bytes=0):
        """The per-layer metrics of one round, by name."""
        spans = self.round_spans(index)
        by_id = {s.id: s for s in spans}

        def ancestors(s):
            while s.parent is not None and s.parent in by_id:
                s = by_id[s.parent]
                yield s

        def named(name):
            return [s for s in spans if s.name == name]

        def total(*names):
            """Time in the named spans, nested ones counted once."""
            return sum(s.duration for s in spans if s.name in names
                       and not any(a.name in names for a in ancestors(s)))

        def owner(s):
            """Layer of the nearest program span around a scipy call."""
            return next((a.layer for a in ancestors(s) if a.layer != "scipy"),
                        None)

        linalg = [s for s in spans if s.layer == "scipy"]
        stokes_la = [s for s in linalg if owner(s) == "stokes"]
        transport_la = [s for s in linalg if owner(s) == "transport"]
        calls, points, data_s = self._data[index]
        fps = named("driver.fixed_point_solve")
        return {
            "stokes.solve_s": total("stokes.solve_generalized_stokes"),
            "stokes.solve_calls": len(
                named("stokes.solve_generalized_stokes")),
            "stokes.solve_self_s": sum(
                s.self_s for s in named("stokes.solve_generalized_stokes")),
            "stokes.assemble_s": total("stokes.assemble_generalized_stokes"),
            "stokes.flux_check_calls":
                len(named("stokes.check_flux_compatibility")),
            "stokes.linalg_s": sum(s.duration for s in stokes_la),
            "stokes.linalg_calls": len(stokes_la),
            "stokes.matrix_rows": max(
                (s.attrs["rows"] for s in stokes_la), default=0),
            "stokes.matrix_nnz": max(
                (s.attrs["nnz"] for s in stokes_la), default=0),
            "stokes.energy_s": total("stokes.stokes_energy_report"),
            "transport.solve_s": total("transport.solve_transport"),
            "transport.solve_calls": len(named("transport.solve_transport")),
            "transport.linalg_s": sum(s.duration for s in transport_la),
            "transport.matrix_nnz": max(
                (s.attrs["nnz"] for s in transport_la), default=0),
            "transport.datum_s": total("transport.build_inflow_datum"),
            "transport.sign_s": total("transport.sign_functional_report",
                                      "transport.sign_functional"),
            "transport.green_s": total("transport.green_residual"),
            "data.calls": calls,
            "data.points": points,
            "data.eval_s": data_s,
            "spaces.build_s": total("spaces.build_spaces"),
            "spaces.interpolate_s": total("spaces.interpolate"),
            "spaces.norms_calls": len(named("spaces.norms")),
            "spaces.error_s": total("spaces.error_l2", "spaces.error_h1"),
            "meshes.build_s": total("meshes.Mesh", "meshes.unit_square_mesh",
                                    "meshes.load_mesh"),
            "meshes.classify_s": total("meshes.classify_boundary"),
            "meshes.flux_s": total("meshes.flux_per_component"),
            "driver.iterations": sum(
                (s.attrs or {}).get("iterations", 0) for s in fps),
            "driver.self_s": sum(s.self_s for s in fps),
            "driver.diagnostics_s": total("driver.diagnostics"),
            "configio.load_s": total("configio.load_config"),
            "vtkio.write_s": total("vtkio.write_vtk"),
            "output.bytes": output_bytes,
        }

    def solve_split(self, index, entry):
        """Self time by layer inside the ``entry`` spans of one round.

        Returns (entry total, {layer: self seconds, "data": seconds}); the
        parts add up to the total by construction of the self times.
        """
        spans = self.round_spans(index)
        by_id = {s.id: s for s in spans}
        inside = {}

        def in_entry(s):
            if s.id not in inside:
                parent = by_id.get(s.parent)
                inside[s.id] = s.name == entry or (
                    parent is not None and in_entry(parent))
            return inside[s.id]

        split = defaultdict(float)
        for s in spans:
            if in_entry(s):
                split[s.layer] += s.self_s
                split["data"] += s.data_s
        total = sum(s.duration for s in spans if s.name == entry)
        return total, dict(split)

    def write(self, path, summary):
        """Write the summary and every span as JSON."""
        doc = dict(summary)
        doc["span_fields"] = list(Span._fields)
        doc["spans"] = [list(s) for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
