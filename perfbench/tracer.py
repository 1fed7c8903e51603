"""Span tracing of curveinv's public functions, from outside the library.

`Tracer.install` replaces each listed function by a wrapper that records a
span (name, parent span, op, start, end) and then calls the original.  It
patches the defining module and every other curveinv module that bound the
same function with ``from .module import name``, so calls between layers
are traced too; `uninstall` puts the originals back.  Spans are kept in
flat arrays while the run lasts and written out once it ends.  A layer's
self time is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from array import array
from time import perf_counter_ns

# (layer, public function); geometry.NumericContext is traced through its
# constructor, the only call that does work.
LAYERS = {
    "laurent": ("add", "mul_monomial", "geom_div"),
    "diagram": ("parse_diagram", "trace_boundary_cycles", "build_diagram",
                "index_function", "arc_and_crossing_indices", "subsurface_chi",
                "subsurface_profile", "smoothed_level_chi", "canonicalize"),
    "invariants": ("full_report", "iq_topological", "iq_euler", "viro_jminus"),
    "moves": ("tangency_birth", "bigon_death", "triple_move", "find_bigons",
              "find_triangles"),
    "geometry": ("NumericContext", "find_double_points", "point_index",
                 "extract_diagram", "numeric_iq", "gauss_bonnet_region_check",
                 "geodesic_curvature"),
}
SPAN_NAMES = ["op"] + [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


class Tracer:
    """Records spans while `enabled`; the first span name is the op root."""

    def __init__(self):
        self.enabled = False
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = []
        self._op = -1
        self._patched = []

    def _open(self, name_id):
        sid = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(perf_counter_ns())
        return sid

    def _close(self, sid):
        self.end[sid] = perf_counter_ns()
        self._stack.pop()

    def op_span(self, op_id):
        """Open the root span of one op; close it with `close_op`."""
        self._op = op_id
        return self._open(0) if self.enabled else None

    def close_op(self, sid):
        if sid is not None:
            self._close(sid)

    def _wrap(self, name_id, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)
        return traced

    def install(self):
        """Patch every listed function in every loaded curveinv module."""
        homes = {layer: importlib.import_module(f"curveinv.{layer}") for layer in LAYERS}
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "curveinv" or name.startswith("curveinv."))]
        for name_id, span in enumerate(SPAN_NAMES[1:], start=1):
            layer, fn_name = span.split(".")
            home = homes[layer]
            original = getattr(home, fn_name)
            if isinstance(original, type):
                init = original.__init__
                self._patched.append((original, "__init__", init))
                original.__init__ = self._wrap(name_id, init)
                continue
            traced = self._wrap(name_id, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, traced)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def layer_totals(self):
        """{span name: (calls, self ns, inclusive ns)} over all spans."""
        count = len(self.name)
        child = [0] * count
        for sid in range(count):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        totals = {name: [0, 0, 0] for name in SPAN_NAMES}
        for sid in range(count):
            entry = totals[SPAN_NAMES[self.name[sid]]]
            duration = self.end[sid] - self.start[sid]
            entry[0] += 1
            entry[1] += duration - child[sid]
            entry[2] += duration
        return {name: tuple(v) for name, v in totals.items()}

    def write(self, path):
        """All spans as gzip'd tab-separated lines: id parent op name start_ns end_ns."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\top\tname\tstart_ns\tend_ns\n")
            for sid in range(len(self.name)):
                fh.write(f"{sid}\t{self.parent[sid]}\t{self.op[sid]}\t"
                         f"{SPAN_NAMES[self.name[sid]]}\t{self.start[sid]}\t{self.end[sid]}\n")
