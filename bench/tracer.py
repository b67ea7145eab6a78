"""Span recording at projconn's module boundaries, from outside the package.

``Tracer.install`` replaces module-level functions of the package modules
with timing wrappers.  Because each module looks its callees up in its own
globals, wrapping a name in every module that binds it (including names an
upper module re-binds with ``from .x import y``, such as
``theorems.metric_at``) catches every call across a module boundary.
``ChartTables.values`` / ``ChartTables.table`` and ``numpy.einsum`` are
wrapped too.  ``expr.evaluate`` and ``expr.diff`` are recursive, so they are
left alone: the expr layer is timed at the table boundary.

Spans (name, start, end, parent, request id) are kept in flat arrays in
memory and written out by ``write``.  Self time is a span's duration minus
the time its child spans cover; aggregates are kept per phase so per-point
ratios can be taken over the verification phase alone.
"""

from __future__ import annotations

import gzip
import re
import types
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

_FLOPS = re.compile(r"Optimized FLOP count:\s*([0-9.eE+-]+)")

# Modules whose functions are wrapped; the span is named after the module
# that defines the function, whichever module's binding was called.
WRAPPED_MODULES = ("catalog", "geometry", "connections", "curvature", "theorems", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name_id = array("q")
        self.request_id = array("q")
        self._stack: list[list] = []  # [span index, child time]
        self.phase = "setup"
        self.request = 0
        self.family = None
        # (phase, name) -> [calls, total s, self s]
        self.stats: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        # (phase, family) -> theorems-layer self time spent inside that family
        self.family_self: dict[tuple[str, str], float] = defaultdict(float)
        self.flops: dict[str, float] = defaultdict(float)
        self._flop_cache: dict[tuple, float] = {}
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _name(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self.layers.append(name.split(".", 1)[0])
        return nid

    def wrap(self, name: str, func, family: str | None = None):
        """``func`` recording a span named ``name``; a ``family`` span
        attributes the theorems-layer self time inside it to that family."""
        nid = self._name(name)
        layer = self.layers[nid]
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(self.start)
            self.start.append(0.0)
            self.end.append(0.0)
            self.parent.append(stack[-1][0] if stack else -1)
            self.name_id.append(nid)
            self.request_id.append(self.request)
            outer_family = self.family
            if family is not None:
                self.family = family
            frame = [index, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                if stack:
                    stack[-1][1] += duration
                self.start[index] = t0
                self.end[index] = t1
                self_time = duration - frame[1]
                entry = self.stats[(self.phase, name)]
                entry[0] += 1
                entry[1] += duration
                entry[2] += self_time
                if layer == "theorems" and self.family is not None:
                    self.family_self[(self.phase, self.family)] += self_time
                self.family = outer_family

        traced.__wrapped__ = func
        return traced

    def _einsum_flops(self, einsum_path, args, kwargs) -> float:
        optimize = kwargs.get("optimize", False)
        key = (args[0], tuple(np.shape(a) for a in args[1:]), optimize)
        flops = self._flop_cache.get(key)
        if flops is None:
            _, text = einsum_path(*args, optimize=optimize)
            flops = float(_FLOPS.search(text).group(1))
            self._flop_cache[key] = flops
        return flops

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the package's module-boundary functions, the chart tables and
        ``numpy.einsum``; ``uninstall`` restores them."""
        import importlib

        modules = {
            name: importlib.import_module(f"{package.__name__}.{name}")
            for name in WRAPPED_MODULES
        }
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                owner = obj.__module__.rsplit(".", 1)[-1]
                if owner not in modules:
                    continue
                self._replace(module, attr, self.wrap(f"{owner}.{obj.__name__}", obj))
        theorems = modules["theorems"]
        runners = theorems._FAMILY_RUNNERS
        for family, runner in list(runners.items()):
            self._replace_item(
                runners, family,
                self.wrap(f"theorems.{runner.__name__}", runner, family=family),
            )
        tables = modules["geometry"].ChartTables
        for method in ("values", "table"):
            self._replace(tables, method, self.wrap(f"expr.{method}", getattr(tables, method)))
        original = np.einsum
        einsum_path = np.einsum_path
        timed = self.wrap("numpy.einsum", original)

        def einsum(*args, **kwargs):
            self.flops[self.phase] += self._einsum_flops(einsum_path, args, kwargs)
            return timed(*args, **kwargs)

        self._replace(np, "einsum", einsum)

    def _replace(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_item(self, mapping, key, value) -> None:
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    # -- summaries -------------------------------------------------------------

    def calls(self, phase: str, name: str) -> int:
        return self.stats[(phase, name)][0]

    def total(self, phase: str, name: str) -> float:
        return self.stats[(phase, name)][1]

    def self_time(self, phase: str, name: str) -> float:
        return self.stats[(phase, name)][2]

    def layer_self(self, phase: str, layer: str) -> float:
        return sum(
            entry[2]
            for (p, name), entry in self.stats.items()
            if p == phase and name.split(".", 1)[0] == layer
        )

    def write(self, path) -> None:
        """One line per span: name, start, end (s, perf_counter clock),
        parent span index (-1 for none) and request id."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("index\tname\tstart\tend\tparent\trequest\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i]!r}\t"
                    f"{self.end[i]!r}\t{self.parent[i]}\t{self.request_id[i]}\n"
                )
