"""Per-layer spans, recorded by wrapping lhall's public functions at run time.

Every public function of a layer module, and every public method or
arithmetic operator of a public class defined there, is replaced by a
wrapper that times the call as a span of that layer.  The replacement is
made in every lhall module that holds a reference, so calls between modules
are traced too.  A generator is timed per item it yields.  A layer's self
time is the sum of its spans minus the time of the spans they enclose; the
time of the tracer's own work-count hooks is taken out of the enclosing span.

Spans are only aggregated, per layer, in memory; a run writes the totals
out when it ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from math import prod
from time import perf_counter

from inputs import count_extensions

LAYERS = ("posets", "colored", "polys", "series", "roots", "lattice",
          "identities", "cli")

OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__neg__", "__call__", "__eq__")

# colored functions that walk all e(P) * prod(s) colored extensions of (P, s)
EXTENSION_WALKS = ("colored_extensions", "eulerian_polynomial",
                   "refined_eulerian")

WORK_COUNTS = ("colored.extensions", "lattice.points_counted",
               "lattice.points_enumerated")


class Tracer:
    def __init__(self):
        self.active = False
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.counts = dict.fromkeys(WORK_COUNTS, 0)
        # child-span time of each open span; the bottom entry is untraced code
        self._children = [0.0]
        self._extensions = {}

    # -- span accounting ----------------------------------------------------

    def _close(self, layer, t0):
        elapsed = perf_counter() - t0
        self.self_s[layer] += elapsed - self._children.pop()
        self._children[-1] += elapsed

    def _hide(self, t0):
        """Keep time spent in a work-count hook out of the enclosing span."""
        self._children[-1] += perf_counter() - t0

    def _wrap_function(self, layer, fn, before=None, after=None):
        children = self._children

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                t = perf_counter()
                before(args)
                self._hide(t)
            self.calls[layer] += 1
            t0 = perf_counter()
            children.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(layer, t0)
            if after is not None:
                t = perf_counter()
                after(result)
                self._hide(t)
            return result

        return traced

    def _wrap_generator(self, layer, fn, before=None, per_item=None):
        children = self._children

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                yield from fn(*args, **kwargs)
                return
            if before is not None:
                t = perf_counter()
                before(args)
                self._hide(t)
            self.calls[layer] += 1
            inner = fn(*args, **kwargs)
            try:
                while True:
                    t0 = perf_counter()
                    children.append(0.0)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(layer, t0)
                    if per_item is not None:
                        self.counts[per_item] += 1
                    yield item
            finally:
                inner.close()

        return traced

    # -- work counts --------------------------------------------------------

    def _count_extensions(self, args):
        P, s = args[0], args[1]
        key = (P.p, tuple(sorted(P.covers)))
        if key not in self._extensions:
            self._extensions[key] = count_extensions(*key)
        self.counts["colored.extensions"] += self._extensions[key] * prod(s)

    def _count_levels(self, counts):
        self.counts["lattice.points_counted"] += counts[-1]

    # -- installation -------------------------------------------------------

    def _wrap(self, layer, name, fn):
        before = (self._count_extensions
                  if layer == "colored" and name in EXTENSION_WALKS else None)
        if inspect.isgeneratorfunction(fn):
            per_item = ("lattice.points_enumerated"
                        if (layer, name) == ("lattice", "enumerate_points")
                        else None)
            return self._wrap_generator(layer, fn, before, per_item)
        after = (self._count_levels
                 if (layer, name) == ("lattice", "ehrhart_counts") else None)
        return self._wrap_function(layer, fn, before, after)

    def install(self):
        """Wrap every layer's public callables; call once per process."""
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"lhall.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) \
                        != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(layer, name, obj)
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if inspect.isfunction(member) and (
                                not attr.startswith("_") or attr in OPERATORS):
                            setattr(obj, attr, self._wrap(layer, attr, member))
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "lhall" or mod_name.startswith("lhall."):
                for name, obj in list(vars(module).items()):
                    if id(obj) in wrapped and not name.startswith("__"):
                        setattr(module, name, wrapped[id(obj)])

    def totals(self):
        """Self seconds and calls per layer, and the work counts, by name."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.calls"] = self.calls[layer]
        out.update(self.counts)
        return out
