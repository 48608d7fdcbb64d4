"""Spans around the public functions of each pweyl module, patched from outside.

The tracer replaces every public function of the traced modules, at every
namespace that binds it (the defining module, the modules that imported it
by name, and the package itself), with a wrapper that records one span:
(name, start, end, parent).  ``WeylOp.__mul__`` is wrapped on the class.
Spans stay in memory until the run ends; self time is a span's duration
minus the durations of its direct children.  ``rings`` and ``mpoly`` are
inner arithmetic and are not wrapped: their time is self time of the caller.
``linalg.rref`` is not wrapped either: it is the shared elimination kernel
of ``rank`` and ``nullspace``, and a span of its own would move all their
work into one name and hide which caller did it.
"""

import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = ("parser", "psupport", "wgb", "weyl", "center", "cgb", "linalg", "poisson", "corpus")
UNTRACED = ("linalg.rref",)

# Counters read from a traced call's result, summed per span name.
_COUNTERS = {
    "wgb.left_groebner": ("basis_size", len),
    "cgb.buchberger": ("basis_size", len),
    "center.z_module_presentation": ("columns", lambda result: len(result[1])),
    "center.truncated_kernel": ("kernel_dim", len),
    "cgb.radical_member": ("true", int),
}


def _targets():
    """Map id(function) -> (span name, function) for every traced function."""
    targets = {}
    for layer in LAYERS:
        module = importlib.import_module(f"pweyl.{layer}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            name = f"{layer}.{attr}"
            if obj.__module__ == module.__name__ and name not in UNTRACED:
                targets[id(obj)] = (name, obj)
    return targets


class Tracer:
    """Records spans while installed; computes per-name self time and counters."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counters = {}
        self._stack = [-1]
        self._patched = []

    def _wrap(self, span_name, fn):
        name_id = self._name_ids.setdefault(span_name, len(self.names))
        if name_id == len(self.names):
            self.names.append(span_name)
        counter = _COUNTERS.get(span_name)
        stack = self._stack
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        clock = time.perf_counter
        counters = self.counters

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                key = f"{span_name}.{counter[0]}"
                counters[key] = counters.get(key, 0) + counter[1](result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every binding of every traced function; returns self."""
        from pweyl.weyl import WeylOp

        targets = _targets()
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        namespaces = [m for n, m in sys.modules.items() if n == "pweyl" or n.startswith("pweyl.")]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        original_mul = WeylOp.__dict__["__mul__"]
        self._patched.append((WeylOp, "__mul__", original_mul))
        WeylOp.__mul__ = self._wrap("weyl.mul", original_mul)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def span_count(self):
        return len(self.start)

    def totals(self, scale=None):
        """Per span name that was called: (calls, total seconds, self seconds).

        ``scale``, if given, holds one factor per span that its times are
        multiplied by."""
        nspans = len(self.start)
        if scale is None:
            scale = [1.0] * nspans
        child_time = [0.0] * nspans
        for i in range(nspans):
            par = self.parent[i]
            if par >= 0:
                child_time[par] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(nspans):
            k = self.name[i]
            dur = self.end[i] - self.start[i]
            calls[k] += 1
            total[k] += dur * scale[i]
            self_s[k] += (dur - child_time[i]) * scale[i]
        return {
            name: (calls[k], total[k], self_s[k])
            for k, name in enumerate(self.names)
            if calls[k]
        }

    def dump(self, path):
        """Write every span as [name index, start, end, parent index]."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"schema": "pweyl-bench-spans-v1", "names": ')
            json.dump(self.names, fh)
            fh.write(', "spans": [')
            for i in range(len(self.start)):
                if i:
                    fh.write(",")
                fh.write(
                    f"[{self.name[i]},{self.start[i]!r},{self.end[i]!r},{self.parent[i]}]"
                )
            fh.write("]}\n")
