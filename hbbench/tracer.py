"""Outside-in call tracer for the hbnoma modules.

The tracer replaces every public function of every ``hbnoma`` submodule,
at every name that binds it in the package and its submodules, with a thin
wrapper that records a span: function, parent span, start and end. Module
code looks up globals at call time, so a wrapper installed in the calling
module's namespace catches calls that arrive through ``from .x import f``
as well as calls inside the defining module. Nothing under ``src/`` is
edited, and :meth:`Tracer.uninstall` puts every original object back.

Spans live in flat ``array`` columns (about 24 bytes each) and are written
out once, at the end of a run.

Definitions used by :func:`summarize`:

* A span's *self time* is its duration minus the time covered by its child
  spans. A module's self time is the sum over its spans, so time spent in
  ``numerics`` is never counted in ``beamforming`` or ``bounds``.
* A module's *calls* are the calls that enter it from another module or
  from the benchmark; calls between functions of one module are internal.
* A function's *calls* count every call. Its *self time* is the time spent
  in its own module under it: the function and the same-module functions
  it calls, less the time in calls to other modules. This keeps the number
  independent of whether a same-module helper happens to be public.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

PACKAGE = "hbnoma"
NO_METRICS = ("errors",)  # holds exception types only; does no work


def _package_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _layer_of(fn) -> str | None:
    module = getattr(fn, "__module__", "") or ""
    if not module.startswith(PACKAGE + "."):
        return None
    layer = module[len(PACKAGE) + 1 :]
    return None if layer in NO_METRICS else layer


class Tracer:
    """Install wrappers, keep spans in memory, restore the originals."""

    def __init__(self):
        self.names: list[str] = []  # "layer.function" per function id
        self.layers: list[str] = []  # layer per function id
        self.fn_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._installed: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every public hbnoma function at every binding; return their names."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for module in _package_modules():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = _layer_of(obj)
                if layer is None:
                    continue
                wrapper = wrappers.get(id(obj))
                if wrapper is None:
                    wrapper = wrappers[id(obj)] = self._wrap(obj, layer)
                setattr(module, attr, wrapper)
                self._installed.append((module, attr, obj))
        return self.installed_names()

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def installed_names(self) -> list[str]:
        return sorted(self.names)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, fn, layer: str):
        fid = len(self.names)
        self.names.append(f"{layer}.{fn.__name__}")
        self.layers.append(layer)
        fn_ids, parents, starts, ends = self.fn_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(fn_ids)
            fn_ids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the spans as a compressed numpy archive.

        Arrays: ``fn`` (index into ``names``), ``parent`` (span index, -1 at
        the top), ``start_s`` and ``end_s`` (``time.perf_counter`` seconds).
        """
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            fn=np.frombuffer(self.fn_ids, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            start_s=np.frombuffer(self.starts, dtype=np.float64),
            end_s=np.frombuffer(self.ends, dtype=np.float64),
        )


def summarize(tracer: Tracer) -> dict:
    """Per-module and per-function calls and self time (seconds) over all spans.

    Returns ``{"modules": {layer: {"calls", "self_s"}},
    "functions": {"layer.fn": {"calls", "self_s"}}}``.
    """
    fn_ids, parents, starts, ends = tracer.fn_ids, tracer.parents, tracer.starts, tracer.ends
    layers = tracer.layers
    n = len(fn_ids)
    raw_self = [ends[s] - starts[s] for s in range(n)]
    for s in range(n):
        p = parents[s]
        if p >= 0:
            raw_self[p] -= ends[s] - starts[s]

    # in-module time under each span: its own self time plus that of same-module
    # descendants reached without leaving the module; children follow parents
    in_module = list(raw_self)
    for s in range(n - 1, -1, -1):
        p = parents[s]
        if p >= 0 and layers[fn_ids[p]] == layers[fn_ids[s]]:
            in_module[p] += in_module[s]

    modules: dict[str, dict] = {}
    functions: dict[str, dict] = {}
    for s in range(n):
        fid = fn_ids[s]
        layer = layers[fid]
        mod = modules.setdefault(layer, {"calls": 0, "self_s": 0.0})
        fun = functions.setdefault(tracer.names[fid], {"calls": 0, "self_s": 0.0})
        mod["self_s"] += raw_self[s]
        fun["calls"] += 1
        p = parents[s]
        if p < 0 or layers[fn_ids[p]] != layer:
            mod["calls"] += 1
        # skip spans nested in another span of the same function (recursion)
        a = p
        nested = False
        while a >= 0 and layers[fn_ids[a]] == layer:
            if fn_ids[a] == fid:
                nested = True
                break
            a = parents[a]
        if not nested:
            fun["self_s"] += in_module[s]
    return {"modules": modules, "functions": functions}
