"""Charge profiled self time to the repository's layers.

The traced run of ``perfbench/run.py`` profiles measured regions with
``cProfile`` and hands each raw ``pstats`` table to :func:`attribute`.
Every profiled function is mapped to a layer by the module its code
lives in, through the fixed :data:`LAYERS` table (package prefix ->
layer), never by substring-matching file names.

Code outside the ``repro`` package -- C builtins such as ``heapq`` or
``bytes.join``, and stdlib Python helpers -- has no layer of its own.
Its self time is charged to the layer of each caller, split by the time
spent under each call edge, so nothing is left unattributed.  Top-level
``repro`` modules (``calibration``, ``trace``, ...) land in ``other``;
the benchmark's own wrappers land in ``bench``.
"""

from __future__ import annotations

import pathlib

#: module-prefix -> layer.  The longest matching prefix wins.
LAYERS = {
    "repro.sim": "sim",
    "repro.net": "net",
    "repro.core": "core",
    "repro.xen": "xen",
    "repro.xennet": "xennet",
    "repro.workloads": "workloads",
    "repro.mpi": "workloads",
    "repro.scenarios": "scenarios",
    "repro.topology": "scenarios",
    "repro": "other",
}

#: the layers reported as ``<layer>.self_us_per_op`` / ``calls_per_op``.
REPORTED_LAYERS = ("sim", "net", "core", "xen", "xennet", "workloads", "other")

#: modules whose own self time is reported (``<module>.self_us_per_op``),
#: named without the ``repro.`` prefix.
REPORTED_MODULES = (
    "sim.engine",
    "sim.resources",
    "sim.timers",
    "sim.stats",
    "net.packet",
    "net.tcp",
    "net.bridge",
    "core.fifo",
    "core.channel",
)

BENCH = "bench"
_NO_HOME = ("other", "")


class ModuleMap:
    """Resolve profiled file names to ``(layer, module)`` pairs."""

    def __init__(self, src_root: pathlib.Path, bench_root: pathlib.Path):
        self._src_root = src_root.resolve()
        self._bench_root = bench_root.resolve()
        self._cache: dict = {}

    def module_of(self, filename: str):
        """``(layer, module)`` for code in ``filename``; ``None`` when
        the file is outside both ``repro`` and the benchmark."""
        if filename not in self._cache:
            self._cache[filename] = self._resolve(filename)
        return self._cache[filename]

    def _resolve(self, filename: str):
        if filename.startswith(("~", "<")):
            return None  # C builtin or generated code
        path = pathlib.Path(filename).resolve()
        if path.is_relative_to(self._bench_root):
            return (BENCH, BENCH)
        if not path.is_relative_to(self._src_root):
            return None
        parts = list(path.relative_to(self._src_root).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        module = ".".join(parts)
        prefix = module
        while prefix not in LAYERS:
            prefix = prefix.rpartition(".")[0]
            if not prefix:
                return None
        return (LAYERS[prefix], module.removeprefix("repro."))


def attribute(stats: dict, modules: ModuleMap) -> dict:
    """Per-layer and per-module self seconds plus per-layer call counts.

    ``stats`` is ``pstats.Stats(profile).stats``: ``{func: (cc, nc, tt,
    ct, callers)}`` with ``callers = {caller: (cc, nc, tt, ct)}`` per
    call edge.  Returns ``{"layer_s": {...}, "module_s": {...},
    "layer_calls": {...}}``; ``layer_calls`` counts calls into code that
    lives in the layer (deterministic for a given simulation).
    """
    homes: dict = {}

    def home(func, seen=()):
        """The (layer, module) that pays for ``func``'s self time."""
        if func in homes:
            return homes[func]
        own = modules.module_of(func[0])
        if own is None:
            callers = stats[func][4] if func in stats else {}
            live = [c for c in callers if c not in seen and c != func]
            if live:
                # An unmapped helper called from many places is charged
                # per edge in attribute(); for a chain of helpers, follow
                # the edge that carried the most cumulative time.
                parent = max(live, key=lambda c: callers[c][3])
                own = home(parent, seen + (func,))
            else:
                own = _NO_HOME
        homes[func] = own
        return own

    layer_s: dict = {}
    module_s: dict = {}
    layer_calls: dict = {}

    def charge(where, seconds):
        layer, module = where
        layer_s[layer] = layer_s.get(layer, 0.0) + seconds
        if module:
            module_s[module] = module_s.get(module, 0.0) + seconds

    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        own = modules.module_of(func[0])
        if own is not None:
            charge(own, tt)
            layer_calls[own[0]] = layer_calls.get(own[0], 0) + nc
        elif callers:
            for caller, edge in callers.items():
                charge(home(caller), edge[2])
        else:
            charge(_NO_HOME, tt)
    return {"layer_s": layer_s, "module_s": module_s, "layer_calls": layer_calls}
