"""Host-time attribution of a cProfile pass to the repo's layers.

``LAYER_MAP`` is the one table from ``src/repro`` module paths to layer
names.  Self time of a function in a mapped module goes to its layer.
Self time of code outside ``src/repro`` (builtins, the standard library)
goes to the layer of whoever called it, split by the time each caller
spent in it, so ``heappop`` inside the kernel is kernel time and
``randrange`` inside a workload is workload time.

The map is checked, not trusted: :func:`map_errors` reports a mapped
module that no longer exists, and more than :data:`UNMAPPED_LIMIT` of
repro self time in modules no layer names.  A moved or deleted module
then shows up as a map error instead of silently shifting the shares.
"""

from __future__ import annotations

import pstats
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Tuple

REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Layer name -> module paths relative to ``src/repro``.
LAYER_MAP: Dict[str, Tuple[str, ...]] = {
    "sim": ("sim/__init__.py", "sim/environment.py", "sim/events.py",
            "sim/process.py", "sim/resources.py", "sim/wheel.py"),
    "workloads": ("workloads/__init__.py", "workloads/base.py",
                  "workloads/distributions.py", "workloads/tpcc.py",
                  "workloads/tpce.py", "workloads/tpch.py",
                  "workloads/traffic.py"),
    "engine.btree": ("engine/btree.py",),
    "engine.buffer_pool": ("engine/__init__.py", "engine/buffer_pool.py",
                           "engine/page.py", "engine/readahead.py",
                           "engine/heap_file.py", "engine/database.py",
                           "engine/disk_manager.py"),
    "engine.wal": ("engine/wal.py", "engine/checkpoint.py"),
    "engine.recovery": ("engine/recovery.py",),
    "core": ("core/__init__.py", "core/admission.py", "core/config.py",
             "core/cw.py", "core/dw.py", "core/exclusive.py",
             "core/heaps.py", "core/lc.py", "core/ls.py", "core/rotating.py",
             "core/ssd_buffer_table.py", "core/ssd_manager.py",
             "core/tac.py"),
    "storage": ("storage/__init__.py", "storage/device.py",
                "storage/hdd.py", "storage/ssd.py", "storage/request.py",
                "storage/iometer.py", "faults/__init__.py",
                "faults/errors.py", "faults/injector.py", "faults/plan.py"),
    "storage.ftl": ("storage/ftl/__init__.py", "storage/ftl/model.py"),
    "telemetry": ("telemetry/__init__.py", "telemetry/analysis.py",
                  "telemetry/context.py", "telemetry/htmlreport.py",
                  "telemetry/registry.py", "telemetry/tracer.py"),
    "harness": ("__init__.py", "harness/__init__.py",
                "harness/crashpoints.py", "harness/experiments.py",
                "harness/metrics.py", "harness/report.py",
                "harness/runner.py", "harness/sweep.py",
                "harness/system.py"),
}

LAYERS = tuple(LAYER_MAP)

#: Owner of repro code no layer names, and of time no repro code caused
#: (the benchmark's own glue, the profiler).
UNMAPPED = "unmapped"
OUTSIDE = "outside"

#: Largest share of repro self time allowed outside every layer.
UNMAPPED_LIMIT = 0.01

_MODULE_LAYER = {path: layer for layer, paths in LAYER_MAP.items()
                 for path in paths}

#: cProfile's key for the kernel's event-queue pop.
_HEAPPOP = ("~", 0, "<built-in method _heapq.heappop>")

Func = Tuple[str, int, str]


@lru_cache(maxsize=None)
def _module_path(filename: str):
    """``filename`` relative to ``src/repro``, or None outside it."""
    if filename == "~":
        return None
    try:
        return Path(filename).resolve().relative_to(REPRO).as_posix()
    except ValueError:
        return None


def _module_of(func: Func):
    """``func``'s module path relative to ``src/repro``, or None."""
    return _module_path(func[0])


class Attribution:
    """Per-layer self time and call counts of one profiled run."""

    def __init__(self, stats: pstats.Stats):
        self._stats = stats.stats  # func -> (cc, nc, tt, ct, callers)
        #: Non-repro function -> its time's split across owners.
        self._owner: Dict[Func, Dict[str, float]] = {}
        self.self_s: Dict[str, float] = {name: 0.0 for name in
                                         LAYERS + (UNMAPPED, OUTSIDE)}
        #: Calls into each layer from code of another layer (generator
        #: resumes count as calls, as cProfile counts them).
        self.calls: Dict[str, int] = {name: 0 for name in LAYERS}
        self.unmapped_modules: Dict[str, float] = {}
        for func, (_, _, tottime, _, callers) in self._stats.items():
            own = self._own_layer(func)
            if own is not None:
                self.self_s[own] += tottime
                if own == UNMAPPED:
                    module = _module_of(func)
                    self.unmapped_modules[module] = (
                        self.unmapped_modules.get(module, 0.0) + tottime)
                if own in self.calls:
                    self.calls[own] += sum(
                        entry[1] for caller, entry in callers.items()
                        if self._own_layer(caller) != own)
                continue
            for layer, share in self._shares(func, set()).items():
                self.self_s[layer] += tottime * share

    @staticmethod
    def _own_layer(func: Func):
        """The layer owning repro code, UNMAPPED, or None (not repro)."""
        module = _module_of(func)
        if module is None:
            return None
        return _MODULE_LAYER.get(module, UNMAPPED)

    def _shares(self, func: Func, visiting: set) -> Dict[str, float]:
        """How a non-repro function's time splits across owners."""
        cached = self._owner.get(func)
        if cached is not None:
            return cached
        entry = self._stats.get(func)
        callers = entry[4] if entry else {}
        weights: Dict[str, float] = {}
        visiting = visiting | {func}
        for caller, (_, ncalls, tottime, _) in callers.items():
            weight = tottime if tottime > 0 else ncalls * 1e-12
            own = self._own_layer(caller)
            if own is not None:
                weights[own] = weights.get(own, 0.0) + weight
            elif caller in visiting:
                weights[OUTSIDE] = weights.get(OUTSIDE, 0.0) + weight
            else:
                for layer, share in self._shares(caller, visiting).items():
                    weights[layer] = weights.get(layer, 0.0) + weight * share
        total = sum(weights.values())
        shares = ({layer: weight / total for layer, weight in weights.items()}
                  if total > 0 else {OUTSIDE: 1.0})
        self._owner[func] = shares
        return shares

    @property
    def repro_s(self) -> float:
        """Self time charged to repro code, mapped or not."""
        return sum(self.self_s[name] for name in LAYERS + (UNMAPPED,))

    @property
    def unmapped_share(self) -> float:
        total = self.repro_s
        return self.self_s[UNMAPPED] / total if total else 0.0

    def kernel_events(self) -> int:
        """Events the kernel's run loop popped off its queue."""
        entry = self._stats.get(_HEAPPOP)
        if entry is None:
            return 0
        return sum(calls[1] for caller, calls in entry[4].items()
                   if _module_of(caller) == "sim/environment.py")


def map_errors(attribution: Attribution) -> List[str]:
    """Problems with :data:`LAYER_MAP` against the tree and the profile."""
    errors = [f"layer map: {layer} lists {path}, which does not exist"
              for layer, paths in LAYER_MAP.items() for path in paths
              if not (REPRO / path).is_file()]
    if attribution.unmapped_share > UNMAPPED_LIMIT:
        top = sorted(attribution.unmapped_modules.items(),
                     key=lambda item: -item[1])[:5]
        errors.append(
            f"layer map: {attribution.unmapped_share:.1%} of repro self time "
            f"is in modules no layer names (limit {UNMAPPED_LIMIT:.0%}): "
            + ", ".join(f"{module} {seconds:.3f}s" for module, seconds in top))
    return errors
