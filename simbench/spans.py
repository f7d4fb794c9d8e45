"""Per-layer host time from spans around the simulator's entry points.

The traced benchmark process installs a wrapper on each boundary in
:data:`BOUNDARIES` before any simulator object exists.  Every call
through a wrapper is a span.  A layer's *self time* is the duration of
its spans minus the part covered by spans nested inside them, so a
cache ``deliver`` reached from a NoC ejection counts for the cache and
not for the NoC; wall time outside every span is *unattributed*.

Wrappers keep the wrapped function's attributes (``functools.wraps``
copies ``__dict__``), so the fast path's ``_fp_kind`` bucket tags on
``Core._step_buffered`` and ``Core._on_complete`` survive and the
batched stepper still claims core-only buckets while traced.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Dict, List, Tuple

#: ``(layer, module, class, attributes)``; class None = module function
BOUNDARIES = (
    ("common.scheduler", "repro.common.scheduler", "Scheduler",
     ("run_due",)),
    ("cpu.core", "repro.cpu.core", "Core",
     ("_step_buffered", "_on_complete")),
    ("cpu.fastpath", "repro.cpu.fastpath", "BatchedStepper",
     ("run_cycle",)),
    ("noc.network", "repro.noc.network", "Network", ("tick", "send")),
    ("noc.network", "repro.noc.events", "LinkArrival", ("__call__",)),
    ("noc.network", "repro.noc.events", "Ejection", ("__call__",)),
    ("noc.network", "repro.noc.events", "Deregister", ("__call__",)),
    ("noc.arrayengine", "repro.noc.arrayengine", "ArrayNetwork",
     ("tick", "send")),
    ("noc.arrayengine", "repro.noc.arrayengine", "_Eject", ("__call__",)),
    ("noc.arrayengine", "repro.noc.arrayengine", "_Register",
     ("__call__",)),
    ("noc.arrayengine", "repro.noc.arrayengine", "_Lookup", ("__call__",)),
    ("noc.arrayengine", "repro.noc.arrayengine", "_Deregister",
     ("__call__",)),
    ("noc.functional", "repro.noc.functional", "FunctionalNetwork",
     ("tick", "send")),
    ("noc.functional", "repro.noc.functional", "_Delivery", ("__call__",)),
    ("cache.private_cache", "repro.cache.private_cache", "PrivateCache",
     ("access", "prefetch_access", "deliver")),
    ("cache.llc", "repro.cache.llc", "LLCSlice",
     ("deliver", "deliver_batch")),
    ("cache.llc", "repro.cache.llc", "_Lookup", ("__call__",)),
    ("cache.memory", "repro.cache.memory", "MemoryController",
     ("deliver",)),
    ("prefetch.unit", "repro.prefetch.unit", "PrefetchUnit", ("observe",)),
    ("workloads.registry", "repro.workloads.registry", None,
     ("build_trace_buffers",)),
    ("sim.system", "repro.sim.system", "System", ("__init__",)),
    ("sim.checkpoint", "repro.sim.checkpoint", None,
     ("capture_state", "restore_system")),
    ("store.ckpt", "repro.sim.checkpoint", "CheckpointStore",
     ("get", "peek", "put", "has")),
    ("store.ckpt", "repro.sim.checkpoint", "MemoCheckpointStore",
     ("put",)),
    ("store.results", "repro.sim.sweep", "ResultCache", ("get", "put")),
)

#: layer names, in report order
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    layer for layer, _, _, _ in BOUNDARIES))


class Tracer:
    """Self nanoseconds and call counts per layer."""

    def __init__(self) -> None:
        #: child-span nanoseconds of each open span, innermost last
        self._stack: List[int] = []
        #: layer -> [self ns, calls]
        self._cells: Dict[str, List[int]] = {
            layer: [0, 0] for layer in LAYERS}
        #: nanoseconds inside outermost spans
        self._spanned = [0]

    def install(self) -> None:
        """Wrap every boundary.  Call before any ``System`` is built:
        a core binds its step method when it is constructed."""
        for layer, module_name, owner, attrs in BOUNDARIES:
            module = importlib.import_module(module_name)
            target = module if owner is None else getattr(module, owner)
            for attr in attrs:
                original = (getattr(module, attr) if owner is None
                            else target.__dict__[attr])
                setattr(target, attr, self._wrap(layer, original))
        from repro.cpu.core import Core

        if (getattr(Core._step_buffered, "_fp_kind", 0),
                getattr(Core._on_complete, "_fp_kind", 0)) != (2, 1):
            raise RuntimeError("span wrappers lost the _fp_kind tags")

    def _wrap(self, layer: str, fn):
        clock = time.perf_counter_ns
        stack = self._stack
        cell = self._cells[layer]
        spanned = self._spanned

        def span(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                cell[0] += elapsed - stack.pop()
                cell[1] += 1
                if stack:
                    stack[-1] += elapsed
                else:
                    spanned[0] += elapsed

        return functools.update_wrapper(span, fn)

    def take(self) -> Tuple[Dict[str, Tuple[float, int]], float]:
        """Per-layer ``(self seconds, calls)`` and the seconds spent
        inside outermost spans since the last take; resets both."""
        layers = {layer: (cell[0] / 1e9, cell[1])
                  for layer, cell in self._cells.items()}
        spanned = self._spanned[0] / 1e9
        for cell in self._cells.values():
            cell[0] = cell[1] = 0
        self._spanned[0] = 0
        return layers, spanned
