"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public entry points of each ``repro`` layer the
workloads drive — by rebinding module and class attributes, never by
editing program source — and records for every layer its call count,
its *self* time (span duration minus the time covered by nested layer
spans, per thread) and a few layer-specific counts taken from return
values.  Spans live in memory; :meth:`Tracer.snapshot` hands them out
when the run ends.

A call into a layer that is already the innermost open span on the same
thread (``CompiledSchedule.simulate`` calling ``NetworkSimulator.run``,
say) is folded into that span, so ``calls`` counts outermost entries.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Layer spans and their per-layer ``calls``/``self_s`` metric prefixes.
LAYERS = (
    "topology.build",
    "collectives.build",
    "collectives.compile",
    "ni.lower",
    "network.simulate",
    "sweep.job",
    "sweep.artifact.get",
    "sweep.artifact.put",
    "sweep.cache.save",
    "scenario.cache_key",
    "serve.predict",
    "serve.plan",
)

#: Counts derived from return values, exact for a given seed and op count.
COUNTS = (
    "collectives.compile.ops",
    "ni.lower.messages",
    "network.points",
    "network.vec_points",
    "network.vec_fallbacks",
    "sweep.artifact.get.hits",
    "sweep.artifact.get.misses",
    "sweep.artifact.get.loads",
    "sweep.cache.entries",
    "serve.predict.hits",
    "serve.predict.enqueued",
)


class Tracer:
    """In-memory layer spans and counts, safe across threads."""

    def __init__(self) -> None:
        #: Wrappers pass straight through while this is false.
        self.enabled = True
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        # Last artifact returned per key: a different object for the same
        # key means the store loaded it again rather than reusing a memo.
        self._artifacts: Dict[Tuple[str, str], object] = {}

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: Optional[str], fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        """``fn`` timed as a ``layer`` span (``None``: count only).

        ``on_result(tracer, args, result)`` runs after the span closes.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if layer is None:
                result = fn(*args, **kwargs)
                on_result(tracer, args, result)
                return result
            stack = tracer._stack()
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with tracer._lock:
                    tracer.self_s[layer] += elapsed - frame[1]
                    tracer.calls[layer] += 1
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return traced

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- installation ------------------------------------------------------

    def patch_function(self, module: str, attr: str, layer: Optional[str],
                       on_result: Optional[Callable] = None) -> None:
        """Rebind ``module.attr`` everywhere it was imported by name."""
        original = getattr(importlib.import_module(module), attr)
        traced = self.wrap(layer, original, on_result)
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not namespace:
                continue
            for name, value in list(namespace.items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, traced)

    def patch_method(self, cls: type, attr: str, layer: Optional[str],
                     on_result: Optional[Callable] = None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(layer, original, on_result))

    def install(self) -> "Tracer":
        """Wrap every layer entry point the workloads reach."""
        from repro.collectives.compiled import CompiledSchedule
        from repro.network.simulator import NetworkSimulator
        from repro.scenario import Scenario
        from repro.serve.service import PredictionService
        from repro.sweep import ArtifactStore, PredictionCache

        importlib.import_module("repro.serve.planner")
        importlib.import_module("repro.network.lockstep_vec")

        def length(name):
            return lambda tracer, args, result: tracer.count(name, len(result))

        self.patch_function("repro.topology.specs", "parse_topology_spec",
                            "topology.build")
        self.patch_function("repro.collectives", "build_schedule",
                            "collectives.build")
        self.patch_function("repro.collectives.compiled", "compile_schedule",
                            "collectives.compile",
                            length("collectives.compile.ops"))
        self.patch_function("repro.ni.injector", "build_messages", "ni.lower",
                            length("ni.lower.messages"))
        self.patch_method(CompiledSchedule, "build_messages", "ni.lower",
                          length("ni.lower.messages"))
        self.patch_method(CompiledSchedule, "simulate", "network.simulate",
                          _one_point)
        self.patch_method(NetworkSimulator, "run", "network.simulate",
                          _one_point)
        self.patch_method(CompiledSchedule, "simulate_batch",
                          "network.simulate", _batch_points)
        self.patch_function("repro.network.lockstep_vec", "run_batch", None,
                            _vec_batch)
        self.patch_function("repro.sweep.runner", "run_job", "sweep.job")
        self.patch_method(ArtifactStore, "get", "sweep.artifact.get",
                          _artifact_get)
        self.patch_method(ArtifactStore, "put", "sweep.artifact.put")
        self.patch_method(PredictionCache, "save", "sweep.cache.save",
                          _cache_save)
        self.patch_method(Scenario, "cache_key", "scenario.cache_key")
        self.patch_method(PredictionService, "predict", "serve.predict",
                          _predict_source)
        self.patch_function("repro.serve.planner", "plan", "serve.plan")
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }


def _one_point(tracer, args, result):
    tracer.count("network.points")


def _batch_points(tracer, args, result):
    tracer.count("network.points", len(result.points))


def _vec_batch(tracer, args, result):
    tracer.count("network.vec_points", len(result.points))
    tracer.count("network.vec_fallbacks", result.fallbacks)


def _artifact_get(tracer, args, result):
    if result is None:
        tracer.count("sweep.artifact.get.misses")
        return
    tracer.count("sweep.artifact.get.hits")
    key = (result.topology.name, result.algorithm)
    with tracer._lock:
        if tracer._artifacts.get(key) is not result:
            tracer._artifacts[key] = result
            tracer.counts["sweep.artifact.get.loads"] += 1


def _cache_save(tracer, args, result):
    with tracer._lock:
        tracer.counts["sweep.cache.entries"] = len(args[0])


def _predict_source(tracer, args, result):
    _entry, source = result
    if source == "cache":
        tracer.count("serve.predict.hits")
    elif source == "enqueued":
        tracer.count("serve.predict.enqueued")


def merge(snapshots: List[Dict[str, Dict[str, float]]]) -> Dict[str, Dict[str, float]]:
    """Sum snapshots from several processes (``sweep.cache.entries`` is a
    level, so it takes the largest)."""
    total: Dict[str, Dict[str, float]] = {"self_s": {}, "calls": {}, "counts": {}}
    for snap in snapshots:
        for part in total:
            for name, value in snap.get(part, {}).items():
                if name == "sweep.cache.entries":
                    total[part][name] = max(total[part].get(name, 0), value)
                else:
                    total[part][name] = total[part].get(name, 0) + value
    return total


def layer_metrics(snap: Dict[str, Dict[str, float]]) -> Dict[str, Tuple[float, str]]:
    """The per-layer metric rows of one traced run: ``name -> (value, unit)``."""
    calls, self_s, counts = snap["calls"], snap["self_s"], snap["counts"]
    out: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        out[layer + ".calls"] = (calls.get(layer, 0), "count")
        out[layer + ".self_s"] = (self_s.get(layer, 0.0), "s")
    for name in COUNTS:
        out[name] = (counts.get(name, 0), "count")
    vec_points = counts.get("network.vec_points", 0)
    out["network.vec_accept_ratio"] = (
        (vec_points - counts.get("network.vec_fallbacks", 0)) / vec_points
        if vec_points else 0.0, "ratio")
    predicts = calls.get("serve.predict", 0)
    out["serve.predict.hit_ratio"] = (
        counts.get("serve.predict.hits", 0) / predicts if predicts else 0.0,
        "ratio")
    return out
