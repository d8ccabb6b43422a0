"""``repro.serve``: the scenario planner and the prediction service.

This package turns the simulator into the serving story the ROADMAP
describes: answering "what is the best algorithm for this (topology,
size) workload?" both as a one-shot query and as a long-running,
high-QPS HTTP service.

* :mod:`repro.serve.planner` — TopoOpt-style search over the
  algorithm-variant x size space for a workload
  (:class:`WorkloadSpec`), evaluated through the sweep runner and the
  prediction cache, returning the latency/bandwidth Pareto frontier per
  size bucket (:func:`plan`) with canonical scenario strings as the
  identity of every recommendation.
* :mod:`repro.serve.service` — :class:`PredictionService`, a warm-cache
  prediction store with a bounded background-compilation worker pool,
  plus the stdlib-``http.server`` HTTP layer (``/predict``, ``/plan``,
  ``/healthz``, ``/metrics``) behind ``repro serve``.
* :mod:`repro.serve.replay` — query-trace recording and replay
  (in-process or over HTTP) measuring QPS and p50/p99 latency; the
  ``bench_serve`` harness case builds on it.
"""

from .planner import (
    PlanBucket,
    PlanEntry,
    PlanResult,
    WorkloadSpec,
    pareto_frontier,
    plan,
)
from .replay import (
    ReplayStats,
    load_trace,
    record_trace,
    replay,
    replay_http,
    workload_trace,
)
from .service import (
    PredictionService,
    ServiceHandler,
    make_server,
)

__all__ = [
    "PlanBucket",
    "PlanEntry",
    "PlanResult",
    "PredictionService",
    "ReplayStats",
    "ServiceHandler",
    "WorkloadSpec",
    "load_trace",
    "make_server",
    "pareto_frontier",
    "plan",
    "record_trace",
    "replay",
    "replay_http",
    "workload_trace",
]
