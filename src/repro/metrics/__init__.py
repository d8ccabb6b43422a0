"""Aggregate telemetry: the metrics fold, run manifests, exposition, reports.

:mod:`repro.trace` answers *why was this one run slow* (per-event
timelines); this package answers *how do runs compare* (aggregate
counters/gauges/histograms with provenance).  It is not a second
instrumentation system: sites emit :mod:`repro.obs` records, and

* :mod:`repro.metrics.fold` turns them into metrics — every metric name,
  label set and bucket layout lives there;
* :mod:`repro.metrics.registry` — the registry the fold writes, and
  :func:`collecting`, the metrics-only switch;
* :mod:`repro.metrics.manifest` — JSON-lines run manifests: config
  fingerprint, package version, git SHA, wall time, metric snapshot.
* :mod:`repro.metrics.export` — Prometheus text exposition (``/metrics``).
* :mod:`repro.metrics.report` — the ``repro report`` comparison dashboard
  and regression gate (imported on demand by the CLI; it pulls in the
  bench harness, so it is deliberately **not** imported here).
"""

from .export import to_prometheus
from .fold import MetricsFold
from .manifest import (
    MANIFEST_SCHEMA_VERSION,
    append_manifest,
    build_manifest,
    config_fingerprint,
    git_sha,
    repro_version,
)
from .registry import (
    REGISTRY_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    collecting,
    metric_key,
    parse_key,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MANIFEST_SCHEMA_VERSION",
    "MetricsFold",
    "MetricsRegistry",
    "REGISTRY_SCHEMA_VERSION",
    "append_manifest",
    "build_manifest",
    "collecting",
    "config_fingerprint",
    "git_sha",
    "metric_key",
    "parse_key",
    "repro_version",
    "to_prometheus",
]
