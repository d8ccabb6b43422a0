"""Prometheus text exposition (version 0.0.4) of a metrics registry.

``repro serve`` renders its registry this way at ``/metrics``; the JSON
form of a registry is :meth:`~repro.metrics.registry.MetricsRegistry.snapshot`,
which run manifests carry.  Metric names are sanitized
(``sim.queue_delay`` → ``repro_sim_queue_delay``); histograms export
cumulative ``_bucket`` lines whose ``le`` bounds are the power-of-two
ladder of :class:`repro.metrics.registry.Histogram`, plus ``_sum`` and
``_count``.
"""

from __future__ import annotations

import re
from typing import Dict

from .registry import MetricsRegistry, parse_key

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")

#: Help strings for the metric families the package emits.  Families not
#: listed fall back to a generic line — the exposition format requires a
#: ``# HELP`` for every family a conformant scraper ingests.
_HELP_TEXT = {
    "sim.runs": "Completed network simulations.",
    "sim.messages": "Messages played through the network simulator.",
    "sim.wire_bytes": "Bytes put on wires, framing included.",
    "sim.link_busy_time": "Total link-busy seconds across all links.",
    "sim.finish_time": "Finish time of the most recent simulation (s).",
    "sim.queue_delay": "Per-message FIFO queueing delay (s).",
    "sim.queue_delay_time": "Summed FIFO queueing delay (s).",
    "sim.engine_runs": "Simulations resolved, by engine.",
    "sim.fallbacks": (
        "Engine declines by validation gate (engine/reason labels)."
    ),
    "fc.overhead_bytes": "Flow-control framing overhead bytes on wires.",
    "sweep.jobs": "Sweep jobs run.",
    "sweep.points": "Sweep points produced.",
    "sweep.job_time": "Per-job wall time (s).",
    "sweep.runs": "run_sweep invocations.",
    "sweep.cache_hits": "Prediction-cache hits during sweeps.",
    "sweep.cache_misses": "Prediction-cache misses during sweeps.",
    "sweep.workers": "Worker processes of the most recent sweep.",
    "sweep.cache_entries": "Prediction-cache size after the last save.",
    "bandwidth": "Achieved all-reduce bandwidth per scenario (B/s).",
    "allreduce_time": "Predicted all-reduce completion time (s).",
    "serve.requests": "HTTP requests served, by endpoint and status.",
    "serve.request_time": "HTTP request latency (s).",
    "serve.predict.hits": "Warm-cache prediction hits.",
    "serve.predict.misses": "Prediction misses.",
    "serve.predict.failed": "Predictions answered from the failed set.",
    "serve.enqueued": "Scenarios enqueued for background warming.",
    "serve.queue_full": "Warm requests rejected by the bounded queue.",
    "serve.compiled": "Background warm-ups completed.",
    "serve.compile_time": "Background warm-up wall time (s).",
    "serve.compile_errors": "Background warm-ups that raised.",
    "serve.plans": "Plan requests answered warm.",
    "plan.requests": "Planner invocations.",
    "plan.candidates": "Candidate scenarios evaluated by the planner.",
    "plan.cache_hits": "Planner prediction-cache hits.",
    "plan.simulated": "Planner points simulated (not cache-served).",
    "plan.skipped": "Planner candidates skipped as incompatible.",
    "plan.wall_time": "Planner wall time (s).",
}


def _prom_name(name: str, prefix: str) -> str:
    return prefix + _NAME_RE.sub("_", name)


def _escape_label_value(value: object) -> str:
    """Label-value escaping per the text exposition format."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """HELP-text escaping: backslash and newline only."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _prom_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        '%s="%s"' % (_NAME_RE.sub("_", k), _escape_label_value(v))
        for k, v in sorted(labels.items())
    )
    return "{%s}" % body


def _fmt(value: float) -> str:
    return repr(float(value))


def to_prometheus(registry: MetricsRegistry, prefix: str = "repro_") -> str:
    """Prometheus text-exposition rendering of every metric."""
    lines = []
    typed = set()

    def declare(name: str, kind: str, base: str) -> None:
        if name not in typed:
            typed.add(name)
            help_text = _HELP_TEXT.get(base, "repro metric %s." % base)
            lines.append("# HELP %s %s" % (name, _escape_help(help_text)))
            lines.append("# TYPE %s %s" % (name, kind))

    snap = registry.snapshot()
    for key, value in snap["counters"].items():
        base, labels = parse_key(key)
        name = _prom_name(base, prefix) + "_total"
        declare(name, "counter", base)
        lines.append("%s%s %s" % (name, _prom_labels(labels), _fmt(value)))
    for key, value in snap["gauges"].items():
        base, labels = parse_key(key)
        name = _prom_name(base, prefix)
        declare(name, "gauge", base)
        lines.append("%s%s %s" % (name, _prom_labels(labels), _fmt(value)))
    for key, payload in snap["histograms"].items():
        base, labels = parse_key(key)
        name = _prom_name(base, prefix)
        declare(name, "histogram", base)
        cumulative = 0
        for exp_text, count in sorted(
            payload["buckets"].items(), key=lambda kv: int(kv[0])
        ):
            cumulative += count
            bucket_labels = dict(labels)
            bucket_labels["le"] = _fmt(2.0 ** int(exp_text))
            lines.append(
                "%s_bucket%s %d" % (name, _prom_labels(bucket_labels), cumulative)
            )
        inf_labels = dict(labels)
        inf_labels["le"] = "+Inf"
        lines.append(
            "%s_bucket%s %d" % (name, _prom_labels(inf_labels), payload["count"])
        )
        lines.append("%s_sum%s %s" % (name, _prom_labels(labels), _fmt(payload["sum"])))
        lines.append("%s_count%s %d" % (name, _prom_labels(labels), payload["count"]))
    return "\n".join(lines) + ("\n" if lines else "")

