"""Label-keyed counter/gauge/histogram registry: the metrics fold's target.

A registry keeps *aggregate* telemetry — monotonically increasing
counters, point-in-time gauges and bucketed histograms, each keyed by a
metric name plus a sorted label set (``topology=torus-8x8`` etc.).  Only
:mod:`repro.metrics.fold` writes one: :func:`collecting` folds the obs
records finished inside a ``with`` block into a registry::

    with collecting() as reg:
        simulate_allreduce(schedule, 16 * MiB, PacketBased())
    print(to_prometheus(reg))

Records carry already-computed values, so collecting cannot perturb
simulated timings.  :meth:`MetricsRegistry.snapshot` is the plain-JSON
form run manifests carry and ``repro report`` reads.
"""

from __future__ import annotations

import math
from contextlib import ExitStack, contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from .. import obs
from .fold import MetricsFold

#: Bump when the snapshot layout changes incompatibly.
REGISTRY_SCHEMA_VERSION = 1

LabelSet = Tuple[Tuple[str, str], ...]


def metric_key(name: str, labels: Dict[str, str]) -> str:
    """Canonical string key: ``name|k1=v1,k2=v2`` with sorted label names."""
    if not labels:
        return name
    return "%s|%s" % (
        name, ",".join("%s=%s" % (k, labels[k]) for k in sorted(labels))
    )


def parse_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Inverse of :func:`metric_key`."""
    name, _, tail = key.partition("|")
    labels: Dict[str, str] = {}
    if tail:
        for part in tail.split(","):
            k, _, v = part.partition("=")
            labels[k] = v
    return name, labels


class Counter:
    """Monotonically increasing sum."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """Last-observed value.

    Records fold in emit order — a parallel sweep replays its workers'
    records in job order — so the last write is the serial run's.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Power-of-two bucketed distribution.

    Buckets are keyed by the binary exponent of the observed value (via
    ``math.frexp``), so every run produces the identical bucket ladder.
    ``count``/``sum``/``min``/``max`` ride along for means and ranges.
    """

    __slots__ = ("count", "sum", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        exp = math.frexp(value)[1] if value > 0 else 0
        self.buckets[exp] = self.buckets.get(exp, 0) + 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": {str(exp): n for exp, n in sorted(self.buckets.items())},
        }


class MetricsRegistry:
    """The metrics folded from one record stream."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- access / creation -------------------------------------------------
    @staticmethod
    def _get(store: dict, kind: type, name: str, labels: Dict[str, str]):
        key = metric_key(name, labels)
        metric = store.get(key)
        if metric is None:
            metric = store[key] = kind()
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(self._counters, Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(self._gauges, Gauge, name, labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self._get(self._histograms, Histogram, name, labels)

    # -- read-only views ---------------------------------------------------
    @property
    def counters(self) -> Dict[str, float]:
        return {key: c.value for key, c in self._counters.items()}

    @property
    def gauges(self) -> Dict[str, float]:
        return {key: g.value for key, g in self._gauges.items()}

    @property
    def histograms(self) -> Dict[str, Histogram]:
        return dict(self._histograms)

    def counter_value(self, name: str, **labels: str) -> float:
        metric = self._counters.get(metric_key(name, labels))
        return metric.value if metric is not None else 0.0

    def gauge_value(self, name: str, **labels: str) -> Optional[float]:
        metric = self._gauges.get(metric_key(name, labels))
        return metric.value if metric is not None else None

    def gauges_named(self, name: str) -> List[Tuple[Dict[str, str], float]]:
        """All (labels, value) pairs of gauges called ``name``."""
        out = []
        for key, gauge in self._gauges.items():
            base, labels = parse_key(key)
            if base == name:
                out.append((labels, gauge.value))
        return out

    # -- serialization -----------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Plain-JSON view of every metric (stable key order)."""
        return {
            "schema": REGISTRY_SCHEMA_VERSION,
            "counters": {k: self._counters[k].value
                         for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k].value for k in sorted(self._gauges)},
            "histograms": {k: self._histograms[k].to_dict()
                           for k in sorted(self._histograms)},
        }


@contextmanager
def collecting(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Fold every obs record finished in a ``with`` block into a registry.

    Attaches a :class:`~repro.metrics.fold.MetricsFold` to the active obs
    recorder — an untraced one (no ring, stream or correlation ids) when
    none is active — unless it already folds into this registry.
    """
    reg = registry if registry is not None else MetricsRegistry()
    with ExitStack() as stack:
        recorder = obs.get_obs() or stack.enter_context(
            obs.observing(obs.ObsRecorder(capacity=0))
        )
        if all(getattr(f, "registry", None) is not reg for f in recorder.folds):
            fold = MetricsFold(reg)
            recorder.add_fold(fold)
            stack.callback(recorder.remove_fold, fold)
        yield reg
