"""Evaluation metrics shared by the benchmark harnesses (§VI).

The paper's primary metric is *all-reduce bandwidth*: data size divided by
completion time (§VI-A).  This module adds the series evaluator, speedup
computation, and geometric means for the summary numbers (2.3x / 1.56x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Union

from ..collectives.compiled import CompiledSchedule, lower_schedule
from ..collectives.schedule import Schedule
from ..network.flowcontrol import DEFAULT_FLOW_CONTROL, FlowControl
from ..scenario import point_key

if TYPE_CHECKING:
    from ..sweep.cache import PredictionCache

KiB = 1024
MiB = 1024 * 1024

#: Fig. 9 sweep: 32 KiB .. 64 MiB.
DEFAULT_SIZES = [32 * KiB << (2 * i) for i in range(6)]  # 32K,128K,...,32M
DEFAULT_SIZES.append(64 * MiB)


@dataclass
class SweepPoint:
    algorithm: str
    data_bytes: int
    time: float
    bandwidth: float
    max_queue_delay: float


@dataclass
class BandwidthSweep:
    """All-reduce bandwidth across data sizes for one (topology, algorithm)."""

    topology: str
    algorithm: str
    points: List[SweepPoint] = field(default_factory=list)

    @classmethod
    def of_entries(cls, topology: str, algorithm: str, sizes: Sequence[int],
                   entries: Sequence[Dict[str, float]]) -> "BandwidthSweep":
        """The sweep of per-size prediction-cache entries."""
        return cls(topology, algorithm, [
            SweepPoint(
                algorithm=algorithm,
                data_bytes=size,
                time=entry["time"],
                bandwidth=entry["bandwidth"],
                max_queue_delay=entry["max_queue_delay"],
            )
            for size, entry in zip(sizes, entries)
        ])

    def bandwidth_at(self, data_bytes: int) -> float:
        for point in self.points:
            if point.data_bytes == data_bytes:
                return point.bandwidth
        raise KeyError(data_bytes)


def sweep_bandwidth(
    schedule: Union[Schedule, CompiledSchedule],
    sizes: Sequence[int] = tuple(DEFAULT_SIZES),
    flow_control: FlowControl = DEFAULT_FLOW_CONTROL,
    lockstep: bool = True,
    cache: Optional["PredictionCache"] = None,
    label: Optional[str] = None,
    engine: str = "event",
    keys: Optional[Sequence[str]] = None,
) -> BandwidthSweep:
    """Predict the all-reduce at each size: the one series evaluator.

    ``schedule`` is a :class:`Schedule`, lowered once per series
    (:func:`~repro.collectives.compiled.lower_schedule`) and only when
    some size misses the cache, or an already compiled
    :class:`~repro.collectives.compiled.CompiledSchedule`.  With a
    :class:`~repro.sweep.cache.PredictionCache` as ``cache``, warm sizes
    are read from it and cold ones written to it.  ``keys`` supplies one
    precomputed scenario cache key per size (see
    :meth:`repro.scenario.Scenario.cache_key`) — required when the points
    carry SystemConfig overrides, which the schedule alone cannot know.

    The cold sizes run as one ladder,
    :meth:`~repro.collectives.compiled.CompiledSchedule.simulate_batch`
    with ``engine``: one call into the engine kernel for the whole
    ladder, or — for ``engine="lockstep-vec"`` on a schedule of at least
    :data:`~repro.network.lockstep_vec.MIN_OPS_PER_STEP` ops per step,
    where the numpy step loop wins — one vectorized pass whose declined
    sizes fall back to the scalar loop (counted in ``sim.fallbacks``).
    Every engine returns ``==`` numbers.
    """
    if cache is not None and keys is None:
        keys = [
            point_key(
                schedule.topology, schedule.algorithm, flow_control,
                size, lockstep,
            )
            for size in sizes
        ]
    entries: List[Optional[Dict[str, float]]] = (
        [cache.get(key) for key in keys] if cache is not None
        else [None] * len(sizes)
    )
    cold = [index for index, entry in enumerate(entries) if entry is None]
    if cold and isinstance(schedule, Schedule):
        schedule = lower_schedule(schedule)
    fresh = []
    if cold:
        batch = schedule.simulate_batch(
            [sizes[index] for index in cold], flow_control, lockstep,
            engine=engine,
        )
        fresh = [
            (point.time, point.bandwidth, point.max_queue_delay)
            for point in batch.points
        ]
    for index, (time, bandwidth, max_queue_delay) in zip(cold, fresh):
        entries[index] = {
            "time": time,
            "bandwidth": bandwidth,
            "max_queue_delay": max_queue_delay,
        }
        if cache is not None:
            cache.put(keys[index], **entries[index])
    return BandwidthSweep.of_entries(
        schedule.topology.name, label or schedule.algorithm, sizes, entries
    )


def speedup(baseline_time: float, improved_time: float) -> float:
    """How many times faster ``improved`` is than ``baseline``."""
    if improved_time <= 0:
        return float("inf")
    return baseline_time / improved_time


def geomean(values: Iterable[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def reduction_percent(baseline_time: float, improved_time: float) -> float:
    """Training-time reduction, the paper's "up to 81%/30%" metric."""
    if baseline_time <= 0:
        return 0.0
    return 100.0 * (baseline_time - improved_time) / baseline_time


def format_bandwidth_table(sweeps: Sequence[BandwidthSweep]) -> str:
    """ASCII rendering of a Fig. 9 panel (rows = sizes, cols = algorithms)."""
    if not sweeps:
        return "(empty)"
    sizes = [p.data_bytes for p in sweeps[0].points]
    header = "%-10s" % "size" + "".join("%14s" % s.algorithm for s in sweeps)
    lines = [header]
    for i, size in enumerate(sizes):
        if size >= MiB:
            size_label = "%d MiB" % (size // MiB)
        else:
            size_label = "%d KiB" % (size // KiB)
        row = "%-10s" % size_label
        for sweep in sweeps:
            row += "%11.2f GB" % (sweep.points[i].bandwidth / 1e9)
        lines.append(row)
    return "\n".join(lines)
