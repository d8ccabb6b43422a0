"""Parallel, cache-aware sweep runner for figure-scale prediction grids.

A :class:`SweepJob` is a thin series wrapper over the scenario layer
(:mod:`repro.scenario`): one (topology spec, algorithm variant, flow
control, sizes, lockstep, engine) series — everything a worker needs as
picklable plain data, expanding to one :class:`~repro.scenario.Scenario`
per payload size.  :func:`run_job` turns one series into predictions
(every scenario-to-prediction path runs it); :func:`run_sweep` executes
a job list either serially or across a ``multiprocessing`` pool; with a
cache path, warm points are served from the :mod:`repro.sweep.cache`
store (keyed by scenario fingerprints) and every newly simulated point
is persisted for the next run.

Each parallel worker appends its own new entries to the cache journal;
appends are whole-line ``O_APPEND`` writes, so workers never race and a
crashed worker costs only its own points.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..analysis.metrics import BandwidthSweep, sweep_bandwidth
from ..collectives import compile_algorithm
from ..network.flowcontrol import FlowControl
from ..scenario import Scenario, group_scenarios, scenario_set_fingerprint
from ..topology.base import Topology
from ..topology.specs import parse_topology_spec
from .artifacts import ArtifactStore
from .cache import PredictionCache


@dataclass
class SweepStats:
    """Aggregate accounting of one :func:`run_sweep` invocation.

    Pass an instance as ``stats`` to have it populated in place; the CLI
    surfaces these numbers after every cached/parallel sweep.
    """

    jobs: int = 0
    points: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_entries: int = 0
    artifact_hits: int = 0
    artifact_misses: int = 0
    workers: int = 1
    wall_time_s: float = 0.0
    #: Per-job worker wall time, in job order.
    job_times_s: List[float] = field(default_factory=list)

    def format(self) -> str:
        parts = [
            "%d jobs / %d points in %.2fs across %d worker%s"
            % (self.jobs, self.points, self.wall_time_s, self.workers,
               "" if self.workers == 1 else "s")
        ]
        probes = self.cache_hits + self.cache_misses
        if probes:
            parts.append(
                "cache: %d hits, %d misses (%.0f%% hit rate, %d entries on disk)"
                % (self.cache_hits, self.cache_misses,
                   100.0 * self.cache_hits / probes, self.cache_entries)
            )
        loads = self.artifact_hits + self.artifact_misses
        if loads:
            parts.append(
                "artifacts: %d hits, %d misses"
                % (self.artifact_hits, self.artifact_misses)
            )
        return "; ".join(parts)


@dataclass(frozen=True)
class SweepJob:
    """One bandwidth-sweep series: a scenario group with a shared size axis.

    Everything here is picklable plain data; :meth:`scenarios` expands the
    series to one :class:`~repro.scenario.Scenario` per size and
    :meth:`resolve` delegates name resolution to the algorithm-variant
    registry (:mod:`repro.collectives.variants`), so named pairings need
    no special-casing anywhere in the sweep machinery.
    """

    topology: str                 # combined spec, e.g. "torus-8x8"
    algorithm: str                # registered variant name
    sizes: Tuple[int, ...]
    flow_control: str = "packet"  # "packet" | "message"
    lockstep: bool = True
    engine: str = "event"         # one of network.simulator.ENGINES
    label: Optional[str] = None
    overrides: Tuple[Tuple[str, object], ...] = ()

    def scenario(self, data_bytes: int) -> Scenario:
        """This series' scenario at one payload size."""
        # "packet" is the historical field default; a variant that pins
        # its flow control (e.g. message-based pairings) treats it as
        # unset rather than as a contradiction.
        flow_control = None if self.flow_control == "packet" else self.flow_control
        return Scenario(
            topology=self.topology,
            algorithm=self.algorithm,
            data_bytes=data_bytes,
            flow_control=flow_control,
            lockstep=self.lockstep,
            engine=self.engine,
            overrides=self.overrides,
        )

    def scenarios(self) -> Tuple[Scenario, ...]:
        """One scenario per size, in size-axis order."""
        return tuple(self.scenario(size) for size in self.sizes)

    @classmethod
    def from_scenarios(cls, scenarios: Sequence[Scenario],
                       label: Optional[str] = None) -> "SweepJob":
        """Build a series from scenarios that differ only in payload size."""
        if not scenarios:
            raise ValueError("cannot build a SweepJob from zero scenarios")
        first = scenarios[0]
        for other in scenarios[1:]:
            if (other.topology, other.algorithm, other.flow_control,
                    other.lockstep, other.engine, other.overrides) != (
                    first.topology, first.algorithm, first.flow_control,
                    first.lockstep, first.engine, first.overrides):
                raise ValueError(
                    "scenarios %s and %s differ beyond payload size"
                    % (first, other)
                )
        return cls(
            topology=first.topology,
            algorithm=first.algorithm,
            sizes=tuple(s.data_bytes for s in scenarios),
            flow_control=first.flow_control or "packet",
            lockstep=first.lockstep,
            engine=first.engine,
            label=label,
            overrides=first.overrides,
        )

    def resolve(self) -> Tuple[str, FlowControl, str]:
        """(builder algorithm, flow control, display label)."""
        resolved = self.scenario(self.sizes[0] if self.sizes else 1).resolve()
        return resolved.builder, resolved.flow_control, self.label or resolved.label


def jobs_from_scenarios(scenarios: Sequence[Scenario]) -> List[SweepJob]:
    """Fold a flat scenario list into sweep series (one job per group of
    scenarios differing only in payload size, order preserved)."""
    return [SweepJob.from_scenarios(group) for group in group_scenarios(scenarios)]


def run_job(
    job: SweepJob,
    cache: Optional[PredictionCache] = None,
    artifacts: Optional[ArtifactStore] = None,
    topology: Optional[Topology] = None,
) -> BandwidthSweep:
    """Compile the job's schedule (skipped if fully warm) and sweep it.

    The one path from scenarios to predictions: sweeps, plans and served
    ``/predict`` misses all run it.  The series compiles once (:func:`repro.collectives.compile_algorithm`)
    and every engine simulates the compiled CSR arrays, so no per-message
    object is built between the schedule and a point.  With an
    ``artifacts`` store, the compile is replaced by one compiled-artifact
    load per (topology, algorithm) — a cold store compiles and persists
    the artifact for the next run.  Pass the job's already-parsed
    ``topology`` to skip parsing ``job.topology`` again.

    Runs inside a ``sweep.job`` span, which carries the series'
    :func:`~repro.scenario.scenario_set_fingerprint` while tracing (the
    fingerprint ``serve.predict`` spans and manifests carry too) and
    every point's bandwidth and time while metering.  The points come
    from :func:`repro.analysis.sweep_bandwidth`, the one series
    evaluator.
    """
    with obs.span(
        "sweep.job",
        topology=job.topology,
        algorithm=job.algorithm,
        engine=job.engine,
        sizes=len(job.sizes),
    ) as job_span:
        algorithm, fc, label = job.resolve()
        if topology is None:
            topology = parse_topology_spec(job.topology)
        scenarios = job.scenarios()
        if obs.tracing():
            job_span.set(
                "fingerprint", scenario_set_fingerprint(scenarios, topology)
            )
        # Schedule construction is itself expensive at scale; skip it
        # entirely when every requested point is already cached.
        keys = (
            [s.cache_key(topology) for s in scenarios]
            if cache is not None else None
        )
        if keys is not None and all(key in cache for key in keys):
            sweep = BandwidthSweep.of_entries(
                topology.name, label, job.sizes,
                [cache.get(key) for key in keys],
            )
            job_span.set("warm", True)
        else:
            # Every engine simulates the compiled CSR form, whose points
            # == the object path's (tests/test_array_heap.py).
            if artifacts is not None:
                schedule = artifacts.get_or_compile(topology, algorithm)
            else:
                schedule = compile_algorithm(algorithm, topology)
            sweep = sweep_bandwidth(
                schedule, job.sizes, fc, job.lockstep, cache=cache,
                label=label, engine=job.engine, keys=keys,
            )
        if obs.metering():
            job_span.set("fabric", sweep.topology)
            job_span.set("label", sweep.algorithm)
            # "+"-separated scenario form: metric label sets are
            # comma-joined, so the canonical comma would corrupt the key.
            job_span.set("points", [
                [point.data_bytes, scenario.label_form(), point.bandwidth,
                 point.time]
                for scenario, point in zip(scenarios, sweep.points)
            ])
        return sweep


def _worker(
    args: Tuple[SweepJob, Optional[str], Optional[str], Optional[tuple]]
) -> Tuple[BandwidthSweep, Dict[str, object]]:
    """Pool entry point: run one job in its own process and append its
    new entries to the cache journal.

    Returns ``(sweep, report)`` where ``report`` carries the worker's
    cache hit/miss counts, artifact-store counts and wall time.  When
    the parent records obs, the fourth tuple element is its ``(span
    carrier, traced, metered)``: the worker records into a matching
    in-memory recorder and ships every record back in ``report["obs"]``
    for the parent to replay, parent links intact.
    """
    job, cache_path, artifacts_path, obs_parent = args
    cache = PredictionCache(cache_path) if cache_path else None
    artifacts = ArtifactStore(artifacts_path) if artifacts_path else None
    start = time.perf_counter()

    carrier, traced, metered = obs_parent or (None, False, False)
    recorder = (
        obs.ObsRecorder(capacity=None, traced=traced, metered=metered)
        if obs_parent is not None else None
    )
    # Replace, not nest: a forked worker inherits a copy of the parent's
    # recorder, whose folds must not see these records.
    previous = obs.set_obs(recorder)
    try:
        with obs.attached(carrier):
            sweep = run_job(job, cache, artifacts)
    finally:
        obs.set_obs(previous)
    if cache is not None:
        cache.save()
    report: Dict[str, object] = {
        "hits": cache.hits if cache is not None else 0,
        "misses": cache.misses if cache is not None else 0,
        "artifact_hits": artifacts.hits if artifacts is not None else 0,
        "artifact_misses": artifacts.misses if artifacts is not None else 0,
        "job_time_s": time.perf_counter() - start,
        "obs": recorder.snapshot() if recorder is not None else None,
    }
    return sweep, report


def run_sweep(
    jobs: Sequence[SweepJob],
    processes: Optional[int] = None,
    cache_path: Optional[str] = None,
    stats: Optional[SweepStats] = None,
    artifacts_path: Optional[str] = None,
) -> List[BandwidthSweep]:
    """Run jobs, optionally in parallel, returning sweeps in job order.

    ``processes``: ``None``/``0``/``1`` runs serially in-process; larger
    values use a ``multiprocessing.Pool``.  With ``cache_path``, the cache
    is consulted before simulating, and the new entries are appended to
    its journal once a serial run or each parallel job finishes.  With
    ``artifacts_path``, workers load compiled schedule artifacts from that
    directory instead of rebuilding schedules (cold artifacts are
    compiled and persisted in place).  Pass a :class:`SweepStats` as ``stats`` to receive cache and
    artifact hit/miss counts, worker count and per-job wall times.  With
    an obs recorder active, parallel workers ship their records and the
    parent replays them in job order, so streams and folded metrics
    match a serial run's — only the ``sweep.run`` span's ``workers``
    differs.
    """
    if stats is None:
        stats = SweepStats()
    stats.jobs = len(jobs)
    if not jobs:
        return []
    with obs.span(
        "sweep.run", jobs=len(jobs), processes=processes or 1
    ) as sweep_span:
        sweeps = _run_sweep(jobs, processes, cache_path, stats,
                            artifacts_path)
        for key in ("points", "cache_hits", "cache_misses", "cache_entries",
                    "workers"):
            sweep_span.set(key, getattr(stats, key))
        return sweeps


def _run_sweep(
    jobs: Sequence[SweepJob],
    processes: Optional[int],
    cache_path: Optional[str],
    stats: SweepStats,
    artifacts_path: Optional[str],
) -> List[BandwidthSweep]:
    start = time.perf_counter()
    if processes is None or processes <= 1 or len(jobs) == 1:
        cache = PredictionCache(cache_path) if cache_path else None
        artifacts = ArtifactStore(artifacts_path) if artifacts_path else None
        sweeps = []
        for job in jobs:
            t0 = time.perf_counter()
            sweeps.append(run_job(job, cache, artifacts))
            stats.job_times_s.append(time.perf_counter() - t0)
        if cache is not None:
            stats.cache_hits = cache.hits
            stats.cache_misses = cache.misses
            cache.save()
            stats.cache_entries = len(cache)
        if artifacts is not None:
            stats.artifact_hits = artifacts.hits
            stats.artifact_misses = artifacts.misses
        stats.workers = 1
    else:
        workers = min(processes, len(jobs))
        recorder = obs.get_obs()
        # Each pool job carries the parent's current span context so the
        # worker's span tree stays parent-linked across the process
        # boundary.  ``None`` keeps obs off in workers entirely.
        obs_parent = None
        if recorder is not None:
            obs_parent = (obs.current_carrier(), recorder.traced,
                          recorder.metered)
        with multiprocessing.Pool(workers) as pool:
            outcomes = pool.map(
                _worker,
                [(job, cache_path, artifacts_path, obs_parent)
                 for job in jobs],
            )
        sweeps = [sweep for sweep, _report in outcomes]
        for _sweep, report in outcomes:
            stats.cache_hits += int(report["hits"])
            stats.cache_misses += int(report["misses"])
            stats.artifact_hits += int(report["artifact_hits"])
            stats.artifact_misses += int(report["artifact_misses"])
            stats.job_times_s.append(float(report["job_time_s"]))
            if recorder is not None and report["obs"]:
                recorder.merge(report["obs"])
        stats.workers = workers
        if cache_path:
            stats.cache_entries = len(PredictionCache(cache_path))
    stats.points = sum(len(sweep.points) for sweep in sweeps)
    stats.wall_time_s = time.perf_counter() - start
    return sweeps
