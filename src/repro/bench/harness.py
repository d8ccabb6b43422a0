"""Micro-benchmark harness tracking the fast-path performance trajectory.

Each case is a setup ending in one call to :func:`_run_case`, the one
timing loop: it times the case's *seed* callable (the frozen reference of
:mod:`repro.bench.reference` wherever the seed has the step) and then its
*live* callable best-of-N *in the same process on the same machine*, so
the recorded ``speedup`` figures are hardware-independent and comparable
across runs and hosts.  The last timed outputs of the two sides must be
``==`` or the case raises instead of reporting a speedup.  Guards beyond
that equality raise inside a case's callables or setup.

* ``construction`` — MultiTree spanning-tree construction (Algorithm 1);
* ``construction_switched`` — the same on a switched fat-tree, where
  construction runs the §III-C3 switch search;
* ``simulate``     — the simulator inner loop on a fixed, pre-lowered
  message set;
* ``end_to_end``   — a Fig. 9-style cold-cache prediction sweep: schedule
  construction plus one simulated all-reduce per data size;
* ``engine``       — the compiled scalar loop vs the seed loop on the
  same message set;
* ``scaleout``     — a Fig. 10-style weak-scaling sweep at scale:
  artifact-warm compiled schedules + lockstep engine vs a cold build
  and the seed lowering and loop;
* ``serve``        — request-trace replay through the prediction
  service (:mod:`repro.serve`): warm-cache QPS vs the seed's
  per-query lowering and loop, with p50/p99 per-query latency;
* ``batch``        — one-pass batched vectorized evaluation of a
  Fig. 10-style multi-size doubling range (``lockstep-vec``) vs the
  seed loop once per size on the same compiled schedule;
* ``scaleout_xl``  — the cluster-scale tier (quick: 2048-node 3D torus,
  full: 8192): streaming CSR compile + vectorized batch as the cold
  reference vs the artifact-warm rerun, reporting wall time *and* peak
  RSS against the documented memory envelope;
* ``hetero``       — an oversubscribed fat-tree
  (``fattree-8x8@oversub=4``) on which every engine must equal the seed
  loop, timed as compiled + lockstep-vec against it.

Reports are written as ``BENCH_<date>.json``; :func:`compare_to_baseline`
flags regressions against a committed baseline report (CI runs it via
``repro bench --quick --baseline ...``) by :func:`floor_failures`, the
floor rule ``repro report`` applies too.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..collectives import build_schedule
from ..collectives.multitree import build_trees
from ..network.simulator import ENGINES, NetworkSimulator
from ..ni.injector import build_messages, simulate_allreduce
from ..scenario import Scenario, scenario_set_fingerprint
from ..sweep.artifacts import ArtifactStore
from ..topology.specs import parse_topology_spec
from .reference import (
    reference_build_trees,
    reference_multitree_schedule,
    reference_run,
    reference_simulate_allreduce,
)

KiB = 1024
MiB = 1 << 20

#: Bumped when benchmark definitions change incompatibly; baselines with a
#: different schema are rejected rather than silently compared.
#: v2: added the ``engine`` and ``scaleout`` benchmarks.
#: v3: added the ``serve`` benchmark (warm-cache vs cold-path request
#: replay through the prediction service).
#: v4: added the ``batch`` benchmark (one-pass vectorized multi-size
#: evaluation vs per-size scalar lockstep) and numpy/engine metadata.
#: v5: added the ``scaleout_xl`` benchmark (cluster-scale streaming
#: compile + artifact-warm rerun with peak-RSS reporting).  The
#: ``hetero`` benchmark joined later *without* a bump: adding a
#: benchmark is baseline-compatible (comparisons iterate the baseline's
#: entries), and its exactness cross-check gates at run time regardless.
BENCH_SCHEMA_VERSION = 5

#: Documented peak-RSS envelopes (MiB) for the ``scaleout_xl`` tier.
#: The quick tier (2048-node torus3d) must fit a CI runner; the full
#: tier (8192 nodes, ~134M ops) is bounded by the compiled columns plus
#: one ready/deliver matrix per payload size.  CI asserts the quick
#: ceiling on every bench-smoke run (see .github/workflows/ci.yml).
SCALEOUT_XL_QUICK_RSS_MIB = 4096
SCALEOUT_XL_FULL_RSS_MIB = 12288

#: Fig. 9 size axis used by the end-to-end benchmark.
FIG9_SIZES = (
    32 * KiB, 128 * KiB, 512 * KiB, 2 * MiB, 8 * MiB, 32 * MiB, 64 * MiB
)


@dataclass
class BenchResult:
    """One optimized-vs-reference measurement."""

    name: str
    optimized_s: float
    reference_s: float
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        if self.optimized_s <= 0:
            return float("inf")
        return self.reference_s / self.optimized_s

    def to_dict(self) -> Dict[str, object]:
        return {
            "optimized_s": self.optimized_s,
            "reference_s": self.reference_s,
            "speedup": self.speedup,
            "meta": dict(self.meta),
        }


def _best_of(func: Callable[[], object], repeat: int) -> Tuple[float, object]:
    """Minimum wall-clock over ``repeat`` runs, and the last run's value.

    The value is deterministic, so the last run's output stands for every
    run's in the cross-check.
    """
    best = float("inf")
    value = None
    for _ in range(max(1, repeat)):
        t0 = time.perf_counter()
        value = func()
        best = min(best, time.perf_counter() - t0)
    return best, value


def _run_case(
    name: str,
    live: Callable[[], object],
    seed: Callable[[], object],
    meta,
    repeat: int,
    same: Optional[Callable[[object, object], bool]] = None,
    passes: int = 1,
    between: Optional[Callable[[], None]] = None,
) -> BenchResult:
    """Time ``seed`` then ``live`` and check their last outputs agree.

    Agreement is ``same(live_out, seed_out)``, by default ``==``.
    ``between`` runs untimed after the seed runs; ``optimized_s`` is per
    one of the ``passes`` a live run makes; ``meta`` is a dict or a
    function of the result and the live output.
    """
    reference, expected = _best_of(seed, repeat)
    if between is not None:
        between()
    optimized, actual = _best_of(live, repeat)
    if not (same(actual, expected) if same else actual == expected):
        raise RuntimeError("%s: the live path diverged from the seed" % name)
    result = BenchResult(name, optimized / passes, reference)
    result.meta = meta(result, actual) if callable(meta) else meta
    return result


def _store_root(store_dir: Optional[str], prefix: str):
    """A context yielding ``store_dir``, or a temporary directory that is
    removed on exit (also when a cross-check raises)."""
    from contextlib import nullcontext

    if store_dir:
        return nullcontext(store_dir)
    return tempfile.TemporaryDirectory(prefix=prefix)


def _seed_schedule(builder: str, topology):
    """The seed's schedule for ``builder`` where the seed has a builder
    (MultiTree); the live builder otherwise (ring, 2D-Ring, ...)."""
    if builder == "multitree":
        return reference_multitree_schedule(topology)
    return build_schedule(builder, topology)


def _bench_construction(name: str, spec: str, repeat: int) -> BenchResult:
    """Live vs seed MultiTree construction on ``spec``; the forests (every
    edge, step, order and parent link, and ``tot_t``) must be ``==``."""
    topo = parse_topology_spec(spec)
    # Untimed warm-up: both builders fill the topology's neighbour memos.
    _trees, tot_t = build_trees(topo)
    reference_build_trees(topo)
    return _run_case(
        name,
        live=lambda: build_trees(topo),
        seed=lambda: reference_build_trees(topo),
        meta={"topology": spec, "nodes": topo.num_nodes, "tot_t": tot_t},
        repeat=repeat,
    )


def bench_construction(dims: Tuple[int, int], repeat: int = 1) -> BenchResult:
    """Time MultiTree construction on a ``dims`` torus, both paths."""
    return _bench_construction("construction", "torus-%dx%d" % dims, repeat)


def bench_construction_switched(repeat: int = 1) -> BenchResult:
    """Time MultiTree construction on ``fattree-8x8``, both paths.

    Exercises the §III-C3 switch search.
    """
    return _bench_construction("construction_switched", "fattree-8x8", repeat)


def bench_simulate(
    dims: Tuple[int, int], data_bytes: int = 8 * MiB, repeat: int = 3
) -> BenchResult:
    """Time the simulator inner loop on a fixed multitree message set."""
    scenario = Scenario(
        topology="torus-%dx%d" % dims, algorithm="multitree",
        data_bytes=data_bytes,
    )
    resolved = scenario.resolve()
    topo = scenario.build_topology()
    fc = resolved.flow_control
    schedule = build_schedule(resolved.builder, topo)
    messages = build_messages(schedule, data_bytes, fc)
    sim = NetworkSimulator(topo, fc)
    return _run_case(
        "simulate",
        live=lambda: sim.run(messages),
        seed=lambda: reference_run(topo, fc, messages),
        meta={
            "scenario": str(scenario),
            "fingerprint": scenario.fingerprint(topo),
            "topology": topo.name,
            "messages": len(messages),
            "data_bytes": data_bytes,
        },
        repeat=repeat,
    )


def bench_end_to_end(
    dims: Tuple[int, int],
    sizes: Sequence[int] = FIG9_SIZES,
    repeat: int = 1,
) -> BenchResult:
    """Time a cold-cache Fig. 9-style predict sweep, both pipelines.

    Cold cache means every timed run pays schedule construction plus the
    full lowering (dependencies, gates, routes) — exactly what a fresh
    figure-script invocation pays.
    """
    scenarios = [
        Scenario(
            topology="torus-%dx%d" % dims, algorithm="multitree",
            data_bytes=size,
        )
        for size in sizes
    ]
    resolved = scenarios[0].resolve()
    topo = scenarios[0].build_topology()
    fc = resolved.flow_control

    def optimized_sweep() -> List[float]:
        schedule = build_schedule(resolved.builder, topo)
        return [
            simulate_allreduce(schedule, size, fc).time for size in sizes
        ]

    def reference_sweep() -> List[float]:
        schedule = reference_multitree_schedule(topo)
        return [
            reference_simulate_allreduce(schedule, size, fc).finish_time
            for size in sizes
        ]

    # Untimed warm-up: both pipelines fill the topology's memos, which
    # outlive the schedules each timed run rebuilds.
    optimized_sweep()
    reference_sweep()
    return _run_case(
        "end_to_end",
        live=optimized_sweep,
        seed=reference_sweep,
        meta={
            "scenarios": [str(s) for s in scenarios],
            "fingerprint": scenario_set_fingerprint(scenarios),
            "topology": topo.name,
            "sizes": list(sizes),
            "algorithm": "multitree",
        },
        repeat=repeat,
    )


def bench_engine(
    dims: Tuple[int, int], data_bytes: int = 8 * MiB, repeat: int = 3
) -> BenchResult:
    """Time the engines as deployed: compiled + lockstep vs the seed loop.

    The optimized side is the sweep fast path — a pre-compiled schedule
    feeding the scalar loop's flat arrays, in heap order (gates and
    payloads are re-derived per run, as every sweep point pays).  The
    ``lockstep`` engine runs that loop, on the C kernel wherever it has
    loaded.  The reference side
    is the frozen seed loop (:func:`~repro.bench.reference.reference_run`)
    on the equivalent pre-lowered message set, so the ratio moves only
    when the deployed engine does.  The two produce bit-identical
    results: the timed runs' simulation results must be ``==``.
    """
    from ..collectives import compile_schedule

    scenario = Scenario(
        topology="torus-%dx%d" % dims, algorithm="multitree",
        data_bytes=data_bytes, engine="lockstep",
    )
    resolved = scenario.resolve()
    topo = scenario.build_topology()
    fc = resolved.flow_control
    schedule = build_schedule(resolved.builder, topo)
    messages = build_messages(schedule, data_bytes, fc)
    compiled = compile_schedule(schedule)
    return _run_case(
        "engine",
        live=lambda: compiled.simulate(
            data_bytes, fc, engine="lockstep"
        ).simulation,
        seed=lambda: reference_run(topo, fc, messages),
        meta={
            "scenario": str(scenario),
            "fingerprint": scenario.fingerprint(topo),
            "topology": topo.name,
            "messages": len(messages),
            "data_bytes": data_bytes,
            "optimized": "compiled schedule + scalar loop (heap order)",
            "reference": "seed loop, pre-lowered messages",
        },
        repeat=repeat,
    )


def bench_scaleout(
    dims: Tuple[int, int],
    algorithms: Sequence[str] = ("ring", "2d-ring"),
    repeat: int = 1,
    store_dir: Optional[str] = None,
) -> BenchResult:
    """Fig. 10-style weak-scaling sweep at scale, both pipelines.

    The weak-scaling operating point is the paper's fig. 10 axis: payload
    375 KiB x num_nodes (swept over 1/4x, 1/2x, 1x here so each series is
    a small sweep rather than one point).  The reference pipeline is what
    a cold figure run paid in the seed: schedule construction per series,
    then per size the seed lowering and loop
    (:func:`~repro.bench.reference.reference_simulate_allreduce`).  The
    seed has no ring or 2D-Ring builder, so construction is the live
    builder's; everything after it is frozen, so the ratio moves only
    when the optimized pipeline does.
    The optimized pipeline is the steady state of the artifact path: load
    the compiled artifact from disk (load time *is* timed) and run the
    lockstep engine per size.  The artifact prewarm (build + compile +
    persist, paid once ever per topology/algorithm) runs untimed, exactly
    as a warm store amortizes it across figure runs.
    """
    spec = "torus-%dx%d" % dims
    topo = parse_topology_spec(spec)
    base = 375 * topo.num_nodes * KiB
    sizes = (base // 4, base // 2, base)
    scenarios = [
        Scenario(
            topology=spec, algorithm=algorithm, data_bytes=size,
            engine="lockstep",
        )
        for algorithm in algorithms
        for size in sizes
    ]
    fc = scenarios[0].resolve().flow_control

    def reference_sweep() -> List[float]:
        times: List[float] = []
        for algorithm in algorithms:
            schedule = _seed_schedule(algorithm, topo)
            times.extend(
                reference_simulate_allreduce(schedule, size, fc).finish_time
                for size in sizes
            )
        return times

    def optimized_sweep() -> List[float]:
        store = ArtifactStore(root)
        times: List[float] = []
        for algorithm in algorithms:
            compiled = store.get(topo, algorithm)
            if compiled is None:
                raise RuntimeError(
                    "artifact store lost %s/%s between prewarm and sweep"
                    % (topo.name, algorithm)
                )
            times.extend(
                compiled.simulate(size, fc, engine="lockstep").time
                for size in sizes
            )
        return times

    with _store_root(store_dir, "repro-bench-artifacts-") as root:
        prewarm = ArtifactStore(root)
        for algorithm in algorithms:
            prewarm.get_or_compile(topo, algorithm)
        return _run_case(
            "scaleout",
            live=optimized_sweep,
            seed=reference_sweep,
            meta={
                "scenarios": [str(s) for s in scenarios],
                "fingerprint": scenario_set_fingerprint(scenarios),
                "topology": topo.name,
                "nodes": topo.num_nodes,
                "algorithms": list(algorithms),
                "sizes": list(sizes),
                "optimized": "artifact-warm + lockstep engine",
                "reference": (
                    "cold build (live builder: the seed has no ring/2D-Ring "
                    "builder) + seed lowering and seed loop per size"
                ),
            },
            repeat=repeat,
        )


def bench_serve(
    dims: Tuple[int, int] = (4, 4),
    algorithms: Sequence[str] = ("multitree", "multitree-msg", "ring"),
    sizes: Optional[Sequence[int]] = None,
    warm_passes: int = 25,
    repeat: int = 3,
) -> BenchResult:
    """Request-replay through the prediction service: warm vs cold path.

    The trace is one query per (algorithm, size) — the
    :func:`repro.serve.replay.workload_trace` order, so it reproduces
    from its parameters alone.  An untimed replay against an empty state
    (a temporary directory, removed before returning) with ``block=True``
    warms the cache; its QPS and latencies ride along in ``meta`` as the
    live cold path.  The *reference* side is
    the seed's per-query cost of a cacheless server: per query, the
    seed lowering and loop
    (:func:`~repro.bench.reference.reference_simulate_allreduce`) on a
    schedule built once per variant — the seed MultiTree construction,
    or the live builder where the seed has none (ring).  The
    *optimized* side replays the now-warm trace ``warm_passes`` times
    and reports per-pass time, so ``speedup`` is the warm-QPS /
    seed-QPS ratio; every warm query must hit the cache.  The
    cross-check holds every served time ``==`` the seed's.
    """
    from ..serve.replay import replay, workload_trace
    from ..serve.service import PredictionService

    spec = "torus-%dx%d" % dims
    sizes = tuple(sizes) if sizes is not None else tuple(
        32 * KiB << i for i in range(6)  # 32K .. 1M
    )
    passes = max(1, warm_passes)
    trace = workload_trace(spec, sizes, algorithms)
    topo = parse_topology_spec(spec)

    def seed_replay() -> List[float]:
        schedules: Dict[str, object] = {}
        times: List[float] = []
        for scenario in trace:
            resolved = scenario.resolve()
            schedule = schedules.get(resolved.builder)
            if schedule is None:
                schedule = schedules[resolved.builder] = _seed_schedule(
                    resolved.builder, topo
                )
            times.append(
                reference_simulate_allreduce(
                    schedule, scenario.data_bytes, resolved.flow_control,
                    scenario.lockstep,
                ).finish_time
            )
        return times

    def warm_run():
        for _ in range(passes):
            warm = replay(service, trace)
        if warm.hits != warm.queries:
            raise RuntimeError(
                "warm replay missed the cache (%d/%d hits) — the cold pass "
                "should have warmed every key" % (warm.hits, warm.queries)
            )
        return warm

    def meta(result: BenchResult, warm) -> Dict[str, object]:
        seed_qps = len(trace) / result.reference_s
        warm_qps = warm.queries / result.optimized_s
        return {
            "benchmark": "bench_serve",
            "scenarios": [str(s) for s in trace],
            "fingerprint": scenario_set_fingerprint(trace),
            "topology": spec,
            "queries": len(trace),
            "warm_passes": warm_passes,
            "cold_qps": cold.qps,
            "seed_qps": seed_qps,
            "warm_qps": warm_qps,
            "qps_ratio": warm_qps / seed_qps,
            "cold_p50_s": cold.p50_s,
            "cold_p99_s": cold.p99_s,
            "warm_p50_s": warm.p50_s,
            "warm_p99_s": warm.p99_s,
            "optimized": "warm prediction cache, per-pass replay time",
            "reference": (
                "seed lowering and loop per query; seed MultiTree build, "
                "live ring build (the seed has none), once per variant"
            ),
        }

    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as state:
        service = PredictionService(state, workers=0)
        try:
            cold = replay(service, trace, block=True)
            if cold.errors:
                raise RuntimeError(
                    "cold replay hit %d errors; trace is not servable"
                    % cold.errors
                )
            # The cached answers every warm query hits.
            served = [service.predict(query)[0]["time"] for query in trace]
            return _run_case(
                "serve",
                live=warm_run,
                seed=seed_replay,
                same=lambda _warm, seed_times: served == seed_times,
                meta=meta,
                repeat=repeat,
                passes=passes,
            )
        finally:
            service.close()


def bench_batch(
    dims: Tuple[int, int],
    algorithms: Sequence[str] = ("ring", "2d-ring"),
    num_sizes: int = 5,
    repeat: int = 1,
    store_dir: Optional[str] = None,
) -> BenchResult:
    """One-pass batched vectorized sweep vs per-size scalar lockstep.

    The size axis is a doubling ladder ending at the paper's Fig. 10
    weak-scaling operating point (375 KiB x num_nodes) — the shape every
    multi-size sweep and planner bucket evaluates.  Both sides run
    artifact-warm on the *same* compiled schedule, so the comparison
    isolates exactly what the vectorized engine changes: the optimized
    side evaluates all ``num_sizes`` payloads in one
    :meth:`~repro.collectives.compiled.CompiledSchedule.simulate_batch`
    call per algorithm (``lockstep-vec``); the reference side runs the
    frozen seed loop (:func:`~repro.bench.reference.reference_run`)
    once per size on messages lowered untimed from that schedule.  The
    cross-check enforces exact ``==`` equality of every predicted time
    and zero fallbacks — the benchmark must measure the vectorized
    path, which ``lockstep-vec`` selects on these dense schedules (1024
    ops per step on a 2D-Ring torus), not the scalar fallbacks.
    """
    spec = "torus-%dx%d" % dims
    topo = parse_topology_spec(spec)
    base = 375 * topo.num_nodes * KiB
    sizes = tuple(base >> (num_sizes - 1 - i) for i in range(num_sizes))
    scenarios = [
        Scenario(
            topology=spec, algorithm=algorithm, data_bytes=size,
            engine="lockstep-vec",
        )
        for algorithm in algorithms
        for size in sizes
    ]
    fc = scenarios[0].resolve().flow_control

    def optimized_sweep() -> List[float]:
        times: List[float] = []
        for algorithm in algorithms:
            batch = compiled_by_algo[algorithm].simulate_batch(
                sizes, fc, engine="lockstep-vec"
            )
            if batch.fallbacks:
                raise RuntimeError(
                    "vectorized engine fell back %d times; the batch "
                    "benchmark must measure the vectorized path"
                    % batch.fallbacks
                )
            times.extend(point.time for point in batch.points)
        return times

    def reference_sweep() -> List[float]:
        return [
            reference_run(topo, fc, messages).finish_time
            for messages in lowered
        ]

    with _store_root(store_dir, "repro-bench-artifacts-") as root:
        store = ArtifactStore(root)
        compiled_by_algo = {
            algorithm: store.get_or_compile(topo, algorithm)
            for algorithm in algorithms
        }
        lowered = [
            compiled_by_algo[algorithm].build_messages(size, fc)
            for algorithm in algorithms
            for size in sizes
        ]

        # Untimed warm-up builds the memoized vectorization plan, so the
        # optimized side measures steady-state sweep cost.
        optimized_sweep()
        return _run_case(
            "batch",
            live=optimized_sweep,
            seed=reference_sweep,
            meta={
                "scenarios": [str(s) for s in scenarios],
                "fingerprint": scenario_set_fingerprint(scenarios),
                "topology": topo.name,
                "nodes": topo.num_nodes,
                "algorithms": list(algorithms),
                "sizes": list(sizes),
                "engine": "lockstep-vec",
                "reference_engine": "seed",
                "fallbacks": 0,
                "optimized": "one run_batch pass over all sizes",
                "reference": "seed loop per size, pre-lowered messages",
            },
            repeat=repeat,
        )


def bench_scaleout_xl(
    spec: str = "torus3d-16x16x8",
    num_sizes: int = 2,
    repeat: int = 1,
    store_dir: Optional[str] = None,
    rss_envelope_mib: int = SCALEOUT_XL_QUICK_RSS_MIB,
) -> BenchResult:
    """Cluster-scale tier: streaming compile vs artifact-warm rerun.

    The *reference* is what the first run at a new scale always pays:
    MultiTree construction + streaming CSR compilation
    (:func:`repro.collectives.streaming.compile_multitree`) followed by
    one vectorized batch over the size axis.  Its compiled schedule is
    persisted untimed.  The *optimized* side is
    every run after it: load the sharded artifact (columns stay lazy —
    the benchmark asserts the dependency shard has not been materialized
    by the load itself) and run the same batch.  Both sides must agree
    exactly and run the vectorized engine with zero fallbacks — at this
    scale a silent scalar fallback is a multi-GiB, multi-minute
    regression, which is precisely what the gate is for.

    Both sides time the deployed selection,
    :meth:`~repro.collectives.compiled.CompiledSchedule.simulate_batch`
    with ``engine="lockstep-vec"``, which must pick the numpy engine at
    this density (the case raises if the schedule's vectorization plan
    was never built).

    The size axis sits at the paper's Fig. 10 weak-scaling operating
    point (375 KiB x num_nodes, halving downward), large enough that the
    per-size wire math stays on the vectorized path.  ``meta`` records
    ``peak_rss_mib`` (``resource.getrusage`` high-water mark, i.e. the
    whole process including both pipelines) and the documented envelope
    it must stay under; CI enforces the quick-tier ceiling.
    """
    import resource

    from ..collectives.streaming import compile_multitree

    topo = parse_topology_spec(spec)
    base = 375 * topo.num_nodes * KiB
    sizes = tuple(base >> (num_sizes - 1 - i) for i in range(num_sizes))
    scenarios = [
        Scenario(
            topology=spec, algorithm="multitree", data_bytes=size,
            engine="lockstep-vec",
        )
        for size in sizes
    ]
    fc = scenarios[0].resolve().flow_control
    cold: Dict[str, object] = {}  # the last cold compile, until persisted

    def batch_times(compiled, side: str) -> List[float]:
        batch = compiled.simulate_batch(sizes, fc, engine="lockstep-vec")
        if compiled._vec_plan is None:
            raise RuntimeError(
                "scaleout_xl must stay on the vectorized path (%s side ran "
                "the kernel ladder)" % side
            )
        if batch.fallbacks:
            raise RuntimeError(
                "scaleout_xl must stay on the vectorized path (%s side fell "
                "back %d times)" % (side, batch.fallbacks)
            )
        return [p.time for p in batch.points]

    def cold_pipeline() -> List[float]:
        cold["compiled"] = compile_multitree(topo)
        return batch_times(cold["compiled"], "cold")

    def warm_pipeline() -> List[float]:
        # A fresh store per run: a memo hit would hand back the columns
        # an earlier run already loaded and skip the shard-load path
        # under test.
        warmed = ArtifactStore(root).get(topo, "multitree")
        if warmed is None:
            raise RuntimeError(
                "artifact store lost %s/multitree between put and rerun"
                % topo.name
            )
        # The load itself must stay lazy: the dependency columns (the
        # largest shards) may only materialize when the engine asks.
        lazy = getattr(warmed.dep_val, "loaded", None)
        if lazy is not False:
            raise RuntimeError(
                "artifact-warm load materialized dep_val eagerly "
                "(loaded=%r)" % lazy
            )
        return batch_times(warmed, "warm")

    def persist() -> None:
        # Popped, so the warm side cannot lean on the cold columns.
        compiled = cold.pop("compiled")
        ArtifactStore(root).put(compiled)
        cold["ops"] = len(compiled)

    with _store_root(store_dir, "repro-bench-scaleout-xl-") as root:
        return _run_case(
            "scaleout_xl",
            live=warm_pipeline,
            seed=cold_pipeline,
            between=persist,
            meta=lambda _result, _times: {
                "scenarios": [str(s) for s in scenarios],
                "fingerprint": scenario_set_fingerprint(scenarios),
                "topology": topo.name,
                "nodes": topo.num_nodes,
                "ops": cold["ops"],
                "sizes": list(sizes),
                "engine": "lockstep-vec",
                "peak_rss_mib": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                ),
                "rss_envelope_mib": rss_envelope_mib,
                "optimized": "artifact-warm lazy shard load + one batch pass",
                "reference": "streaming CSR compile + one batch pass",
            },
            repeat=repeat,
        )


def bench_hetero(
    spec: str = "fattree-8x8@oversub=4",
    data_bytes: int = 8 * MiB,
    repeat: int = 3,
) -> BenchResult:
    """Heterogeneous-fabric tier: a profiled fabric through all engines.

    The cross-check *is* the exactness contract for link profiles: on the
    oversubscribed fat-tree the frozen seed loop (semantic reference) and
    the event, scalar lockstep and vectorized engines must produce
    exactly equal (``==``) finish times, per-message timings and
    per-link busy totals — heterogeneity flows through per-link
    bandwidth/latency columns, never through a changed formula, so any
    drift here is a correctness bug, not noise.  Every engine is checked
    untimed against the seed loop; timing then compares
    the deployed fast path (compiled schedule + lockstep-vec) against
    the seed loop on the equivalent pre-lowered messages, mirroring
    ``engine`` but on a fabric whose upper tier runs at a quarter of the
    edge bandwidth.
    """
    from ..collectives import compile_schedule

    scenario = Scenario(
        topology=spec, algorithm="multitree", data_bytes=data_bytes,
        engine="lockstep-vec",
    )
    resolved = scenario.resolve()
    topo = parse_topology_spec(spec)
    fc = resolved.flow_control
    schedule = build_schedule(resolved.builder, topo)
    messages = build_messages(schedule, data_bytes, fc)
    compiled = compile_schedule(schedule)
    ref = reference_run(topo, fc, messages)
    for engine in ENGINES:
        if compiled.simulate(data_bytes, fc, engine=engine).simulation != ref:
            raise RuntimeError(
                "%s engine diverged from the seed loop on %s" % (engine, spec)
            )
    return _run_case(
        "hetero",
        live=lambda: compiled.simulate(
            data_bytes, fc, engine="lockstep-vec"
        ).simulation,
        seed=lambda: reference_run(topo, fc, messages),
        meta={
            "scenario": str(scenario),
            "fingerprint": scenario.fingerprint(topo),
            "topology": topo.name,
            "link_mods": (
                topo.link_profile.canonical() if topo.link_profile else None
            ),
            "messages": len(messages),
            "data_bytes": data_bytes,
            "engines_cross_checked": ["seed", *ENGINES],
            "optimized": "compiled schedule + lockstep-vec engine",
            "reference": "seed loop, pre-lowered messages",
        },
        repeat=repeat,
    )


def run_bench(quick: bool = False, repeat: Optional[int] = None) -> Dict[str, object]:
    """Run the full harness; ``quick`` shrinks topologies for CI smoke runs."""
    if quick:
        reps = repeat if repeat is not None else 3
        results = [
            bench_construction((8, 8), repeat=reps),
            bench_construction_switched(repeat=reps),
            bench_simulate((8, 8), data_bytes=2 * MiB, repeat=reps),
            bench_end_to_end((4, 4), sizes=FIG9_SIZES[:4], repeat=reps),
            bench_engine((8, 8), data_bytes=2 * MiB, repeat=reps),
            bench_scaleout((16, 16), algorithms=("2d-ring",), repeat=reps),
            bench_serve(
                (4, 4), sizes=tuple(32 * KiB << i for i in range(4)),
                warm_passes=10, repeat=reps,
            ),
            bench_batch(
                (16, 16), algorithms=("2d-ring",), num_sizes=4, repeat=reps
            ),
            # One pass regardless of --repeat: the cold side pays a full
            # cluster-scale construction + compile per run.
            bench_scaleout_xl(
                "torus3d-16x16x8", repeat=1,
                rss_envelope_mib=SCALEOUT_XL_QUICK_RSS_MIB,
            ),
            bench_hetero(data_bytes=2 * MiB, repeat=reps),
        ]
    else:
        reps = repeat if repeat is not None else 1
        results = [
            bench_construction((16, 16), repeat=reps),
            bench_construction_switched(repeat=max(3, reps)),
            bench_simulate((8, 8), repeat=max(3, reps)),
            bench_end_to_end((8, 8), repeat=reps),
            bench_engine((16, 16), repeat=max(3, reps)),
            bench_scaleout((32, 32), repeat=reps),
            bench_serve((8, 8), repeat=max(3, reps)),
            bench_batch((32, 32), repeat=reps),
            bench_scaleout_xl(
                "torus3d-32x16x16", repeat=1,
                rss_envelope_mib=SCALEOUT_XL_FULL_RSS_MIB,
            ),
            bench_hetero(repeat=max(3, reps)),
        ]
    import numpy

    return {
        "schema": BENCH_SCHEMA_VERSION,
        "date": datetime.date.today().isoformat(),
        "quick": quick,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "results": {r.name: r.to_dict() for r in results},
    }


def format_report(report: Dict[str, object]) -> str:
    lines = [
        "%-21s %12s %12s %9s" % ("benchmark", "optimized", "reference", "speedup")
    ]
    for name, entry in report["results"].items():
        lines.append(
            "%-21s %10.1f ms %10.1f ms %8.2fx"
            % (
                name,
                entry["optimized_s"] * 1e3,
                entry["reference_s"] * 1e3,
                entry["speedup"],
            )
        )
    return "\n".join(lines)


def default_report_path(report: Dict[str, object], directory: str = ".") -> str:
    return os.path.join(directory, "BENCH_%s.json" % report["date"])


def write_report(report: Dict[str, object], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def is_bench_report(payload: object) -> bool:
    """Does this JSON payload look like a ``BENCH_*.json`` harness report?"""
    return (
        isinstance(payload, dict)
        and "results" in payload
        and "schema" in payload
        and isinstance(payload.get("results"), dict)
    )


def load_report(path: str) -> Dict[str, object]:
    """A ``BENCH_*.json`` report; ``ValueError`` when the file is not one."""
    with open(path) as fh:
        report = json.load(fh)
    if not is_bench_report(report):
        raise ValueError("%s is not a bench report" % path)
    return report


def floor_failures(
    current: Dict[str, float],
    baseline: Dict[str, float],
    max_regression: float,
) -> List[Tuple[str, Optional[float], float, float]]:
    """The speedup floor rule, shared by ``repro bench`` and ``repro report``.

    A baseline case fails when ``current`` lacks it or its speedup is below
    ``baseline × (1 − max_regression)``.  Returns ``(name, speedup,
    baseline, floor)`` per failing case in ``baseline`` order; ``speedup``
    is ``None`` for a missing case.
    """
    failures = []
    for name, base in baseline.items():
        floor = base * (1.0 - max_regression)
        speedup = current.get(name)
        if speedup is None or speedup < floor:
            failures.append((name, speedup, base, floor))
    return failures


def compare_to_baseline(
    report: Dict[str, object],
    baseline: Dict[str, object],
    max_regression: float = 0.25,
) -> List[str]:
    """Regression check against a committed baseline report.

    Absolute wall-clock is machine-dependent, so the comparison uses each
    benchmark's *speedup over the in-process reference implementation* —
    a same-machine ratio that transfers across hosts.  A benchmark fails
    when its speedup drops more than ``max_regression`` below the
    baseline's (e.g. 0.25 allows a 3.0x baseline to degrade to 2.4x).
    Returns a list of human-readable failures (empty = pass).
    """
    if report.get("schema") != baseline.get("schema"):
        return [
            "schema mismatch: current %s vs baseline %s"
            % (report.get("schema"), baseline.get("schema"))
        ]
    if bool(report.get("quick")) != bool(baseline.get("quick")):
        return [
            "mode mismatch: current quick=%s vs baseline quick=%s"
            % (report.get("quick"), baseline.get("quick"))
        ]
    return [
        "benchmark %r missing from current report" % name
        if speedup is None
        else "%s regressed: speedup %.2fx < floor %.2fx "
        "(baseline %.2fx, max regression %d%%)"
        % (name, speedup, floor, base, round(max_regression * 100))
        for name, speedup, base, floor in floor_failures(
            {n: e["speedup"] for n, e in report["results"].items()},
            {n: e["speedup"] for n, e in baseline["results"].items()},
            max_regression,
        )
    ]
