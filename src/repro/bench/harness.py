"""Micro-benchmark harness tracking the fast-path performance trajectory.

The benchmarks cover the optimized strata:

* ``construction`` — MultiTree spanning-tree construction (Algorithm 1);
* ``construction_switched`` — the same on a switched fat-tree, where
  construction runs the §III-C3 switch search;
* ``simulate``     — the discrete-event simulator inner loop on a fixed,
  pre-lowered message set;
* ``end_to_end``   — a Fig. 9-style cold-cache prediction sweep: schedule
  construction plus one simulated all-reduce per data size;
* ``engine``       — the compiled lockstep engine vs the seed loop on
  the same message set (results are bit-identical; only speed differs);
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
  reference vs the artifact-warm rerun (lazy shard loads + the same
  batch), reporting wall time *and* peak RSS against the documented
  memory envelope;
* ``hetero``       — the heterogeneous-fabric tier: an oversubscribed
  fat-tree (``fattree-8x8@oversub=4``, link profiles of
  :mod:`repro.topology.profile`) through all three engines, with the
  cross-check enforcing the exactness contract — the seed loop, event,
  lockstep and lockstep-vec must produce exactly equal (``==``) results
  on the profiled fabric before any timing happens; timed against the
  seed loop.

Each benchmark times the optimized implementation against the seed
implementation preserved in :mod:`repro.bench.reference` *in the same
process on the same machine*, so the recorded ``speedup`` figures are
hardware-independent and comparable across runs and hosts.  Reports are
written as ``BENCH_<date>.json``; :func:`compare_to_baseline` flags
regressions against a committed baseline report (CI runs it via
``repro bench --quick --baseline ...``).
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
from ..topology import Torus2D
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


def _best_of(func: Callable[[], object], repeat: int) -> float:
    """Minimum wall-clock over ``repeat`` runs (noise-robust)."""
    best = float("inf")
    for _ in range(max(1, repeat)):
        t0 = time.perf_counter()
        func()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return best


def _best_of_values(func: Callable[[], object], repeat: int):
    """Like :func:`_best_of`, but also returns the last run's value.

    Lets expensive benchmarks cross-check optimized vs reference outputs
    from the timed runs themselves instead of paying an extra untimed
    pass (the value is deterministic, so any run's output will do).
    """
    best = float("inf")
    value = None
    for _ in range(max(1, repeat)):
        t0 = time.perf_counter()
        value = func()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return best, value


def _same_simulation(fast, ref) -> bool:
    """Do two simulation results agree exactly (finish, timings, busy)?"""
    return (
        fast.finish_time == ref.finish_time
        and fast.timings == ref.timings
        and fast.link_busy == ref.link_busy
    )


def _seed_schedule(builder: str, topology):
    """The seed's schedule for ``builder`` where the seed has a builder
    (MultiTree); the live builder otherwise (ring, 2D-Ring, ...)."""
    if builder == "multitree":
        return reference_multitree_schedule(topology)
    return build_schedule(builder, topology)


def bench_construction(dims: Tuple[int, int], repeat: int = 1) -> BenchResult:
    """Time MultiTree construction on a ``dims`` torus, both paths."""
    topo = Torus2D(*dims)
    # Cross-check once outside the timed region: same step count and the
    # same number of edges per tree (full equivalence lives in the golden
    # tests; this guards the benchmark against comparing different work).
    fast_trees, fast_tot = build_trees(topo)
    ref_trees, ref_tot = reference_build_trees(topo)
    if fast_tot != ref_tot or any(
        f.edges != r.edges for f, r in zip(fast_trees, ref_trees)
    ):
        raise RuntimeError("optimized construction diverged from reference")
    optimized = _best_of(lambda: build_trees(topo), repeat)
    reference = _best_of(lambda: reference_build_trees(topo), repeat)
    return BenchResult(
        name="construction",
        optimized_s=optimized,
        reference_s=reference,
        meta={"topology": topo.name, "nodes": topo.num_nodes, "tot_t": fast_tot},
    )


def bench_construction_switched(repeat: int = 1) -> BenchResult:
    """Time MultiTree construction on ``fattree-8x8``, both paths.

    Exercises the §III-C3 switch search.  The forests must be ``==``
    (every edge, step and route) before anything is timed.
    """
    spec = "fattree-8x8"
    topo = parse_topology_spec(spec)
    fast_trees, fast_tot = build_trees(topo)
    ref_trees, ref_tot = reference_build_trees(topo)
    if fast_tot != ref_tot or any(
        f.edges != r.edges or f.order != r.order
        for f, r in zip(fast_trees, ref_trees)
    ):
        raise RuntimeError("optimized switched construction diverged from reference")
    optimized = _best_of(lambda: build_trees(topo), repeat)
    reference = _best_of(lambda: reference_build_trees(topo), repeat)
    return BenchResult(
        name="construction_switched",
        optimized_s=optimized,
        reference_s=reference,
        meta={"topology": spec, "nodes": topo.num_nodes, "tot_t": fast_tot},
    )


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
    fast = sim.run(messages)
    ref = reference_run(topo, fc, messages)
    if fast.finish_time != ref.finish_time:
        raise RuntimeError("optimized simulator diverged from reference")
    optimized = _best_of(lambda: sim.run(messages), repeat)
    reference = _best_of(lambda: reference_run(topo, fc, messages), repeat)
    return BenchResult(
        name="simulate",
        optimized_s=optimized,
        reference_s=reference,
        meta={
            "scenario": str(scenario),
            "fingerprint": scenario.fingerprint(topo),
            "topology": topo.name,
            "messages": len(messages),
            "data_bytes": data_bytes,
        },
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

    if optimized_sweep() != reference_sweep():
        raise RuntimeError("optimized predict pipeline diverged from reference")
    optimized = _best_of(optimized_sweep, repeat)
    reference = _best_of(reference_sweep, repeat)
    return BenchResult(
        name="end_to_end",
        optimized_s=optimized,
        reference_s=reference,
        meta={
            "scenarios": [str(s) for s in scenarios],
            "fingerprint": scenario_set_fingerprint(scenarios),
            "topology": topo.name,
            "sizes": list(sizes),
            "algorithm": "multitree",
        },
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
    results; the cross-check enforces full equality before any timing.
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
    fast = compiled.simulate(data_bytes, fc, engine="lockstep").simulation
    if not _same_simulation(fast, reference_run(topo, fc, messages)):
        raise RuntimeError("lockstep engine diverged from the seed loop")
    optimized = _best_of(
        lambda: compiled.simulate(data_bytes, fc, engine="lockstep"), repeat
    )
    reference = _best_of(lambda: reference_run(topo, fc, messages), repeat)
    return BenchResult(
        name="engine",
        optimized_s=optimized,
        reference_s=reference,
        meta={
            "scenario": str(scenario),
            "fingerprint": scenario.fingerprint(topo),
            "topology": topo.name,
            "messages": len(messages),
            "data_bytes": data_bytes,
            "optimized": "compiled schedule + scalar loop (heap order)",
            "reference": "seed loop, pre-lowered messages",
        },
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
    topo = Torus2D(*dims)
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
    root = store_dir or tempfile.mkdtemp(prefix="repro-bench-artifacts-")
    prewarm = ArtifactStore(root)
    for algorithm in algorithms:
        prewarm.get_or_compile(topo, algorithm)

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

    def reference_sweep() -> List[float]:
        times: List[float] = []
        for algorithm in algorithms:
            schedule = _seed_schedule(algorithm, topo)
            times.extend(
                reference_simulate_allreduce(schedule, size, fc).finish_time
                for size in sizes
            )
        return times

    optimized, fast_times = _best_of_values(optimized_sweep, repeat)
    reference, ref_times = _best_of_values(reference_sweep, repeat)
    if fast_times != ref_times:
        raise RuntimeError(
            "artifact+lockstep pipeline diverged from the seed pipeline"
        )
    return BenchResult(
        name="scaleout",
        optimized_s=optimized,
        reference_s=reference,
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
    with ``block=True`` warms the cache; its QPS and latencies ride
    along in ``meta`` as the live cold path.  The *reference* side is
    the seed's per-query cost of a cacheless server: per query, the
    seed lowering and loop
    (:func:`~repro.bench.reference.reference_simulate_allreduce`) on a
    schedule built once per variant — the seed MultiTree construction,
    or the live builder where the seed has none (ring).  The
    *optimized* side replays the now-warm trace ``warm_passes`` times
    and reports per-pass time, so ``speedup`` is the warm-QPS /
    seed-QPS ratio.  The cross-check holds every served time ``==`` the
    seed's.
    """
    from ..serve.replay import replay, workload_trace
    from ..serve.service import PredictionService

    spec = "torus-%dx%d" % dims
    sizes = tuple(sizes) if sizes is not None else tuple(
        32 * KiB << i for i in range(6)  # 32K .. 1M
    )
    trace = workload_trace(spec, sizes, algorithms)
    state_dir = tempfile.mkdtemp(prefix="repro-bench-serve-")
    service = PredictionService(state_dir, workers=0)
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

    try:
        cold = replay(service, trace, block=True)
        if cold.errors:
            raise RuntimeError(
                "cold replay hit %d errors; trace is not servable" % cold.errors
            )
        reference, seed_times = _best_of_values(seed_replay, repeat)
        served = [service.predict(scenario)[0]["time"] for scenario in trace]
        if served != seed_times:
            raise RuntimeError("served predictions diverged from the seed")

        def warm_run():
            last = None
            for _ in range(max(1, warm_passes)):
                last = replay(service, trace)
            return last

        optimized_total, warm = _best_of_values(warm_run, repeat)
        if warm.hits != warm.queries:
            raise RuntimeError(
                "warm replay missed the cache (%d/%d hits) — the cold pass "
                "should have warmed every key" % (warm.hits, warm.queries)
            )
        optimized = optimized_total / max(1, warm_passes)  # per-pass
        cold_qps = cold.qps
        seed_qps = len(trace) / reference if reference > 0 else float("inf")
        warm_qps = warm.queries / optimized if optimized > 0 else float("inf")
    finally:
        service.close()
    return BenchResult(
        name="serve",
        optimized_s=optimized,
        reference_s=reference,
        meta={
            "benchmark": "bench_serve",
            "scenarios": [str(s) for s in trace],
            "fingerprint": scenario_set_fingerprint(trace),
            "topology": spec,
            "queries": len(trace),
            "warm_passes": warm_passes,
            "cold_qps": cold_qps,
            "seed_qps": seed_qps,
            "warm_qps": warm_qps,
            "qps_ratio": warm_qps / seed_qps if seed_qps > 0 else float("inf"),
            "cold_p50_s": cold.p50_s,
            "cold_p99_s": cold.p99_s,
            "warm_p50_s": warm.p50_s,
            "warm_p99_s": warm.p99_s,
            "optimized": "warm prediction cache, per-pass replay time",
            "reference": (
                "seed lowering and loop per query; seed MultiTree build, "
                "live ring build (the seed has none), once per variant"
            ),
        },
    )


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
    path, not the ladder.
    """
    spec = "torus-%dx%d" % dims
    topo = Torus2D(*dims)
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
    root = store_dir or tempfile.mkdtemp(prefix="repro-bench-artifacts-")
    store = ArtifactStore(root)
    compiled_by_algo = {
        algorithm: store.get_or_compile(topo, algorithm)
        for algorithm in algorithms
    }

    def optimized_sweep():
        times: List[float] = []
        fallbacks = 0
        for algorithm in algorithms:
            batch = compiled_by_algo[algorithm].simulate_batch(sizes, fc)
            fallbacks += batch.fallbacks
            times.extend(point.time for point in batch.points)
        return times, fallbacks

    lowered = [
        compiled_by_algo[algorithm].build_messages(size, fc)
        for algorithm in algorithms
        for size in sizes
    ]

    def reference_sweep() -> List[float]:
        return [
            reference_run(topo, fc, messages).finish_time
            for messages in lowered
        ]

    # Untimed warm-up builds the memoized vectorization plan, so the
    # optimized side measures steady-state sweep cost.
    fast_times, fallbacks = optimized_sweep()
    ref_times = reference_sweep()
    if fallbacks:
        raise RuntimeError(
            "vectorized engine fell back %d times; the batch benchmark "
            "must measure the vectorized path" % fallbacks
        )
    if fast_times != ref_times:
        raise RuntimeError(
            "batched vectorized engine diverged from scalar lockstep"
        )
    optimized = _best_of(optimized_sweep, repeat)
    reference = _best_of(reference_sweep, repeat)
    return BenchResult(
        name="batch",
        optimized_s=optimized,
        reference_s=reference,
        meta={
            "scenarios": [str(s) for s in scenarios],
            "fingerprint": scenario_set_fingerprint(scenarios),
            "topology": topo.name,
            "nodes": topo.num_nodes,
            "algorithms": list(algorithms),
            "sizes": list(sizes),
            "engine": "lockstep-vec",
            "reference_engine": "seed",
            "fallbacks": fallbacks,
            "optimized": "one run_batch pass over all sizes",
            "reference": "seed loop per size, pre-lowered messages",
        },
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
    one vectorized batch over the size axis.  The *optimized* side is
    every run after it: load the sharded artifact (columns stay lazy —
    the benchmark asserts the dependency shard has not been materialized
    by the load itself) and run the same batch.  Both sides must agree
    exactly and run the vectorized engine with zero fallbacks — at this
    scale a silent scalar fallback is a multi-GiB, multi-minute
    regression, which is precisely what the gate is for.

    The size axis sits at the paper's Fig. 10 weak-scaling operating
    point (375 KiB x num_nodes, halving downward), large enough that the
    per-size wire math stays on the vectorized path.  ``meta`` records
    ``peak_rss_mib`` (``resource.getrusage`` high-water mark, i.e. the
    whole process including both pipelines) and the documented envelope
    it must stay under; CI enforces the quick-tier ceiling.
    """
    import resource

    from ..collectives.streaming import compile_multitree
    from ..network.lockstep_vec import run_batch

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
    root = store_dir or tempfile.mkdtemp(prefix="repro-bench-scaleout-xl-")
    store = ArtifactStore(root)

    def cold_pipeline():
        compiled = compile_multitree(topo)
        batch = run_batch(compiled, sizes, fc)
        return compiled, [p.time for p in batch.points], batch.fallbacks

    reference, (compiled, ref_times, ref_fallbacks) = _best_of_values(
        lambda: cold_pipeline(), repeat
    )
    store.put(compiled)
    num_ops = len(compiled)
    del compiled  # the warm side must not lean on the cold side's columns

    def warm_pipeline():
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
        batch = run_batch(warmed, sizes, fc)
        return [p.time for p in batch.points], batch.fallbacks

    optimized, (fast_times, fast_fallbacks) = _best_of_values(
        warm_pipeline, repeat
    )
    if ref_fallbacks or fast_fallbacks:
        raise RuntimeError(
            "scaleout_xl must stay on the vectorized path (fallbacks: "
            "cold=%d warm=%d)" % (ref_fallbacks, fast_fallbacks)
        )
    if fast_times != ref_times:
        raise RuntimeError(
            "artifact-warm rerun diverged from the streaming-compile run"
        )
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return BenchResult(
        name="scaleout_xl",
        optimized_s=optimized,
        reference_s=reference,
        meta={
            "scenarios": [str(s) for s in scenarios],
            "fingerprint": scenario_set_fingerprint(scenarios),
            "topology": topo.name,
            "nodes": topo.num_nodes,
            "ops": num_ops,
            "sizes": list(sizes),
            "engine": "lockstep-vec",
            "peak_rss_mib": peak_rss_mib,
            "rss_envelope_mib": rss_envelope_mib,
            "optimized": "artifact-warm lazy shard load + one batch pass",
            "reference": "streaming CSR compile + one batch pass",
        },
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
    drift here is a correctness bug, not noise.  Timing then compares
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
        fast = compiled.simulate(data_bytes, fc, engine=engine).simulation
        if not _same_simulation(fast, ref):
            raise RuntimeError(
                "%s engine diverged from the seed loop on %s" % (engine, spec)
            )
    optimized = _best_of(
        lambda: compiled.simulate(data_bytes, fc, engine="lockstep-vec"),
        repeat,
    )
    reference = _best_of(lambda: reference_run(topo, fc, messages), repeat)
    return BenchResult(
        name="hetero",
        optimized_s=optimized,
        reference_s=reference,
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
    failures: List[str] = []
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
    for name, base_entry in baseline["results"].items():
        entry = report["results"].get(name)
        if entry is None:
            failures.append("benchmark %r missing from current report" % name)
            continue
        floor = base_entry["speedup"] * (1.0 - max_regression)
        if entry["speedup"] < floor:
            failures.append(
                "%s regressed: speedup %.2fx < floor %.2fx "
                "(baseline %.2fx, max regression %d%%)"
                % (
                    name,
                    entry["speedup"],
                    floor,
                    base_entry["speedup"],
                    round(max_regression * 100),
                )
            )
    return failures
