"""Vectorized lockstep engine: batched exactness, fallbacks, CLI wiring.

The exactness contract of :mod:`repro.network.lockstep_vec` — the scalar
lockstep engine is the oracle, and every number the vectorized engine
returns must be exactly ``==`` to the scalar engine's (including sizes
that fall back inside a batch).  Fallbacks must always be counted in
metrics, never silent.  The size-axis grammar guards
(:func:`repro.scenario.parse_sizes`) are exercised through both CLI
entry points that share it (``repro sweep`` and ``repro plan``).
``lockstep-vec`` selects this engine only on dense schedules, so the
tests reach it through :func:`run_batch` directly; ``TestSelection`` pins
the choice.
"""

from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import sweep_bandwidth
from repro.bench.reference import reference_run, reference_simulate_allreduce
from repro.cli import main
from repro.collectives import (
    build_schedule,
    compile_algorithm,
    compile_schedule,
)
from repro.collectives.compiled import CompiledSchedule
from repro.metrics import collecting
from repro.network import PacketBased, lockstep_vec
from repro.network.lockstep_vec import run_batch
from repro.ni.injector import build_messages, simulate_allreduce
from repro.sweep import ArtifactStore, PredictionCache
from repro.sweep.runner import SweepJob, SweepStats, run_sweep
from repro.topology import FatTree, Mesh2D, Torus2D

KiB = 1024
MiB = 1 << 20

CONFIGS = [
    pytest.param(lambda: Torus2D(4, 4), "multitree", id="torus-multitree"),
    pytest.param(lambda: Torus2D(4, 4), "ring", id="torus-ring"),
    pytest.param(lambda: Torus2D(4, 4), "dbtree", id="torus-dbtree"),
    pytest.param(lambda: Mesh2D(4, 4), "multitree", id="mesh-multitree"),
    pytest.param(lambda: Mesh2D(4, 4), "ring", id="mesh-ring"),
    pytest.param(lambda: Mesh2D(4, 4), "dbtree", id="mesh-dbtree"),
    pytest.param(lambda: FatTree(4, 4), "multitree", id="fattree-multitree"),
    pytest.param(lambda: FatTree(4, 4), "ring", id="fattree-ring"),
    pytest.param(lambda: FatTree(4, 4), "dbtree", id="fattree-dbtree"),
]

# Both column storages of a compiled schedule: plain lists from the
# object compiler, and lazy numpy shards after an artifact round-trip.
STORAGE_CONFIGS = [
    pytest.param(*config.values, "object", id=config.id)
    for config in CONFIGS
] + [
    pytest.param(*config.values, "artifact", id=config.id + "-artifact")
    for config in CONFIGS
]

# One compiled schedule per configuration and storage for the whole
# battery: the compiled form memoizes its vectorization plan, so sharing
# it across hypothesis examples also exercises plan reuse at many sizes.
_COMPILED = {}


@pytest.fixture(scope="module")
def artifact_root(tmp_path_factory):
    return str(tmp_path_factory.mktemp("artifacts"))


def compiled_for(make_topo, algorithm, storage="object", artifact_root=None):
    key = (make_topo, algorithm, storage)
    if key not in _COMPILED:
        if storage == "object":
            topo = make_topo()
            _COMPILED[key] = compile_schedule(build_schedule(algorithm, topo))
        else:
            compiled = compiled_for(make_topo, algorithm)
            ArtifactStore(artifact_root).put(compiled)
            loaded = ArtifactStore(artifact_root).get(
                compiled.topology, algorithm
            )
            assert loaded is not None and not isinstance(loaded.steps, list)
            _COMPILED[key] = loaded
    return _COMPILED[key]


def point_row(point):
    return (point.data_bytes, point.time, point.bandwidth,
            point.max_queue_delay, point.reason)


def out_of_step_order(compiled):
    """The same ops stored in reverse order, dependency ids remapped."""
    n = len(compiled)
    off = compiled.route_off
    routes = [compiled.route_val[off[i]:off[i + 1]] for i in range(n)][::-1]
    deps = [[n - 1 - dep for dep in row] for row in compiled.deps][::-1]
    return CompiledSchedule(
        topology=compiled.topology,
        algorithm=compiled.algorithm,
        num_steps=compiled.num_steps,
        srcs=compiled.srcs[::-1],
        dsts=compiled.dsts[::-1],
        steps=compiled.steps[::-1],
        frac_num=compiled.frac_num[::-1],
        frac_den=compiled.frac_den[::-1],
        links=compiled.links,
        route_off=[0, *accumulate(map(len, routes))],
        route_val=[link for route in routes for link in route],
        dep_off=[0, *accumulate(map(len, deps))],
        dep_val=[dep for row in deps for dep in row],
        ser_profile=compiled.ser_profile,
    )


def assert_identical(a, b):
    """Full bitwise equality between two SimulationResults."""
    assert a.finish_time == b.finish_time
    assert a.timings == b.timings
    assert a.link_busy == b.link_busy
    assert a.total_wire_bytes == b.total_wire_bytes


class TestBatchedExactness:
    """run_batch(sizes) == N independent scalar lockstep runs, exactly,
    whichever storage backs the compiled columns."""

    @pytest.mark.parametrize("make_topo,algorithm,storage", STORAGE_CONFIGS)
    @settings(max_examples=6, deadline=None)
    @given(base=st.integers(4 * KiB, 4 * MiB), ladder=st.integers(2, 4))
    def test_run_batch_equals_scalar_runs(
        self, make_topo, algorithm, storage, artifact_root, base, ladder
    ):
        compiled = compiled_for(make_topo, algorithm, storage, artifact_root)
        fc = PacketBased()
        sizes = [base << step for step in range(ladder)]
        batch = run_batch(compiled, sizes, fc, keep_timings=True)
        if storage != "object":
            twin = run_batch(compiled_for(make_topo, algorithm), sizes, fc)
            assert batch.fallbacks == twin.fallbacks
            assert list(map(point_row, batch.points)) == list(
                map(point_row, twin.points)
            )
        assert batch.sizes == tuple(sizes)
        assert len(batch.points) == len(sizes)
        assert batch.fallbacks == sum(
            1 for point in batch.points if point.reason is not None
        )
        for size, point, outcome in zip(sizes, batch.points, batch.results):
            scalar = compiled.simulate(size, fc, engine="lockstep")
            assert point.data_bytes == size
            assert point.time == scalar.time
            assert point.bandwidth == scalar.bandwidth
            assert point.max_queue_delay == scalar.max_queue_delay()
            assert_identical(outcome.simulation, scalar.simulation)

    @pytest.mark.parametrize("make_topo,algorithm,storage", STORAGE_CONFIGS)
    def test_single_size_batch_matches_simulate(
        self, make_topo, algorithm, storage, artifact_root
    ):
        """A one-column batch equals the scalar engine exactly."""
        compiled = compiled_for(make_topo, algorithm, storage, artifact_root)
        fc = PacketBased()
        for size in (32 * KiB, 2 * MiB):
            vec = run_batch(
                compiled, (size,), fc, keep_timings=True
            ).results[0]
            scalar = compiled.simulate(size, fc, engine="lockstep")
            assert vec.time == scalar.time
            assert_identical(vec.simulation, scalar.simulation)

    def test_dependency_wake_reads_every_edge(self):
        """Some steps of the streaming-compiled mesh-8x8 MultiTree end in
        rows without dependencies after a row with two.  The pull-model
        wake-up must still take the max over both edges of that row, so
        every per-message timing equals the scalar engine's."""
        compiled = compile_algorithm("multitree", Mesh2D(8, 8))
        fc = PacketBased()
        sizes = (8 * MiB, 32 * MiB)
        batch = run_batch(compiled, sizes, fc, keep_timings=True)
        assert batch.fallbacks == 0
        for size, outcome in zip(sizes, batch.results):
            scalar = compiled.simulate(size, fc, engine="lockstep")
            assert_identical(outcome.simulation, scalar.simulation)

    def test_raw_message_engine_equals_event(self):
        """simulate_allreduce(engine="lockstep-vec") on a schedule below
        ``MIN_OPS_PER_STEP`` runs the kernel on the compiled arrays (counted as
        ``event``), bit-identical to the frozen seed loop on the raw
        messages."""
        topo = Torus2D(4, 4)
        fc = PacketBased()
        schedule = build_schedule("ring", topo)
        with collecting() as registry:
            vec = simulate_allreduce(
                schedule, 10 * MiB, fc, engine="lockstep-vec"
            )
        assert registry.counter_value(
            "sim.engine_runs", engine="event", topology=topo.name
        ) == 1
        messages = build_messages(schedule, 10 * MiB, fc)
        assert_identical(vec.simulation, reference_run(topo, fc, messages))

    def test_batch_rejects_bad_sizes(self):
        compiled = compiled_for(*CONFIGS[1].values)  # torus-4x4 / ring
        with pytest.raises(ValueError):
            run_batch(compiled, [])
        with pytest.raises(ValueError):
            run_batch(compiled, [32 * KiB, 0])

    def test_ops_out_of_step_order_are_rejected(self):
        """Every lockstep engine reads a step as a contiguous row range,
        so a schedule whose ops are not sorted by step must raise rather
        than run."""
        compiled = compiled_for(*CONFIGS[1].values)  # torus-4x4 / ring
        shuffled = out_of_step_order(compiled)
        fc = PacketBased()
        with pytest.raises(ValueError, match="step order"):
            shuffled.simulate(1 * MiB, fc, engine="lockstep")
        with pytest.raises(ValueError, match="step order"):
            shuffled.simulate_batch((32 * KiB, 1 * MiB), fc)
        relaid = out_of_step_order(shuffled)
        assert relaid.simulate(1 * MiB, fc, engine="lockstep").time == (
            compiled.simulate(1 * MiB, fc, engine="lockstep").time
        )
        relaid = out_of_step_order(shuffled)
        relaid.num_steps -= 1  # the last step now lies outside the range
        with pytest.raises(ValueError, match="step order"):
            relaid.simulate_batch((32 * KiB,), fc)


class TestFallbackCounting:
    def test_batch_fallbacks_counted_and_exact(self):
        """A declined plan sends the whole batch to the scalar engine, per
        size, counted under its reason — and still exact."""
        fc = PacketBased()
        sizes = (32 * KiB, 256 * KiB, 2 * MiB)
        for make_topo, algorithm, reason in (
            # Single-hop, but each step puts two messages on every link.
            (lambda: Torus2D(2, 2), "2d-ring", "link-disjointness"),
            # Switched fabric: every route crosses a switch.
            (lambda: FatTree(4, 4), "multitree", "multi-hop"),
        ):
            compiled = compiled_for(make_topo, algorithm)
            with collecting() as registry:
                batch = run_batch(compiled, sizes, fc)
            assert batch.fallbacks == len(sizes)
            assert all(point.reason == reason for point in batch.points)
            assert registry.counter_value(
                "sim.fallbacks", engine="lockstep-vec",
                reason=reason, topology=compiled.topology.name,
            ) == len(sizes)
            for size, point in zip(sizes, batch.points):
                scalar = compiled.simulate(size, fc, engine="lockstep")
                assert point.time == scalar.time
                assert point.bandwidth == scalar.bandwidth
                assert point.max_queue_delay == scalar.max_queue_delay()

    def test_non_lockstep_gated_falls_down_ladder(self):
        """An ungated batch declines the vectorized engine, counted with
        its reason, and every size lands on the event engine, ``==`` the
        frozen seed."""
        topo = Torus2D(4, 4)
        fc = PacketBased()
        schedule = build_schedule("multitree", topo)
        compiled = compile_schedule(schedule)
        with collecting() as registry:
            batch = run_batch(
                compiled, (1 * MiB,), fc, lockstep=False, keep_timings=True
            )
        assert registry.counter_value(
            "sim.fallbacks", engine="lockstep-vec",
            reason="not-lockstep-gated", topology=topo.name,
        ) == 1
        assert registry.counter_value(
            "sim.engine_runs", engine="event", topology=topo.name
        ) == 1
        seed = reference_simulate_allreduce(
            schedule, 1 * MiB, fc, lockstep=False
        )
        assert_identical(batch.results[0].simulation, seed)

    def test_accepted_run_counted_as_vec(self):
        topo = Torus2D(4, 4)
        fc = PacketBased()
        compiled = compile_schedule(build_schedule("ring", topo))
        with collecting() as registry:
            run_batch(compiled, (10 * MiB,), fc, keep_timings=True)
        assert registry.counter_value(
            "sim.engine_runs", engine="lockstep-vec", topology=topo.name
        ) == 1
        assert registry.counter_value(
            "sim.fallbacks", engine="lockstep-vec", reason="gate-boundary",
            topology=topo.name,
        ) == 0

    def test_recorder_declines_vectorization(self):
        """Trace recording is per-message, so a recorded run is the object
        heap: no vectorized run and no decline is counted (recorder
        parity is pinned in test_lockstep_engine.py)."""
        from repro.trace import Trace

        topo = Torus2D(4, 4)
        fc = PacketBased()
        compiled = compile_schedule(build_schedule("ring", topo))
        with collecting() as registry:
            compiled.simulate(
                10 * MiB, fc, recorder=Trace(), engine="lockstep-vec"
            )
        assert registry.counter_value(
            "sim.engine_runs", engine="event", topology=topo.name
        ) == 1
        snapshot = registry.snapshot()["counters"]
        assert not [key for key in snapshot
                    if key.startswith(("sim.fallbacks|", "sim.engine_runs|"
                                       "engine=lockstep"))]


class TestSelection:
    """``lockstep-vec`` runs the numpy engine only on schedules with at
    least ``MIN_OPS_PER_STEP`` ops per step; sparser ones run the kernel
    ladder."""

    SIZES = (32 * KiB, 1 * MiB, 8 * MiB)

    def _fresh(self):
        return compile_schedule(build_schedule("multitree", Torus2D(4, 4)))

    def test_small_series_runs_the_ladder(self):
        compiled = self._fresh()
        fc = PacketBased()
        with collecting() as registry:
            sweep = sweep_bandwidth(compiled, self.SIZES, fc,
                                    engine="lockstep-vec")
            batch = compiled.simulate_batch(self.SIZES, fc,
                                            engine="lockstep-vec")
        assert compiled._vec_plan is None
        assert batch.fallbacks == 0
        assert [point.reason for point in batch.points] == [None] * 3
        assert registry.counter_value(
            "sim.engine_runs", engine="event", topology="torus-4x4"
        ) == 2 * len(self.SIZES)
        assert not [key for key in registry.snapshot()["counters"]
                    if "lockstep-vec" in key]
        assert [p.time for p in sweep.points] == [
            compiled.simulate(size, fc).time for size in self.SIZES
        ]

    def test_patched_constant_sends_the_series_to_run_batch(
        self, monkeypatch
    ):
        monkeypatch.setattr(lockstep_vec, "MIN_OPS_PER_STEP", 0)
        compiled = self._fresh()
        fc = PacketBased()
        with collecting() as registry:
            batch = compiled.simulate_batch(self.SIZES, fc,
                                            engine="lockstep-vec")
        assert compiled._vec_plan is not None
        # 32 KiB declines the numpy engine's gate-boundary check.
        assert batch.points[0].reason == "gate-boundary"
        assert registry.counter_value(
            "sim.engine_runs", engine="lockstep-vec", topology="torus-4x4"
        ) == len(self.SIZES) - 1
        scalar = compiled.simulate_batch(self.SIZES, fc)
        assert list(map(point_row, batch.points))[1:] == list(
            map(point_row, scalar.points)
        )[1:]

    def test_threshold_is_ops_per_step(self, monkeypatch):
        compiled = self._fresh()
        density = len(compiled) // compiled.num_steps
        monkeypatch.setattr(lockstep_vec, "MIN_OPS_PER_STEP", density)
        assert compiled._runs_vec("lockstep-vec")
        assert not compiled._runs_vec("lockstep")
        monkeypatch.setattr(lockstep_vec, "MIN_OPS_PER_STEP", density + 1)
        assert not compiled._runs_vec("lockstep-vec")
        compiled.simulate(1 * MiB, PacketBased(), engine="lockstep-vec")
        assert compiled._vec_plan is None


class TestSweepBatching:
    def test_batched_sweep_fills_cache_in_one_simulation(self, tmp_path):
        """A lockstep-vec sweep series below ``MIN_OPS_PER_STEP`` runs all its
        cold sizes on the kernel ladder (counted as ``event``, with no
        fallback) and fills the prediction cache; the repeat run is fully
        warm."""
        cache_path = str(tmp_path / "cache.json")
        sizes = (32 * KiB, 64 * KiB, 128 * KiB, 256 * KiB)
        job = SweepJob(
            topology="torus-4x4", algorithm="ring", sizes=sizes,
            engine="lockstep-vec",
        )
        with collecting() as registry:
            stats = SweepStats()
            sweeps = run_sweep([job], cache_path=cache_path, stats=stats)
        assert stats.cache_misses == len(sizes)
        assert registry.counter_value(
            "sim.engine_runs", engine="event", topology="torus-4x4"
        ) == len(sizes)
        assert not [key for key in registry.snapshot()["counters"]
                    if key.startswith("sim.fallbacks|")]
        # Warm rerun: served entirely from the cache, nothing simulated.
        with collecting() as registry:
            stats2 = SweepStats()
            warm = run_sweep([job], cache_path=cache_path, stats=stats2)
        assert stats2.cache_hits == len(sizes)
        assert registry.counter_value(
            "sim.engine_runs", engine="event", topology="torus-4x4"
        ) == 0
        assert [p.bandwidth for p in warm[0].points] == [
            p.bandwidth for p in sweeps[0].points
        ]

    def test_batched_sweep_matches_scalar_engine_sweep(self, tmp_path):
        """The cached numbers from the batched path equal a scalar
        lockstep sweep of the same series exactly."""
        sizes = (32 * KiB, 128 * KiB, 512 * KiB)
        vec_job = SweepJob(
            topology="mesh-4x4", algorithm="ring", sizes=sizes,
            engine="lockstep-vec",
        )
        scalar_job = SweepJob(
            topology="mesh-4x4", algorithm="ring", sizes=sizes,
            engine="lockstep",
        )
        (vec,) = run_sweep([vec_job])
        (scalar,) = run_sweep([scalar_job])
        assert [(p.time, p.bandwidth) for p in vec.points] == [
            (p.time, p.bandwidth) for p in scalar.points
        ]

    def test_engines_share_one_cache_entry(self, tmp_path):
        """The engine is not part of a point's identity: a vectorized
        sweep is served the scalar engine's cached entries."""
        from repro.sweep import SweepStats

        cache_path = str(tmp_path / "cache.json")
        sizes = (32 * KiB,)
        stats = {}
        for engine in ("lockstep", "lockstep-vec"):
            job = SweepJob(
                topology="torus-4x4", algorithm="ring", sizes=sizes,
                engine=engine,
            )
            stats[engine] = SweepStats()
            run_sweep([job], cache_path=cache_path, stats=stats[engine])
        assert stats["lockstep-vec"].cache_hits == len(sizes)
        assert stats["lockstep-vec"].cache_misses == 0
        assert len(PredictionCache(cache_path)) == len(sizes)


class TestSizeAxisGuards:
    """parse_sizes rejections through both CLI paths sharing the grammar."""

    def test_sweep_rejects_descending_range(self, capsys):
        with pytest.raises(SystemExit, match="bad size range"):
            main([
                "sweep", "--topology", "torus", "--dims", "2x2",
                "--algorithms", "ring", "--sizes", "1M..32K",
            ])

    def test_sweep_rejects_zero_size(self, capsys):
        with pytest.raises(SystemExit, match="must be positive"):
            main([
                "sweep", "--topology", "torus", "--dims", "2x2",
                "--algorithms", "ring", "--sizes", "32K,0",
            ])

    def test_plan_rejects_descending_range(self, tmp_path, capsys):
        with pytest.raises(SystemExit, match="bad size range"):
            main([
                "plan", "--topology", "torus", "--dims", "2x2",
                "--algorithms", "ring", "--sizes", "64M..1M",
                "--state-dir", str(tmp_path),
            ])

    def test_plan_rejects_zero_size(self, tmp_path, capsys):
        with pytest.raises(SystemExit, match="must be positive"):
            main([
                "plan", "--topology", "torus", "--dims", "2x2",
                "--algorithms", "ring", "--sizes", "0",
                "--state-dir", str(tmp_path),
            ])
