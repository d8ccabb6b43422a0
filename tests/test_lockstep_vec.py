"""Vectorized lockstep engine: batched exactness, fallbacks, CLI wiring.

The exactness contract of :mod:`repro.network.lockstep_vec` — the scalar
lockstep engine is the oracle, and every number the vectorized engine
returns must be exactly ``==`` to the scalar engine's (including sizes
that fall back inside a batch).  Fallbacks must always be counted in
metrics, never silent.  The size-axis grammar guards
(:func:`repro.scenario.parse_sizes`) are exercised through both CLI
entry points that share it (``repro sweep`` and ``repro plan``).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.reference import reference_run, reference_simulate_allreduce
from repro.cli import main
from repro.collectives import build_schedule, compile_schedule
from repro.metrics import collecting
from repro.network import PacketBased
from repro.network.lockstep_vec import run_batch
from repro.ni.injector import build_messages, simulate_allreduce
from repro.sweep import PredictionCache
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

# One compiled schedule per configuration for the whole battery: the
# compiled form memoizes its vectorization plan, so sharing it across
# hypothesis examples also exercises plan reuse at many sizes.
_COMPILED = {}


def compiled_for(make_topo, algorithm):
    key = (make_topo, algorithm)
    if key not in _COMPILED:
        topo = make_topo()
        _COMPILED[key] = compile_schedule(build_schedule(algorithm, topo))
    return _COMPILED[key]


def assert_identical(a, b):
    """Full bitwise equality between two SimulationResults."""
    assert a.finish_time == b.finish_time
    assert a.timings == b.timings
    assert a.link_busy == b.link_busy
    assert a.total_wire_bytes == b.total_wire_bytes


class TestBatchedExactness:
    """run_batch(sizes) == N independent scalar lockstep runs, exactly."""

    @pytest.mark.parametrize("make_topo,algorithm", CONFIGS)
    @settings(max_examples=6, deadline=None)
    @given(base=st.integers(4 * KiB, 4 * MiB), ladder=st.integers(2, 4))
    def test_run_batch_equals_scalar_runs(
        self, make_topo, algorithm, base, ladder
    ):
        compiled = compiled_for(make_topo, algorithm)
        fc = PacketBased()
        sizes = [base << step for step in range(ladder)]
        batch = compiled.simulate_batch(sizes, fc, keep_timings=True)
        assert batch.sizes == tuple(sizes)
        assert len(batch.points) == len(sizes)
        assert batch.fallbacks == sum(
            1 for point in batch.points if point.engine != "lockstep-vec"
        )
        for size, point, outcome in zip(sizes, batch.points, batch.results):
            scalar = compiled.simulate(size, fc, engine="lockstep")
            assert point.data_bytes == size
            assert point.time == scalar.time
            assert point.bandwidth == scalar.bandwidth
            assert point.max_queue_delay == scalar.max_queue_delay()
            assert_identical(outcome.simulation, scalar.simulation)

    @pytest.mark.parametrize("make_topo,algorithm", CONFIGS)
    def test_single_size_batch_matches_simulate(self, make_topo, algorithm):
        """engine="lockstep-vec" through CompiledSchedule.simulate is the
        one-column batch and equals the scalar engine exactly."""
        compiled = compiled_for(make_topo, algorithm)
        fc = PacketBased()
        for size in (32 * KiB, 2 * MiB):
            vec = compiled.simulate(size, fc, engine="lockstep-vec")
            scalar = compiled.simulate(size, fc, engine="lockstep")
            assert vec.time == scalar.time
            assert_identical(vec.simulation, scalar.simulation)

    def test_raw_message_engine_equals_event(self):
        """simulate_allreduce(engine="lockstep-vec") runs the vectorized
        engine on the compiled arrays (not a fallback), bit-identical to
        the frozen seed loop on the raw messages."""
        topo = Torus2D(4, 4)
        fc = PacketBased()
        schedule = build_schedule("ring", topo)
        with collecting() as registry:
            vec = simulate_allreduce(
                schedule, 10 * MiB, fc, engine="lockstep-vec"
            )
        assert registry.counter_value(
            "sim.engine_runs", engine="lockstep-vec", topology=topo.name
        ) == 1
        messages = build_messages(schedule, 10 * MiB, fc)
        assert_identical(vec.simulation, reference_run(topo, fc, messages))

    def test_batch_rejects_bad_sizes(self):
        compiled = compiled_for(*CONFIGS[1].values)  # torus-4x4 / ring
        with pytest.raises(ValueError):
            run_batch(compiled, [])
        with pytest.raises(ValueError):
            run_batch(compiled, [32 * KiB, 0])


class TestFallbackCounting:
    def test_batch_fallbacks_counted_and_exact(self):
        """dbtree steps are not link-disjoint: the whole batch falls back
        to the scalar engine, per size, counted — and still exact."""
        compiled = compiled_for(*CONFIGS[2].values)  # torus-4x4 / dbtree
        fc = PacketBased()
        sizes = (32 * KiB, 256 * KiB, 2 * MiB)
        with collecting() as registry:
            batch = compiled.simulate_batch(sizes, fc)
        assert batch.fallbacks == len(sizes)
        assert all(point.engine == "lockstep" for point in batch.points)
        assert registry.counter_value(
            "sim.fallbacks", engine="lockstep-vec",
            reason="link-disjointness", topology=compiled.topology.name,
        ) == len(sizes)
        for size, point in zip(sizes, batch.points):
            scalar = compiled.simulate(size, fc, engine="lockstep")
            assert point.time == scalar.time

    def test_non_lockstep_gated_falls_down_ladder(self):
        """An ungated batch declines the vectorized engine, counted with
        its reason, and every size lands on the event engine, ``==`` the
        frozen seed."""
        topo = Torus2D(4, 4)
        fc = PacketBased()
        schedule = build_schedule("multitree", topo)
        compiled = compile_schedule(schedule)
        with collecting() as registry:
            batch = compiled.simulate_batch(
                (1 * MiB,), fc, lockstep=False, keep_timings=True
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
            compiled.simulate(10 * MiB, fc, engine="lockstep-vec")
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


class TestSweepBatching:
    def test_batched_sweep_fills_cache_in_one_simulation(self, tmp_path):
        """A lockstep-vec sweep series runs ONE batched simulation for all
        its cold sizes and fills the prediction cache; the repeat run is
        fully warm."""
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
            "sim.engine_runs", engine="lockstep-vec", topology="torus-4x4"
        ) == len(sizes)
        # Warm rerun: served entirely from the cache, nothing simulated.
        with collecting() as registry:
            stats2 = SweepStats()
            warm = run_sweep([job], cache_path=cache_path, stats=stats2)
        assert stats2.cache_hits == len(sizes)
        assert registry.counter_value(
            "sim.engine_runs", engine="lockstep-vec", topology="torus-4x4"
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
