"""repro.sweep: prediction cache keying/persistence and the sweep runner."""

import json
import os
import warnings

import pytest

from repro.analysis import sweep_bandwidth
from repro.collectives import build_schedule, compile_schedule
from repro.network import MessageBased, PacketBased
from repro.scenario import ENGINES, Scenario, point_key
from repro.sweep import PredictionCache, SweepJob, SweepStats, run_job, run_sweep
from repro.topology import Ring1D, Torus2D
from repro.topology.base import topology_fingerprint

KiB = 1024
SIZES = (32 * KiB, 256 * KiB)


class TestPredictionKey:
    def test_key_varies_with_every_axis(self):
        torus = Torus2D(4, 4)
        base = point_key(torus, "multitree", PacketBased(), 32 * KiB, True)
        assert base != point_key(torus, "ring", PacketBased(), 32 * KiB, True)
        assert base != point_key(torus, "multitree", MessageBased(), 32 * KiB, True)
        assert base != point_key(torus, "multitree", PacketBased(), 64 * KiB, True)
        assert base != point_key(torus, "multitree", PacketBased(), 32 * KiB, False)
        assert base != point_key(
            Torus2D(4, 8), "multitree", PacketBased(), 32 * KiB, True
        )

    def test_fingerprint_sees_link_parameters(self):
        # Same shape, different link bandwidth -> different fingerprint.
        a = Ring1D(8)
        b = Ring1D(8, bandwidth=1e9)
        assert topology_fingerprint(a) != topology_fingerprint(b)
        assert topology_fingerprint(a) == topology_fingerprint(Ring1D(8))

    def test_flow_control_parameters_in_key(self):
        torus = Torus2D(4, 4)
        k256 = point_key(torus, "ring", PacketBased(), 32 * KiB, True)
        k64 = point_key(
            torus, "ring", PacketBased(payload_bytes=64), 32 * KiB, True
        )
        assert k256 != k64


class TestPredictionCache:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = PredictionCache(path)
        cache.put("k1", time=1.5e-5, bandwidth=2e9, max_queue_delay=0.0)
        cache.save()
        reloaded = PredictionCache(path)
        assert len(reloaded) == 1
        assert reloaded.get("k1")["time"] == 1.5e-5
        assert reloaded.hits == 1

    def test_corrupt_file_treated_as_empty(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{not json")
        cache = PredictionCache(str(path))
        assert len(cache) == 0

    def test_corrupt_file_warns(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{not json")
        with pytest.warns(RuntimeWarning, match="corrupt or truncated"):
            PredictionCache(str(path))
        # A missing file is a normal cold start: no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            PredictionCache(str(tmp_path / "absent.json"))

    def test_save_merges_with_disk(self, tmp_path):
        path = str(tmp_path / "cache.json")
        a = PredictionCache(path)
        b = PredictionCache(path)
        a.put("ka", time=1.0, bandwidth=1.0, max_queue_delay=0.0)
        a.save()
        b.put("kb", time=2.0, bandwidth=2.0, max_queue_delay=0.0)
        b.save()  # must not clobber a's entry
        merged = PredictionCache(path)
        assert "ka" in merged and "kb" in merged

    def test_unwritten_save_is_noop(self, tmp_path):
        path = str(tmp_path / "never.json")
        PredictionCache(path).save()
        assert not (tmp_path / "never.json").exists()


def _append_keys(path, prefix, rounds, barrier):
    """Worker process for the concurrent-journal test."""
    cache = PredictionCache(path)
    barrier.wait()
    for round_ in range(rounds):
        for i in range(4):
            cache.put("%s-%d-%d" % (prefix, round_, i), time=float(round_),
                      bandwidth=float(i), max_queue_delay=0.0)
        cache.save()


class TestJournal:
    """The cache file is an append-only JSONL journal."""

    @staticmethod
    def put_many(cache, count, prefix="k"):
        for i in range(count):
            cache.put("%s%d" % (prefix, i), time=float(i), bandwidth=1.0,
                      max_queue_delay=0.0)

    def test_save_appends_one_line_per_put(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = PredictionCache(str(path))
        self.put_many(cache, 5)
        cache.save()
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        assert json.loads(lines[3]) == {
            "key": "k3", "time": 3.0, "bandwidth": 1.0,
            "max_queue_delay": 0.0,
        }
        # A save with nothing new writes no bytes.
        before = path.read_bytes()
        cache.save()
        PredictionCache(str(path)).save()
        assert path.read_bytes() == before
        self.put_many(cache, 2, prefix="new")
        cache.save()
        assert len(path.read_text().splitlines()) == 7
        assert len(PredictionCache(str(path))) == 7

    def test_floats_reload_exactly(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cache = PredictionCache(path)
        values = (0.1 + 0.2, 7763779061.158001, 1e-300)
        cache.put("k", *values)
        cache.save()
        entry = PredictionCache(path).get("k")
        assert (entry["time"], entry["bandwidth"],
                entry["max_queue_delay"]) == values

    def test_torn_tail_loads_the_rest_and_next_save_starts_a_line(
            self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = PredictionCache(str(path))
        self.put_many(cache, 3)
        cache.save()
        with open(path, "a") as fh:
            fh.write('{"key": "torn", "time": 1.')
        with pytest.warns(RuntimeWarning, match="corrupt or truncated") as seen:
            reopened = PredictionCache(str(path))
        assert len(seen) == 1
        assert sorted(reopened.entries) == ["k0", "k1", "k2"]
        reopened.put("after", time=2.0, bandwidth=2.0, max_queue_delay=0.0)
        reopened.save()
        assert path.read_text().splitlines()[-1].startswith('{"key": "after"')
        with pytest.warns(RuntimeWarning, match="corrupt or truncated"):
            final = PredictionCache(str(path))
        assert sorted(final.entries) == ["after", "k0", "k1", "k2"]

    def test_lines_without_the_three_numbers_are_skipped(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        good = {"key": "good", "time": 1.0, "bandwidth": 2.0,
                "max_queue_delay": 0.0}
        bad = [
            {"key": "no-delay", "time": 1.0, "bandwidth": 2.0},
            {"key": "text", "time": "1.0", "bandwidth": 2.0,
             "max_queue_delay": 0.0},
            {"key": "flag", "time": True, "bandwidth": 2.0,
             "max_queue_delay": 0.0},
            {"time": 1.0, "bandwidth": 2.0, "max_queue_delay": 0.0},
            [1, 2, 3],
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in [good] + bad))
        with pytest.warns(RuntimeWarning, match="5 corrupt or truncated"):
            cache = PredictionCache(str(path))
        assert cache.entries == {"good": {"time": 1.0, "bandwidth": 2.0,
                                          "max_queue_delay": 0.0}}

    def test_threads_sharing_a_cache_lose_nothing(self, tmp_path):
        import sys
        import threading

        path = str(tmp_path / "cache.jsonl")
        cache = PredictionCache(path)

        def writer(prefix):
            for i in range(50):
                cache.put("%s%d" % (prefix, i), time=1.0, bandwidth=1.0,
                          max_queue_delay=0.0)
                cache.save()

        threads = [threading.Thread(target=writer, args=(p,)) for p in "abcd"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(PredictionCache(path)) == 200
        with open(path) as fh:
            assert len(fh.read().splitlines()) == 200

    def test_concurrent_processes_append_disjoint_keys(self, tmp_path):
        import multiprocessing

        context = multiprocessing.get_context("spawn")
        path = str(tmp_path / "cache.jsonl")
        prefixes, rounds = ("a", "b", "c"), 60
        barrier = context.Barrier(len(prefixes))
        workers = [
            context.Process(
                target=_append_keys, args=(path, prefix, rounds, barrier)
            )
            for prefix in prefixes
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reloaded = PredictionCache(path)
        assert len(reloaded) == len(prefixes) * rounds * 4
        assert reloaded.get("c-%d-3" % (rounds - 1)) == {
            "time": float(rounds - 1), "bandwidth": 3.0,
            "max_queue_delay": 0.0,
        }


class TestCachedSweep:
    def test_matches_uncached_sweep_exactly(self, tmp_path):
        topo = Torus2D(4, 4)
        schedule = build_schedule("multitree", topo)
        cache = PredictionCache(str(tmp_path / "c.json"))
        cached = sweep_bandwidth(schedule, SIZES, PacketBased(), cache=cache)
        plain = sweep_bandwidth(schedule, SIZES, PacketBased())
        for c, p in zip(cached.points, plain.points):
            assert c.time == p.time
            assert c.bandwidth == p.bandwidth
            assert c.max_queue_delay == p.max_queue_delay

    def test_second_pass_is_all_hits(self, tmp_path):
        topo = Torus2D(4, 4)
        schedule = build_schedule("multitree", topo)
        cache = PredictionCache(str(tmp_path / "c.json"))
        first = sweep_bandwidth(schedule, SIZES, PacketBased(), cache=cache)
        assert cache.misses == len(SIZES)
        warm = sweep_bandwidth(schedule, SIZES, PacketBased(), cache=cache)
        assert cache.hits == len(SIZES)
        assert [p.time for p in warm.points] == [p.time for p in first.points]


class TestOneEvaluator:
    """``sweep_bandwidth`` lowers a Schedule once per series, and only
    when some size misses the cache."""

    @pytest.fixture
    def lowerings(self, monkeypatch):
        from repro.collectives.compiled import CompiledSchedule

        built = []
        init = CompiledSchedule.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(CompiledSchedule, "__init__", counting)
        return built

    @pytest.mark.parametrize("engine", ENGINES)
    def test_schedule_lowers_once_per_series(self, lowerings, engine):
        schedule = build_schedule("ring", Torus2D(4, 4))
        sizes = SIZES + (1024 * KiB,)
        hint = {} if engine == "event" else {"engine": engine}
        sweep = sweep_bandwidth(schedule, sizes, PacketBased(), **hint)
        assert len(lowerings) == 1
        assert [p.data_bytes for p in sweep.points] == list(sizes)

    def test_warm_series_never_lowers(self, lowerings, tmp_path):
        schedule = build_schedule("ring", Torus2D(4, 4))
        cache = PredictionCache(str(tmp_path / "c.json"))
        cold = sweep_bandwidth(schedule, SIZES, PacketBased(), cache=cache)
        del lowerings[:]
        warm = sweep_bandwidth(schedule, SIZES, PacketBased(), cache=cache)
        assert lowerings == []
        assert warm.points == cold.points


class TestRunner:
    def test_multitree_msg_shorthand(self):
        sweep = run_job(SweepJob("torus-4x4", "multitree-msg", SIZES))
        assert sweep.algorithm == "multitree-msg"
        assert len(sweep.points) == len(SIZES)

    def test_unknown_flow_control_rejected(self):
        with pytest.raises(ValueError):
            SweepJob("torus-4x4", "ring", SIZES, flow_control="wormhole").resolve()

    def test_serial_and_parallel_agree(self, tmp_path):
        jobs = [
            SweepJob("torus-4x4", "ring", SIZES),
            SweepJob("torus-4x4", "multitree", SIZES),
        ]
        serial = run_sweep(jobs)
        stats = SweepStats()
        parallel = run_sweep(jobs, processes=2,
                             cache_path=str(tmp_path / "c.jsonl"),
                             stats=stats)
        for s, p in zip(serial, parallel):
            assert s.algorithm == p.algorithm
            assert [pt.time for pt in s.points] == [pt.time for pt in p.points]
        # Each worker appended its own points, one line per point.
        lines = (tmp_path / "c.jsonl").read_text().splitlines()
        assert len(lines) == len(jobs) * len(SIZES)
        assert stats.cache_entries == len(lines)

    def test_warm_cache_skips_construction(self, tmp_path):
        cache_path = str(tmp_path / "c.json")
        job = SweepJob("torus-4x4", "multitree", SIZES)
        cold = run_sweep([job], cache_path=cache_path)[0]
        cache = PredictionCache(cache_path)
        warm = run_job(job, cache)
        assert cache.hits == len(SIZES) and cache.misses == 0
        assert [p.bandwidth for p in warm.points] == [
            p.bandwidth for p in cold.points
        ]

    def test_empty_job_list(self):
        assert run_sweep([]) == []


class TestEngineKeying:
    """The engine is an execution hint: every engine returns == numbers,
    so a point cached by one engine is served to all of them."""

    def test_engine_not_in_key(self):
        keys = {
            Scenario("torus-4x4", "ring", 32 * KiB, engine=engine).cache_key()
            for engine in ENGINES
        }
        assert len(keys) == 1

    def test_event_entry_is_a_hit_for_every_engine(self, tmp_path):
        # Compiled, so lockstep-vec takes its batched path too.
        schedule = compile_schedule(build_schedule("ring", Torus2D(4, 4)))
        cache = PredictionCache(str(tmp_path / "c.json"))
        event = sweep_bandwidth(
            schedule, SIZES, PacketBased(), cache=cache, engine="event"
        )
        assert (cache.hits, cache.misses) == (0, len(SIZES))
        for engine in ("lockstep", "lockstep-vec"):
            hits = cache.hits
            warm = sweep_bandwidth(
                schedule, SIZES, PacketBased(), cache=cache, engine=engine
            )
            assert cache.hits - hits == len(SIZES), engine
            assert warm.points == event.points
        assert cache.misses == len(SIZES)

    def test_engines_agree_through_cache_layer(self):
        # No cache: every engine really simulates, so this checks
        # agreement rather than reading back one cached entry.
        schedule = compile_schedule(build_schedule("ring", Torus2D(4, 4)))
        sweeps = [
            sweep_bandwidth(
                schedule, SIZES, PacketBased(), cache=None, engine=engine
            )
            for engine in ENGINES
        ]
        for other in sweeps[1:]:
            for e, o in zip(sweeps[0].points, other.points):
                assert e.time == o.time
                assert e.bandwidth == o.bandwidth
                assert e.max_queue_delay == o.max_queue_delay


class TestArtifactSweep:
    def test_artifact_store_wired_through_run_sweep(self, tmp_path):
        from repro.sweep import ArtifactStore, SweepStats

        jobs = [
            SweepJob("torus-4x4", "ring", SIZES, engine="lockstep"),
            SweepJob("torus-4x4", "multitree", SIZES, engine="lockstep"),
        ]
        store_dir = str(tmp_path / "artifacts")
        stats = SweepStats()
        cold = run_sweep(jobs, artifacts_path=store_dir, stats=stats)
        assert stats.artifact_misses == len(jobs)
        assert stats.artifact_hits == 0

        warm_stats = SweepStats()
        warm = run_sweep(jobs, artifacts_path=store_dir, stats=warm_stats)
        assert warm_stats.artifact_hits == len(jobs)
        assert warm_stats.artifact_misses == 0
        for c, w in zip(cold, warm):
            assert [p.time for p in c.points] == [p.time for p in w.points]

    def test_artifact_sweep_matches_plain_sweep(self, tmp_path):
        job = SweepJob("torus-4x4", "ring", SIZES, engine="lockstep")
        plain = run_job(SweepJob("torus-4x4", "ring", SIZES))
        from repro.sweep import ArtifactStore

        store = ArtifactStore(str(tmp_path / "artifacts"))
        fast = run_job(job, artifacts=store)
        assert [p.time for p in fast.points] == [p.time for p in plain.points]
        assert [p.bandwidth for p in fast.points] == [
            p.bandwidth for p in plain.points
        ]

    def test_stats_line_reports_artifacts(self):
        from repro.sweep import SweepStats

        stats = SweepStats(
            jobs=2, points=4, wall_time_s=0.5, workers=1,
            artifact_hits=1, artifact_misses=1,
        )
        line = stats.format()
        assert "artifacts: 1 hits, 1 misses" in line
