"""repro.metrics: registry semantics, instrumentation, manifests, reports."""

import json
import time

import pytest

from repro import obs
from repro.cli import main
from repro.collectives import build_schedule
from repro.metrics import (
    MANIFEST_SCHEMA_VERSION,
    MetricsRegistry,
    append_manifest,
    build_manifest,
    collecting,
    config_fingerprint,
    metric_key,
    parse_key,
    repro_version,
    to_prometheus,
)
from repro.metrics.report import (
    bandwidth_series,
    build_report,
    classify_inputs,
    run_report,
)
from repro.network import PacketBased
from repro.network.simulator import Message, NetworkSimulator
from repro.obs import load_stream, observing
from repro.ni import simulate_allreduce
from repro.sweep import SweepJob, SweepStats, run_job, run_sweep
from repro.topology import Ring1D, Torus2D

KiB = 1024
SIZES = (32 * KiB, 256 * KiB)


class TestRegistry:
    def test_key_roundtrip(self):
        key = metric_key("sim.runs", {"topology": "torus-4x4", "flow": "packet"})
        assert key == "sim.runs|flow=packet,topology=torus-4x4"
        name, labels = parse_key(key)
        assert name == "sim.runs"
        assert labels == {"topology": "torus-4x4", "flow": "packet"}

    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("c", a="1").inc()
        reg.counter("c", a="1").inc(2.5)
        reg.counter("c", a="2").inc()
        assert reg.counter_value("c", a="1") == 3.5
        assert reg.counter_value("c", a="2") == 1.0
        assert reg.counter_value("c", a="missing") == 0.0
        reg.gauge("g").set(4.0)
        reg.gauge("g").set(2.0)  # gauges are last-observed
        assert reg.gauge_value("g") == 2.0
        hist = reg.histogram("h")
        for value in (0.5, 1.5, 3.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == 5.0
        assert hist.min == 0.5 and hist.max == 3.0
        assert hist.mean == pytest.approx(5.0 / 3)

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("c", k="v").inc()
        reg.histogram("h").observe(0.25)
        restored = json.loads(json.dumps(reg.snapshot()))
        assert restored == reg.snapshot()
        assert restored["counters"] == {"c|k=v": 1.0}

    def test_collecting_restores_previous(self):
        assert obs.get_obs() is None
        with collecting() as outer:
            recorder = obs.get_obs()
            assert recorder is not None and not recorder.traced
            with collecting() as inner:
                assert obs.get_obs() is recorder
                obs.event("engine.fallback", engine="e", reason="r")
            assert obs.get_obs() is recorder
            obs.event("engine.fallback", engine="e", reason="r")
        assert obs.get_obs() is None
        assert outer.counter_value("sim.fallbacks", engine="e", reason="r") == 2
        assert inner.counter_value("sim.fallbacks", engine="e", reason="r") == 1

    def test_untraced_collection_keeps_no_records(self):
        with collecting() as reg:
            recorder = obs.get_obs()
            with obs.span("sim.batch", topology="t", sizes=3) as sp:
                assert sp.trace_id is None and sp.span_id is None
                assert obs.current_carrier() is None
                sp.set("fallbacks", 1)
        assert recorder.records.maxlen == 0 and not recorder.records
        assert reg.counter_value(
            "sim.engine_runs", engine="lockstep-vec", topology="t"
        ) == 2

    def test_same_registry_folds_once(self):
        reg = MetricsRegistry()
        with collecting(reg), collecting(reg), observing():
            obs.event("engine.fallback", engine="e", reason="r")
        assert reg.counter_value("sim.fallbacks", engine="e", reason="r") == 1


class TestInstrumentation:
    def test_results_bit_identical_with_metrics_enabled(self):
        topo = Torus2D(4, 4)
        schedule = build_schedule("multitree", topo)
        plain = simulate_allreduce(schedule, 1 << 20, PacketBased())
        with collecting():
            sched2 = build_schedule("multitree", Torus2D(4, 4))
            metered = simulate_allreduce(sched2, 1 << 20, PacketBased())
        assert metered.time == plain.time
        assert metered.bandwidth == plain.bandwidth
        assert metered.simulation.link_busy == plain.simulation.link_busy
        assert [t.deliver for t in metered.simulation.timings] == [
            t.deliver for t in plain.simulation.timings
        ]

    def test_simulator_aggregates(self):
        topo = Torus2D(2, 2)
        schedule = build_schedule("multitree", topo)
        with collecting() as reg:
            result = simulate_allreduce(schedule, 1 << 16, PacketBased())
        labels = {"topology": "torus-2x2", "flow": "packet"}
        assert reg.counter_value("sim.runs", **labels) == 1
        assert reg.counter_value("sim.messages", **labels) == len(schedule.ops)
        assert reg.counter_value("sim.wire_bytes", **labels) == (
            result.simulation.total_wire_bytes
        )
        assert reg.counter_value("sim.link_busy_time", **labels) == (
            pytest.approx(sum(result.simulation.link_busy.values()))
        )
        assert reg.gauge_value("sim.finish_time", **labels) == result.time

    def test_head_flit_overhead_bytes(self):
        # One 256 B message over one hop under packet flow control: 16
        # payload flits + 1 head flit, so exactly one flit of overhead.
        topo = Ring1D(4)
        link = (0, 1)
        assert link in topo.links
        fc = PacketBased()
        msg = Message(src=link[0], dst=link[1], payload_bytes=256.0,
                      route=[link])
        with collecting() as reg:
            NetworkSimulator(topo, fc).run([msg])
        assert reg.counter_value(
            "fc.overhead_bytes", flow="packet", topology=topo.name
        ) == fc.flit_bytes

    def test_lockstep_nop_stalls(self):
        # dbtree leaves idle during deep-tree steps -> NOP entries.
        topo = Torus2D(2, 2)
        schedule = build_schedule("dbtree", topo)
        with collecting() as reg:
            simulate_allreduce(schedule, 1 << 16, PacketBased())
        labels = {"topology": "torus-2x2", "algorithm": "dbtree"}
        assert reg.counter_value("lockstep.steps", **labels) == schedule.num_steps
        assert reg.counter_value("lockstep.nop_stalls", **labels) > 0
        assert reg.counter_value("lockstep.nop_stall_time", **labels) > 0

    def test_schedule_and_tree_shape_metrics(self):
        with collecting() as reg:
            build_schedule("multitree", Torus2D(2, 2))
        labels = {"algorithm": "multitree", "topology": "torus-2x2"}
        assert reg.counter_value("schedule.builds", **labels) == 1
        assert reg.gauge_value("schedule.steps", **labels) == 4
        tree_labels = {"topology": "torus-2x2", "priority": "root-id"}
        assert reg.gauge_value("multitree.trees", **tree_labels) == 4
        depth = reg.histograms[metric_key("multitree.tree_depth", tree_labels)]
        assert depth.count == 4 and depth.min >= 1


class TestSweepRunnerMetrics:
    def test_parallel_merge_preserves_labels_and_sums(self, tmp_path):
        jobs = [
            SweepJob("torus-2x2", "ring", SIZES),
            SweepJob("torus-2x2", "multitree", SIZES),
        ]
        with collecting() as serial_reg:
            serial = run_sweep(jobs)
        with collecting() as par_reg:
            parallel = run_sweep(jobs, processes=2,
                                 cache_path=str(tmp_path / "c.json"))
        for s, p in zip(serial, parallel):
            assert [pt.time for pt in s.points] == [pt.time for pt in p.points]
        # Worker registries merged into the parent: per-label counters sum
        # to the same totals the serial run collected.
        for algorithm in ("ring", "multitree"):
            labels = {"topology": "torus-2x2", "algorithm": algorithm}
            assert par_reg.counter_value("sweep.jobs", **labels) == 1
            assert par_reg.counter_value(
                "sweep.points", **labels
            ) == serial_reg.counter_value("sweep.points", **labels) == len(SIZES)
        sim_labels = {"topology": "torus-2x2", "flow": "packet"}
        assert par_reg.counter_value(
            "sim.runs", **sim_labels
        ) == serial_reg.counter_value("sim.runs", **sim_labels)
        # Histograms merged bucket-wise across workers.
        hist_key = metric_key(
            "sweep.job_time", {"topology": "torus-2x2", "algorithm": "ring"}
        )
        assert par_reg.histograms[hist_key].count == 1
        # Bandwidth gauges preserved with full label sets.
        points = {
            (labels["algorithm"], int(labels["size"])): value
            for labels, value in par_reg.gauges_named("bandwidth")
        }
        for sweep in parallel:
            for point in sweep.points:
                assert points[(sweep.algorithm, point.data_bytes)] == (
                    point.bandwidth
                )

    def test_warm_cache_no_double_count(self, tmp_path):
        cache_path = str(tmp_path / "c.json")
        job = SweepJob("torus-2x2", "multitree", SIZES)
        with collecting() as cold_reg:
            cold_stats = SweepStats()
            run_sweep([job], cache_path=cache_path, stats=cold_stats)
        assert cold_stats.cache_misses == len(SIZES)
        assert cold_stats.cache_hits == 0
        assert cold_reg.counter_value("sweep.cache_misses") == len(SIZES)
        with collecting() as warm_reg:
            warm_stats = SweepStats()
            warm = run_sweep([job], cache_path=cache_path, stats=warm_stats)
        # Every point served from cache: counted once as a hit, zero
        # simulations run, nothing re-counted as a miss.
        assert warm_stats.cache_hits == len(SIZES)
        assert warm_stats.cache_misses == 0
        assert warm_reg.counter_value("sweep.cache_hits") == len(SIZES)
        assert warm_reg.counter_value("sweep.cache_misses") == 0
        assert warm_reg.counter_value(
            "sim.runs", topology="torus-2x2", flow="packet"
        ) == 0
        # ...and the bandwidth gauges are still published from cache.
        assert len(warm_reg.gauges_named("bandwidth")) == len(SIZES)
        assert len(warm[0].points) == len(SIZES)

    def test_stats_populated_without_metrics(self, tmp_path):
        stats = SweepStats()
        run_sweep(
            [SweepJob("torus-2x2", "ring", SIZES)],
            cache_path=str(tmp_path / "c.json"),
            stats=stats,
        )
        assert stats.jobs == 1 and stats.points == len(SIZES)
        assert stats.cache_misses == len(SIZES)
        assert stats.workers == 1
        assert "cache: 0 hits, 2 misses" in stats.format()


class TestFoldOrder:
    """Metrics are a fold over the record stream, in job order."""

    WALL_CLOCK = ("sweep.job_time", "schedule.build_time")

    def _comparable(self, registry):
        snap = registry.snapshot()
        gauges = {k: v for k, v in snap["gauges"].items()
                  if k != "sweep.workers"}
        histograms = {
            key: ({"count": payload["count"]}
                  if key.partition("|")[0] in self.WALL_CLOCK else payload)
            for key, payload in snap["histograms"].items()
        }
        return snap["counters"], gauges, histograms

    def test_parallel_sweep_equals_serial(self):
        sizes = tuple(32 * KiB << (2 * i) for i in range(4))
        jobs = [SweepJob("torus-4x4", algorithm, sizes)
                for algorithm in ("ring", "multitree", "dbtree", "2d-ring")]
        with collecting() as serial_reg:
            run_sweep(jobs)
        with collecting() as parallel_reg:
            run_sweep(jobs, processes=3)
        serial = self._comparable(serial_reg)
        parallel = self._comparable(parallel_reg)
        for part, got, want in zip(("counters", "gauges", "histograms"),
                                   parallel, serial):
            assert sorted(got) == sorted(want), part
            for key in want:
                assert got[key] == want[key], (part, key)

    @pytest.mark.parametrize("topology,algorithm", [
        ("fattree-8x8", "multitree"),
        ("torus-4x4@rails=2:0.5", "multitree"),
        ("torus-8x8", "ring"),
    ])
    def test_engine_runs_count_every_point(self, topology, algorithm):
        # Sizes the vectorized engine declines rerun on the scalar ladder,
        # and that run is counted under the engine that produced it.
        sizes = tuple(32 * KiB << i for i in range(6))
        with collecting() as reg:
            sweep = run_job(SweepJob(topology, algorithm, sizes,
                                     engine="lockstep-vec"))
        runs = sum(value for key, value in reg.counters.items()
                   if parse_key(key)[0] == "sim.engine_runs")
        assert runs == len(sweep.points) == len(sizes)


class TestExporters:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("sim.runs", topology="torus-2x2").inc(3)
        reg.gauge("sim.finish_time", topology="torus-2x2").set(1.5e-5)
        hist = reg.histogram("sim.queue_delay")
        hist.observe(1e-6)
        hist.observe(2e-6)
        return reg

    def test_json_roundtrip(self):
        reg = self._registry()
        payload = json.loads(json.dumps(reg.snapshot()))
        assert payload["counters"]["sim.runs|topology=torus-2x2"] == 3
        assert payload["gauges"]["sim.finish_time|topology=torus-2x2"] == 1.5e-5
        assert payload == reg.snapshot()

    def test_prometheus_exposition(self):
        text = to_prometheus(self._registry())
        assert "# TYPE repro_sim_runs_total counter" in text
        assert 'repro_sim_runs_total{topology="torus-2x2"} 3.0' in text
        assert "# TYPE repro_sim_finish_time gauge" in text
        assert "# TYPE repro_sim_queue_delay histogram" in text
        assert 'repro_sim_queue_delay_bucket{le="+Inf"} 2' in text
        assert "repro_sim_queue_delay_count 2" in text


class TestManifest:
    def test_build_and_roundtrip(self, tmp_path):
        reg = MetricsRegistry()
        reg.gauge("bandwidth", topology="torus-2x2", algorithm="ring",
                  size="32768").set(7.9e9)
        record = build_manifest(
            command="sweep",
            argv=["sweep", "--topology", "torus"],
            labels={"topology": "torus", "dims": "2x2"},
            wall_time_s=0.25,
            registry=reg,
        )
        assert record["schema"] == MANIFEST_SCHEMA_VERSION
        assert record["version"] == repro_version()
        assert record["wall_time_s"] == 0.25
        path = str(tmp_path / "runs.jsonl")
        append_manifest(path, record)
        append_manifest(path, record)
        loaded = load_stream(path)
        assert len(loaded) == 2
        assert bandwidth_series(loaded[0]) == {
            ("torus-2x2", "ring", 32768): 7.9e9
        }

    def test_fingerprint_depends_on_config_not_timing(self):
        a = config_fingerprint("sweep", ["--dims", "2x2"], {"dims": "2x2"})
        b = config_fingerprint("sweep", ["--dims", "2x2"], {"dims": "2x2"})
        c = config_fingerprint("sweep", ["--dims", "4x4"], {"dims": "4x4"})
        assert a == b != c

    def test_torn_trailing_line_skipped(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text('{"run_id": "ok", "timestamp": 1.0}\n{"torn...')
        assert [r["run_id"] for r in load_stream(str(path))] == ["ok"]


def _manifest_with_bandwidth(run_id, timestamp, bandwidths):
    """Fake manifest record: {(topo, algo, size): value} bandwidth gauges."""
    reg = MetricsRegistry()
    for (topo, algo, size), value in bandwidths.items():
        reg.gauge("bandwidth", topology=topo, algorithm=algo,
                  size=str(size)).set(value)
    record = build_manifest(
        command="sweep", argv=[], labels={}, wall_time_s=0.1, registry=reg,
        run_id=run_id,
    )
    record["timestamp"] = timestamp
    return record


class TestReport:
    def test_dashboard_and_regression_flag(self, tmp_path):
        base = _manifest_with_bandwidth("base", 1.0, {
            ("torus-2x2", "ring", 32 * KiB): 8e9,
            ("torus-2x2", "multitree", 32 * KiB): 12e9,
        })
        # ring regressed 25%, multitree improved.
        cur = _manifest_with_bandwidth("cur", 2.0, {
            ("torus-2x2", "ring", 32 * KiB): 6e9,
            ("torus-2x2", "multitree", 32 * KiB): 13e9,
        })
        text, regressions = build_report([base, cur], threshold=0.05)
        assert "## Runs" in text and "fig. 9 view" in text
        assert "| 32 KiB" in text
        assert len(regressions) == 1
        assert "ring" in regressions[0].metric
        # Relaxed threshold: the same drift passes.
        _text, ok = build_report([base, cur], threshold=0.30)
        assert ok == []

    def test_bench_gate_from_manifest_gauges(self):
        reg = MetricsRegistry()
        reg.gauge("bench.speedup", benchmark="simulate").set(1.0)
        record = build_manifest("bench", [], {}, 0.1, reg, run_id="b1")
        baseline = {
            "schema": 1, "quick": True,
            "results": {"simulate": {"speedup": 2.0}},
        }
        _text, regressions = build_report(
            [record], bench_baseline=baseline, max_bench_regression=0.25
        )
        assert len(regressions) == 1
        assert "bench.speedup[simulate]" in regressions[0].metric

    def test_bench_baseline_with_nothing_measured_misses_every_case(self):
        baseline = {
            "schema": 1, "quick": True,
            "results": {"simulate": {"speedup": 2.0},
                        "serve": {"speedup": 9.0}},
        }
        _text, regressions = build_report([], bench_baseline=baseline)
        assert {str(r) for r in regressions} >= {
            "bench.speedup[serve] missing from current run",
            "bench.speedup[simulate] missing from current run",
        }

    def test_classify_inputs_rejects_unknown_json(self, tmp_path):
        bogus = tmp_path / "x.json"
        bogus.write_text('{"hello": 1}')
        with pytest.raises(ValueError):
            classify_inputs([str(bogus)])

    def test_run_report_with_bench_report_files(self, tmp_path):
        bench = {
            "schema": 1, "quick": True, "date": "2026-08-05",
            "results": {"simulate": {
                "speedup": 2.0, "optimized_s": 0.1, "reference_s": 0.2,
                "meta": {},
            }},
        }
        bench_path = tmp_path / "BENCH_now.json"
        bench_path.write_text(json.dumps(bench))
        baseline_path = tmp_path / "BENCH_base.json"
        baseline = dict(bench)
        baseline["results"] = {"simulate": {
            "speedup": 4.0, "optimized_s": 0.05, "reference_s": 0.2,
            "meta": {},
        }}
        baseline_path.write_text(json.dumps(baseline))
        text, regressions = run_report(
            [str(bench_path)], bench_baseline_path=str(baseline_path)
        )
        assert "Bench speedups" in text
        assert regressions  # 2.0x < 4.0x * 0.75


class TestCli:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert repro_version() in capsys.readouterr().out

    def test_sweep_writes_metrics_and_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "runs.jsonl"
        argv = [
            "--manifest", str(manifest),
            "sweep", "--topology", "torus", "--dims", "2x2",
            "--algorithms", "ring", "--sizes", "32K",
            "--cache", str(tmp_path / "c.json"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cache: 0 hits, 1 misses" in out
        assert "across 1 worker" in out
        records = load_stream(str(manifest))
        assert len(records) == 1
        snapshot = records[-1]["metrics"]
        assert any(k.startswith("bandwidth|") for k in snapshot["gauges"])
        assert records[0]["command"] == "sweep"
        assert records[0]["labels"]["dims"] == "2x2"
        assert records[0]["version"] == repro_version()

    def test_report_check_exit_codes(self, tmp_path, capsys):
        path = str(tmp_path / "runs.jsonl")
        append_manifest(path, _manifest_with_bandwidth("base", 1.0, {
            ("torus-2x2", "ring", 32 * KiB): 8e9,
        }))
        append_manifest(path, _manifest_with_bandwidth("cur", 2.0, {
            ("torus-2x2", "ring", 32 * KiB): 4e9,
        }))
        assert main(["report", path]) == 0  # report only, no gate
        assert main(["report", path, "--check"]) == 1
        assert "REGRESSION" in capsys.readouterr().err
        assert main(["report", path, "--check", "--threshold", "0.9"]) == 0

    @pytest.mark.parametrize("text", ["", "garbage\n"])
    def test_report_check_with_no_runs_fails(self, tmp_path, capsys, text):
        path = tmp_path / "runs.jsonl"
        path.write_text(text)
        assert main(["report", str(path)]) == 0  # report only, no gate
        assert main(["report", str(path), "--check"]) == 1
        assert "no run manifest or bench report" in capsys.readouterr().err

    def test_report_renders_two_runs(self, tmp_path, capsys):
        path = str(tmp_path / "runs.jsonl")
        for _ in range(2):
            argv = [
                "--manifest", path, "sweep", "--topology", "torus",
                "--dims", "2x2", "--algorithms", "ring,multitree",
                "--sizes", "32K", "--cache", str(tmp_path / "c.json"),
            ]
            assert main(argv) == 0
        capsys.readouterr()
        assert main(["report", path, "--check"]) == 0
        out = capsys.readouterr().out
        assert "## Runs" in out
        assert out.count("sweep-") >= 2
        assert "multitree" in out and "+0.0%" in out
