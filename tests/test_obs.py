"""repro.obs: spans, carriers, cross-process merge, renderers, overhead."""

import json
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import quote

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.metrics.export import to_prometheus
from repro.metrics.registry import MetricsRegistry, collecting, parse_key
from repro.metrics.report import build_report, engine_mix
from repro.network import lockstep_vec
from repro.obs import (
    NULL_SPAN,
    ObsRecorder,
    attached,
    current_carrier,
    load_stream,
    observing,
    validate_record,
    validate_stream,
)
from repro.obs.explain import build_trees, format_explain
from repro.obs.export import to_chrome_spans, write_chrome_spans
from repro.obs.overhead import format_overhead, measure_overhead
from repro.obs.status import format_status, summarize
from repro.scenario import Scenario
from repro.serve import PredictionService, make_server
from repro.sweep.runner import SweepJob, run_job, run_sweep

KiB = 1024


def small_job(**overrides):
    kwargs = dict(
        topology="torus-2x2",
        algorithm="ring",
        sizes=(4 * KiB, 16 * KiB),
        engine="lockstep-vec",
    )
    kwargs.update(overrides)
    return SweepJob(**kwargs)


class TestSpanBasics:
    def test_nesting_links_parent_and_shares_trace(self):
        rec = ObsRecorder()
        with rec.span("outer") as outer:
            with rec.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        outer_rec, = [r for r in rec.records if r["name"] == "outer"]
        inner_rec, = [r for r in rec.records if r["name"] == "inner"]
        assert outer_rec["parent"] is None
        assert inner_rec["parent"] == outer_rec["span"]
        assert inner_rec["trace"] == outer_rec["trace"]
        # inner closes first: record order is completion order
        assert rec.records[0]["name"] == "inner"

    def test_sibling_traces_are_distinct(self):
        rec = ObsRecorder()
        with rec.span("a"):
            pass
        with rec.span("b"):
            pass
        a, b = rec.records
        assert a["trace"] != b["trace"]

    def test_disabled_spans_are_null_and_free(self):
        assert obs.get_obs() is None
        with obs.span("anything", key="value") as sp:
            assert sp is NULL_SPAN
            sp.set("ignored", 1)  # must not raise
        obs.event("nothing", detail="dropped")
        assert current_carrier() is None

    def test_exception_recorded_and_reraised(self):
        rec = ObsRecorder()
        with pytest.raises(ValueError):
            with rec.span("failing"):
                raise ValueError("boom")
        record, = rec.records
        assert record["attrs"]["error"] == "ValueError: boom"

    def test_none_attrs_dropped_set_and_init(self):
        rec = ObsRecorder()
        with rec.span("s", kept=1, dropped=None) as sp:
            sp.set("also_dropped", None)
            sp.set("also_kept", 2)
        record, = rec.records
        assert record["attrs"] == {"kept": 1, "also_kept": 2}

    def test_ring_buffer_evicts_oldest(self):
        rec = ObsRecorder(capacity=4)
        for i in range(10):
            with rec.span("s%d" % i):
                pass
        assert rec.emitted == 10
        assert len(rec.records) == 4
        assert rec.dropped == 6
        assert [r["name"] for r in rec.records] == ["s6", "s7", "s8", "s9"]

    def test_event_attaches_to_current_span(self):
        rec = ObsRecorder()
        with rec.span("work") as sp:
            rec.event("hit", size=7)
        event = [r for r in rec.records if r["kind"] == "event"][0]
        assert event["span"] == sp.span_id
        assert event["fields"] == {"size": 7}

    def test_event_outside_any_span_has_null_ids(self):
        rec = ObsRecorder()
        rec.event("loose")
        record, = rec.records
        assert record["trace"] is None and record["span"] is None

    def test_all_records_validate(self):
        rec = ObsRecorder()
        with rec.span("outer", topology="torus-2x2"):
            rec.event("engine.fallback", engine="e", reason="r")
        for record in rec.records:
            assert validate_record(record) == []


class TestCarrier:
    def test_carrier_roundtrip_parent_links(self):
        rec = ObsRecorder()
        with rec.span("origin") as origin:
            carrier = current_carrier()
        assert carrier == {"trace": origin.trace_id, "span": origin.span_id}
        # the "remote side": fresh thread context, carrier installed
        with attached(carrier):
            with rec.span("remote") as remote:
                assert remote.trace_id == origin.trace_id
                assert remote.parent_id == origin.span_id

    def test_falsy_carrier_is_noop(self):
        rec = ObsRecorder()
        for carrier in (None, {}):
            with attached(carrier):
                with rec.span("fresh") as sp:
                    assert sp.parent_id is None

    def test_merge_keeps_worker_identity(self):
        parent = ObsRecorder()
        worker = ObsRecorder(proc="worker-1")
        with worker.span("remote.work"):
            pass
        parent.merge(worker.snapshot())
        record, = parent.records
        assert record["proc"] == "worker-1"
        assert record["name"] == "remote.work"


class TestStream:
    @pytest.mark.parametrize("record", [
        {"kind": "span", "name": "sim.run", "start": 1792513191.289714,
         "end": 1792513191.3, "attrs": {"resolved": "event", "ops": 480},
         "trace": "0" * 16, "span": "1" * 16, "parent": None},
        {"kind": "event", "name": "e", "time": -0.0,
         "fields": {"z": [1, 2.5, float("inf"), None], "a": {"é": "\n"}}},
        {"b": True, "a": {}, "c": []},
    ])
    def test_line_encoder_equals_sorted_json(self, record):
        from repro.obs.spans import _encode

        assert _encode(record) == json.dumps(record, sort_keys=True)

    def test_stream_flushed_on_close_and_validates(self, tmp_path):
        path = str(tmp_path / "obs.jsonl")
        with observing(stream_path=path) as rec:
            with obs.span("outer"):
                obs.event("inside")
        assert rec is not None
        records = load_stream(path)
        assert [r["name"] for r in records] == ["inside", "outer"]
        count, errors = validate_stream(path)
        assert count == 2 and errors == []

    def test_stream_batches_whole_lines(self, tmp_path):
        path = str(tmp_path / "obs.jsonl")
        rec = ObsRecorder(stream_path=path)
        for i in range(50):
            with rec.span("s%d" % i):
                pass
        # mid-run, whatever is on disk parses line by line (no torn lines)
        with open(path) as fh:
            for line in fh:
                json.loads(line)
        rec.flush()
        assert len(load_stream(path)) == 50
        rec.close()

    def test_torn_final_line_tolerated(self, tmp_path):
        path = str(tmp_path / "obs.jsonl")
        with observing(stream_path=path):
            with obs.span("whole"):
                pass
        with open(path, "a") as fh:
            fh.write('{"kind": "span", "trace"')  # a live writer mid-record
        assert [r["name"] for r in load_stream(path)] == ["whole"]
        count, errors = validate_stream(path)
        assert count == 1 and errors == []

    def test_torn_middle_line_is_an_error(self, tmp_path):
        path = str(tmp_path / "obs.jsonl")
        rec = ObsRecorder(stream_path=path)
        with rec.span("first"):
            pass
        rec.close()
        with open(path, "a") as fh:
            fh.write("garbage not json\n")
        rec2 = ObsRecorder(stream_path=path)
        with rec2.span("second"):
            pass
        rec2.close()
        count, errors = validate_stream(path)
        assert count == 2
        assert len(errors) == 1 and "unparseable" in errors[0]

    def test_torn_middle_line_skipped_with_a_warning(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        path.write_text('{"name": "a"}\ngarbage\n[1]\n{"name": "b"}\n{"tor')
        with pytest.warns(RuntimeWarning, match="2 unparseable line"):
            records = load_stream(str(path))
        assert [r["name"] for r in records] == ["a", "b"]

    def test_garbage_only_stream_is_invalid(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        path.write_text("garbage\n")
        count, errors = validate_stream(str(path))
        assert count == 0
        assert len(errors) == 1 and "unparseable" in errors[0]

    def test_observing_restores_previous_recorder(self):
        outer = ObsRecorder()
        previous = obs.set_obs(outer)
        try:
            with observing() as inner:
                assert obs.get_obs() is inner
            assert obs.get_obs() is outer
        finally:
            obs.set_obs(previous)


class TestSweepObservation:
    def test_serial_sweep_is_one_tree(self):
        jobs = [small_job(), small_job(algorithm="dbtree")]
        with observing() as rec:
            run_sweep(jobs)
        spans = [r for r in rec.records if r["kind"] == "span"]
        assert {r["trace"] for r in spans} == {spans[0]["trace"]}
        roots_by_trace, orphans, _loose = build_trees(rec.records)
        assert orphans == []
        root, = roots_by_trace[spans[0]["trace"]]
        assert root.name == "sweep.run"
        names = [n.name for n in root.walk()]
        assert names.count("sweep.job") == len(jobs)
        job_spans = [n for n in root.walk() if n.name == "sweep.job"]
        assert all("fingerprint" in n.attrs for n in job_spans)

    def test_pool_spans_merge_parent_linked(self, tmp_path):
        jobs = [small_job(), small_job(algorithm="dbtree"),
                small_job(sizes=(8 * KiB,))]
        with observing() as rec:
            run_sweep(jobs, processes=2)
        spans = [r for r in rec.records if r["kind"] == "span"]
        assert {r["trace"] for r in spans} == {spans[0]["trace"]}
        roots_by_trace, orphans, _loose = build_trees(rec.records)
        assert orphans == []
        root, = roots_by_trace[spans[0]["trace"]]
        run_span = [r for r in spans if r["name"] == "sweep.run"][0]
        job_spans = [r for r in spans if r["name"] == "sweep.job"]
        assert len(job_spans) == len(jobs)
        assert all(r["parent"] == run_span["span"] for r in job_spans)

    @settings(max_examples=5, deadline=None)
    @given(order=st.permutations([0, 1, 2, 3]))
    def test_pool_tree_connected_any_job_order(self, order):
        pool = [
            small_job(),
            small_job(algorithm="dbtree"),
            small_job(sizes=(8 * KiB,)),
            small_job(algorithm="multitree"),
        ]
        jobs = [pool[i] for i in order]
        with observing() as rec:
            run_sweep(jobs, processes=4)
        spans = [r for r in rec.records if r["kind"] == "span"]
        traces = {r["trace"] for r in spans}
        assert len(traces) == 1, "split trace across workers"
        _roots, orphans, _loose = build_trees(rec.records)
        assert orphans == [], "worker span lost its parent link"
        assert sum(r["name"] == "sweep.job" for r in spans) == len(jobs)

    def test_job_fingerprint_is_the_scenario_fingerprint(self, tmp_path):
        scenario = Scenario.parse("torus-4x4/multitree/1MiB")
        service = PredictionService(str(tmp_path / "state"), workers=0)
        try:
            with observing() as rec:
                run_job(SweepJob.from_scenarios([scenario]))
                service.predict(scenario, block=True)
        finally:
            service.close()
        # The served miss runs run_job too: one sweep.job per call.
        jobs = [r for r in rec.records if r["name"] == "sweep.job"]
        predict, = [r for r in rec.records if r["name"] == "serve.predict"]
        assert len(jobs) == 2
        for job in jobs:
            assert job["attrs"]["fingerprint"] == scenario.fingerprint()
        assert predict["attrs"]["fingerprint"] == scenario.fingerprint()

    def test_results_identical_with_and_without_obs(self):
        job = small_job()
        plain = run_job(job)
        with observing():
            observed = run_job(job)
        assert [(p.data_bytes, p.time, p.bandwidth) for p in plain.points] \
            == [(p.data_bytes, p.time, p.bandwidth) for p in observed.points]


class TestCompileSpans:
    def test_one_span_per_object_compile(self):
        from repro.collectives import build_schedule, compile_schedule
        from repro.ni import simulate_allreduce
        from repro.topology.specs import parse_topology_spec

        topology = parse_topology_spec("torus-4x4")
        names = ("ring", "dbtree")
        schedules = [build_schedule(name, topology) for name in names]
        with observing() as rec:
            compiled = [compile_schedule(s) for s in schedules]
            # Lowering only to run an engine is not a compile stage.
            simulate_allreduce(schedules[0], 64 * KiB, engine="lockstep")
        spans = [r for r in rec.records
                 if r["kind"] == "span" and r["name"] == "schedule.compile"]
        assert [span["attrs"] for span in spans] == [
            {"topology": "torus-4x4", "algorithm": name, "path": "object",
             "ops": len(c)}
            for name, c in zip(names, compiled)
        ]


    def test_construction_span_nests_under_streaming_compile(self):
        from repro.collectives.streaming import compile_multitree
        from repro.topology.specs import parse_topology_spec

        with observing() as rec:
            compile_multitree(parse_topology_spec("fattree-4x4"))
        spans = {r["name"]: r for r in rec.records if r["kind"] == "span"}
        build = spans["multitree.build"]
        assert build["parent"] == spans["schedule.compile"]["span"]
        assert build["attrs"] == {
            "topology": "fattree-16n", "priority": "root-id",
            "steps": 15, "turns": 240, "probes": 240,
        }


@pytest.fixture()
def vec_at_any_size(monkeypatch):
    """Send every lockstep-vec run to the numpy engine, whose declines
    these tests observe."""
    monkeypatch.setattr(lockstep_vec, "MIN_OPS_PER_STEP", 0)


class TestFallbackReasons:
    def test_vec_decline_emits_reasoned_event_and_counter(
        self, vec_at_any_size
    ):
        # ring on torus-2x2 runs single-hop over its doubled (two-channel)
        # links: the batched vec engine declines every size with a
        # concrete gate name.
        job = small_job(algorithm="ring")
        registry = MetricsRegistry()
        with collecting(registry):
            with observing() as rec:
                run_job(job)
        events = [r for r in rec.records
                  if r["kind"] == "event" and r["name"] == "engine.fallback"
                  and r["fields"]["engine"] == "lockstep-vec"]
        assert events, "vec decline should emit fallback events"
        for event in events:
            fields = event["fields"]
            assert fields["reason"] in (
                "multi-hop", "multi-channel", "link-disjointness",
                "wire-total", "gate-boundary", "not-lockstep-gated",
                "unknown-link", "plan",
            )
            assert event["span"] is not None  # attached under sim.batch
        reasons = set()
        for key in registry.snapshot()["counters"]:
            name, labels = parse_key(key)
            if name == "sim.fallbacks":
                reasons.add((labels.get("engine"), labels.get("reason")))
        assert ("lockstep-vec", "multi-channel") in reasons

    def test_counter_labels_stay_low_cardinality(self):
        # per-size detail goes to the event only, never into counter keys
        registry = MetricsRegistry()
        with collecting(registry):
            obs.event(
                "engine.fallback", engine="lockstep-vec",
                reason="wire-total", topology="t", size=4096,
            )
        key, = [k for k in registry.snapshot()["counters"]
                if k.startswith("sim.fallbacks")]
        assert "size" not in key
        assert "reason=wire-total" in key

    def test_fallback_without_any_collector_is_noop(self):
        # must not raise
        obs.event(
            "engine.fallback", engine="lockstep-vec", reason="gate-boundary"
        )


class TestServeObservation:
    SCENARIO = "torus-2x2/ring/32KiB@event"

    @pytest.fixture()
    def live_server(self, tmp_path):
        service = PredictionService(str(tmp_path / "state"), workers=1)
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = "http://127.0.0.1:%d" % server.server_address[1]
        try:
            yield base, service
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            service.close()

    @staticmethod
    def _get(url):
        try:
            with urllib.request.urlopen(url, timeout=30) as response:
                return response.status, response.headers
        except urllib.error.HTTPError as error:
            return error.code, error.headers

    def test_request_produces_one_correlated_tree(self, live_server):
        base, _service = live_server
        with observing() as rec:
            status, headers = self._get(
                base + "/predict?scenario=" + quote(self.SCENARIO, safe="")
            )
            assert status == 202  # cold miss: answer comes via the worker
            trace_id = headers["X-Trace-Id"]
            assert trace_id
            deadline = time.time() + 30
            while time.time() < deadline:
                done = [r for r in rec.snapshot()
                        if r["kind"] == "span" and r["name"] == "serve.compute"]
                if done:
                    break
                time.sleep(0.05)
            assert done, "background warm never completed"
        spans = [r for r in rec.records if r["kind"] == "span"]
        names = {r["name"] for r in spans if r["trace"] == trace_id}
        # handler thread and worker thread stitched into one trace
        assert {"http.request", "serve.predict", "serve.warm",
                "serve.compute", "sim.run"} <= names
        _roots, orphans, _loose = build_trees(spans)
        assert orphans == []

    def test_no_trace_header_when_obs_off(self, live_server):
        base, _service = live_server
        status, headers = self._get(base + "/healthz")
        assert status == 200
        assert headers.get("X-Trace-Id") is None


class TestPrometheusExposition:
    def test_help_precedes_type_per_family(self):
        registry = MetricsRegistry()
        registry.counter("sim.runs").inc()
        registry.counter(
            "sim.fallbacks", engine="lockstep-vec", reason="wire-total"
        ).inc()
        lines = to_prometheus(registry).splitlines()
        for i, line in enumerate(lines):
            if line.startswith("# TYPE "):
                name = line.split()[2]
                assert lines[i - 1].startswith("# HELP %s " % name)
        helps = [l for l in lines if l.startswith("# HELP")]
        assert any("repro_sim_fallbacks_total" in l and "validation gate" in l
                   for l in helps)

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter(
            "sim.fallbacks", engine='e"dge', reason="a\\b", topology="x\ny"
        ).inc()
        text = to_prometheus(registry)
        sample = [l for l in text.splitlines()
                  if l.startswith("repro_sim_fallbacks_total")][0]
        assert 'engine="e\\"dge"' in sample
        assert 'reason="a\\\\b"' in sample
        assert 'topology="x\\ny"' in sample

    def test_unknown_family_gets_generic_help(self):
        registry = MetricsRegistry()
        registry.counter("made.up_metric").inc()
        text = to_prometheus(registry)
        assert "# HELP repro_made_up_metric_total repro metric" in text


class TestRenderers:
    def _stream(self):
        rec = ObsRecorder()
        with rec.span("sweep.run", jobs=1):
            with rec.span("sweep.job", topology="torus-2x2"):
                obs_rec = rec  # events below attach to sweep.job
                obs_rec.event(
                    "engine.fallback", engine="lockstep-vec",
                    reason="multi-channel", count=2,
                )
        return rec.records

    def test_explain_renders_waterfall_with_fallbacks(self):
        text = format_explain(self._stream())
        assert "sweep.run" in text and "sweep.job" in text
        assert "! engine.fallback" in text
        assert "1 fallback" in text  # one fallback *event* in the header

    def test_explain_trace_filter_and_miss(self):
        records = list(self._stream())
        trace = records[0]["trace"]
        assert "sweep.run" in format_explain(records, trace=trace[:6])
        assert "no trace matching" in format_explain(records, trace="zzz")

    def test_explain_flags_orphans(self):
        records = list(self._stream())
        spans = [r for r in records if r["kind"] == "span"]
        # drop the root: the child's parent id no longer resolves
        broken = [r for r in records if r["name"] != "sweep.run"]
        assert len(spans) == 2
        assert "orphan" in format_explain(broken)

    def test_status_summary_counts(self):
        records = self._stream()
        summary = summarize(records)
        assert summary["spans"] == 2 and summary["events"] == 1
        assert summary["fallbacks"] == {("lockstep-vec", "multi-channel"): 2}
        text = format_status(records, path="obs.jsonl")
        assert "engine fallbacks by reason" in text
        assert "multi-channel" in text

    def test_status_empty_stream(self):
        assert "empty" in format_status([], path="obs.jsonl")

    def test_perfetto_export_tracks_and_args(self, tmp_path):
        records = self._stream()
        doc = to_chrome_spans(records)
        slices = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert len(slices) == 2
        assert all(e["args"]["trace"] == records[0]["trace"] for e in slices)
        instant, = [e for e in doc["traceEvents"] if e.get("ph") == "i"]
        assert instant["args"]["reason"] == "multi-channel"
        out = tmp_path / "spans.perfetto.json"
        write_chrome_spans(records, str(out))
        assert json.loads(out.read_text())["otherData"]["spans"] == "2"


class TestOverhead:
    def test_measure_with_stub_workload(self):
        calls = []
        result = measure_overhead(
            repeat=2, inner=1, stream=False, workload=lambda: calls.append(1)
        )
        assert calls  # warm call + 2 pairs x 2 sides
        assert set(result) >= {
            "baseline_s", "obs_s", "overhead", "records_per_run",
            "repeat", "inner", "streamed",
        }
        assert result["streamed"] is False
        assert "obs overhead:" in format_overhead(result)


class TestReportEngineMix:
    def _record(self):
        registry = MetricsRegistry()
        with collecting(registry):
            run_job(small_job(algorithm="ring"))  # multi-channel, single-hop
        return {
            "run_id": "r1",
            "command": "sweep",
            "metrics": registry.snapshot(),
        }

    def test_engine_mix_extracts_reasoned_counters(self, vec_at_any_size):
        runs, fallbacks = engine_mix(self._record())
        # Every point is counted under the rung that produced it, the
        # scalar reruns of declined sizes included.
        assert sum(runs.values()) == len(small_job().sizes)
        assert any(
            engine == "lockstep-vec" and reason == "multi-channel"
            for engine, reason, _topo in fallbacks
        )

    def test_report_renders_engine_mix_section(self, vec_at_any_size):
        text, _regressions = build_report([self._record()])
        assert "## Engine mix (latest run)" in text
        assert "multi-channel" in text
