"""repro.serve: planner frontiers, prediction service, trace replay."""

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
import warnings
from urllib.parse import quote

import pytest

import repro
from repro.obs import load_stream, observing
from repro.scenario import Scenario, parse_sizes
from repro.serve import (
    PredictionService,
    WorkloadSpec,
    load_trace,
    make_server,
    pareto_frontier,
    plan,
    record_trace,
    replay,
    replay_http,
    workload_trace,
)
from repro.sweep import ArtifactStore, PredictionCache

KiB = 1024
TOPOLOGY = "torus-4x4"
#: The source root a ``python -m repro`` child process imports from.
SRC = os.path.dirname(os.path.dirname(repro.__file__))
#: Topology specs with the wrong dimension count for their family.
MALFORMED_SPECS = (
    "torus-4x/ring/1MiB",
    "torus-4x4x4/ring/1MiB",
    "mesh-4x4x2/ring/1MiB",
)
SIZES = (32 * KiB, 128 * KiB)
ALGOS = ("ring", "multitree")
#: Scenarios /predict must refuse with a 400: an override no prediction
#: reads, a bad override value, a fractional byte count, a non-finite
#: link mod, and a fabric above the served size (8281 nodes).
REFUSED_SCENARIOS = (
    "torus-4x4/ring/1MiB@link_bandwidth_bytes_per_s=32e9",
    "torus-4x4/ring/1MiB@message,data_packet_payload_bytes=128",
    "torus-4x4/ring/1MiB@flit_bytes=0",
    "torus-4x4/ring/1MiB@flit_bytes=-16",
    "torus-4x4/ring/1MiB@flit_bytes=abc",
    "torus-4x4/ring/1MiB@data_packet_payload_bytes=0",
    "torus-4x4/ring/1MiB@data_packet_payload_bytes=-16",
    "torus-4x4/ring/1.5",
    "fattree-4x4@oversub=nan/ring/1MiB",
    "fattree-4x4@oversub=inf/ring/1MiB",
    "bigraph-4x8@oversub=nan/ring/1MiB",
    "bigraph-4x8@oversub=inf/ring/1MiB",
    "fattree3-2x2x2@uplink=nan/ring/1MiB",
    "torus-91x91/ring/1MiB",
)


def small_spec(**overrides):
    kwargs = dict(topology=TOPOLOGY, sizes=SIZES, algorithms=ALGOS)
    kwargs.update(overrides)
    return WorkloadSpec(**kwargs)


class TestParetoFrontier:
    # Synthetic points: (latency, bandwidth) with min/max senses.
    OBJECTIVES = ((lambda p: p[0], "min"), (lambda p: p[1], "max"))

    def test_dominated_points_removed(self):
        points = [(1.0, 10.0), (2.0, 5.0), (3.0, 20.0)]
        frontier = pareto_frontier(points, self.OBJECTIVES)
        # (2.0, 5.0) is beaten by (1.0, 10.0) on both axes.
        assert frontier == [(1.0, 10.0), (3.0, 20.0)]

    def test_exact_ties_all_kept(self):
        points = [(1.0, 10.0), (1.0, 10.0), (2.0, 5.0)]
        frontier = pareto_frontier(points, self.OBJECTIVES)
        assert frontier == [(1.0, 10.0), (1.0, 10.0)]

    def test_single_candidate_survives(self):
        assert pareto_frontier([(7.0, 1.0)], self.OBJECTIVES) == [(7.0, 1.0)]

    def test_empty_input(self):
        assert pareto_frontier([], self.OBJECTIVES) == []

    def test_order_is_deterministic(self):
        points = [(3.0, 20.0), (1.0, 10.0), (2.0, 15.0)]
        frontier = pareto_frontier(points, self.OBJECTIVES)
        assert frontier == pareto_frontier(list(reversed(points)), self.OBJECTIVES)
        assert frontier[0] == (1.0, 10.0)

    def test_bad_sense_rejected(self):
        with pytest.raises(ValueError):
            pareto_frontier([(1.0,)], ((lambda p: p[0], "upward"),))


class TestWorkloadSpec:
    def test_from_query_round_trip(self):
        spec = WorkloadSpec.from_query(
            {
                "topology": TOPOLOGY,
                "sizes": "32K,128K",
                "algorithms": "ring,multitree",
                "engine": "lockstep",
            }
        )
        assert spec == small_spec(engine="lockstep")

    def test_engine_defaults_to_batched_vectorized(self):
        spec = WorkloadSpec.from_query(
            {"topology": TOPOLOGY, "sizes": "32K,128K"}
        )
        assert spec.engine == "lockstep-vec"

    def test_from_query_range_grammar_matches_cli(self):
        spec = WorkloadSpec.from_query(
            {"topology": TOPOLOGY, "sizes": "32K..256K"}
        )
        assert spec.sizes == parse_sizes("32K..256K")
        assert spec.sizes == (32 * KiB, 64 * KiB, 128 * KiB, 256 * KiB)

    def test_from_query_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown plan parameter"):
            WorkloadSpec.from_query(
                {"topology": TOPOLOGY, "sizes": "32K", "sises": "1M"}
            )

    def test_from_query_requires_topology_and_sizes(self):
        with pytest.raises(ValueError):
            WorkloadSpec.from_query({"topology": TOPOLOGY})

    def test_empty_algorithms_means_all_variants(self):
        spec = WorkloadSpec(topology=TOPOLOGY, sizes=SIZES)
        assert "ring" in spec.candidate_algorithms()
        assert "hdrm" in spec.candidate_algorithms()

    def test_candidates_sorted_by_variant(self):
        candidates = small_spec().candidates()
        assert [c.algorithm for c in candidates] == [
            "multitree", "multitree", "ring", "ring",
        ]
        assert all(c.data_bytes in SIZES for c in candidates)


class TestPlanner:
    def test_frontier_carries_canonical_identity(self, tmp_path):
        result = plan(small_spec())
        assert len(result.buckets) == len(SIZES)
        for bucket in result.buckets:
            assert bucket.candidates == len(ALGOS)
            assert bucket.frontier
            for entry in bucket.frontier:
                scenario = Scenario.parse(entry.scenario)
                assert str(scenario) == entry.scenario
                assert scenario.fingerprint() == entry.fingerprint
                assert entry.time > 0 and entry.bandwidth > 0

    def test_incompatible_variants_skipped_not_fatal(self):
        result = plan(small_spec(algorithms=("ring", "hdrm")))
        assert [s["algorithm"] for s in result.skipped] == ["hdrm"]
        assert "BiGraph" in result.skipped[0]["reason"]
        for bucket in result.buckets:
            assert bucket.candidates == 1  # only ring evaluated

    def test_second_plan_is_pure_cache_hits(self, tmp_path):
        cache = PredictionCache(str(tmp_path / "cache.json"))
        artifacts = ArtifactStore(str(tmp_path / "artifacts"))
        spec = small_spec()
        cold = plan(spec, cache=cache, artifacts=artifacts)
        assert cold.simulated == len(ALGOS) * len(SIZES)
        warm = plan(spec, cache=cache, artifacts=artifacts)
        assert warm.simulated == 0
        assert warm.cache_hits == len(ALGOS) * len(SIZES)
        # Identical answer, warm or cold.
        assert warm.to_dict()["buckets"] == cold.to_dict()["buckets"]
        assert warm.fingerprint() == cold.fingerprint()

    def test_warm_plan_parses_its_topology_once(self, tmp_path):
        from repro import obs
        from repro.scenario import scenario_set_fingerprint

        cache = PredictionCache(str(tmp_path / "cache.json"))
        artifacts = ArtifactStore(str(tmp_path / "artifacts"))
        spec = small_spec(algorithms=ALGOS + ("dbtree", "hdrm"))
        plan(spec, cache=cache, artifacts=artifacts)
        recorder = obs.ObsRecorder(capacity=None)
        with obs.observing(recorder):
            warm = plan(spec, cache=cache, artifacts=artifacts)
            payload = warm.to_dict()
        builds = [r for r in recorder.records if r["name"] == "topology.build"]
        assert len(builds) == 1
        assert warm.simulated == 0 and len(warm.skipped) == 1
        # The shared parse leaves every fingerprint as each scenario
        # derives it on its own.
        for bucket in warm.buckets:
            for entry in bucket.frontier:
                scenario = Scenario.parse(entry.scenario)
                assert entry.fingerprint == scenario.fingerprint()
        assert payload["fingerprint"] == scenario_set_fingerprint(
            warm.scenarios
        )

    def test_to_dict_and_table_render(self):
        result = plan(small_spec())
        payload = result.to_dict()
        assert payload["topology"] == TOPOLOGY
        assert payload["stats"]["candidates"] == len(ALGOS) * len(SIZES)
        text = result.format_table()
        assert "frontier" in text
        for bucket in result.buckets:
            assert bucket.size in text


class TestPredictionService:
    def test_blocking_predict_then_warm_hit(self, tmp_path):
        service = PredictionService(str(tmp_path / "state"), workers=0)
        try:
            scenario = Scenario.parse("torus-4x4/ring/32KiB@lockstep")
            entry, source = service.predict(scenario, block=True)
            assert source == "simulated" and entry["time"] > 0
            entry2, source2 = service.predict(scenario)
            assert source2 == "cache" and entry2 == entry
        finally:
            service.close()

    def test_cold_predict_is_one_run_job(self, tmp_path):
        from repro import obs
        from repro.sweep import SweepJob, run_job

        service = PredictionService(str(tmp_path / "state"), workers=0)
        try:
            scenario = Scenario.parse(
                "torus-4x4/ring/1MiB@lockstep,data_packet_payload_bytes=128"
            )
            recorder = obs.ObsRecorder(capacity=None)
            with obs.observing(recorder):
                entry, source = service.predict(scenario, block=True)
            jobs = [
                r for r in recorder.records
                if r["kind"] == "span" and r["name"] == "sweep.job"
            ]
            assert source == "simulated" and len(jobs) == 1
            point = run_job(SweepJob.from_scenarios([scenario])).points[0]
            assert entry == {
                "time": point.time,
                "bandwidth": point.bandwidth,
                "max_queue_delay": point.max_queue_delay,
            }
            assert list(service.cache.entries) == [
                service.identity(scenario)[0]
            ]
        finally:
            service.close()

    def test_cache_persists_across_restarts(self, tmp_path):
        state = str(tmp_path / "state")
        scenario = Scenario.parse("torus-4x4/ring/32KiB@lockstep")
        first = PredictionService(state, workers=0)
        first.predict(scenario, block=True)
        first.close()
        second = PredictionService(state, workers=0)
        try:
            _entry, source = second.predict(scenario)
            assert source == "cache"
        finally:
            second.close()

    def test_pre_journal_cache_file_is_never_read(self, tmp_path):
        state = tmp_path / "state"
        state.mkdir()
        (state / "cache.json").write_text(json.dumps({
            "schema": 5,
            "entries": {"k": {"time": 1.0, "bandwidth": 1.0,
                              "max_queue_delay": 0.0}},
        }))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            service = PredictionService(str(state), workers=0)
        try:
            assert len(service.cache) == 0
            assert service.cache.path.endswith("cache.jsonl")
        finally:
            service.close()

    def test_background_warming(self, tmp_path):
        service = PredictionService(str(tmp_path / "state"), workers=1)
        try:
            scenario = Scenario.parse("torus-4x4/ring/32KiB@lockstep")
            entry, source = service.predict(scenario)
            assert entry is None and source in ("enqueued", "warming")
            assert service.drain(timeout_s=30)
            _entry, source = service.predict(scenario)
            assert source == "cache"
        finally:
            service.close()

    def test_failed_compile_is_remembered(self, tmp_path):
        service = PredictionService(str(tmp_path / "state"), workers=1)
        try:
            scenario = Scenario.parse("torus-4x4/hdrm/32KiB@lockstep")
            service.predict(scenario)
            assert service.drain(timeout_s=30)
            entry, source = service.predict(scenario)
            assert entry is None and source == "failed"
            assert "BiGraph" in service.failure_reason(scenario.cache_key())
        finally:
            service.close()

    def test_identity_memo_matches_scenario(self, tmp_path):
        service = PredictionService(str(tmp_path / "state"), workers=0)
        try:
            scenario = Scenario.parse("torus-4x4/multitree-msg/1MiB")
            key, fingerprint = service.identity(scenario)
            assert key == scenario.cache_key()
            assert fingerprint == scenario.fingerprint()
            assert service.identity(scenario) == (key, fingerprint)  # memo
        finally:
            service.close()

    def test_event_entry_served_to_every_engine(self, tmp_path):
        service = PredictionService(str(tmp_path / "state"), workers=0)
        try:
            event = Scenario.parse("torus-4x4/ring/32KiB")
            entry, source = service.predict(event, block=True)
            assert source == "simulated"
            for engine in ("lockstep", "lockstep-vec"):
                hint = Scenario.parse("torus-4x4/ring/32KiB@" + engine)
                assert service.predict(hint) == (entry, "cache")
        finally:
            service.close()

    @pytest.mark.parametrize("text", MALFORMED_SPECS)
    def test_malformed_topology_spec_is_a_value_error(self, tmp_path, text):
        # Never SystemExit (it would escape the request handler) and
        # never a silently smaller fabric.
        service = PredictionService(str(tmp_path / "state"), workers=0)
        try:
            with pytest.raises(ValueError, match="dimensions"):
                service.predict(Scenario.parse(text), block=True)
        finally:
            service.close()

    def test_bounded_queue_overloads(self, tmp_path):
        service = PredictionService(
            str(tmp_path / "state"), workers=0, queue_size=1
        )
        try:
            first = Scenario.parse("torus-4x4/ring/32KiB@lockstep")
            second = Scenario.parse("torus-4x4/ring/64KiB@lockstep")
            assert service.warm(first) == "enqueued"
            assert service.warm(first) == "warming"  # already inflight
            assert service.warm(second) == "overloaded"  # queue full, no worker
        finally:
            service.close()


@pytest.fixture()
def live_server(tmp_path):
    """A PredictionService behind a real HTTP server on an ephemeral port."""
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


def http_get(url):
    """(status, parsed-or-raw body, headers) without raising on 4xx/5xx."""
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            body, status, headers = response.read(), response.status, response.headers
    except urllib.error.HTTPError as error:
        body, status, headers = error.read(), error.code, error.headers
    text = body.decode()
    try:
        return status, json.loads(text), headers
    except ValueError:
        return status, text, headers


class TestHTTPEndpoints:
    WARM = "torus-4x4/ring/32KiB@lockstep"

    def test_healthz(self, live_server):
        base, _service = live_server
        status, payload, _ = http_get(base + "/healthz")
        assert status == 200
        assert payload["status"] == "ok" and payload["workers"] == 1

    def test_predict_warm_hit(self, live_server):
        base, service = live_server
        service.predict(Scenario.parse(self.WARM), block=True)
        status, payload, _ = http_get(
            base + "/predict?scenario=" + quote(self.WARM, safe="")
        )
        assert status == 200
        assert payload["source"] == "cache"
        assert payload["scenario"] == self.WARM
        assert payload["time"] > 0 and payload["bandwidth"] > 0

    def test_keep_alive_requests_do_not_stall(self, live_server):
        # Headers and body leave in separate writes; with Nagle on, the
        # body of a later keep-alive response waits out the client's
        # 40 ms delayed ACK.
        base, service = live_server
        service.predict(Scenario.parse(self.WARM), block=True)
        host, port = base[len("http://"):].split(":")
        path = "/predict?scenario=" + quote(self.WARM, safe="")
        conn = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            elapsed = []
            for _ in range(3):
                start = time.perf_counter()
                conn.request("GET", path)
                response = conn.getresponse()
                body = json.loads(response.read())
                elapsed.append(time.perf_counter() - start)
                assert response.status == 200 and body["source"] == "cache"
        finally:
            conn.close()
        # The first request warms the connection; the two after it are the
        # sequential keep-alive pair.
        assert max(elapsed[1:]) < 0.025, elapsed

    def test_predict_cold_202_then_eventual_hit(self, live_server):
        base, service = live_server
        url = base + "/predict?scenario=" + quote(
            "torus-4x4/multitree/64KiB@lockstep", safe=""
        )
        status, payload, headers = http_get(url)
        assert status == 202
        assert payload["status"] in ("enqueued", "warming")
        assert int(headers["Retry-After"]) >= 1
        assert service.drain(timeout_s=30)
        status, payload, _ = http_get(url)
        assert status == 200 and payload["source"] == "cache"

    def test_predict_malformed_scenario_400(self, live_server):
        base, _service = live_server
        status, payload, _ = http_get(base + "/predict?scenario=not-a-scenario")
        assert status == 400 and "error" in payload
        status, payload, _ = http_get(base + "/predict")
        assert status == 400 and "scenario" in payload["error"]

    @pytest.mark.parametrize("text", MALFORMED_SPECS)
    def test_predict_malformed_topology_spec_400(self, live_server, text):
        base, _service = live_server
        status, payload, _ = http_get(
            base + "/predict?scenario=" + quote(text, safe="")
        )
        assert status == 400 and "dimensions" in payload["error"]

    @pytest.mark.parametrize("text", REFUSED_SCENARIOS)
    def test_predict_refuses_with_400(self, live_server, text):
        base, service = live_server
        start = time.perf_counter()
        status, payload, _ = http_get(
            base + "/predict?scenario=" + quote(text, safe="")
        )
        assert status == 400 and payload["error"], payload
        assert time.perf_counter() - start < 5
        assert service.health()["inflight"] == 0

    def test_plan_refuses_an_oversized_fabric(self, live_server):
        base, _service = live_server
        status, payload, _ = http_get(
            base + "/plan?topology=torus-91x91&sizes=1M"
        )
        assert status == 400 and "8281 nodes" in payload["error"]

    @pytest.mark.parametrize("text, numbers, fingerprint", [
        ("torus-4x4/ring/1.5K",
         (4.710000000000002e-06, 326114649.6815285, 0.0), "d2c0925423ecf5b2"),
        ("torus-4x4/ring/1MiB@data_packet_payload_bytes=128",
         (0.00014273999999999995, 7346055765.7279, 0.0), "ce5a9c08ab5a6a84"),
    ])
    def test_valid_fraction_and_override_keep_their_numbers(
            self, live_server, text, numbers, fingerprint):
        base, service = live_server
        service.predict(Scenario.parse(text), block=True)
        status, payload, _ = http_get(
            base + "/predict?scenario=" + quote(text, safe="")
        )
        assert status == 200 and payload["fingerprint"] == fingerprint
        assert (payload["time"], payload["bandwidth"],
                payload["max_queue_delay"]) == numbers

    def test_predict_uncompilable_scenario_422(self, live_server):
        base, service = live_server
        url = base + "/predict?scenario=" + quote(
            "torus-4x4/hdrm/32KiB@lockstep", safe=""
        )
        assert http_get(url)[0] == 202
        assert service.drain(timeout_s=30)
        status, payload, _ = http_get(url)
        assert status == 422 and "BiGraph" in payload["error"]

    def test_unknown_endpoint_404(self, live_server):
        base, _service = live_server
        status, payload, _ = http_get(base + "/nope")
        assert status == 404 and "/predict" in payload["endpoints"]

    def test_plan_endpoint_warms_then_answers(self, live_server):
        base, service = live_server
        url = (
            base + "/plan?topology=torus-4x4&sizes=32K,128K"
            "&algorithms=ring,multitree"
        )
        status, payload, _ = http_get(url)
        assert status == 202 and payload["status"] == "warming"
        assert payload["missing"] == 4
        assert service.drain(timeout_s=60)
        status, payload, _ = http_get(url)
        assert status == 200
        assert payload["stats"]["simulated"] == 0
        assert payload["stats"]["cache_hits"] == 4
        assert len(payload["buckets"]) == 2

    def test_plan_unknown_param_400(self, live_server):
        base, _service = live_server
        status, payload, _ = http_get(base + "/plan?topology=torus-4x4&oops=1")
        assert status == 400 and "unknown plan parameter" in payload["error"]

    def test_metrics_exposition(self, live_server):
        base, _service = live_server
        http_get(base + "/healthz")
        # Request counters increment after the response is sent; poll
        # until the /healthz hit above is visible.
        deadline = time.monotonic() + 5
        while True:
            status, text, headers = http_get(base + "/metrics")
            if (
                '{endpoint="/healthz",status="200"}' in text
                or time.monotonic() > deadline
            ):
                break
            time.sleep(0.01)
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "repro_serve_requests_total" in text
        assert '{endpoint="/healthz",status="200"}' in text

    def test_every_request_is_one_http_request_span(self, live_server):
        base, service = live_server
        service.predict(Scenario.parse(self.WARM), block=True)
        with observing() as rec:
            http_get(base + "/predict?scenario=" + quote(self.WARM, safe=""))
            http_get(base + "/healthz")
            http_get(base + "/predict?scenario=torus-4x4%2Fring%2F1.5")
        requests = [r for r in rec.records
                    if r["kind"] == "span" and r["name"] == "http.request"]
        assert len(requests) == 3
        warm, health, refused = (r["attrs"] for r in requests)
        assert (warm["endpoint"], warm["status"]) == ("/predict", 200)
        assert (warm["scenario"], warm["source"]) == (self.WARM, "cache")
        assert health == {"endpoint": "/healthz", "status": 200}
        assert refused["status"] == 400 and "source" not in refused
        assert all(r["trace"] for r in requests)


class TestServeSignals:
    """``repro serve`` shuts down cleanly on SIGTERM and SIGINT, so the
    ``--obs`` stream holds one ``http.request`` span per served request."""

    REQUESTS = 21

    @staticmethod
    def _spawn(tmp_path, ignore_sigint):
        stream = tmp_path / "obs.jsonl"
        env = dict(os.environ, PYTHONPATH=SRC)
        # Background jobs of a non-interactive shell start with SIGINT
        # ignored; reproduce that in the child before it execs.
        preexec = (
            (lambda: signal.signal(signal.SIGINT, signal.SIG_IGN))
            if ignore_sigint else None
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "--obs", str(stream), "serve",
             "--port", "0", "--workers", "1",
             "--state-dir", str(tmp_path / "state")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, preexec_fn=preexec,
        )
        line = proc.stdout.readline()
        assert "listening on http://" in line, line
        address = line.split("http://", 1)[1].split()[0]
        return proc, "http://" + address, stream

    @pytest.mark.parametrize("signum, ignore_sigint", [
        (signal.SIGTERM, False),
        (signal.SIGINT, True),
    ], ids=["SIGTERM", "SIGINT-ignored-at-start"])
    def test_signal_flushes_every_request_span(
            self, tmp_path, signum, ignore_sigint):
        proc, base, stream = self._spawn(tmp_path, ignore_sigint)
        try:
            for _ in range(self.REQUESTS):
                assert http_get(base + "/healthz")[0] == 200
            proc.send_signal(signum)
            assert proc.wait(timeout=5) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        spans = [r for r in load_stream(str(stream))
                 if r["kind"] == "span" and r["name"] == "http.request"]
        assert len(spans) == self.REQUESTS


class TestReplay:
    def test_record_load_round_trip(self, tmp_path):
        scenarios = workload_trace(TOPOLOGY, SIZES, ALGOS)
        path = str(tmp_path / "trace.jsonl")
        written = record_trace(path, scenarios, repeat=2)
        assert written == 2 * len(scenarios)
        loaded = load_trace(path)
        assert loaded == list(scenarios) * 2

    def test_load_rejects_malformed_records(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"schema": 1, "scenario": "nope"}\n')
        with pytest.raises(ValueError, match="bad trace record"):
            load_trace(str(path))

    @pytest.mark.parametrize(
        "line", ['{"scenario": 5}', '{"schema": 1}', "[1]", "not json"]
    )
    def test_load_names_the_bad_line(self, tmp_path, line):
        path = tmp_path / "trace.jsonl"
        first = workload_trace(TOPOLOGY, SIZES, ALGOS)[0]
        path.write_text(json.dumps({"scenario": str(first)}) + "\n" + line + "\n")
        with pytest.raises(ValueError, match=r"trace\.jsonl:2: "):
            load_trace(str(path))

    def test_workload_trace_is_deterministic(self):
        a = workload_trace(TOPOLOGY, SIZES, ("ring", "multitree"))
        b = workload_trace(TOPOLOGY, SIZES, ("multitree", "ring"))
        assert a == b  # sorted algorithm order, not call order

    def test_in_process_replay_cold_then_warm(self, tmp_path):
        service = PredictionService(str(tmp_path / "state"), workers=0)
        try:
            scenarios = workload_trace(TOPOLOGY, SIZES, ALGOS)
            cold = replay(service, scenarios, block=True)
            assert cold.queries == len(scenarios)
            assert cold.hits == 0 and cold.misses == len(scenarios)
            warm = replay(service, scenarios)
            assert warm.hits == len(scenarios) and warm.errors == 0
            assert warm.hit_rate == 1.0
            assert warm.p50_s <= warm.p99_s
            payload = warm.to_dict()
            assert payload["qps"] > 0 and payload["hit_rate"] == 1.0
            assert "QPS" in warm.format()
        finally:
            service.close()

    def test_http_replay_counts_hits(self, live_server, tmp_path):
        base, service = live_server
        scenarios = workload_trace(TOPOLOGY, (32 * KiB,), ("ring",))
        replay(service, scenarios, block=True)  # prewarm
        stats = replay_http(base, scenarios * 3)
        assert stats.queries == 3
        assert stats.hits == 3 and stats.errors == 0
