"""Metric output pinned to recorded goldens.

Every metric key and every value that does not depend on wall-clock time
is compared ``==`` against ``tests/data/metric_goldens.json`` for a fixed
set of workloads: a serial sweep over two fabrics, two algorithms and
the ``event``/``lockstep`` engines, a ``lockstep-vec`` series, one
``plan``, and a ``/metrics`` scrape of an in-process server.  Wall-clock
histograms compare by key and observation count only.

Regenerate (only when metric output changes on purpose, and say why in
the change log)::

    PYTHONPATH=src python tests/test_metric_goldens.py --write
"""

import json
import os
import sys
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import quote

from repro.metrics import MetricsRegistry, collecting
from repro.scenario import Scenario
from repro.serve import PredictionService, make_server
from repro.serve.planner import WorkloadSpec, plan
from repro.sweep import SweepJob, run_sweep

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "metric_goldens.json")

KiB = 1024
SIZES = (32 * KiB, 1024 * KiB)

#: Histograms observing elapsed wall time: compared by count only.
WALL_CLOCK = (
    "plan.wall_time",
    "schedule.build_time",
    "serve.compile_time",
    "serve.request_time",
    "sweep.job_time",
)
_WALL_CLOCK_PROM = tuple("repro_" + name.replace(".", "_")
                         for name in WALL_CLOCK)

WARM = "torus-4x4/ring/64KiB@lockstep"
PLAN_QUERY = ("/plan?topology=torus-4x4&sizes=64KiB&algorithms=ring,multitree"
              "&engine=lockstep")


def normalized(registry):
    """A registry snapshot with wall-clock histograms cut to their count."""
    snap = registry.snapshot()
    histograms = {}
    for key, payload in snap["histograms"].items():
        if key.partition("|")[0] in WALL_CLOCK:
            payload = {"count": payload["count"]}
        histograms[key] = payload
    snap["histograms"] = histograms
    return json.loads(json.dumps(snap))


def normalized_exposition(text):
    """Prometheus series -> value, wall-clock families by count only."""
    series = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _sep, value = line.rpartition(" ")
        if name.startswith(_WALL_CLOCK_PROM) and "_count" not in name:
            continue
        series[name] = value
    return series


def sweep_metrics():
    jobs = [
        SweepJob(topology, algorithm, SIZES, engine=engine)
        for topology in ("torus-4x4", "fattree-4x4")
        for algorithm in ("ring", "multitree")
        for engine in ("event", "lockstep")
    ]
    with collecting() as registry:
        run_sweep(jobs)
    return normalized(registry)


def vec_metrics():
    with collecting() as registry:
        run_sweep([SweepJob("torus-8x8", "ring", SIZES,
                            engine="lockstep-vec")])
    return normalized(registry)


def plan_metrics():
    spec = WorkloadSpec(topology="torus-4x4", sizes=SIZES,
                        algorithms=("ring", "multitree"), engine="lockstep")
    with collecting() as registry:
        plan(spec)
    return normalized(registry)


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=60) as response:
            return response.status, response.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode()


def scrape(state_dir):
    """``/metrics`` text after fixed /predict, /plan and /healthz hits."""
    registry = MetricsRegistry()
    with collecting(registry):
        service = PredictionService(state_dir, workers=1, registry=registry)
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = "http://127.0.0.1:%d" % server.server_address[1]
        try:
            service.predict(Scenario.parse(WARM), block=True)
            statuses = [
                _get(base + "/predict?scenario=" + quote(WARM, safe=""))[0],
                _get(base + PLAN_QUERY)[0],
            ]
            assert service.drain(timeout_s=60)
            statuses.append(_get(base + PLAN_QUERY)[0])
            statuses.append(_get(base + "/healthz")[0])
            assert statuses == [200, 202, 200, 200], statuses
            # Every answered request must be counted before the scrape.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                served = sum(
                    value for key, value in registry.counters.items()
                    if key.startswith("serve.requests|")
                )
                if served >= len(statuses):
                    break
                time.sleep(0.01)
            status, text = _get(base + "/metrics")
            assert status == 200
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            service.close()
    return text


def collect_all(state_dir):
    return {
        "sweep": sweep_metrics(),
        "vec": vec_metrics(),
        "plan": plan_metrics(),
        "scrape": normalized_exposition(scrape(state_dir)),
    }


def _golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def _assert_snapshot_equal(got, want):
    for part in ("counters", "gauges", "histograms"):
        assert sorted(got[part]) == sorted(want[part]), part
        for key in want[part]:
            assert got[part][key] == want[part][key], (part, key)


class TestMetricGoldens:
    def test_serial_sweep_event_and_lockstep(self):
        _assert_snapshot_equal(sweep_metrics(), _golden()["sweep"])

    def test_lockstep_vec_series(self):
        _assert_snapshot_equal(vec_metrics(), _golden()["vec"])

    def test_plan(self):
        _assert_snapshot_equal(plan_metrics(), _golden()["plan"])

    def test_metrics_scrape(self, tmp_path):
        text = scrape(str(tmp_path / "state"))
        got = normalized_exposition(text)
        want = _golden()["scrape"]
        assert sorted(got) == sorted(want)
        for key in want:
            assert got[key] == want[key], key
        # The two series the serve benchmark parses.
        assert 'repro_serve_compiled_total' in got
        assert 'repro_serve_request_time_bucket{endpoint="/predict",le="' \
            in text


if __name__ == "__main__":  # pragma: no cover - golden regeneration
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_metric_goldens.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        data = collect_all(os.path.join(tmp, "state"))
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % GOLDEN_PATH)
