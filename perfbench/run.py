"""Benchmark entry point: three workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-cold --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics over a ``--seconds`` window;
``--trace 1`` runs a fixed op count twice — untraced, then with every
layer entry point wrapped (see ``layers.py``) — and reports the
per-layer metrics plus ``trace.overhead_ratio``.  Both modes run the
untimed output check; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os
import sys
import time

_T0 = time.perf_counter()


def _process_age_s() -> float:
    """Seconds since this process started (kernel start time, 10 ms ticks)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rpartition(")")[2].split()
    start_ticks = int(fields[19])
    return (time.clock_gettime(time.CLOCK_BOOTTIME)
            - start_ticks / os.sysconf("SC_CLK_TCK"))


_AGE0 = _process_age_s()

import argparse  # noqa: E402
import http.client  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402
from urllib.parse import parse_qsl, urlsplit  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from layers import Tracer, layer_metrics, merge  # noqa: E402
from loadgen import run_open_loop  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")

#: One BLAS/OpenMP thread everywhere: the sweeps run on one thread, and a
#: thread pool sized by whatever the host offers is run-to-run noise.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

SETUP_REPEATS = 3
#: Ops whose predictions the default-seed digest covers.
DIGEST_SWEEP_OPS = 12
DIGEST_REQUESTS = 100
#: Event-engine oracle sample per run.
ORACLE_SWEEP_POINTS = 2
ORACLE_SERVE_POINTS = 3
#: Fixed work of a traced run, so its counts repeat exactly per seed.
TRACE_OPS = {"sweep-cold": 14, "sweep-warm": 28}
TRACE_REQUESTS = 200
#: Requests of the untraced serve-http session in a traced run: enough
#: for ten beyond ``loadgen.op_p99_ms``.
TAIL_REQUESTS = 1020
#: Offered serve-http load: 34 req/s keeps >= 1000 requests in a 30 s
#: window under the ~45 req/s that two keep-alive connections sustain
#: against the ~44 ms delayed-ACK stall.  Much lower rates let each
#: connection idle past the delayed-ACK timeout, and the stall vanishes.
SERVE_RATE = 34.0
SERVE_CONNECTIONS = 2
SERVER_START_TIMEOUT_S = 60.0


def percentile(values: List[float], q: int) -> float:
    """``q``-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mib(pid: str = "self") -> float:
    with open("/proc/%s/status" % pid) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/%s/status" % pid)


def median_setup(setup_once, teardown) -> Tuple[float, object]:
    """Run set-up ``SETUP_REPEATS`` times; keep the last, report the median."""
    times = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            teardown(state)
        start = time.perf_counter()
        state = setup_once()
        times.append(time.perf_counter() - start)
    return statistics.median(times), state


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


# -- sweeps ----------------------------------------------------------------


class SweepWorkload:
    """sweep-cold / sweep-warm: ``run_job`` series in this process."""

    def __init__(self, name: str, seed: int, workdir: str) -> None:
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.warm = name == "sweep-warm"

    def ops(self):
        return (workloads.warm_ops if self.warm else workloads.cold_ops)(self.seed)

    def setup_once(self):
        """Prewarm lazy imports; sweep-warm also compiles the universe."""
        from repro.scenario import Scenario
        from repro.sweep import ArtifactStore, SweepJob, run_job
        from repro.topology.specs import parse_topology_spec

        for engine in workloads.ENGINES:
            run_job(SweepJob("torus-2x2", "ring", (1024,), engine=engine))
        if not self.warm:
            return None
        store = ArtifactStore(tempfile.mkdtemp(prefix="artifacts-",
                                               dir=self.workdir))
        done = set()
        for pair in workloads.UNIVERSE:
            builder = Scenario(pair.topology, pair.algorithm, 1).resolve().builder
            if (pair.topology, builder) not in done:
                done.add((pair.topology, builder))
                store.get_or_compile(parse_topology_spec(pair.topology), builder)
        return store

    def teardown(self, store) -> None:
        if store is not None:
            shutil.rmtree(store.root, ignore_errors=True)

    def run_op(self, op, store):
        """``(seconds, points)``; ``points`` is ``None`` if the op raised."""
        from repro.sweep import run_job

        began = time.perf_counter()
        try:
            sweep = run_job(op.job(), cache=None, artifacts=store)
        except Exception as error:  # an op that raises is a failed op
            report(["%s: %r" % (op.key(), error)])
            return time.perf_counter() - began, None
        return time.perf_counter() - began, [
            (p.data_bytes, (p.time, p.bandwidth, p.max_queue_delay))
            for p in sweep.points]

    def run_ops(self, store, seconds: Optional[float] = None,
                count: Optional[int] = None):
        """``[(op, seconds, points)]`` for the first ``count`` ops, or for
        whole blocks of ops while one more block is projected to end
        within ``seconds`` (at least one block).

        Whole blocks run every pair equally often, so percentiles do not
        move with how far a partial block got.
        """
        block = len(workloads.UNIVERSE)
        runs = []
        start = time.perf_counter()
        for op in self.ops():
            if count is not None and len(runs) >= count:
                break
            if seconds is not None and runs and len(runs) % block == 0:
                blocks = len(runs) // block
                elapsed = time.perf_counter() - start
                if elapsed * (blocks + 1) / blocks > seconds:
                    break
            runs.append((op,) + self.run_op(op, store))
        return runs

    def check(self, records, store) -> Tuple[List[str], set]:
        """Mismatch messages and the op indices they fail."""
        bad_ops = set()
        messages = []
        if self.seed == checks.DEFAULT_SEED:
            prefix = list(records[:DIGEST_SWEEP_OPS])
            if len(prefix) < DIGEST_SWEEP_OPS:
                prefix = [(op, points) for op, _took, points
                          in self.run_ops(store, count=DIGEST_SWEEP_OPS)]
            rows = [[op.key(), points] for op, points in prefix]
            mismatch = checks.golden_mismatch(self.name, rows)
            if mismatch:
                messages += mismatch
                bad_ops.update(op.index for op, _p in prefix[:len(records)])
        points = [(op.topology, op.algorithm, size, values)
                  for op, pts in records if pts for size, values in pts]
        owner = {}
        for op, pts in records:
            for size, _values in pts or ():
                owner[(op.topology, op.algorithm, size)] = op.index
        for row, expected in checks.event_oracle_mismatches(
                points, self.seed, ORACLE_SWEEP_POINTS):
            messages.append("%r != event engine %r" % (row, expected))
            bad_ops.add(owner[row[:3]])
        return messages, bad_ops

    def measure(self, seconds: float, import_s: float) -> Dict[str, object]:
        setup_s, store = median_setup(self.setup_once, self.teardown)
        setup_s += import_s
        start = time.perf_counter()
        runs = self.run_ops(store, seconds=seconds)
        elapsed = time.perf_counter() - start
        rss = peak_rss_mib()
        records = [(op, points) for op, _took, points in runs]
        latencies = [took for _op, took, points in runs if points is not None]
        messages, bad_ops = self.check(records, store)
        self.teardown(store)
        report(messages)
        latencies_ms = [x * 1000.0 for x in latencies]
        return result(
            correct=not messages, attempted=len(records),
            failed=len(failed_indices(records) | bad_ops),
            metrics={
                "setup_s": metric(setup_s, "s"),
                "peak_rss_mib": metric(rss, "MiB"),
                "ops_per_s": metric(len(latencies) / elapsed, "1/s"),
                "op_p50_ms": metric(percentile(latencies_ms, 50), "ms"),
                "op_p90_ms": metric(percentile(latencies_ms, 90), "ms"),
            })

    def traced(self) -> Dict[str, object]:
        """Each op runs twice, untraced and traced, in alternating order,
        so ``trace.overhead_ratio`` compares paired runs of the same op."""
        tracer = Tracer().install()
        try:
            store = self.setup_once()
            records, seconds = [], {False: 0.0, True: 0.0}
            for op in itertools.islice(self.ops(), TRACE_OPS[self.name]):
                for traced_pass in ((False, True), (True, False))[op.index % 2]:
                    tracer.enabled = traced_pass
                    took, points = self.run_op(op, store)
                    seconds[traced_pass] += took
                records.append((op, points))
        finally:
            tracer.uninstall()
        messages, bad_ops = self.check(records, store)
        self.teardown(store)
        report(messages)
        rows = layer_metrics(tracer.snapshot())
        rows.update(serve_idle_rows())
        rows["trace.overhead_ratio"] = (seconds[False] / seconds[True], "ratio")
        return result(correct=not messages, attempted=len(records),
                      failed=len(failed_indices(records) | bad_ops),
                      metrics={k: metric(v, u) for k, (v, u) in rows.items()})


def failed_indices(records) -> set:
    return {op.index for op, points in records if points is None}


def serve_idle_rows() -> Dict[str, Tuple[float, str]]:
    """Serve-only per-layer rows, zero on a workload that serves nothing."""
    return {
        "serve.compiled": (0, "count"),
        "serve.handler_p50_ms": (0.0, "ms"),
        "serve.transport_p50_ms": (0.0, "ms"),
        "loadgen.late_p99_ms": (0.0, "ms"),
        "loadgen.op_p99_ms": (0.0, "ms"),
    }


# -- serve-http ------------------------------------------------------------


def _die_with_parent() -> None:
    """Child-side: SIGTERM the server if the benchmark process dies first."""
    import ctypes

    ctypes.CDLL(None).prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG


class Server:
    """One ``repro serve --workers 1`` subprocess on an ephemeral port."""

    def __init__(self, state_dir: str, stats_path: Optional[str]) -> None:
        cli = ["serve", "--workers", "1", "--state-dir", state_dir,
               "--port", "0"]
        if stats_path is None:
            command = [sys.executable, "-m", "repro"] + cli
        else:
            command = [sys.executable, os.path.join(HERE, "traced_serve.py"),
                       stats_path] + cli
        env = dict(os.environ, PYTHONPATH=SRC, **THREAD_ENV)
        self.stats_path = stats_path
        self.stderr = open(os.path.join(state_dir, "server.stderr"), "w")
        self.proc = subprocess.Popen(command, cwd=ROOT, env=env,
                                     stdout=subprocess.PIPE,
                                     stderr=self.stderr, text=True,
                                     preexec_fn=_die_with_parent)
        try:
            self.port = self._await_listening()
        except BaseException:
            self.stop()
            raise

    def _await_listening(self) -> int:
        """Block on the ``repro serve ... listening on`` stdout line."""
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("server did not report listening")
            ready, _w, _x = select.select([self.proc.stdout], [], [], remaining)
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("server exited before listening")
            if "listening on http://" in line:
                address = line.split("http://", 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])

    def get(self, target: str) -> bytes:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", target)
            return conn.getresponse().read()
        finally:
            conn.close()

    def stop(self) -> Optional[dict]:
        """SIGINT, wait, and return the traced server's layer snapshot."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()
        if self.stats_path and os.path.exists(self.stats_path):
            with open(self.stats_path) as fh:
                return json.load(fh)
        return None


def handler_p50_ms(exposition: str, endpoint: str = "/predict") -> float:
    """Median of the server's ``serve.request_time`` histogram.

    Buckets are powers of two; the median is interpolated geometrically
    inside the bucket that holds it.
    """
    buckets = []
    prefix = 'repro_serve_request_time_bucket{endpoint="%s",le="' % endpoint
    for line in exposition.splitlines():
        if line.startswith(prefix):
            bound = line[len(prefix):].split('"', 1)[0]
            if bound != "+Inf":
                buckets.append((float(bound), int(line.rsplit(" ", 1)[1])))
    buckets.sort()
    if not buckets:
        return 0.0
    target = buckets[-1][1] / 2.0
    below = 0
    for upper, cumulative in buckets:
        if cumulative >= target:
            share = (target - below) / (cumulative - below)
            return 1000.0 * (upper / 2.0) * 2.0 ** share
        below = cumulative
    return 1000.0 * buckets[-1][0]


class ServeWorkload:
    """serve-http: open-loop keep-alive traffic against ``repro serve``."""

    name = "serve-http"

    def __init__(self, name: str, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def prewarm(self, state_dir: str) -> None:
        """Plan every 16-node fabric into the state dir's cache/artifacts."""
        from repro.serve.planner import WorkloadSpec, plan
        from repro.serve.service import ARTIFACTS_DIRNAME, CACHE_FILENAME
        from repro.sweep import ArtifactStore, PredictionCache

        cache = PredictionCache(os.path.join(state_dir, CACHE_FILENAME))
        artifacts = ArtifactStore(os.path.join(state_dir, ARTIFACTS_DIRNAME))
        for topology in workloads.SERVE_FABRICS:
            query = urlsplit(workloads.plan_target(
                topology, workloads.SERVE_SIZES_TEXT)).query
            plan(WorkloadSpec.from_query(dict(parse_qsl(query))),
                 cache=cache, artifacts=artifacts)
        cache.save()

    def setup_once(self, stats_path: Optional[str] = None) -> Server:
        state_dir = tempfile.mkdtemp(prefix="state-", dir=self.workdir)
        self.prewarm(state_dir)
        return Server(state_dir, stats_path)

    def session(self, server: Server, count: int):
        """Offer the first ``count`` requests of the seeded trace."""
        requests = workloads.serve_requests(self.seed, count)
        return run_open_loop("127.0.0.1", server.port, requests, SERVE_RATE,
                             SERVE_CONNECTIONS)

    def loop_stats(self, replies) -> Dict[str, float]:
        ok = [r for r in replies if r.status in (200, 202)]
        end = max(r.done_s for r in replies)
        ops_per_s = len(ok) / end
        if ops_per_s < 0.97 * SERVE_RATE:
            sys.stderr.write("perfbench: backlog — achieved %.2f req/s of %.2f offered\n"
                             % (ops_per_s, SERVE_RATE))
        return {
            "ops_per_s": ops_per_s,
            "latencies_ms": [r.latency_s * 1000.0 for r in ok],
            "predict_ms": [r.latency_s * 1000.0 for r in ok
                           if r.status == 200 and r.request.kind != "plan"],
            "late_p99_ms": percentile([r.late_s * 1000.0 for r in replies], 99),
        }

    def check(self, replies) -> Tuple[List[str], set]:
        """Every 200 body against in-process predictions, plus the digest
        (default seed) and a seeded event-engine sample."""
        from repro.scenario import Scenario

        def point(text):
            scenario = Scenario.parse(text)
            return (scenario.topology, scenario.algorithm, scenario.data_bytes)

        def numbers(body):
            return (body["time"], body["bandwidth"], body["max_queue_delay"])

        messages, bad = [], set()
        parsed = {}
        wanted = set()
        for reply in replies:
            if reply.status not in (200, 202):
                bad.add(reply.request.index)
                messages.append("request %d %s: status %d %s" % (
                    reply.request.index, reply.request.target, reply.status,
                    reply.error or reply.body[:200]))
                continue
            body = json.loads(reply.body)
            parsed[reply.request.index] = body
            if reply.status != 200:
                continue
            if reply.request.kind == "plan":
                for bucket in body["buckets"]:
                    wanted.update(point(e["scenario"]) for e in bucket["frontier"])
            else:
                wanted.add(point(body["scenario"]))
        expected = checks.in_process_predictions(wanted)
        rows, points = [], []
        for reply in replies:
            body = parsed.get(reply.request.index)
            if body is None or reply.status != 200:
                continue
            if reply.request.kind == "plan":
                entries = [e for b in body["buckets"] for e in b["frontier"]]
            else:
                entries = [body]
                points.append(point(body["scenario"]) + (numbers(body),))
            row = [reply.request.target]
            for entry in entries:
                key = point(entry["scenario"])
                row.append([entry["scenario"], list(numbers(entry))])
                if numbers(entry) != expected[key]:
                    bad.add(reply.request.index)
                    messages.append("request %d: %s answered %r, in-process %r"
                                    % (reply.request.index, entry["scenario"],
                                       numbers(entry), expected[key]))
            if reply.request.kind in ("warm", "plan") and \
                    reply.request.index < DIGEST_REQUESTS:
                rows.append([reply.request.index] + row)
        if self.seed == checks.DEFAULT_SEED:
            messages += checks.golden_mismatch(self.name, rows)
        for row, expected in checks.event_oracle_mismatches(
                points, self.seed, ORACLE_SERVE_POINTS):
            messages.append("%r != event engine %r" % (row, expected))
        return messages, bad

    def measure(self, seconds: float, import_s: float) -> Dict[str, object]:
        setup_s, server = median_setup(self.setup_once, Server.stop)
        setup_s += import_s
        try:
            replies = self.session(server, int(round(SERVE_RATE * seconds)))
            rss = peak_rss_mib(str(server.proc.pid))
        finally:
            server.stop()
        stats = self.loop_stats(replies)
        messages, bad = self.check(replies)
        report(messages)
        lat = stats["latencies_ms"]
        return result(
            correct=not messages, attempted=len(replies), failed=len(bad),
            metrics={
                "setup_s": metric(setup_s, "s"),
                "peak_rss_mib": metric(rss, "MiB"),
                "ops_per_s": metric(stats["ops_per_s"], "1/s"),
                "op_p50_ms": metric(percentile(lat, 50), "ms"),
                "op_p90_ms": metric(percentile(lat, 90), "ms"),
            })

    def traced(self) -> Dict[str, object]:
        server = self.setup_once()
        try:
            plain = self.session(server, TAIL_REQUESTS)
            exposition = server.get("/metrics").decode()
        finally:
            server.stop()
        plain_stats = self.loop_stats(plain)
        tracer = Tracer().install()
        stats_path = os.path.join(self.workdir, "server-trace.json")
        try:
            server = self.setup_once(stats_path)
            try:
                replies = self.session(server, TRACE_REQUESTS)
                compiled = server.get("/metrics").decode()
            finally:
                server_snapshot = server.stop()
        finally:
            tracer.uninstall()
        if server_snapshot is None:
            raise RuntimeError("traced server wrote no layer snapshot")
        stats = self.loop_stats(replies)
        messages, bad = self.check(replies)
        report(messages)
        rows = layer_metrics(merge([tracer.snapshot(), server_snapshot]))
        handler = handler_p50_ms(exposition)
        rows.update({
            "serve.compiled": (prometheus_value(compiled, "repro_serve_compiled_total"),
                               "count"),
            "serve.handler_p50_ms": (handler, "ms"),
            "serve.transport_p50_ms": (
                percentile(plain_stats["predict_ms"], 50) - handler, "ms"),
            "loadgen.late_p99_ms": (plain_stats["late_p99_ms"], "ms"),
            "loadgen.op_p99_ms": (percentile(plain_stats["latencies_ms"], 99), "ms"),
            "trace.overhead_ratio": (
                stats["ops_per_s"] / plain_stats["ops_per_s"], "ratio"),
        })
        return result(correct=not messages, attempted=len(replies),
                      failed=len(bad),
                      metrics={k: metric(v, u) for k, (v, u) in rows.items()})


def prometheus_value(exposition: str, name: str) -> float:
    for line in exposition.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    return 0.0


# -- entry point ---------------------------------------------------------


WORKLOADS = {
    "sweep-cold": SweepWorkload,
    "sweep-warm": SweepWorkload,
    "serve-http": ServeWorkload,
}


def report(messages: List[str]) -> None:
    for line in messages[:20]:
        sys.stderr.write("perfbench: %s\n" % line)


def result(correct: bool, attempted: int, failed: int,
           metrics: Dict[str, object]) -> Dict[str, object]:
    return {"correct": bool(correct), "attempted": int(attempted),
            "failed": int(failed), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write("perfbench: no program source at %s\n" % SRC)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, SRC)
    import repro.serve.service  # noqa: F401  (imports count in setup_s)
    import repro.sweep  # noqa: F401

    import_s = _AGE0 + (time.perf_counter() - _T0)
    os.makedirs(TMP_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
    try:
        workload = WORKLOADS[args.workload](args.workload, args.seed, workdir)
        if args.trace:
            outcome = workload.traced()
        else:
            outcome = workload.measure(args.seconds, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
