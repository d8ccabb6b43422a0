"""The high-QPS prediction service behind ``repro serve``.

Two layers, separable for testing and replay benchmarking:

* :class:`PredictionService` — the application object.  It owns the
  persistent :class:`~repro.sweep.cache.PredictionCache`, the compiled
  :class:`~repro.sweep.artifacts.ArtifactStore`, a *bounded* background
  worker pool for cache warming and a metrics registry.  Warm queries
  are one dictionary probe; a miss enqueues a one-point
  :func:`~repro.sweep.run_job` (artifact build + lockstep run, as sweeps
  and plans run it) and reports ``warming`` so the caller retries
  instead of blocking a request thread on a simulation.
* :class:`ServiceHandler` + :func:`make_server` — the stdlib
  ``http.server`` front end (``ThreadingHTTPServer``: one thread per
  connection, which the warm path's dictionary-probe cost easily
  sustains at high QPS).  Endpoints::

      GET /predict?scenario=<canonical scenario string>
      GET /plan?topology=...&sizes=...[&algorithms=...][&flow_control=...]
      GET /healthz
      GET /metrics          (Prometheus text exposition)

  ``/predict`` answers 200 from the warm cache, 202 + ``Retry-After``
  while warming, 503 + ``Retry-After`` when the compile queue is full,
  400 on a malformed scenario or a fabric above
  :data:`MAX_SERVED_NODES`.  ``/plan`` answers 200 when every candidate
  is warm, else enqueues the gaps and answers 202 with the remaining-miss
  count (400 above :data:`MAX_SERVED_NODES` too).

Requests, predictions and warm-ups each run in one obs span; while a
:func:`make_server` server is open those records fold into the service
registry that ``/metrics`` renders.  The ``http.request`` span is the
request record: endpoint, status, scenario (or plan) and answer source,
streamed under ``repro --obs PATH serve``.
"""

from __future__ import annotations

import hashlib
import json
import os
import queue
import threading
import time
from contextlib import ExitStack
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from .. import obs
from ..metrics.export import to_prometheus
from ..metrics.manifest import repro_version
from ..metrics.registry import MetricsRegistry, collecting
from ..scenario import Scenario
from ..sweep import ArtifactStore, PredictionCache, SweepJob, run_job
from ..topology.specs import spec_node_count
from .planner import WorkloadSpec, plan

#: Default state-directory file names, shared with the CLI.
CACHE_FILENAME = "cache.jsonl"
ARTIFACTS_DIRNAME = "artifacts"

#: The largest fabric a request may name, in nodes: the ``scaleout_xl``
#: bench tier's 8192, the largest the repo runs.  Merely keying a larger
#: one builds it on the request thread, for seconds, holding the GIL.
MAX_SERVED_NODES = 8192

class PredictionService:
    """Warm-cache prediction store with bounded background compilation.

    ``workers=0`` disables the pool — misses then only report
    ``warming`` is impossible, so synchronous callers use
    ``predict(..., block=True)`` (the planner warm-up and the replay
    bench's cold path do exactly that).
    """

    def __init__(
        self,
        state_dir: str,
        workers: int = 2,
        queue_size: int = 64,
        retry_after_s: float = 2.0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.state_dir = state_dir
        os.makedirs(state_dir, exist_ok=True)
        self.cache = PredictionCache(os.path.join(state_dir, CACHE_FILENAME))
        self.artifacts = ArtifactStore(os.path.join(state_dir, ARTIFACTS_DIRNAME))
        self.registry = registry if registry is not None else MetricsRegistry()
        self.retry_after_s = retry_after_s
        self.started_at = time.time()
        # Entries are ``(scenario, obs carrier)`` pairs — the carrier
        # links the worker's warm-up spans back to the enqueuing request's
        # trace; ``None`` (the bare item, not a pair) stays the shutdown
        # sentinel.
        self._queue: "queue.Queue[Optional[Tuple[Scenario, Optional[Dict[str, str]]]]]" = (
            queue.Queue(maxsize=max(1, queue_size))
        )
        self._inflight: set = set()       # cache keys queued or computing
        self._failed: Dict[str, str] = {}  # cache key -> compile error
        # Canonical scenario string -> (cache key, fingerprint).  Computing
        # a cache key builds the topology to digest its structure — far too
        # slow for the warm path, and the canonical string already pins the
        # identity, so the mapping is memoized per service.
        self._identity: Dict[str, Tuple[str, str]] = {}
        self._lock = threading.Lock()
        self._closed = False
        self._workers: List[threading.Thread] = []
        for index in range(max(0, workers)):
            thread = threading.Thread(
                target=self._worker_loop, name="serve-worker-%d" % index,
                daemon=True,
            )
            thread.start()
            self._workers.append(thread)

    # -- prediction core ---------------------------------------------------

    def identity(self, scenario: Scenario) -> Tuple[str, str]:
        """Memoized ``(cache key, fingerprint)`` for ``scenario``."""
        text = str(scenario)
        pair = self._identity.get(text)
        if pair is None:
            key = scenario.cache_key()
            fingerprint = hashlib.sha256(key.encode()).hexdigest()[:16]
            pair = (key, fingerprint)
            self._identity[text] = pair  # atomic; benign if raced
        return pair

    def _compute(self, scenario: Scenario) -> Dict[str, float]:
        """Simulate one point through :func:`~repro.sweep.run_job` and
        append it to the cache journal."""
        with obs.span(
            "serve.compute",
            scenario=str(scenario),
            fingerprint=self.identity(scenario)[1],
        ):
            point = run_job(
                SweepJob.from_scenarios([scenario]), self.cache,
                self.artifacts,
            ).points[0]
            with obs.span("cache.save", entries=len(self.cache)):
                self.cache.save()
            return {
                "time": point.time,
                "bandwidth": point.bandwidth,
                "max_queue_delay": point.max_queue_delay,
            }

    def predict(
        self, scenario: Scenario, block: bool = False
    ) -> Tuple[Optional[Dict[str, float]], str]:
        """One prediction probe: ``(entry, source)``.

        ``source`` is ``"cache"`` on a warm hit.  On a miss: with
        ``block=True`` the point is simulated synchronously (source
        ``"simulated"``); otherwise it is handed to the worker pool and
        the entry is ``None`` with source ``"warming"`` (already queued
        or computing), ``"enqueued"`` (freshly queued) or
        ``"overloaded"`` (bounded queue full — retry later).
        """
        key, fingerprint = self.identity(scenario)
        with obs.span(
            "serve.predict", scenario=str(scenario), fingerprint=fingerprint
        ) as predict_span:
            entry, source = self._predict_inner(scenario, key, block)
            predict_span.set("source", source)
            return entry, source

    def _predict_inner(
        self, scenario: Scenario, key: str, block: bool
    ) -> Tuple[Optional[Dict[str, float]], str]:
        entry = self.cache.get(key)
        if entry is not None:
            return entry, "cache"
        with self._lock:
            failure = self._failed.get(key)
        if failure is not None:
            return None, "failed"
        if block:
            with self._lock:
                self._inflight.add(key)
            try:
                entry = self._compute(scenario)
            finally:
                with self._lock:
                    self._inflight.discard(key)
            return entry, "simulated"
        return None, self._enqueue(scenario, key)

    def warm(self, scenario: Scenario, key: Optional[str] = None) -> str:
        """Queue background compilation of ``scenario``; returns the
        enqueue outcome (``warming``/``enqueued``/``overloaded``)."""
        return self._enqueue(
            scenario, key if key is not None else self.identity(scenario)[0]
        )

    def _enqueue(self, scenario: Scenario, key: str) -> str:
        with self._lock:
            if key in self._inflight:
                return "warming"
            self._inflight.add(key)
        outcome = "enqueued"
        try:
            self._queue.put_nowait((scenario, obs.current_carrier()))
        except queue.Full:
            with self._lock:
                self._inflight.discard(key)
            outcome = "overloaded"
        obs.event("serve.enqueue", scenario=str(scenario), outcome=outcome)
        return outcome

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:  # shutdown sentinel
                self._queue.task_done()
                return
            self._process_warm(item)

    def _process_warm(self, item) -> None:
        scenario, carrier = item
        key, fingerprint = self.identity(scenario)
        try:
            # The carrier links this warm-up back to the request that
            # enqueued it: the worker's spans join that trace even
            # though the request thread answered 202 long ago.
            with obs.attached(carrier):
                with obs.span(
                    "serve.warm",
                    scenario=str(scenario),
                    fingerprint=fingerprint,
                ):
                    self._compute(scenario)
        except Exception as error:
            # A bad-but-parseable scenario (e.g. a variant the
            # topology cannot run) must not kill the worker; the key
            # is remembered as failed so /predict and /plan answer
            # deterministically instead of re-warming forever.
            with self._lock:
                self._failed[key] = str(error)
        finally:
            with self._lock:
                self._inflight.discard(key)
            self._queue.task_done()

    def failure_reason(self, key: str) -> Optional[str]:
        """The recorded compile error for ``key``, if warming it failed."""
        with self._lock:
            return self._failed.get(key)

    # -- introspection -----------------------------------------------------

    def health(self) -> Dict[str, object]:
        with self._lock:
            inflight = len(self._inflight)
        return {
            "status": "ok",
            "version": repro_version(),
            "uptime_s": time.time() - self.started_at,
            "cache_entries": len(self.cache),
            "queue_depth": self._queue.qsize(),
            "inflight": inflight,
            "workers": len(self._workers),
        }

    def drain(self, timeout_s: float = 30.0) -> bool:
        """Wait until the compile queue is empty (tests, clean shutdown)."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with self._lock:
                idle = not self._inflight
            if idle and self._queue.qsize() == 0:
                return True
            time.sleep(0.01)
        return False

    def close(self) -> None:
        """Stop workers and persist the cache; idempotent."""
        if self._closed:
            return
        self._closed = True
        for _ in self._workers:
            self._queue.put(None)
        for thread in self._workers:
            thread.join(timeout=5.0)
        self.cache.save()


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes GET requests onto the owning server's ``service``."""

    server_version = "repro-serve/" + repro_version()
    protocol_version = "HTTP/1.1"
    # A response leaves in two writes (headers, then body).  With Nagle's
    # algorithm the body waits for the ACK of the headers, which a
    # keep-alive client delays by up to 40 ms: set TCP_NODELAY.
    disable_nagle_algorithm = True

    # BaseHTTPRequestHandler logs to stderr per request; at high QPS that
    # is the bottleneck, and the http.request span records every request.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    @property
    def service(self) -> PredictionService:
        return self.server.service  # type: ignore[attr-defined]

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        split = urlsplit(self.path)
        params = dict(parse_qsl(split.query, keep_blank_values=True))
        endpoint = split.path.rstrip("/") or "/"
        # The root span of one unit of served work: everything the request
        # triggers — planner, prediction, queued warm-ups in the worker
        # pool — joins this trace.
        with obs.span("http.request", endpoint=endpoint) as request_span:
            trace_id = request_span.trace_id
            try:
                if endpoint == "/healthz":
                    status, payload = 200, self.service.health()
                elif endpoint == "/metrics":
                    status, payload = 200, None  # rendered below, not JSON
                elif endpoint == "/predict":
                    status, payload = self._predict(params, request_span)
                elif endpoint == "/plan":
                    status, payload = self._plan(params, request_span)
                else:
                    status, payload = 404, {
                        "error": "unknown endpoint %s" % endpoint,
                        "endpoints": [
                            "/predict", "/plan", "/healthz", "/metrics"
                        ],
                    }
            except ValueError as error:
                status, payload = 400, {"error": str(error)}
            except Exception as error:  # pragma: no cover - defensive
                status, payload = 500, {"error": str(error)}
            if endpoint == "/metrics" and status == 200:
                # Rendered before this request's own record folds in.
                body = to_prometheus(self.service.registry).encode()
            request_span.set("status", status)
        if endpoint == "/metrics" and status == 200:
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = (json.dumps(payload, sort_keys=True) + "\n").encode()
            content_type = "application/json"
        retry_after = (
            payload.get("retry_after_s") if isinstance(payload, dict) else None
        )
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", "%d" % max(1, round(retry_after)))
        if trace_id is not None:
            self.send_header("X-Trace-Id", trace_id)
        self.end_headers()
        self.wfile.write(body)

    # -- endpoints ---------------------------------------------------------

    def _predict(
        self, params: Dict[str, str], request_span
    ) -> Tuple[int, Dict[str, object]]:
        text = params.get("scenario")
        if not text:
            raise ValueError(
                "predict needs scenario=<canonical scenario string>"
            )
        scenario = Scenario.parse(text)  # ValueError -> 400
        request_span.set("scenario", str(scenario))
        _check_served_size(scenario.topology)
        entry, source = self.service.predict(scenario)
        key, fingerprint = self.service.identity(scenario)
        request_span.set("source", source)
        if entry is not None:
            payload: Dict[str, object] = {
                "scenario": str(scenario),
                "fingerprint": fingerprint,
                "source": source,
            }
            payload.update(entry)
            return 200, payload
        if source == "failed":
            return 422, {
                "scenario": str(scenario),
                "error": self.service.failure_reason(key)
                or "scenario cannot be compiled",
            }
        status = 503 if source == "overloaded" else 202
        return status, {
            "scenario": str(scenario),
            "fingerprint": fingerprint,
            "status": source,
            "retry_after_s": self.service.retry_after_s,
        }

    def _plan(
        self, params: Dict[str, str], request_span
    ) -> Tuple[int, Dict[str, object]]:
        spec = WorkloadSpec.from_query(params)  # ValueError -> 400
        request_span.set(
            "plan", "%s sizes=%d" % (spec.topology, len(spec.sizes))
        )
        _check_served_size(spec.topology)
        # Serve plans from the warm cache only: a request thread never
        # simulates.  Candidates still cold are enqueued for the pool.
        missing = 0
        for scenario in spec.candidates():
            try:
                key, _fingerprint = self.service.identity(scenario)
            except Exception:
                continue  # unresolvable candidate; plan() records it
            if (
                key not in self.service.cache
                and self.service.failure_reason(key) is None
            ):
                missing += 1
                self.service.warm(scenario, key)
        if missing:
            request_span.set("source", "warming")
            return 202, {
                "status": "warming",
                "missing": missing,
                "retry_after_s": self.service.retry_after_s,
            }
        result = plan(
            spec, cache=self.service.cache, artifacts=self.service.artifacts
        )
        request_span.set("source", "cache")
        return 200, result.to_dict()


def _check_served_size(topology: str) -> None:
    """Refuse, before anything is built, a fabric above the served size."""
    nodes = spec_node_count(topology)
    if nodes > MAX_SERVED_NODES:
        raise ValueError(
            "topology %s has %d nodes; repro serve answers fabrics of at "
            "most %d nodes" % (topology, nodes, MAX_SERVED_NODES)
        )


class ServiceServer(ThreadingHTTPServer):
    """The HTTP server of one :class:`PredictionService`: until
    :meth:`server_close`, the service registry collects every obs record
    the process finishes (:func:`repro.metrics.collecting`)."""

    daemon_threads = True

    def __init__(self, service: PredictionService, address) -> None:
        super().__init__(address, ServiceHandler)
        self.service = service
        self._telemetry = ExitStack()
        self._telemetry.enter_context(collecting(service.registry))

    def server_close(self) -> None:
        super().server_close()
        self._telemetry.close()


def make_server(
    service: PredictionService, host: str = "127.0.0.1", port: int = 0
) -> ServiceServer:
    """Bind the HTTP front end; ``port=0`` picks an ephemeral port.

    The caller runs ``serve_forever()`` (usually on its own thread) and
    owns shutdown: ``server.shutdown()``, ``server.server_close()``, then
    ``service.close()``.
    """
    return ServiceServer(service, (host, port))
