"""Request-trace recording and replay for the prediction service.

The load path this measures is the ROADMAP's "millions of users"
scenario: a stream of ``/predict`` queries against a
:class:`~repro.serve.service.PredictionService`.  A *trace* is a JSONL
file of queries (one canonical scenario string per record) recorded by
:func:`record_trace`; :func:`replay` drives it against an in-process
service (the apples-to-apples mode ``bench_serve`` times, no socket
noise), and :func:`replay_http` drives it against a live server over
HTTP (what the CI smoke job does), both returning the same
:class:`ReplayStats` — total QPS, hit/miss split, and p50/p99 per-query
latency.
"""

from __future__ import annotations

import json
import os
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence
from urllib.parse import quote

from ..obs import read_jsonl
from ..scenario import Scenario
from .service import PredictionService

#: Trace record layout version.
TRACE_SCHEMA_VERSION = 1


def record_trace(
    path: str, scenarios: Sequence[Scenario], repeat: int = 1
) -> int:
    """Write a query trace: ``repeat`` passes over ``scenarios``.

    Returns the number of records written.  Records are plain JSONL so a
    trace can also be assembled by hand or cut from a service request
    log with standard tools.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    written = 0
    with open(path, "w") as fh:
        for _ in range(max(1, repeat)):
            for scenario in scenarios:
                fh.write(
                    json.dumps(
                        {
                            "schema": TRACE_SCHEMA_VERSION,
                            "scenario": str(scenario),
                        }
                    )
                    + "\n"
                )
                written += 1
    return written


def load_trace(path: str) -> List[Scenario]:
    """Parse a trace back to scenarios, in file order.

    Malformed lines raise — a benchmark or a smoke gate must not
    silently measure a shorter trace than the one recorded.
    """
    scenarios: List[Scenario] = []
    for number, record in read_jsonl(path):
        try:
            if record is None:
                raise ValueError("not a JSON object")
            scenarios.append(Scenario.parse(record.get("scenario")))
        except ValueError as error:
            raise ValueError(
                "bad trace record at %s:%d: %s" % (path, number, error)
            )
    return scenarios


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


@dataclass
class ReplayStats:
    """One replay run's outcome, identical for in-process and HTTP modes."""

    queries: int = 0
    hits: int = 0
    misses: int = 0
    errors: int = 0
    wall_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)

    @property
    def qps(self) -> float:
        return self.queries / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.queries if self.queries else 0.0

    @property
    def p50_s(self) -> float:
        return percentile(sorted(self.latencies_s), 0.50)

    @property
    def p99_s(self) -> float:
        return percentile(sorted(self.latencies_s), 0.99)

    def to_dict(self) -> Dict[str, object]:
        return {
            "queries": self.queries,
            "hits": self.hits,
            "misses": self.misses,
            "errors": self.errors,
            "wall_s": self.wall_s,
            "qps": self.qps,
            "hit_rate": self.hit_rate,
            "p50_s": self.p50_s,
            "p99_s": self.p99_s,
        }

    def format(self) -> str:
        return (
            "%d queries in %.3fs: %.0f QPS, %.0f%% hits "
            "(%d hits / %d misses / %d errors), p50 %.3f ms, p99 %.3f ms"
            % (
                self.queries, self.wall_s, self.qps, 100 * self.hit_rate,
                self.hits, self.misses, self.errors,
                self.p50_s * 1e3, self.p99_s * 1e3,
            )
        )


def replay(
    service: PredictionService,
    scenarios: Sequence[Scenario],
    block: bool = False,
) -> ReplayStats:
    """Drive the trace against an in-process service, one query at a time.

    ``block=False`` is the serving discipline (misses enqueue and count
    as misses); ``block=True`` is the cold-path discipline (each miss
    simulates synchronously — what a cacheless server would pay per
    query), which is what ``bench_serve`` uses for its reference side.
    """
    stats = ReplayStats()
    start = time.perf_counter()
    for scenario in scenarios:
        t0 = time.perf_counter()
        try:
            entry, source = service.predict(scenario, block=block)
        except Exception:
            stats.errors += 1
            stats.latencies_s.append(time.perf_counter() - t0)
            continue
        stats.latencies_s.append(time.perf_counter() - t0)
        if source == "cache":
            stats.hits += 1
        elif entry is not None:
            stats.misses += 1  # simulated synchronously: still a miss
        elif source == "failed":
            stats.errors += 1
        else:
            stats.misses += 1
    stats.queries = len(scenarios)
    stats.wall_s = time.perf_counter() - start
    return stats


def replay_http(
    url: str,
    scenarios: Sequence[Scenario],
    timeout_s: float = 10.0,
) -> ReplayStats:
    """Drive the trace against a live server's ``/predict`` over HTTP.

    A 200 whose body says ``source: cache`` counts as a hit, a 202/503
    as a miss, anything else as an error.  ``url`` is the server base
    (``http://127.0.0.1:8177``).
    """
    base = url.rstrip("/")
    stats = ReplayStats()
    start = time.perf_counter()
    for scenario in scenarios:
        query = "%s/predict?scenario=%s" % (base, quote(str(scenario), safe=""))
        t0 = time.perf_counter()
        try:
            with urllib.request.urlopen(query, timeout=timeout_s) as response:
                payload = json.loads(response.read().decode())
                status = response.status
        except urllib.error.HTTPError as error:
            payload = {}
            status = error.code
            error.read()
        except (OSError, ValueError):
            stats.errors += 1
            stats.latencies_s.append(time.perf_counter() - t0)
            continue
        stats.latencies_s.append(time.perf_counter() - t0)
        if status == 200 and payload.get("source") == "cache":
            stats.hits += 1
        elif status in (200, 202, 503):
            stats.misses += 1
        else:
            stats.errors += 1
    stats.queries = len(scenarios)
    stats.wall_s = time.perf_counter() - start
    return stats


def workload_trace(
    topology: str,
    sizes: Sequence[int],
    algorithms: Sequence[str],
    engine: str = "lockstep-vec",
    flow_control: Optional[str] = None,
) -> List[Scenario]:
    """The canonical query list for a workload: one scenario per
    (algorithm, size), in deterministic (sorted algorithm, size) order —
    shared by ``repro replay --record`` and ``bench_serve`` so traces
    are reproducible from their parameters."""
    return [
        Scenario(
            topology=topology,
            algorithm=algorithm,
            data_bytes=size,
            flow_control=flow_control,
            engine=engine,
        )
        for algorithm in sorted(algorithms)
        for size in sizes
    ]
